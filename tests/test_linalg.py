"""Elimination engines, matrix queries, and the fixture text format."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqmatroid.errors import InvalidParam
from fqmatroid.fqlinalg import (
    FqMatrix,
    RrefState,
    draw_native_column,
    engine_name,
    format_matrix_text,
    make_field,
    native_to_tuple,
    pack_gf2,
    parse_matrix_text,
    random_uniform_matrix,
    unpack_gf2,
)
from conftest import all_matrices, brute_rank, random_cols


# ---- rank against an independent oracle -----------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_incremental_rank_matches_brute_force_random(q):
    F = make_field(q)
    rng = np.random.default_rng(2024)
    for _ in range(350):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        cols = random_cols(q, n, m, rng)
        mat = FqMatrix(F, cols, n=n)
        assert mat.rank == brute_rank(F, cols)


def test_incremental_rank_matches_brute_force_exhaustive_f2():
    F = make_field(2)
    for n in (1, 2):
        for m in (1, 2, 3):
            for cols in all_matrices(2, n, m):
                assert FqMatrix(F, cols, n=n).rank == brute_rank(F, cols)


@pytest.mark.parametrize("q,n", [(3, 2), (4, 2), (5, 1)])
def test_engines_agree(q, n):
    # the generic table engine is the reference; prime/gf2 must match it
    F = make_field(q)
    rng = np.random.default_rng(5)
    for _ in range(120):
        m = int(rng.integers(1, 9))
        cols = random_cols(q, n, m, rng)
        ranks = set()
        for eng in ("generic", "prime") if F.e == 1 else ("generic",):
            st_ = RrefState(F, n, engine=eng)
            for c in cols:
                st_.push(c)
            ranks.add(st_.rank)
        assert len(ranks) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 65521])
@pytest.mark.parametrize("n", [24, 40, 100])
def test_prime_and_generic_kernel_vectors_agree(p, n):
    # m = n + 20 columns, every fourth a combination of two earlier ones, so
    # many pushes are dependent and the prime rank-one update runs with both
    # fewer and more than p hit rows
    F = make_field(p)
    rng = np.random.default_rng(p + n)
    cols = []
    for j in range(n + 20):
        if j > 3 and j % 4 == 0:
            a, b = rng.choice(j, size=2, replace=False)
            cols.append(tuple((x + 2 * y) % p for x, y in zip(cols[a], cols[b])))
        else:
            cols.append(tuple(int(x) for x in rng.integers(0, p, size=n)))
    prime = RrefState(F, n, engine="prime")
    generic = RrefState(F, n, engine="generic")
    deps = [(prime.push(c), generic.push(c)) for c in cols]
    assert all(a == b for a, b in deps)
    assert sum(a is not None for a, _ in deps) >= 20
    assert prime.rank == generic.rank


def test_gf2_engine_agrees_with_generic():
    F = make_field(2)
    rng = np.random.default_rng(6)
    for _ in range(120):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 9))
        cols = random_cols(2, n, m, rng)
        a = RrefState(F, n, engine="gf2")
        b = RrefState(F, n, engine="generic")
        for c in cols:
            da, db = a.push(c), b.push(c)
            assert (da is None) == (db is None)
            if da is not None:
                assert da == db  # F_2 kernel vectors are unique given support
        assert a.rank == b.rank


def test_unknown_engine_rejected():
    with pytest.raises(InvalidParam):
        RrefState(make_field(2), 3, engine="sparse")


# ---- kernel contract -------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_push_dependency_is_kernel_vector(q):
    F = make_field(q)
    rng = np.random.default_rng(77)
    for _ in range(250):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        cols = random_cols(q, n, m, rng)
        st_ = RrefState(F, n)
        for j, c in enumerate(cols):
            dep = st_.push(c)
            if dep is None:
                continue
            assert dep.get(j) == 1  # newest column always carries coefficient 1
            acc = [0] * n
            for i, coef in dep.items():
                assert i <= j and 0 < coef < q
                for t in range(n):
                    acc[t] = F.add(acc[t], F.mul(coef, cols[i][t]))
            assert not any(acc)


@pytest.mark.parametrize("q", [2, 3])
def test_rank_plus_kernel_dim_is_m(q):
    F = make_field(q)
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 10))
        mat = FqMatrix(F, random_cols(q, n, m, rng), n=n)
        assert mat.rank + len(mat.kernel_basis()) == m


def test_kernel_basis_vectors_annihilate(f3):
    rng = np.random.default_rng(9)
    mat = random_uniform_matrix(f3, 4, 9, rng)
    for vec in mat.kernel_basis():
        acc = [0] * 4
        for coef, col in zip(vec, mat.columns):
            for t in range(4):
                acc[t] = f3.add(acc[t], f3.mul(coef, col[t]))
        assert not any(acc)


def test_in_span():
    F = make_field(3)
    st_ = RrefState(F, 3)
    st_.push((1, 0, 0))
    st_.push((0, 1, 0))
    assert st_.in_span((2, 1, 0))
    assert not st_.in_span((0, 0, 1))
    assert st_.in_span((0, 0, 0))


# ---- delete / contract rank identities -------------------------------------

def _subset_ranks(mat):
    import itertools

    return {
        S: mat.rank_of(S)
        for r in range(mat.m + 1)
        for S in itertools.combinations(range(mat.m), r)
    }


@pytest.mark.parametrize("q,n,m,trials", [(2, 3, 5, 60), (3, 3, 4, 60)])
def test_delete_contract_rank_identities_random(q, n, m, trials):
    import itertools

    F = make_field(q)
    rng = np.random.default_rng(31)
    for _ in range(trials):
        mat = FqMatrix(F, random_cols(q, n, m, rng), n=n)
        X = tuple(sorted(rng.choice(m, size=int(rng.integers(0, m)), replace=False)))
        rest = [i for i in range(m) if i not in X]
        rkX = mat.rank_of(X)
        D = mat.delete(X)
        C = mat.contract(X)
        assert C.n == n - rkX
        for r in range(len(rest) + 1):
            for S in itertools.combinations(range(len(rest)), r):
                orig = tuple(rest[i] for i in S)
                assert D.rank_of(S) == mat.rank_of(orig)
                assert C.rank_of(S) == mat.rank_of(orig + X) - rkX


def test_delete_bad_index():
    mat = FqMatrix(make_field(2), [(1, 0), (0, 1)])
    with pytest.raises(InvalidParam):
        mat.delete([5])
    with pytest.raises(InvalidParam):
        mat.contract([-1])


def test_submatrix_keeps_order_and_duplicates():
    mat = FqMatrix(make_field(2), [(1, 0), (0, 1), (1, 1)])
    sub = mat.submatrix([2, 0, 2])
    assert sub.columns == ((1, 1), (1, 0), (1, 1))


# ---- construction and representation ---------------------------------------

def test_fqmatrix_validation():
    F = make_field(3)
    with pytest.raises(InvalidParam):
        FqMatrix(F, [(0, 1), (1,)])  # ragged
    with pytest.raises(InvalidParam):
        FqMatrix(F, [(0, 3)])  # entry outside [0, q)
    with pytest.raises(InvalidParam):
        FqMatrix(F, [])  # empty needs explicit n
    empty = FqMatrix(F, [], n=4)
    assert (empty.n, empty.m, empty.rank) == (4, 0, 0)


def test_from_rows_transposes():
    F = make_field(2)
    mat = FqMatrix.from_rows(F, [[1, 0, 1], [0, 1, 1]])
    assert mat.columns == ((1, 0), (0, 1), (1, 1))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=70))
def test_pack_unpack_round_trip(bits):
    v = pack_gf2(bits)
    assert list(unpack_gf2(v, len(bits))) == bits


@pytest.mark.parametrize("q,n", [(2, 5), (3, 40), (4, 3)])
def test_native_round_trip(q, n):
    F = make_field(q)
    rng = np.random.default_rng(12)
    for _ in range(20):
        native = draw_native_column(F, n, rng)
        col = native_to_tuple(F, n, native)
        assert len(col) == n and all(0 <= x < q for x in col)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_block_draw_is_the_per_column_stream(q, n):
    F = make_field(q)
    for k in (1, 5, 64):
        block_rng = np.random.Generator(np.random.Philox(key=[q, n]))
        single_rng = np.random.Generator(np.random.Philox(key=[q, n]))
        block = draw_native_column(F, n, block_rng, count=k)
        singles = [draw_native_column(F, n, single_rng) for _ in range(k)]
        assert len(block) == k
        assert ([native_to_tuple(F, n, c) for c in block]
                == [native_to_tuple(F, n, c) for c in singles])
        assert type(block[0]) is type(singles[0])
        # the generator is left where k single draws leave it
        assert block_rng.integers(0, 1 << 40) == single_rng.integers(0, 1 << 40)


def test_engine_selection():
    assert engine_name(make_field(2), 100) == "gf2"
    assert engine_name(make_field(4), 100) == "generic"
    assert engine_name(make_field(3), 100) == "prime"


# ---- fixture text format ----------------------------------------------------

def test_format_parse_round_trip():
    rng = np.random.default_rng(3)
    for q in (2, 3, 4):
        mat = random_uniform_matrix(make_field(q), 3, 5, rng)
        text = format_matrix_text(mat)
        head = text.splitlines()[0]
        assert head == f"{q} 3 5"
        back = parse_matrix_text(text)
        assert back == mat
        assert format_matrix_text(back) == text  # canonical, bit-exact


def test_parse_rejects_malformed():
    with pytest.raises(InvalidParam):
        parse_matrix_text("")
    with pytest.raises(InvalidParam):
        parse_matrix_text("2 2\n0 1\n1 0\n")
    with pytest.raises(InvalidParam):
        parse_matrix_text("2 2 2\n0 1\n")


def test_random_uniform_matrix_deterministic():
    F = make_field(3)
    a = random_uniform_matrix(F, 4, 6, np.random.default_rng(42))
    b = random_uniform_matrix(F, 4, 6, np.random.default_rng(42))
    assert a == b and a.n == 4 and a.m == 6

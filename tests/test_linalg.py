"""Elimination engines and matrix queries."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqmatroid.errors import InvalidParam
from fqmatroid.fqlinalg import (
    FqMatrix,
    RrefState,
    Span2,
    SpanQ,
    draw_native_column,
    engine_name,
    make_field,
    pack_gf2,
    pack_native,
    random_uniform_matrix,
)
from fqmatroid.fqlinalg.matrix import _Gf2Rref, _Gf3Rref
from conftest import (
    all_matrices,
    brute_rank,
    handle_of_span,
    push_pop_common_walk,
    random_cols,
)


def unpack_gf2(v, n):
    """The n entries of a packed GF(2) column, bit i as entry i."""
    return tuple((v >> i) & 1 for i in range(n))


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


def _cols_with_dependents(p, n, rng):
    """n + 20 columns over F_p, every fourth a combination of two earlier ones."""
    cols = []
    for j in range(n + 20):
        if j > 3 and j % 4 == 0:
            a, b = rng.choice(j, size=2, replace=False)
            cols.append(tuple((x + 2 * y) % p for x, y in zip(cols[a], cols[b])))
        else:
            cols.append(tuple(int(x) for x in rng.integers(0, p, size=n)))
    return cols


# ---- kernel contract -------------------------------------------------------

def _assert_kernel_vector(F, cols, j, dep):
    """dep, returned by the push of cols[j], is a kernel vector of cols[:j + 1]."""
    assert next(iter(dep)) == j and dep[j] == 1  # newest column first, coefficient 1
    acc = [0] * len(cols[j])
    for i, coef in dep.items():
        assert i <= j and 0 < coef < F.q
        for t in range(len(acc)):
            acc[t] = F.add(acc[t], F.mul(coef, cols[i][t]))
    assert not any(acc)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_push_dependency_is_kernel_vector(q):
    F = make_field(q)
    rng = np.random.default_rng(77)
    for _ in range(250):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 11))
        cols = random_cols(q, n, m, rng)
        st_ = RrefState(F, n)
        for j, c in enumerate(FqMatrix(F, cols, n=n).native_columns()):
            dep = st_.push(c)
            if dep is not None:
                _assert_kernel_vector(F, cols, j, dep)


def _check_push_against_brute_oracles(p, n, rng):
    F = make_field(p)
    cols = _cols_with_dependents(p, n, rng)
    st_ = RrefState(F, n)
    assert st_.engine == "prime"
    basis, deps = set(), 0
    for j, c in enumerate(FqMatrix(F, cols, n=n).native_columns()):
        dep = st_.push(c)
        if dep is None:
            basis.add(j)
        else:
            _assert_kernel_vector(F, cols, j, dep)
            assert set(dep) - {j} <= basis  # earlier columns, independent when pushed
            deps += 1
    assert deps >= 20
    assert st_.rank == len(basis) == brute_rank(F, cols)


@pytest.mark.parametrize("n", [24, 40, 100])
def test_gf3_push_against_brute_oracles(n):
    # at q = 3 and n >= 24 the default engine is the bitsliced one
    _check_push_against_brute_oracles(3, n, np.random.default_rng(n))


@pytest.mark.parametrize("p", [3, 5, 7, 65521])
@pytest.mark.parametrize("n", [24, 40, 100])
def test_prime_push_against_brute_oracles(p, n):
    # at n >= 24 the default engine is the prime one: bitsliced at p = 3,
    # and at p in {5, 7} the numpy rank-one update runs with both fewer
    # and more than p hit rows
    _check_push_against_brute_oracles(p, n, np.random.default_rng(p + n))


# gf2 (also past one 64-column block of independent columns), packed GF(3),
# the numpy prime engine (q = 5, n = 24), generic q = 4, and generic q = 257
# over uint16 rows
@pytest.mark.parametrize("q,n", [(2, 6), (2, 100), (3, 24), (5, 24), (4, 4), (257, 3)],
                         ids=["gf2", "gf2-n100", "gf3-packed", "prime-q5", "generic-q4",
                              "generic-q257"])
def test_push_run_equals_a_loop_of_push(q, n):
    F = make_field(q)
    rng = np.random.default_rng(500 + q + n)
    rows = rng.integers(0, q, size=(2 * n + 70, n), dtype=np.uint16 if q > 256 else np.uint8)
    rows[[0, 9, 10, 2 * n]] = 0  # zero columns, the first one among them
    cols = pack_native(F, n, rows)
    ref = RrefState(F, n)
    want = [(ref.push(c), ref.rank, ref.corank) for c in cols]

    def check(st, end, pushed, dep):
        """A run that ended at column `end` pushed its columns as push would."""
        assert end <= len(cols) and pushed >= 1
        assert all(w[0] is None for w in want[end - pushed:end - 1])
        assert (dep, st.rank, st.corank) == want[end - 1] and st.rank + st.corank == end

    for feed in ("iterator", "slices"):
        st = RrefState(F, n)
        assert st.push_run([]) == st.push_run(iter(())) == (0, None)
        it, end = iter(cols), 0
        while end < len(cols):
            if feed == "iterator":
                pushed, dep = st.push_run(it)  # stops after a dependent column
            else:  # up to the next multiple of 64, as ProcessState feeds it
                pushed, dep = st.push_run(cols[end:(end // 64 + 1) * 64])
            end += pushed
            check(st, end, pushed, dep)
            if dep is None:
                assert end == len(cols) if feed == "iterator" else end % 64 == 0 or end == len(cols)
        assert st.push_run(it if feed == "iterator" else []) == (0, None)
        assert (st.rank, st.corank) == (ref.rank, ref.corank)


# ---- the undoable spans -----------------------------------------------------

def span_rank(span) -> int:
    """Rows held: SpanQ keys them by pivot, Span2 fills a slot per pivot."""
    if isinstance(span, SpanQ):
        return len(span.rows)
    return sum(r is not None for r in span.rows)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_spans_against_brute_rank(q):
    # the rows held after each push are the rank of the prefix; push(v)
    # returns None exactly for v in the span, and otherwise a new pivot
    # that pop takes back out; SpanQ.reduce(v) is zero at the pivots push
    # returned and zero exactly for v in the span; popping in reverse
    # empties the span
    F = make_field(q)
    rng = np.random.default_rng(40 + q)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        cols = random_cols(q, n, int(rng.integers(1, 9)), rng)
        probe = random_cols(q, n, 3, rng)
        # (span, column -> span form)
        spans = [(SpanQ(F, n), tuple)]
        if q == 2:
            spans.append((Span2(n), pack_gf2))
        for span, native in spans:
            pivots = []
            for j, c in enumerate(cols):
                pivots.append(span.push(native(c)))
                rank = brute_rank(F, cols[:j + 1])
                assert span_rank(span) == rank
                for v in probe:
                    inside = brute_rank(F, cols[:j + 1] + [v]) == rank
                    p = span.push(native(v))
                    assert (p is None) == inside
                    if p is not None:
                        assert p not in pivots and span_rank(span) == rank + 1
                        span.pop(p)
                    assert span_rank(span) == rank
                    if isinstance(span, SpanQ):
                        red = span.reduce(v)
                        assert not any(red[p] for p in pivots if p is not None)
                        assert (not any(red)) == inside
            for p in reversed(pivots):
                if p is not None:
                    span.pop(p)
            assert span_rank(span) == 0


@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (2, 62), (2, 63), (2, 64), (2, 65),
                                  (2, 200), (3, 24), (3, 32), (3, 33), (3, 64)])
def test_packed_engines_at_their_widest_rows(q, n):
    # 2n random columns fill every pivot of the flat row tables; the
    # column with only its last entry set is dependent with every slot
    # taken, and the all-ones column reaches the widest row
    F = make_field(q)
    cols = random_cols(q, n, 2 * n, np.random.default_rng(1000 * q + n))
    cols += [(0,) * (n - 1) + (1,), (1,) * n]
    st_ = RrefState(F, n)
    assert isinstance(st_._core, _Gf2Rref if q == 2 else _Gf3Rref)
    for j, c in enumerate(FqMatrix(F, cols, n=n).native_columns()):
        dep = st_.push(c)
        if dep is not None:
            _assert_kernel_vector(F, cols, j, dep)
    assert st_.rank == n and dep is not None  # full tables; all-ones dependent
    if n <= 65:
        assert st_.rank == brute_rank(F, cols)


def test_common_reaches_against_push_pop_walk():
    # the GF(2) walk on copied row tables gives the push/pop walk's answer
    # and leaves both spans as they were; SpanQ over the same columns
    # agrees, and every answer is compared at every need from 1 to one past
    # the number of rest columns
    F = make_field(2)
    rng = np.random.default_rng(29)
    seen = Counter()
    for _ in range(300):
        n = int(rng.integers(1, 13))
        sides = [random_cols(2, n, int(rng.integers(0, n + 1)), rng) for _ in range(2)]
        rest = random_cols(2, n, int(rng.integers(0, 13)), rng)
        if rest and rng.integers(0, 4) == 0:
            rest[int(rng.integers(0, len(rest)))] = (0,) * n
        spans2, spansq = [Span2(n), Span2(n)], [SpanQ(F, n), SpanQ(F, n)]
        for side, s2, sq in zip(sides, spans2, spansq):
            for c in side:
                s2.push(pack_gf2(c))
                sq.push(c)
        tables = [s.rows[:] for s in spans2]
        packed = [pack_gf2(c) for c in rest]
        for need in range(1, len(rest) + 2):
            want = push_pop_common_walk(*spans2, packed, need)
            assert spans2[0].common_reaches(spans2[1], packed, need) == want
            assert [s.rows for s in spans2] == tables
            assert spansq[0].common_reaches(spansq[1], rest, need) == want
            assert all(span_rank(sq) == span_rank(s2) for sq, s2 in zip(spansq, spans2))
            seen[want] += 1
    assert seen[True] >= 100 and seen[False] >= 100, seen


@pytest.mark.parametrize("bits", range(1, 9))
def test_span2_holds_its_widest_vector(bits):
    ones = (1 << bits) - 1
    span = Span2(bits)
    assert span.push(ones) == bits - 1 and span_rank(span) == 1
    assert span.push(ones) is None and span_rank(span) == 1
    assert span.pop(bits - 1) == ones and span_rank(span) == 0


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


# (q, rows, X, contract(X).columns, handle_of_span(first three columns).rows),
# recorded from the row-by-row Gauss-Jordan contraction and a basis-list
# span handle that the spans replaced
PINNED = [
    (2, [(1, 0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 1, 0, 0), (0, 0, 1, 1, 1, 1, 0),
         (1, 1, 0, 1, 1, 0, 1), (1, 1, 0, 0, 0, 1, 0)], (1, 4),
     ((1, 1, 1), (0, 1, 0), (1, 1, 1), (1, 1, 1), (0, 0, 1)),
     ((1, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 1))),
    (2, [(0, 0, 0, 0, 1, 0), (1, 0, 0, 1, 1, 0), (0, 0, 1, 0, 0, 1),
         (1, 1, 0, 0, 0, 1)], (0, 2, 3),
     ((0,), (1,), (0,)),
     ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    (2, [(1, 1, 0, 1, 0, 1), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0)], (1, 3, 4),
     ((0,), (0,), (0,)),
     ((1, 0, 0),)),
    (3, [(2, 2, 2, 1, 1, 0, 2), (2, 0, 2, 1, 0, 2, 1), (2, 2, 0, 1, 1, 2, 1),
         (1, 1, 1, 2, 0, 0, 0), (0, 1, 2, 2, 1, 2, 2)], (2, 5),
     ((2, 0, 1), (1, 0, 1), (1, 0, 1), (2, 1, 1), (2, 2, 1)),
     ((1, 0, 0, 2, 0), (0, 1, 0, 0, 1), (0, 0, 1, 0, 2))),
    (3, [(2, 0, 0, 1, 0, 1), (0, 2, 1, 0, 2, 1), (1, 2, 0, 0, 2, 1),
         (0, 1, 1, 1, 1, 2)], (0, 1, 5),
     ((2,), (1,), (0,)),
     ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))),
    (3, [(1, 2, 0, 1, 2), (0, 0, 1, 1, 0), (2, 1, 0, 2, 1)], (0, 1, 3),
     ((0,), (0,)),
     ((1, 0, 2), (0, 1, 0))),
    (4, [(3, 1, 0, 2, 0, 3, 2), (2, 2, 3, 1, 0, 0, 2), (3, 1, 2, 1, 0, 0, 1),
         (0, 2, 0, 2, 3, 3, 3), (1, 2, 0, 0, 3, 0, 1)], (3, 6),
     ((1, 3, 1), (2, 1, 0), (2, 1, 1), (0, 3, 3), (2, 3, 3)),
     ((1, 0, 0, 2, 2), (0, 1, 0, 2, 0), (0, 0, 1, 3, 0))),
    (4, [(2, 3, 0, 0, 2, 2), (1, 1, 1, 3, 1, 3), (3, 1, 0, 1, 0, 2),
         (3, 3, 1, 2, 3, 0)], (1, 2, 4),
     ((3,), (0,), (3,)),
     ((1, 0, 2, 0), (0, 1, 0, 0), (0, 0, 0, 1))),
]


@pytest.mark.parametrize("q,rows,X,contracted,span_rows", PINNED)
def test_contract_and_from_span_pinned(q, rows, X, contracted, span_rows):
    F = make_field(q)
    mat = FqMatrix(F, list(zip(*rows)), n=len(rows))
    assert mat.contract(X).columns == contracted
    assert mat.contract(X).n == len(contracted[0])
    assert handle_of_span(F, len(rows), mat.columns[:3]).rows == span_rows


def test_delete_bad_index():
    mat = FqMatrix(make_field(2), [(1, 0), (0, 1)])
    with pytest.raises(InvalidParam):
        mat.delete([5])
    with pytest.raises(InvalidParam):
        mat.contract([-1])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rank_of_bad_index(q):
    # a negative index would read a column from the end, and one past m
    # would end in an IndexError; both are refused like delete's
    mat = FqMatrix(make_field(q), [(1, 0), (0, 1), (1, 1)])
    assert mat.rank_of([0, 2]) == 2
    for bad in ([-1], [0, -3], [3], [1, 7]):
        with pytest.raises(InvalidParam):
            mat.rank_of(bad)


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


@given(st.lists(st.integers(0, 1), min_size=1, max_size=70))
def test_pack_unpack_round_trip(bits):
    v = pack_gf2(bits)
    assert list(unpack_gf2(v, len(bits))) == bits


@pytest.mark.parametrize("q,n", [(2, 5), (3, 40), (4, 3)] + [
    (3, n) for n in (24, 63, 64, 65, 100, 201)] + [(2, n) for n in (1, 63, 64, 65, 200)])
def test_native_round_trip(q, n):
    # the drawn native columns are those FqMatrix packs from the rows of the
    # same-keyed integer draw (the q = 3 sizes straddle byte and word
    # boundaries of its two bit planes, the q = 2 sizes the 64-bit limit of
    # the one-matmul pack, whose top bit the all-ones rows set), and
    # random_uniform_matrix keeps those rows as its columns
    F = make_field(q)
    if q == 2:
        assert pack_native(F, n, np.ones((2, n), np.uint8)) == [(1 << n) - 1] * 2
    for k in (1, 20):
        cols = draw_native_column(F, n, np.random.default_rng([n, k]), k)
        rows = [tuple(r) for r in
                np.random.default_rng([n, k]).integers(0, q, size=(k, n)).tolist()]
        assert FqMatrix(F, rows, n=n).native_columns() == cols
        mat = random_uniform_matrix(F, n, k, np.random.default_rng([n, k]))
        assert mat.columns == tuple(rows) and mat.native_columns() == cols


@pytest.mark.parametrize("q,n", [(2, 12), (3, 30), (4, 3), (5, 30)])
def test_random_uniform_matrix_packs_its_draw_once_on_first_use(q, n, monkeypatch):
    # no pack at the draw; the first native_columns() packs the whole draw
    # in one pack_native call, and later calls reuse the list
    from fqmatroid.fqlinalg import matrix as fqm
    calls = []
    pack = fqm.pack_native
    monkeypatch.setattr(fqm, "pack_native", lambda *args: calls.append(1) or pack(*args))
    F = make_field(q)
    mat = random_uniform_matrix(F, n, 24, np.random.default_rng([q, n]))
    assert not calls
    natives = mat.native_columns()
    assert calls == [1] and mat.native_columns() is natives
    checked = FqMatrix(F, mat.columns, n=n).native_columns()
    assert all(type(a) is type(b) and np.array_equal(a, b) for a, b in zip(natives, checked))
    assert len(natives) == 24


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_block_draw_is_the_per_column_stream(q, n):
    F = make_field(q)
    for k in (1, 5, 64):
        block_rng = np.random.Generator(np.random.Philox(key=[q, n]))
        single_rng = np.random.Generator(np.random.Philox(key=[q, n]))
        block = draw_native_column(F, n, block_rng, k)
        singles = [draw_native_column(F, n, single_rng, 1)[0] for _ in range(k)]
        rows = np.random.Generator(np.random.Philox(key=[q, n])).integers(0, q, size=(k, n))
        assert len(block) == k and block == singles
        assert block == FqMatrix(F, rows.tolist(), n=n).native_columns()
        assert type(block[0]) is type(singles[0])
        # the generator is left where k single draws leave it
        assert block_rng.integers(0, 1 << 40) == single_rng.integers(0, 1 << 40)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (3, 30), (4, 3), (5, 30)])
def test_trusted_builds_equal_checked_ones(q, n):
    # random_uniform_matrix, delete and contract skip the entry check; what
    # they build equals FqMatrix(...) of the same columns, natives included,
    # whether or not the source matrix had built its natives first
    F = make_field(q)
    for warm in (False, True):
        mat = random_uniform_matrix(F, n, 9, np.random.default_rng([q, n]))
        if warm:
            mat.native_columns()
        built = [mat] + [op(drop) for drop in ([], [0], [2, 5, 8])
                         for op in (mat.delete, mat.contract)]
        for got in built:
            checked = FqMatrix(F, got.columns, n=got.n)
            assert got == checked and got.m == checked.m
            assert all(type(x) is int for col in got.columns for x in col)
            natives = zip(got.native_columns(), checked.native_columns(), strict=True)
            assert all(type(a) is type(b) and np.array_equal(a, b) for a, b in natives)
            assert got.rank == checked.rank


def test_engine_selection():
    assert engine_name(make_field(2), 100) == "gf2"
    assert engine_name(make_field(4), 100) == "generic"
    assert engine_name(make_field(3), 100) == "prime"


def test_random_uniform_matrix_deterministic():
    F = make_field(3)
    a = random_uniform_matrix(F, 4, 6, np.random.default_rng(42))
    b = random_uniform_matrix(F, 4, 6, np.random.default_rng(42))
    assert a == b and a.n == 4 and a.m == 6

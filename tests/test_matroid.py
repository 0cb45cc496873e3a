"""Matroid queries: circuits, connectivity, critical number."""

import itertools
from collections import Counter
from functools import reduce

import numpy as np
import pytest

from fqmatroid.errors import BudgetExceeded, InvalidParam, LoopPresent
from fqmatroid.fqlinalg import FqMatrix, RrefState, make_field
from fqmatroid.matroid import (
    INFINITY,
    KernelSweep,
    RepMatroid,
    pg_matrix,
    uniform_matroid_matrix,
)
from conftest import (
    brute_basis_complement_bound,
    brute_circuit_count,
    brute_components,
    brute_critical_number,
    brute_first_witness,
    brute_rank,
    brute_separation_kinds,
    brute_separations,
    random_cols,
)

F2 = make_field(2)
F3 = make_field(3)


def matroid(q, cols):
    F = make_field(q)
    return RepMatroid(FqMatrix(F, cols, n=len(cols[0])))


def sweep_walks(field, cols):
    """The masks KernelSweep yields over the columns' dependencies, one
    list per add."""
    n = len(cols[0])
    st = RrefState(field, n)
    sweep = KernelSweep(field)
    native = FqMatrix(field, cols, n=n).native_columns()
    return [list(sweep.add(dep)) for dep in map(st.push, native) if dep is not None]


# ---- rank, points -----------------------------------------------------------

def test_basic_queries():
    M = matroid(2, [(1, 0), (1, 1), (0, 1), (0, 0)])
    assert (M.m, M.rank, M.corank) == (4, 2, 2)
    assert M.loops() == [3]
    assert M.points()[3] is None
    assert not M.is_simple()
    assert M.matrix.rank_of([0, 1]) == 2
    with pytest.raises(InvalidParam):
        M.matrix.rank_of([9])


def test_points_are_projective_representatives():
    M = matroid(3, [(2, 0, 1), (1, 0, 2), (0, 0, 0)])
    pts = M.points()
    assert pts[0] == (1, 0, 2)  # scaled so the leading entry is 1
    assert pts[0] == pts[1]
    assert pts[2] is None


# ---- circuits and girth ------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_kernel_sweep_lists_each_class_once(q):
    F = make_field(q)
    rng = np.random.default_rng(15 + q)
    coranks = Counter()
    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        cols = random_cols(q, n, m, rng)
        walks = sweep_walks(F, cols)
        c = len(walks)
        coranks[c] += 1
        # the j-th add opens q^(j-1) classes, (q^c - 1)/(q - 1) in all
        assert [len(w) for w in walks] == [q ** j for j in range(c)]
        assert sum(map(len, walks)) == (q ** c - 1) // (q - 1)
        kernel = set()
        for x in itertools.product(range(q), repeat=m):
            if any(x) and all(
                    reduce(F.add, (F.mul(col[i], a) for col, a in zip(cols, x))) == 0
                    for i in range(n)):
                kernel.add(sum(1 << j for j, a in enumerate(x) if a))
        assert {mask for w in walks for mask in w} == kernel
        if c:
            # a caller that stops each walk after one mask leaves the sweep
            # holding every dependency
            st, sweep = RrefState(F, n), KernelSweep(F)
            native = FqMatrix(F, cols, n=n).native_columns()
            deps = [dep for dep in map(st.push, native) if dep is not None]
            for dep in deps[:-1]:
                next(sweep.add(dep))
            assert list(sweep.add(deps[-1])) == walks[-1]
    assert max(coranks) >= 3


@pytest.mark.parametrize("q", [2, 3])
def test_circuit_spectrum_matches_brute_force(q):
    # the sweep's supports S with rank(S) = |S| - 1, against the oracle
    F = make_field(q)
    rng = np.random.default_rng(13)
    for _ in range(80):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        cols = random_cols(q, n, m, rng)
        M = matroid(q, cols)
        supports = {mask for w in sweep_walks(F, cols) for mask in w}
        found = Counter()
        for mask in supports:
            sub = [j for j in range(m) if mask >> j & 1]
            if M.matrix.rank_of(sub) == len(sub) - 1:
                found[len(sub)] += 1
        expect = Counter({k: brute_circuit_count(F, cols, k) for k in range(1, m + 1)})
        assert found == +expect
        g = M.girth()
        assert g == (min(+expect) if +expect else INFINITY)


def test_girth_special_cases():
    assert matroid(2, [(1, 0), (0, 0)]).girth() == 1  # loop
    assert matroid(2, [(1, 0), (1, 0)]).girth() == 2  # parallel pair
    assert matroid(2, [(1, 0), (0, 1)]).girth() == INFINITY
    assert RepMatroid(pg_matrix(F2, 2)).girth() == 3


def test_girth_budget_exhausted():
    # PG(4, 2): 31 simple columns of rank 5, so 2^26 kernel classes
    M = RepMatroid(pg_matrix(F2, 5))
    assert M.corank == 26
    with pytest.raises(BudgetExceeded):
        M.girth()


@pytest.mark.parametrize("q,r,m", [(2, 2, 3), (3, 2, 4), (4, 3, 5)])
def test_uniform_matroids(q, r, m):
    M = RepMatroid(uniform_matroid_matrix(make_field(q), r, m))
    assert M.is_uniform() == (r, m)
    assert M.girth() == (r + 1 if m > r else INFINITY)


def test_uniform_matrix_needs_enough_points():
    with pytest.raises(InvalidParam):
        uniform_matroid_matrix(F2, 2, 5)  # U_{2,5} needs q >= 4


def test_is_uniform_rejects_non_uniform():
    assert matroid(2, [(1, 0), (1, 0), (0, 1)]).is_uniform() is None


# ---- connectivity -------------------------------------------------------------

def test_pg12_is_infinitely_connected():
    M = RepMatroid(pg_matrix(F2, 2))
    assert M.vertical_connectivity()[0] == INFINITY
    assert M.tutte_connectivity()[0] == INFINITY
    assert M.is_vertically_k_connected(7)


def test_tutte_separation_witness():
    # parallel pair split from a basis: Tutte order 2, but neither a
    # vertical nor a cyclic separation exists
    M = matroid(2, [(1, 0), (1, 1), (0, 1), (1, 0)])
    order, sep = M.tutte_connectivity()
    assert order == 2
    assert sorted(map(len, (sep.part1, sep.part2))) == [2, 2]
    assert M.vertical_connectivity()[0] == INFINITY
    assert M.cyclic_connectivity()[0] == INFINITY
    assert M.basis_complement_bound() == 2
    # the girth form of the identity still holds here
    assert order == min(M.vertical_connectivity()[0], M.girth())


@pytest.mark.parametrize("q", [2, 3])
def test_connectivity_identities_random(q):
    # tutte_connectivity cross-checks t == min(kappa, kappa*, basis bound)
    # internally and raises on mismatch, so calling it is the dual-route test
    rng = np.random.default_rng(15)
    checked_girth = 0
    for _ in range(150):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(3, 9))
        M = matroid(q, random_cols(q, n, m, rng))
        t = M.tutte_connectivity()[0]
        uni = M.is_uniform()
        if uni is None or uni[1] < 2 * uni[0] - 1:
            assert t == min(M.vertical_connectivity()[0], M.girth())
            checked_girth += 1
    assert checked_girth > 100


def assert_witness(field, cols, kind, order, sep):
    """sep is a valid separation of this kind and order, by brute ranks."""
    assert sep.kind == kind and sep.order == order
    assert sorted(sep.part1 + sep.part2) == list(range(len(cols)))
    got, kinds = brute_separation_kinds(field, cols, sep.part1, sep.part2)
    assert got == order and kind in kinds


# larger inputs drawn after the 150 small ones: (count, n range, largest m),
# where the vertical search's common-independent-set bound prunes
_WIDE_INPUTS = {2: (30, (3, 6), 12), 3: (40, (2, 4), 9)}


def _brute_oracle_inputs(q, rng):
    for _ in range(150):
        n = int(rng.integers(1, 5))
        yield n, random_cols(q, n, int(rng.integers(1, 9)), rng)
    if q not in _WIDE_INPUTS:
        return
    count, (n_lo, n_hi), m_hi = _WIDE_INPUTS[q]
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        yield n, random_cols(q, n, int(rng.integers(n + 1, m_hi + 1)), rng)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_bipartition_searches_against_brute_oracle(q):
    F = make_field(q)
    rng = np.random.default_rng(30 + q)
    finite = Counter()
    for n, cols in _brute_oracle_inputs(q, rng):
        M = RepMatroid(FqMatrix(F, cols, n=n))
        brute = brute_separations(F, cols)
        found = {"vertical": M.vertical_connectivity(),
                 "cyclic": M.cyclic_connectivity(),
                 "tutte": M.tutte_connectivity()}
        for kind, (order, sep) in found.items():
            assert order == brute[kind], (kind, cols)
            if sep is None:
                assert order == INFINITY
            else:
                assert_witness(F, cols, kind, order, sep)
                finite[kind, order] += 1
        kv = brute["vertical"]
        for k in (2, 3):
            assert M.is_vertically_k_connected(k) == (kv >= k)
        for bound in (1, 2, 3, 4):
            order, sep = M.vertical_separation_below(bound)
            assert order == (kv if kv < bound else INFINITY)
            if sep is not None:
                assert_witness(F, cols, "vertical", order, sep)
    # every kind is met with orders 1 and 2, not only with inf
    assert all(finite[kind, order] for kind in found for order in (1, 2)), finite


def _as_first_witness(order, sep):
    return (order, None, None) if sep is None else (order, sep.part1, sep.part2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_witnesses_are_the_first_minimal_bipartition(q):
    # the search's prunes and early stops change no witness: each is the
    # first bipartition of minimal order in depth-first order, which the
    # seeded kappa search relies on as well
    F = make_field(q)
    rng = np.random.default_rng(30 + q)
    for n, cols in _brute_oracle_inputs(q, rng):
        M = RepMatroid(FqMatrix(F, cols, n=n))
        first = {kind: brute_first_witness(F, cols, kind)
                 for kind in ("vertical", "cyclic", "tutte")}
        found = {"vertical": M.vertical_connectivity(),
                 "cyclic": M.cyclic_connectivity(),
                 "tutte": M.tutte_connectivity()}
        for kind, (order, sep) in found.items():
            assert _as_first_witness(order, sep) == first[kind], (kind, cols)
        kv = first["vertical"][0]
        for bound in (1, 2, 3, 4):
            got = _as_first_witness(*M.vertical_separation_below(bound))
            assert got == (first["vertical"] if kv < bound else (INFINITY, None, None))


@pytest.mark.parametrize("q,sizes", [
    (2, [(n, m) for n in (4, 5) for m in (2 * n, 2 * n + 1, 2 * n + 2)]),
    (3, [(3, m) for m in (6, 7, 8)]),
], ids=["q2", "q3"])
def test_vertical_search_at_full_rank_against_brute_oracle(q, sizes):
    # at full rank with m >= 2n many placements make a side span M early,
    # where the vertical search ends the branch; order and witness are still
    # the first minimal bipartition's
    F = make_field(q)
    rng = np.random.default_rng(70 + q)
    orders = Counter()
    for n, m in sizes:
        for _ in range(3):
            cols = random_cols(q, n, m, rng)
            while brute_rank(F, cols) < n:
                cols = random_cols(q, n, m, rng)
            M = RepMatroid(FqMatrix(F, cols, n=n))
            first = brute_first_witness(F, cols, "vertical")
            assert _as_first_witness(*M.vertical_connectivity()) == first, cols
            for bound in (1, 2, 3, 4):
                got = _as_first_witness(*M.vertical_separation_below(bound))
                assert got == (first if first[0] < bound else (INFINITY, None, None))
            orders[first[0]] += 1
    assert orders[1] and orders[2], orders  # not only parallel pairs and loops


def test_vertical_separation_below():
    M = matroid(2, [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    order, sep = M.vertical_separation_below(2)
    assert order == 1 and sep is not None
    r1 = M.matrix.rank_of(sep.part1)
    r2 = M.matrix.rank_of(sep.part2)
    assert r1 + r2 - M.rank <= order - 1 and min(r1, r2) >= order


def test_kappa_deletion_monotone_at_fixed_rank():
    # if M\e keeps the rank, deleting can only reveal, never hide, a
    # separation: kappa(M) >= kappa(M\e)
    rng = np.random.default_rng(16)
    for _ in range(120):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 6))
        M = matroid(2, random_cols(2, n, m, rng))
        kM = M.vertical_connectivity()[0]
        for e in range(M.m):
            D = RepMatroid(M.matrix.delete([e]))
            if D.rank == M.rank:
                assert kM >= D.vertical_connectivity()[0]


def _basis_complement_cases(q, rng):
    F = make_field(q)
    yield FqMatrix(F, [], n=2)  # m = 0
    yield FqMatrix(F, [(1, 0)], n=2)  # m = 1
    yield FqMatrix(F, [(0, 0)], n=2)
    yield FqMatrix(F, [(0, 0, 0)] * 4, n=3)  # all loops, rank 0
    yield FqMatrix(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], n=3)  # free
    # rank m - 1: a basis and a column with full support
    yield FqMatrix(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], n=3)
    for _ in range(120):
        n = int(rng.integers(1, 5))
        yield FqMatrix(F, random_cols(q, n, int(rng.integers(0, 8)), rng), n=n)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_basis_complement_bound_against_brute_oracle(q):
    F = make_field(q)
    seen = Counter()
    for mat in _basis_complement_cases(q, np.random.default_rng(40 + q)):
        got = RepMatroid(mat).basis_complement_bound()
        assert got == brute_basis_complement_bound(F, list(mat.columns)), mat.columns
        seen[got] += 1
    assert seen[INFINITY] and seen[1] and seen[2], seen


def test_connectivity_answers_are_cached(monkeypatch):
    rng = np.random.default_rng(41)
    searches = Counter()
    search = RepMatroid._bipartition_search

    def counted(self, kind, *args, **kwargs):
        searches[kind] += 1
        return search(self, kind, *args, **kwargs)

    for q in (2, 3):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            cols = random_cols(q, n, int(rng.integers(2, 9)), rng)
            fresh = matroid(q, cols)
            expect = (fresh.girth(), fresh.vertical_connectivity(),
                      fresh.vertical_connectivity(budget=9))
            M = matroid(q, cols)
            monkeypatch.setattr(RepMatroid, "_bipartition_search", counted)
            searches.clear()
            for _ in range(3):
                assert (M.girth(), M.vertical_connectivity(),
                        M.vertical_connectivity(budget=9)) == expect
            # one search per budget, each answered once
            assert searches == Counter(vertical=2)
            monkeypatch.undo()


def test_budget_refusals_are_not_cached():
    M = RepMatroid(pg_matrix(F2, 5))  # corank 26: 2^26 kernel classes
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            M.girth()
    cols = random_cols(2, 4, 12, np.random.default_rng(42))
    M = matroid(2, cols)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            M.vertical_connectivity(budget=10)
    assert M.vertical_connectivity(budget=22) == \
        matroid(2, cols).vertical_connectivity(budget=22)
    with pytest.raises(BudgetExceeded):  # an answer at 22 is no answer at 10
        M.vertical_connectivity(budget=10)


def test_partition_budget():
    M = matroid(2, [(1, 0)] * 25)
    with pytest.raises(BudgetExceeded):
        M.vertical_connectivity(budget=10)


def test_components_and_two_connectivity():
    bd = matroid(2, [(1, 0, 0), (1, 0, 0), (0, 1, 1), (0, 0, 1)])
    assert bd.components() == [frozenset({0, 1}), frozenset({2}), frozenset({3})]
    assert not bd.is_vertically_2_connected()
    u23 = matroid(2, [(1, 0), (1, 1), (0, 1)])
    assert u23.components() == [frozenset({0, 1, 2})]
    assert u23.is_vertically_2_connected()


@pytest.mark.parametrize("q", [2, 3, 4])
def test_components_match_exhaustive_circuit_search(q):
    # components() against the circuits found over every subset, with
    # loops, coloops and parallel pairs put in, ordered by smallest member
    F = make_field(q)
    rng = np.random.default_rng(290 + q)
    kinds = Counter()
    for _ in range(120):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 8))
        cols = random_cols(q, n, m, rng)
        i, j = (int(x) for x in rng.choice(m + 1, size=2, replace=False))
        kind = int(rng.integers(0, 4))
        if kind == 1 and i < m:
            cols[i] = (0,) * n
        elif kind == 2 and max(i, j) < m:  # a nonzero multiple of column i
            c = int(rng.integers(1, q))
            cols[j] = tuple(F.mul(c, x) for x in cols[i])
        elif kind == 3 and i < m:  # column i alone reaches the last row
            cols = [c[:-1] + (0,) for c in cols]
            cols[i] = (0,) * (n - 1) + (1,)
        want = brute_components(F, cols)
        M = RepMatroid(FqMatrix(F, cols, n=n))
        got = M.components()
        assert got == want, (q, cols)
        assert [min(c) for c in got] == sorted(min(c) for c in got)
        loops = set(M.loops())
        nonloop = sum(1 for c in got if not c <= loops)
        assert M.is_vertically_2_connected() == (nonloop <= 1), (q, cols)
        coloops = [c for c in got if len(c) == 1 and M.matrix.rank_of(
            [k for k in range(m) if k not in c]) < M.rank]
        kinds.update(loop=bool(loops), coloop=bool(coloops),
                     parallel=any(len(c) >= 2 for c in got), split=len(got) > 1)
    assert min(kinds.values()) >= 15, kinds


def test_two_connectivity_matches_exhaustive_search():
    # E8 takes two-connectivity from the merged circuit masks: a vertical
    # 1-separation exists exactly when more than one component holds a non-loop
    rng = np.random.default_rng(17)
    for q in (2, 3, 4):
        F = make_field(q)
        mats = [FqMatrix(F, [], n=2), FqMatrix(F, [(0, 0)], n=2),
                FqMatrix(F, [(1, 0)], n=2), FqMatrix(F, [(0, 0, 0)] * 5, n=3)]
        for _ in range(150):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 8))
            cols = random_cols(q, n, m, rng)
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            kind = int(rng.integers(0, 3))
            if kind == 1:
                cols[i] = (0,) * n
            elif kind == 2:  # a nonzero multiple of column i
                c = int(rng.integers(1, q))
                cols[j] = tuple(F.mul(c, x) for x in cols[i])
            mats.append(FqMatrix(F, cols, n=n))
        verdicts = Counter()
        for mat in mats:
            M = RepMatroid(mat)
            expect = brute_separations(F, mat.columns)["vertical"] > 1
            assert M.is_vertically_2_connected() == expect, (q, mat.columns)
            assert M.is_vertically_k_connected(2) == expect, (q, mat.columns)
            verdicts[expect] += 1
        assert verdicts[True] >= 10 and verdicts[False] >= 10, (q, verdicts)


# ---- critical number ----------------------------------------------------------

@pytest.mark.parametrize("q,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_critical_number_of_projective_geometries(q, r):
    M = RepMatroid(pg_matrix(make_field(q), r))
    assert M.critical_number() == r


def test_critical_number_small_cases():
    assert matroid(2, [(1, 0), (0, 1)]).critical_number() == 1
    assert RepMatroid(FqMatrix(F2, [], n=3)).critical_number() == 0
    with pytest.raises(LoopPresent):
        matroid(2, [(1, 0), (0, 0)]).critical_number()


def test_critical_number_never_skips_exhaustive():
    # appending a column raises chi by at most 1 (and never lowers it)
    cols2 = list(itertools.product(range(2), repeat=2))
    nonzero = [c for c in cols2 if any(c)]
    for m in (1, 2):
        for base in itertools.product(nonzero, repeat=m):
            chi = matroid(2, list(base)).critical_number()
            for extra in nonzero:
                chi2 = matroid(2, list(base) + [extra]).critical_number()
                assert chi <= chi2 <= chi + 1


def test_critical_number_matches_brute_avoidance():
    # chi = smallest k with an (n-k)-dim subspace meeting no column; up to
    # 5q columns give chi = 2 as well as chi = 1 at every q
    for q in (2, 3, 4):
        field = make_field(q)
        rng = np.random.default_rng(18)
        seen = set()
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5 * q))
            cols = [c for c in random_cols(q, n, m, rng) if any(c)]
            if not cols:
                continue
            chi = brute_critical_number(field, cols)
            assert matroid(q, cols).critical_number() == chi, (q, cols)
            seen.add(chi)
        assert seen == {1, 2}, q


# ---- fixed matrices ---------------------------------------------------------

def test_pg_matrix_shape():
    for q, r, npts in [(2, 2, 3), (2, 3, 7), (3, 2, 4), (3, 3, 13)]:
        mat = pg_matrix(make_field(q), r)
        M = RepMatroid(mat)
        assert (mat.m, M.rank) == (npts, r)
        assert M.is_simple()

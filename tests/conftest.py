"""Shared brute-force oracles, independent of the engines under test."""

import itertools

import numpy as np
import pytest

from fqmatroid.fqlinalg import SpanQ, SubspaceHandle, enumerate_subspaces, make_field


def brute_rank(field, cols):
    """Rank by textbook elimination using only FieldSpec arithmetic."""
    basis = []
    for col in cols:
        v = list(col)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if v[lead]:
                f = field.mul(v[lead], field.inv(b[lead]))
                v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
    return len(basis)


def brute_circuit_count(field, cols, k):
    """Number of k-subsets S of the columns with brute_rank(S) = k - 1
    whose (k-1)-subsets are all independent: the circuits of size k."""
    count = 0
    for sub in itertools.combinations(cols, k):
        if brute_rank(field, sub) == k - 1 and all(
                brute_rank(field, part) == k - 1
                for part in itertools.combinations(sub, k - 1)):
            count += 1
    return count


def brute_separation_kinds(field, cols, part1, part2):
    """(order, kinds) of the bipartition by brute ranks: order is
    r(X) + r(Y) - r(E) + 1, and kinds holds each of "vertical" (both
    ranks >= order), "cyclic" (both sides dependent) and "tutte" (both
    sizes >= order) whose side conditions hold."""
    r1 = brute_rank(field, [cols[j] for j in part1])
    r2 = brute_rank(field, [cols[j] for j in part2])
    order = r1 + r2 - brute_rank(field, cols) + 1
    kinds = set()
    if min(r1, r2) >= order:
        kinds.add("vertical")
    if len(part1) > r1 and len(part2) > r2:
        kinds.add("cyclic")
    if min(len(part1), len(part2)) >= order:
        kinds.add("tutte")
    return order, kinds


def brute_separations(field, cols):
    """Smallest vertical, cyclic and Tutte separation orders over every
    bipartition of the columns; inf for a kind with no separation."""
    best = dict.fromkeys(("vertical", "cyclic", "tutte"), float("inf"))
    m = len(cols)
    for mask in range(1, (1 << m) // 2):  # part2 holds column m - 1
        part1 = [j for j in range(m) if mask >> j & 1]
        part2 = [j for j in range(m) if not mask >> j & 1]
        order, kinds = brute_separation_kinds(field, cols, part1, part2)
        for kind in kinds:
            best[kind] = min(best[kind], order)
    return best


def brute_first_witness(field, cols, kind):
    """(order, part1, part2) of the first bipartition of minimal order of
    this kind in the bipartition search's depth-first order: column 0 on
    side 1, and at every later column side 1 before side 2; (inf, None,
    None) when no bipartition is a separation of the kind."""
    m = len(cols)
    best = (float("inf"), None, None)
    if m < 2:
        return best
    for sides in itertools.product((1, 2), repeat=m - 1):
        part1 = tuple([0] + [j for j, s in enumerate(sides, 1) if s == 1])
        part2 = tuple(j for j, s in enumerate(sides, 1) if s == 2)
        order, kinds = brute_separation_kinds(field, cols, part1, part2)
        if kind in kinds and order < best[0]:
            best = (order, part1, part2)
    return best


def push_pop_common_walk(span1, span2, cols, need):
    """Whether a greedy set of cols independent over both spans reaches
    size need, by push and pop alone: each column is pushed on span1, then
    on span2, and kept when both pushes return a pivot; a column that only
    span1 takes is popped from it.  The walk stops once the set reaches
    need or the columns left cannot bring it there, and every kept push is
    popped before it returns."""
    kept = []
    for j, col in enumerate(cols):
        if len(kept) == need or len(kept) + len(cols) - j < need:
            break
        p1 = span1.push(col)
        if p1 is None:
            continue
        p2 = span2.push(col)
        if p2 is None:
            span1.pop(p1)
        else:
            kept.append((p1, p2))
    for p1, p2 in reversed(kept):
        span2.pop(p2)
        span1.pop(p1)
    return len(kept) >= need


def brute_components(field, cols):
    """Direct-sum components by exhaustive search over every subset:
    columns i and j share a component exactly when some circuit (a set S
    with brute_rank(S) = |S| - 1 whose (|S|-1)-subsets are all
    independent) holds both.  Ordered by smallest member."""
    m = len(cols)
    share = [{i} for i in range(m)]
    for k in range(1, m + 1):
        for sub in itertools.combinations(range(m), k):
            vecs = [cols[j] for j in sub]
            if brute_rank(field, vecs) == k - 1 and all(
                    brute_rank(field, part) == k - 1
                    for part in itertools.combinations(vecs, k - 1)):
                for j in sub:
                    share[j].update(sub)
    comps = []
    for i in range(m):
        if min(share[i]) == i:
            comps.append(frozenset(share[i]))
    # sharing a circuit is an equivalence relation on a matroid's elements
    assert all(share[j] == share[i] for c in comps for i in c for j in c)
    return comps


def brute_basis_complement_bound(field, cols):
    """min r(X) + 1 over the complements X of the bases with X dependent
    and r(X) < r(E), by every r(E)-subset and brute ranks; inf for none."""
    m = len(cols)
    rk = brute_rank(field, cols)
    best = float("inf")
    for basis in itertools.combinations(range(m), rk):
        if brute_rank(field, [cols[j] for j in basis]) != rk:
            continue
        rest = [cols[j] for j in range(m) if j not in basis]
        rx = brute_rank(field, rest)
        if rx < len(rest) and rx < rk:
            best = min(best, rx + 1)
    return best


def brute_critical_number(field, cols):
    """Smallest k such that some k-dimensional dual space U has, for every
    column v, a row u with <u, v> != 0, so that its (n-k)-dimensional
    annihilator meets no column; None when a column is zero.  U runs over
    enumerate_subspaces and the products use only FieldSpec arithmetic."""
    if not cols:
        return 0
    if not all(any(v) for v in cols):
        return None

    def dot(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = field.add(acc, field.mul(x, y))
        return acc

    n = len(cols[0])
    for k in range(1, n + 1):
        for h in enumerate_subspaces(field, n, k):
            if all(any(dot(u, v) for u in h.rows) for v in cols):
                return k
    raise AssertionError("U = F_q^n has a row off every nonzero column")


def handle_of_span(field, n, vectors):
    """Canonical SubspaceHandle of the span of arbitrary vectors, in the
    reduced echelon form that enumerate_subspaces lists."""
    span = SpanQ(field, n)
    for vec in vectors:
        span.push(vec)
    # push reduces fully, so re-pushing each row clears it at the other
    # pivots: the reduced echelon form
    for p in list(span.rows):
        span.push(span.pop(p))
    rows = tuple(tuple(span.rows[p]) for p in sorted(span.rows))
    return SubspaceHandle(n=n, dim=len(rows), rows=rows)


def gf2_chi_at_most_one(cols):
    """chi <= 1 for GF(2) columns, at any n: some a has <a, v> = 1 for
    every column v, which is solvable exactly when the augmented vectors
    (v, 1) have the same rank as the v.  Plain ints, no subspace lists."""
    def rank(vectors):
        pivots = {}  # leading bit -> row
        for v in vectors:
            while v and v.bit_length() in pivots:
                v ^= pivots[v.bit_length()]
            if v:
                pivots[v.bit_length()] = v
        return len(pivots)

    packed = [sum(x << i for i, x in enumerate(v)) for v in cols]
    n = len(cols[0]) if cols else 0
    return rank(packed) == rank([v | 1 << n for v in packed])


def all_matrices(q, n, m):
    """Every n x m column tuple over F_q, as tuples of columns."""
    cols = list(itertools.product(range(q), repeat=n))
    return itertools.product(cols, repeat=m)


def random_cols(q, n, m, rng):
    return [tuple(int(x) for x in rng.integers(0, q, size=n)) for _ in range(m)]


def field_tables(field):
    """Dense (q, q) add/mul tables for vectorized axiom sweeps."""
    q = field.q
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = field.add(a, b)
            mul[a, b] = field.mul(a, b)
    return add, mul


def axiom_violations(field):
    """Count of field-axiom failures over all pairs/triples (0 for a field)."""
    q = field.q
    add, mul = field_tables(field)
    e = np.arange(q)
    bad = 0
    bad += int((add != add.T).sum()) + int((mul != mul.T).sum())
    bad += int((add[0] != e).sum()) + int((mul[1] != e).sum())
    bad += int((mul[0] != 0).sum())
    # every element has an additive inverse, every nonzero a multiplicative one
    bad += int((np.sort(add, axis=1) != e).sum())  # rows are permutations
    bad += int((np.sort(mul[1:, 1:], axis=1) != e[1:]).sum())
    a = e[:, None, None]
    b = e[None, :, None]
    c = e[None, None, :]
    bad += int((add[add[a, b], c] != add[a, add[b, c]]).sum())
    bad += int((mul[mul[a, b], c] != mul[a, mul[b, c]]).sum())
    bad += int((mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]).sum())
    return bad


@pytest.fixture
def f2():
    return make_field(2)


@pytest.fixture
def f3():
    return make_field(3)


@pytest.fixture
def f4():
    return make_field(4)

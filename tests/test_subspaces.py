"""Subspace enumeration, canonical handles, and projective points."""

import itertools

import numpy as np
import pytest

from fqmatroid.errors import BudgetExceeded, InvalidParam
from fqmatroid.fqlinalg import enumerate_subspaces, make_field, projective_points
from fqmatroid.theory import gaussian_binomial, q_int, subspace_count

from conftest import brute_rank, handle_of_span


def inside(field, h, v):
    """v lies in the row space of h iff adding it does not grow the rank."""
    return brute_rank(field, list(h.rows) + [v]) == h.dim


@pytest.mark.parametrize("q", [2, 3])
def test_counts_match_gaussian_binomial(q):
    F = make_field(q)
    for n in range(5):
        for k in range(n + 1):
            got = sum(1 for _ in enumerate_subspaces(F, n, k))
            assert got == gaussian_binomial(n, k, q)


def test_enumeration_is_stable_and_duplicate_free():
    F = make_field(3)
    first = [h.rows for h in enumerate_subspaces(F, 3, 2)]
    second = [h.rows for h in enumerate_subspaces(F, 3, 2)]
    assert first == second
    assert len(set(first)) == len(first)


def test_handles_are_canonical_rref():
    F = make_field(2)
    for h in enumerate_subspaces(F, 4, 2):
        piv = [next(j for j, x in enumerate(row) if x) for row in h.rows]
        assert piv == sorted(piv) and len(set(piv)) == h.dim
        for i, row in enumerate(h.rows):
            assert row[piv[i]] == 1
            for j, p in enumerate(piv):  # pivot columns are unit vectors
                assert row[p] == (1 if i == j else 0)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 3, 1), (3, 3, 2)])
def test_membership_count_is_q_to_k(q, n, k):
    F = make_field(q)
    vectors = list(itertools.product(range(q), repeat=n))
    for h in enumerate_subspaces(F, n, k):
        assert sum(1 for v in vectors if inside(F, h, v)) == q**k


def test_from_span_is_representation_independent():
    F = make_field(3)
    rng = np.random.default_rng(11)
    for _ in range(60):
        vecs = [tuple(int(x) for x in rng.integers(0, 3, size=4)) for _ in range(3)]
        h = handle_of_span(F, 4, vecs)
        # scaled, reordered, and redundantly extended spanning sets
        scaled = [tuple(F.mul(2, x) for x in v) for v in reversed(vecs)]
        extra = vecs + [tuple(F.add(a, b) for a, b in zip(vecs[0], vecs[1]))]
        assert handle_of_span(F, 4, scaled) == h
        assert handle_of_span(F, 4, extra) == h
        for v in vecs:
            assert inside(F, h, v)


def test_zero_dimension():
    F = make_field(2)
    handles = list(enumerate_subspaces(F, 3, 0))
    assert len(handles) == 1 and handles[0].dim == 0
    assert inside(F, handles[0], (0, 0, 0))
    assert not inside(F, handles[0], (1, 0, 0))


def test_bad_dimension_rejected():
    with pytest.raises(InvalidParam):
        enumerate_subspaces(make_field(2), 3, 4)


def test_budget_enforced_up_front():
    with pytest.raises(BudgetExceeded):
        enumerate_subspaces(make_field(3), 6, 3, budget=100)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (4, 2)])
def test_projective_points(q, n):
    F = make_field(q)
    pts = projective_points(F, n)
    assert len(pts) == q_int(n, q)
    assert len(set(pts)) == len(pts)
    for p in pts:
        lead = next(x for x in p if x)
        assert lead == 1  # canonical representative


def test_projective_points_cover_all_lines():
    F = make_field(3)
    pts = set(projective_points(F, 2))
    for v in itertools.product(range(3), repeat=2):
        if not any(v):
            continue
        s = F.inv(next(x for x in v if x))
        assert tuple(F.mul(s, x) for x in v) in pts


# ---- subspace_count: brute-force agreement and partition identity ----------

def _intersection_dim(F, h, fixed_rows, n):
    stacked = list(fixed_rows) + list(h.rows)
    dim_sum = handle_of_span(F, n, stacked).dim
    return len(fixed_rows) + h.dim - dim_sum


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_subspace_count_brute_force(q, n):
    F = make_field(q)
    for k in range(n + 1):
        fixed = [tuple(1 if i == j else 0 for i in range(n)) for j in range(k)]
        for j_dim in range(n + 1):
            seen = {}
            for h in enumerate_subspaces(F, n, j_dim):
                ell = _intersection_dim(F, h, fixed, n)
                seen[ell] = seen.get(ell, 0) + 1
            for ell in range(n + 1):
                assert seen.get(ell, 0) == subspace_count(n, k, j_dim, ell, q)


@pytest.mark.parametrize("q", [2, 3])
def test_subspace_count_partition_identity(q):
    for n in range(6):
        for k in range(n + 1):
            for j in range(n + 1):
                total = sum(subspace_count(n, k, j, ell, q) for ell in range(n + 1))
                assert total == gaussian_binomial(n, j, q)


def test_subspace_count_out_of_range_is_zero():
    assert subspace_count(4, 2, 2, 3, 2) == 0  # ell > min(k, j)
    assert subspace_count(4, 3, 3, 1, 2) == 0  # j - ell > n - k

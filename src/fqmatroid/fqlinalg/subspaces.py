"""Enumeration of subspaces of F_q^n in canonical reduced-echelon form."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import BudgetExceeded, InvalidParam
from ..theory import gaussian_binomial
from .fields import FieldSpec

DEFAULT_SUBSPACE_BUDGET = 10**7


@dataclass(frozen=True)
class SubspaceHandle:
    """A k-dimensional subspace as the row space of a canonical RREF matrix."""

    n: int
    dim: int
    rows: tuple  # tuple of k row tuples, pivots strictly increasing

    def pivots(self) -> list[int]:
        out = []
        for row in self.rows:
            for j, x in enumerate(row):
                if x:
                    out.append(j)
                    break
        return out

    def contains(self, field: FieldSpec, vector) -> bool:
        v = list(vector)
        for row, p in zip(self.rows, self.pivots()):
            c = v[p]
            if c:
                v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
        return not any(v)

    @classmethod
    def from_span(cls, field: FieldSpec, n: int, vectors) -> "SubspaceHandle":
        """Canonical handle for the span of arbitrary vectors."""
        basis = []  # list of (pivot, row list)
        for vec in vectors:
            v = list(vec)
            if len(v) != n:
                raise InvalidParam("vector length mismatch")
            for p, row in basis:
                c = v[p]
                if c:
                    v = [field.sub(a, field.mul(c, b)) for a, b in zip(v, row)]
            piv = next((j for j, x in enumerate(v) if x), None)
            if piv is None:
                continue
            s = field.inv(v[piv])
            v = [field.mul(s, x) for x in v]
            for i, (p, row) in enumerate(basis):
                c = row[piv]
                if c:
                    basis[i] = (p, [field.sub(a, field.mul(c, b)) for a, b in zip(row, v)])
            basis.append((piv, v))
        basis.sort(key=lambda t: t[0])
        return cls(n=n, dim=len(basis), rows=tuple(tuple(r) for _, r in basis))


def enumerate_subspaces(field: FieldSpec, n: int, k: int,
                        budget: int = DEFAULT_SUBSPACE_BUDGET):
    """Iterate every k-dimensional subspace of F_q^n exactly once.

    Subspaces come out in a stable total order: pivot patterns in
    lexicographic order, then free entries filled in row-major order with
    field elements ascending.  Raises BudgetExceeded up front when the
    subspace count passes the budget.
    """
    if not 0 <= k <= n:
        raise InvalidParam(f"dimension {k} outside [0, {n}]")
    total = gaussian_binomial(n, k, field.q)
    if total > budget:
        raise BudgetExceeded(f"{total} subspaces exceed budget {budget}")
    return _iter_subspaces(field, n, k)


def _iter_subspaces(field: FieldSpec, n: int, k: int):
    if k == 0:
        yield SubspaceHandle(n=n, dim=0, rows=())
        return
    elems = list(field.elements())
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        cells = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n)
                 if j not in pivot_set]
        for fill in itertools.product(elems, repeat=len(cells)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), val in zip(cells, fill):
                rows[i][j] = val
            yield SubspaceHandle(n=n, dim=k, rows=tuple(tuple(r) for r in rows))


def canonical_point(field: FieldSpec, col) -> tuple | None:
    """Projective representative of col (first nonzero entry 1); None for zero."""
    lead = next((x for x in col if x), 0)
    if lead <= 1:
        return tuple(col) if lead else None
    s = field.inv(lead)
    return tuple(field.mul(s, x) for x in col)


def projective_points(field: FieldSpec, n: int) -> list[tuple]:
    """Canonical representatives of the 1-dimensional subspaces of F_q^n.

    Each representative has first nonzero coordinate 1; ordering matches
    enumerate_subspaces(field, n, 1).
    """
    elems = list(field.elements())
    out = []
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            out.append((0,) * lead + (1,) + tail)
    return out

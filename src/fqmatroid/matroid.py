"""Matroid queries on column matroids of F_q matrices.

A RepMatroid wraps an FqMatrix; ground set elements are column indices
0..m-1.  Rank queries run through the shared elimination engines.
Circuits are found through kernel supports: the supports of nonzero
kernel vectors are exactly the dependent sets spanned by circuits, and a
support S is itself a circuit iff rank(S) = |S| - 1.

Connectivity searches enumerate bipartitions depth-first, assigning one
column at a time while maintaining incremental spans for both sides and
their union.  The span intersection dimension d1 + d2 - d_union can only
grow as more columns are assigned, which gives a sound lower bound for
branch-and-bound pruning.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded, ConsistencyError, InvalidParam, LoopPresent
from .fqlinalg import (
    FqMatrix,
    RrefState,
    canonical_point,
    enumerate_subspaces,
    pack_gf2,
    projective_points,
)

INFINITY = math.inf

DEFAULT_PARTITION_BUDGET = 22
DEFAULT_KERNEL_BUDGET = 1 << 24
DEFAULT_MINOR_GROUND_BUDGET = 12
_SUBSET_GIRTH_MAX_M = 14


@dataclass(frozen=True)
class Separation:
    """A bipartition witnessing a connectivity value of the given kind."""

    kind: str  # "vertical" | "cyclic" | "tutte"
    order: int
    part1: tuple
    part2: tuple


@dataclass(frozen=True)
class MinorWitness:
    contracted: tuple
    deleted: tuple
    mapping: tuple  # mapping[i] = kept column matched to target element i


class _Span2:
    """Echelon span of packed GF(2) columns with O(1) undo."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = {}

    @property
    def dim(self):
        return len(self.rows)

    def push(self, v: int):
        rows = self.rows
        while v:
            t = v.bit_length() - 1
            r = rows.get(t)
            if r is None:
                rows[t] = v
                return t
            v ^= r
        return None

    def pop(self, token):
        del self.rows[token]


class _SpanQ:
    """Echelon span over a general field with O(1) undo."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = {}

    @property
    def dim(self):
        return len(self.rows)

    def push(self, col):
        F = self.field
        v = list(col)
        n = self.n
        pos = 0
        while pos < n:
            if v[pos] == 0:
                pos += 1
                continue
            row = self.rows.get(pos)
            if row is None:
                s = F.inv(v[pos])
                self.rows[pos] = [F.mul(s, x) for x in v]
                return pos
            c = v[pos]
            for i in range(pos, n):
                if row[i]:
                    v[i] = F.sub(v[i], F.mul(c, row[i]))
        return None

    def pop(self, token):
        del self.rows[token]


class RepMatroid:
    """Matroid represented by the columns of an FqMatrix."""

    def __init__(self, matrix: FqMatrix):
        self.matrix = matrix
        self.field = matrix.field
        self.m = matrix.m
        self._points = None
        self._kernel_native = None

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def corank(self) -> int:
        return self.m - self.matrix.rank

    def ground(self) -> range:
        return range(self.m)

    # ---- basic queries -------------------------------------------------

    def rank_of_subset(self, subset) -> int:
        subset = list(subset)
        for i in subset:
            if not 0 <= i < self.m:
                raise InvalidParam(f"element {i} outside the ground set")
        return self.matrix.rank_of(subset)

    def dual_rank_of_subset(self, subset) -> int:
        subset = list(subset)
        rest = [i for i in range(self.m) if i not in set(subset)]
        return len(subset) + self.matrix.rank_of(rest) - self.rank

    def loops(self) -> list[int]:
        return [i for i, col in enumerate(self.matrix.columns) if not any(col)]

    def points(self) -> list:
        """Canonical projective representative per column; None for loops."""
        if self._points is None:
            self._points = [canonical_point(self.field, col) for col in self.matrix.columns]
        return self._points

    def is_simple(self) -> bool:
        pts = self.points()
        if any(p is None for p in pts):
            return False
        return len(set(pts)) == self.m

    def is_circuit(self, subset) -> bool:
        """True iff the subset is a minimal dependent set."""
        subset = list(subset)
        if not subset:
            return False
        st = RrefState(self.field, self.matrix.n)
        native = self.matrix.native_columns()
        dep = None
        ndep = 0
        for i in subset:
            d = st.push(native[i])
            if d is not None:
                dep = d
                ndep += 1
        return ndep == 1 and len(dep) == len(subset)

    # ---- circuits through the kernel ------------------------------------

    def _kernel_vectors_native(self):
        if self._kernel_native is None:
            basis = self.matrix.kernel_basis()
            if self.field.q == 2:
                self._kernel_native = [pack_gf2(v) for v in basis]
            else:
                self._kernel_native = [tuple(v) for v in basis]
        return self._kernel_native

    def _iter_kernel_supports(self):
        """Supports of all nonzero kernel vectors, one per projective class."""
        ker = self._kernel_vectors_native()
        c = len(ker)
        if self.field.q == 2:
            cur = 0
            for i in range(1, 1 << c):
                cur ^= ker[(i & -i).bit_length() - 1]
                yield cur.bit_count(), cur
        else:
            F = self.field
            elems = list(F.elements())
            m = self.m
            for lead in range(c):
                for tail in itertools.product(elems, repeat=c - lead - 1):
                    vec = list(ker[lead])
                    for off, coef in enumerate(tail):
                        if coef:
                            kv = ker[lead + 1 + off]
                            for j in range(m):
                                if kv[j]:
                                    vec[j] = F.add(vec[j], F.mul(coef, kv[j]))
                    supp = frozenset(j for j, x in enumerate(vec) if x)
                    yield len(supp), supp

    def girth(self, kernel_budget: int = DEFAULT_KERNEL_BUDGET):
        """Length of a shortest circuit, or math.inf for an independent set.

        The minimum support size over nonzero kernel vectors equals the
        girth, so a sweep over the kernel span suffices when q^corank is
        within budget; otherwise small ground sets fall back to subset
        search.
        """
        if self.loops():
            return 1
        pts = [p for p in self.points() if p is not None]
        if len(set(pts)) < len(pts):
            return 2
        c = self.corank
        if c == 0:
            return INFINITY
        if self.field.q**c <= kernel_budget:
            return min(size for size, _ in self._iter_kernel_supports())
        if self.m <= _SUBSET_GIRTH_MAX_M:
            for size in range(3, self.m + 1):
                for sub in itertools.combinations(range(self.m), size):
                    if self.matrix.rank_of(sub) < size:
                        return size
            return INFINITY
        raise BudgetExceeded(
            f"kernel sweep of size {self.field.q}**{c} exceeds budget {kernel_budget}")

    def circuit_spectrum(self, kernel_budget: int = DEFAULT_KERNEL_BUDGET) -> Counter:
        """Counter mapping circuit length -> number of circuits."""
        c = self.corank
        if c == 0:
            return Counter()
        if self.field.q**c > kernel_budget:
            if self.m <= _SUBSET_GIRTH_MAX_M:
                out = Counter()
                for size in range(1, self.m + 1):
                    for sub in itertools.combinations(range(self.m), size):
                        if self.is_circuit(sub):
                            out[size] += 1
                return out
            raise BudgetExceeded(
                f"kernel sweep of size {self.field.q}**{c} exceeds budget {kernel_budget}")
        seen = set()
        out = Counter()
        for size, supp in self._iter_kernel_supports():
            if supp in seen:
                continue
            seen.add(supp)
            if self.field.q == 2:
                members = [j for j in range(self.m) if (supp >> j) & 1]
            else:
                members = sorted(supp)
            if self.matrix.rank_of(members) == size - 1:
                out[size] += 1
        return out

    # ---- uniformity ------------------------------------------------------

    def is_uniform(self, kernel_budget: int = DEFAULT_KERNEL_BUDGET):
        """Return (r, n) when the matroid is the uniform matroid U_{r,n}.

        Every subset of size <= rank is independent iff the girth exceeds
        the rank, so one girth computation decides it.
        """
        g = self.girth(kernel_budget)
        if g > self.rank:
            return (self.rank, self.m)
        return None

    # ---- connectivity ----------------------------------------------------

    def _native_for_search(self):
        if self.field.q == 2:
            return [pack_gf2(c) for c in self.matrix.columns]
        return list(self.matrix.columns)

    def _make_span(self):
        if self.field.q == 2:
            return _Span2()
        return _SpanQ(self.field, self.matrix.n)

    def _bipartition_search(self, kind: str, budget: int, best_init=INFINITY,
                            abort_at: int = 1):
        """Smallest separation order of the given kind, with witness.

        Returns (order, Separation | None); order is math.inf and witness
        None when no separation beats best_init.  abort_at stops the
        search as soon as a separation at least that good is found.
        """
        m = self.m
        if m > budget:
            raise BudgetExceeded(f"{m} columns exceed partition budget {budget}")
        if m < 2:
            return INFINITY, None
        if kind == "cyclic" and self.corank < 2:
            # two disjoint dependent sets need two disjoint circuits
            return INFINITY, None
        cols = self._native_for_search()
        t1, t2, tu = self._make_span(), self._make_span(), self._make_span()
        assign = [0] * m
        state = {"best": best_init, "parts": None, "abort": False}

        def leaf(lam, d1, d2, n1, n2):
            if kind == "vertical":
                ok = n1 > 0 and n2 > 0 and min(d1, d2) >= lam + 1
            elif kind == "cyclic":
                ok = n1 > d1 and n2 > d2
            else:
                ok = n1 > 0 and n2 > 0 and min(n1, n2) >= lam + 1
            if ok and lam + 1 < state["best"]:
                state["best"] = lam + 1
                state["parts"] = (
                    tuple(j for j in range(m) if assign[j] == 1),
                    tuple(j for j in range(m) if assign[j] == 2),
                )
                if state["best"] <= abort_at:
                    state["abort"] = True

        def rec(i, n1, n2):
            if state["abort"]:
                return
            d1, d2, du = t1.dim, t2.dim, tu.dim
            lam = d1 + d2 - du
            if lam + 1 >= state["best"]:
                return
            rem = m - i
            if kind == "vertical" and min(d1, d2) + rem < lam + 1:
                return
            if kind == "tutte" and min(n1, n2) + rem < lam + 1:
                return
            if i == m:
                leaf(lam, d1, d2, n1, n2)
                return
            col = cols[i]
            pu = tu.push(col)
            for side, tr, nn1, nn2 in ((1, t1, n1 + 1, n2), (2, t2, n1, n2 + 1)):
                if i == 0 and side == 2:
                    break  # swapping sides is a symmetry
                assign[i] = side
                ps = tr.push(col)
                rec(i + 1, nn1, nn2)
                if ps is not None:
                    tr.pop(ps)
                if state["abort"]:
                    break
            if pu is not None:
                tu.pop(pu)

        rec(0, 0, 0)
        if state["parts"] is None:
            return INFINITY, None
        order = state["best"]
        return order, Separation(kind=kind, order=order,
                                 part1=state["parts"][0], part2=state["parts"][1])

    def vertical_connectivity(self, budget: int = DEFAULT_PARTITION_BUDGET):
        """Smallest order of a vertical separation; math.inf when none exists."""
        return self._bipartition_search("vertical", budget)

    def vertical_separation_below(self, bound, budget: int = DEFAULT_PARTITION_BUDGET):
        """Minimal-order vertical separation of order < bound, or (inf, None).

        Unlike vertical_connectivity this does not prove the exact value
        when nothing beats the bound; it is the building block for
        incremental trackers that escalate a trusted lower bound.
        """
        return self._bipartition_search("vertical", budget, best_init=bound,
                                        abort_at=0)

    def is_vertically_k_connected(self, k: int, budget: int = DEFAULT_PARTITION_BUDGET) -> bool:
        """True when no vertical separation of order < k exists."""
        if k <= 1:
            return True
        order, _ = self._bipartition_search("vertical", budget, best_init=k,
                                            abort_at=k - 1)
        return order == INFINITY

    def cyclic_connectivity(self, budget: int = DEFAULT_PARTITION_BUDGET):
        """Smallest order of a separation with both sides dependent."""
        return self._bipartition_search("cyclic", budget)

    def basis_complement_bound(self):
        """min r(X)+1 over dependent X with E-X a basis and r(X) < r(M).

        Such an X yields a Tutte (r(X)+1)-separation that is neither
        vertical nor cyclic, the one family the min(kappa, kappa*) identity
        misses; math.inf when no basis has a dependent complement.
        """
        rk = self.rank
        best = INFINITY
        for B in itertools.combinations(range(self.m), rk):
            if self.matrix.rank_of(B) != rk:
                continue
            X = [j for j in range(self.m) if j not in set(B)]
            rx = self.matrix.rank_of(X)
            if rx < len(X) and rx < rk and rx + 1 < best:
                best = rx + 1
        return best

    def tutte_connectivity(self, budget: int = DEFAULT_PARTITION_BUDGET,
                           cross_check: bool = True):
        """Smallest order of a Tutte separation, cross-checked for |E| >= 3.

        A minimal Tutte separation is vertical, cyclic, or splits a
        dependent set from a basis, so the direct search must agree with
        min(kappa, kappa*, basis_complement_bound); a mismatch means an
        implementation bug.
        """
        direct = self._bipartition_search("tutte", budget)
        if cross_check and self.m >= 3:
            kv, _ = self.vertical_connectivity(budget)
            kc, _ = self.cyclic_connectivity(budget)
            expect = min(kv, kc, self.basis_complement_bound())
            if direct[0] != expect:
                raise ConsistencyError(
                    f"tutte connectivity {direct[0]} != min(vertical={kv}, "
                    f"cyclic={kc}, basis-complement={self.basis_complement_bound()})")
        return direct

    def components(self) -> list[frozenset]:
        """Direct-sum components, from fundamental circuits of one basis."""
        parent = list(range(self.m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        st = RrefState(self.field, self.matrix.n)
        for i, col in enumerate(self.matrix.native_columns()):
            dep = st.push(col)
            if dep is not None:
                it = iter(dep)
                first = next(it)
                for j in it:
                    union(first, j)
        groups = {}
        for i in range(self.m):
            groups.setdefault(find(i), []).append(i)
        return [frozenset(g) for g in groups.values()]

    def is_vertically_2_connected(self) -> bool:
        """No vertical 1-separation, i.e. at most one component spans rank."""
        loops = set(self.loops())
        nonloop_components = sum(1 for comp in self.components() if not comp <= loops)
        return nonloop_components <= 1

    # ---- critical number ---------------------------------------------------

    def critical_number(self, subspace_budget: int = 10**7) -> int:
        """Smallest k such that some (n-k)-dimensional subspace avoids all
        columns.  Searches dual dimension k = 1, 2, ... via subspace
        enumeration; k = 1 short-circuits to hyperplane normals."""
        if self.loops():
            raise LoopPresent("critical number undefined with a zero column")
        if self.m == 0:
            return 0
        F = self.field
        n = self.matrix.n
        if F.q == 2:
            packed = [pack_gf2(c) for c in self.matrix.columns]
            for a in range(1, 1 << n):
                if all((a & v).bit_count() & 1 for v in packed):
                    return 1
        else:
            cols = self.matrix.columns
            for a in projective_points(F, n):
                if all(_dot(F, a, col) for col in cols):
                    return 1
        for k in range(2, n + 1):
            if F.q == 2:
                for handle in enumerate_subspaces(F, n, k, subspace_budget):
                    rows = [pack_gf2(r) for r in handle.rows]
                    if all(any((r & v).bit_count() & 1 for r in rows) for v in packed):
                        return k
            else:
                for handle in enumerate_subspaces(F, n, k, subspace_budget):
                    if all(any(_dot(F, r, col) for r in handle.rows)
                           for col in self.matrix.columns):
                        return k
        raise AssertionError("unreachable: k = n always avoids nonzero columns")

    # ---- minors -------------------------------------------------------------

    def has_minor(self, target: "RepMatroid",
                  ground_budget: int = DEFAULT_MINOR_GROUND_BUDGET):
        """Search for a minor isomorphic to target; MinorWitness or None."""
        if self.m > ground_budget:
            raise BudgetExceeded(
                f"minor search on {self.m} elements exceeds budget {ground_budget}")
        tm, tr = target.m, target.rank
        if tm > self.m or tr > self.rank:
            return None
        if target.corank > self.corank:
            return None  # minors never gain corank
        target_table = _subset_rank_table(target.matrix)
        native = self.matrix.native_columns()
        for csize in range(0, self.rank - tr + 1):
            if self.m - csize < tm:
                break
            for C in itertools.combinations(range(self.m), csize):
                if csize and self.matrix.rank_of(C) != csize:
                    continue  # contract independent sets only
                contracted = self.matrix.contract(C)
                rest = [j for j in range(self.m) if j not in set(C)]
                for kept_local in itertools.combinations(range(len(rest)), tm):
                    sub = contracted.submatrix(kept_local)
                    if sub.rank != tr:
                        continue
                    phi = _isomorphism(_subset_rank_table(sub), target_table, tm)
                    if phi is not None:
                        kept = tuple(rest[j] for j in kept_local)
                        deleted = tuple(j for j in range(self.m)
                                        if j not in set(C) and j not in set(kept))
                        inv = [0] * tm  # phi maps kept position -> target element
                        for t, b in enumerate(phi):
                            inv[b] = t
                        return MinorWitness(
                            contracted=tuple(C), deleted=deleted,
                            mapping=tuple(kept[inv[i]] for i in range(tm)))
        return None

    def contains_pg(self, r: int, search_budget: int = 10**6) -> bool:
        """True when every point of some rank-r flat appears among the
        columns (a projective-geometry restriction)."""
        if r < 1:
            raise InvalidParam("rank must be positive")
        if r > self.rank:
            return False
        F = self.field
        pts = set(p for p in self.points() if p is not None)
        n = self.matrix.n
        if r == n:
            return all(p in pts for p in projective_points(F, n))
        distinct = sorted(pts)
        per_flat = (F.q**r - 1) // (F.q - 1)
        combos = math.comb(len(distinct), r)
        if combos * per_flat > search_budget:
            raise BudgetExceeded("projective restriction search too large")
        for basis in itertools.combinations(distinct, r):
            if FqMatrix(F, basis, n=n).rank != r:
                continue
            if all(canonical_point(F, v) in pts for v in _flat_points(F, basis, n)):
                return True
        return False


def _dot(field, a, b):
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


def _flat_points(field, basis, n):
    """One representative per projective point of span(basis)."""
    r = len(basis)
    elems = list(field.elements())
    for lead in range(r):
        for tail in itertools.product(elems, repeat=r - lead - 1):
            vec = list(basis[lead])
            for off, coef in enumerate(tail):
                if coef:
                    b = basis[lead + 1 + off]
                    vec = [field.add(x, field.mul(coef, y)) for x, y in zip(vec, b)]
            yield tuple(vec)


def _subset_rank_table(mat: FqMatrix) -> list[int]:
    """rank of every column subset, indexed by bitmask."""
    m = mat.m
    F = mat.field
    table = [0] * (1 << m)
    native = mat.native_columns() if F.q != 2 else [pack_gf2(c) for c in mat.columns]
    # echelon basis per mask, built from the predecessor without the low bit
    basis_of = [None] * (1 << m)
    basis_of[0] = {}
    for mask in range(1, 1 << m):
        low = mask & -mask
        j = low.bit_length() - 1
        prev = mask ^ low
        rows = dict(basis_of[prev])
        col = native[j]
        if F.q == 2:
            v = col
            added = False
            while v:
                t = v.bit_length() - 1
                r = rows.get(t)
                if r is None:
                    rows[t] = v
                    added = True
                    break
                v ^= r
        else:
            v = list(col)
            added = False
            pos = 0
            while pos < mat.n:
                if v[pos] == 0:
                    pos += 1
                    continue
                row = rows.get(pos)
                if row is None:
                    s = F.inv(v[pos])
                    rows[pos] = tuple(F.mul(s, x) for x in v)
                    added = True
                    break
                c = v[pos]
                v = [F.sub(a, F.mul(c, b)) if i >= pos else a
                     for i, (a, b) in enumerate(zip(v, row))]
        basis_of[mask] = rows
        table[mask] = table[prev] + (1 if added else 0)
    return table


def _isomorphism(ra: list[int], rb: list[int], s: int):
    """Bijection [s] -> [s] carrying rank table ra onto rb, or None."""
    if ra[-1] != rb[-1]:
        return None
    phi = [None] * s
    used = [False] * s
    phimask = [0] * (1 << s)

    def rec(t, prefix_mask):
        if t == s:
            return True
        for b in range(s):
            if used[b]:
                continue
            if ra[1 << t] != rb[1 << b]:
                continue
            ok = True
            sub = prefix_mask
            while True:
                am = sub | (1 << t)
                if ra[am] != rb[phimask[sub] | (1 << b)]:
                    ok = False
                    break
                phimask[am] = phimask[sub] | (1 << b)
                if sub == 0:
                    break
                sub = (sub - 1) & prefix_mask
            if ok:
                phi[t] = b
                used[b] = True
                if rec(t + 1, prefix_mask | (1 << t)):
                    return True
                used[b] = False
        return False

    if rec(0, 0):
        return phi
    return None


def pg_matrix(field, r: int) -> FqMatrix:
    """Matrix whose columns are all projective points of F_q^r."""
    return FqMatrix(field, projective_points(field, r), n=r)


def uniform_matroid_matrix(field, r: int, n: int) -> FqMatrix:
    """A representation of U_{r,n} over F_q, when one exists.

    Columns are chosen so that every r of them are independent (a
    Vandermonde-style construction); requires n <= q + 1 for 1 < r < n.
    """
    if r == 0:
        return FqMatrix(field, [(0,) * max(r, 1) for _ in range(n)], n=max(r, 1))
    if r == n:
        cols = [tuple(1 if i == j else 0 for i in range(r)) for j in range(n)]
        return FqMatrix(field, cols, n=r)
    if r == 1:
        return FqMatrix(field, [(1,) for _ in range(n)], n=1)
    if n > field.q + 1:
        raise InvalidParam(f"U_{{{r},{n}}} needs n <= q+1 over F_{field.q}")
    cols = []
    for x in range(field.q):
        col, acc = [], 1
        for _ in range(r):
            col.append(acc)
            acc = field.mul(acc, x)
        cols.append(tuple(col))
    cols.append(tuple(0 if i < r - 1 else 1 for i in range(r)))
    return FqMatrix(field, cols[:n], n=r)

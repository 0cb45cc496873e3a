"""Matroid queries on column matroids of F_q matrices.

A RepMatroid wraps an FqMatrix; ground set elements are column indices
0..m-1.  Rank queries run through the shared elimination engines.
Circuits are found through kernel supports: KernelSweep lists one
nonzero kernel vector per projective class as the dependencies arrive.
Every circuit is the support of such a vector, and a support S is itself
a circuit iff rank(S) = |S| - 1.

Connectivity searches enumerate bipartitions depth-first, assigning one
column at a time to one of two incremental side spans.  Columns are
assigned in index order, so the union of the sides at depth i spans
rank(cols[:i]), read from a prefix-rank list computed once.  The span
intersection dimension d1 + d2 - rank(cols[:i]) can only grow as more
columns are assigned, which gives a sound lower bound for
branch-and-bound pruning.

A bipartition A, B is a vertical separation exactly when neither side
spans M: with order r(A) + r(B) - r(M) + 1, r(A) >= order is the same
as r(B) <= r(M) - 1.  Side ranks only grow, so the vertical search ends
a branch as soon as one side's rank reaches r(M).  That prunes no
vertical leaf.

The vertical search has a second bound.  At an inner node with sides
A, B of ranks d1, d2, a greedy walk over the unassigned columns keeps a
set I independent in both M/A and M/B.  A completion that sends the
part X of I to side 1 and the rest Y to side 2 raises d1 by at least
|X| and d2 by at least |Y|, so its order is at least
d1 + d2 + |I| - r(M) + 1, and the subtree is pruned when that reaches
the best order so far.  Since |I| <= r(M) - max(d1, d2), the walk runs
only when min(d1, d2) + 1 reaches it, and it stops as soon as |I| is
large enough to prune or the columns left cannot make it so; each span
class walks it in common_reaches, at q = 2 on copies of the two sides' row
tables, with no push or pop.  A child whose order already reaches the best
is not entered.  A pruned subtree holds no leaf below the best, so the
first minimal leaf in depth-first order, and with it the order and the
witness, is the same as without the bound.

basis_complement_bound walks the same way: it splits the columns, in
index order, into a basis B and its complement X on two undoable spans,
and drops a branch at the first dependent prefix of B or once r(X)
rules out every completion.

The direct-sum components need no search: the supports of the
fundamental circuits of one greedy basis, merged as column masks where
they meet, are the components with a circuit, and the columns that no
support covers are the coloops.

A RepMatroid caches what does not change with its matrix: the points,
girth() and vertical_connectivity(budget) per budget.  A query that
raises BudgetExceeded caches nothing, so it raises again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, ConsistencyError, InvalidParam, LoopPresent
from .fqlinalg import (
    FqMatrix,
    RrefState,
    Span2,
    SpanQ,
    canonical_point,
    level_deaths,
    projective_points,
)

INFINITY = math.inf

DEFAULT_PARTITION_BUDGET = 22
DEFAULT_KERNEL_BUDGET = 1 << 24


@dataclass(frozen=True)
class Separation:
    """A bipartition witnessing a connectivity value of the given kind."""

    kind: str  # "vertical" | "cyclic" | "tutte"
    order: int
    part1: tuple
    part2: tuple


class KernelSweep:
    """Every projective class of nonzero kernel vectors, once, as the
    dependencies arrive.

    add() takes what RrefState.push returned for a dependent column and
    yields, as column masks, the supports of that dependency plus every
    combination of the dependencies added before it.  Only the newest
    dependency touches its own column, with coefficient 1, so these are
    the classes whose newest nonzero coefficient is on it: q^j masks after
    j earlier adds, and every class once over all adds.  At q = 2 the walk
    is a Gray code over the earlier masks, otherwise a product over the
    coefficients of the earlier dicts.  add() stores the dependency before
    it returns the walk, so a caller may stop a walk early.
    """

    def __init__(self, field):
        self.field = field
        self.vectors: list = []  # masks at q = 2, dependency dicts otherwise

    def add(self, dep: dict):
        prev = self.vectors[:]
        if self.field.q == 2:
            mask = 0
            for j in dep:
                mask |= 1 << j
            self.vectors.append(mask)
            return self._gray_walk(mask, prev)
        self.vectors.append(dep)
        return self._product_walk(dep, prev)

    @staticmethod
    def _gray_walk(cur: int, prev: list):
        yield cur
        for i in range(1, 1 << len(prev)):
            cur ^= prev[(i & -i).bit_length() - 1]
            yield cur

    def _product_walk(self, dep: dict, prev: list):
        F = self.field
        for coefs in itertools.product(F.elements(), repeat=len(prev)):
            acc = dict(dep)
            for cf, vec in zip(coefs, prev):
                if cf:
                    for j, x in vec.items():
                        acc[j] = F.add(acc.get(j, 0), F.mul(cf, x))
            mask = 0
            for j, x in acc.items():
                if x:
                    mask |= 1 << j
            yield mask


class RepMatroid:
    """Matroid represented by the columns of an FqMatrix."""

    def __init__(self, matrix: FqMatrix):
        self.matrix = matrix
        self.field = matrix.field
        self.m = matrix.m
        self._points = None
        self._girth = None
        self._kappa: dict = {}  # partition budget -> vertical_connectivity's answer

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def corank(self) -> int:
        return self.m - self.matrix.rank

    # ---- basic queries -------------------------------------------------

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

    def girth(self):
        """Length of a shortest circuit, or math.inf for an independent set.

        The minimum support size over nonzero kernel vectors equals the
        girth, so one KernelSweep over the dependencies decides it; it
        refuses when q^corank exceeds DEFAULT_KERNEL_BUDGET.
        """
        if self._girth is None:
            self._girth = self._sweep_girth()
        return self._girth

    def _sweep_girth(self):
        if self.loops():
            return 1
        pts = [p for p in self.points() if p is not None]
        if len(set(pts)) < len(pts):
            return 2
        c = self.corank
        if c == 0:
            return INFINITY
        if self.field.q**c > DEFAULT_KERNEL_BUDGET:
            raise BudgetExceeded(
                f"kernel sweep of size {self.field.q}**{c} exceeds budget "
                f"{DEFAULT_KERNEL_BUDGET}")
        sweep = KernelSweep(self.field)
        st = RrefState(self.field, self.matrix.n)
        best = INFINITY
        for col in self.matrix.native_columns():
            dep = st.push(col)
            if dep is not None:
                best = min(best, min(mask.bit_count() for mask in sweep.add(dep)))
        return best

    # ---- uniformity ------------------------------------------------------

    def is_uniform(self):
        """Return (r, n) when the matroid is the uniform matroid U_{r,n}.

        Every subset of size <= rank is independent iff the girth exceeds
        the rank, so one girth computation decides it.
        """
        if self.girth() > self.rank:
            return (self.rank, self.m)
        return None

    # ---- connectivity ----------------------------------------------------

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
        cols, (t1, t2, tu) = _spans(self.matrix, 3)
        # every column joins the union in index order, whichever side it
        # takes, so at depth i the union span has rank(cols[:i])
        ranks = [0]
        for col in cols:
            ranks.append(ranks[-1] + (tu.push(col) is not None))
        push1, pop1, push2, pop2 = t1.push, t1.pop, t2.push, t2.pop
        common = t1.common_reaches
        vertical, cyclic, tutte = kind == "vertical", kind == "cyclic", kind == "tutte"
        assign = [0] * m
        best, parts = best_init, None
        rank = ranks[-1]

        def rec(i, n1, n2, d1, d2):
            """Search below depth i, sides of sizes n1, n2 and ranks d1, d2;
            True once a separation within abort_at stops the search."""
            nonlocal best, parts
            order = d1 + d2 - ranks[i] + 1  # can only grow deeper down
            if order >= best:
                return False
            # a side that spans M stays spanning, so no leaf below is vertical
            if vertical and max(d1, d2) == rank:
                return False
            rem = m - i
            if tutte and min(n1, n2) + rem < order:
                return False
            # common-independent-set bound, see the module docstring
            if vertical and rem and min(d1, d2) + 1 >= best and \
                    common(t2, cols[i:], best - 1 - d1 - d2 + rank):
                return False
            if i == m:
                # the two prunes above leave only the cyclic side
                # condition open: order >= 1 makes both sides nonempty
                if cyclic and not (n1 > d1 and n2 > d2):
                    return False
                best = order
                parts = (tuple(j for j in range(m) if assign[j] == 1),
                         tuple(j for j in range(m) if assign[j] == 2))
                return order <= abort_at
            col = cols[i]
            # a child's order is base, or base + 1 when its push is
            # independent; the child would return at once when that
            # reaches best, so it is not called
            base = d1 + d2 - ranks[i + 1] + 1
            assign[i] = 1
            p = push1(col)
            if p is None:
                stop = rec(i + 1, n1 + 1, n2, d1, d2)
            else:
                stop = base + 1 < best and rec(i + 1, n1 + 1, n2, d1 + 1, d2)
                pop1(p)
            if stop or i == 0:  # swapping sides at column 0 is a symmetry
                return stop
            assign[i] = 2
            p = push2(col)
            if p is None:
                return rec(i + 1, n1, n2 + 1, d1, d2)
            stop = base + 1 < best and rec(i + 1, n1, n2 + 1, d1, d2 + 1)
            pop2(p)
            return stop

        rec(0, 0, 0, 0, 0)
        if parts is None:
            return INFINITY, None
        return best, Separation(kind=kind, order=best, part1=parts[0], part2=parts[1])

    def vertical_connectivity(self, budget: int = DEFAULT_PARTITION_BUDGET):
        """Smallest order of a vertical separation; math.inf when none exists."""
        found = self._kappa.get(budget)
        if found is None:
            found = self._kappa[budget] = self._bipartition_search("vertical", budget)
        return found

    def vertical_separation_below(self, bound, budget: int = DEFAULT_PARTITION_BUDGET):
        """Minimal-order vertical separation of order < bound, or (inf, None).

        Unlike vertical_connectivity this does not prove the exact value
        when nothing beats the bound.
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
        m, rk = self.m, self.rank
        free = m - rk  # |X|
        cap = min(rk, free)  # X is dependent and r(X) < r(M) iff r(X) < cap
        cols, (tb, tx) = _spans(self.matrix, 2)
        best = INFINITY

        def rec(i, nb, rx):
            """Columns before i are split into an independent B of size nb
            and an X of rank rx; r(X) only grows, so a branch ends once rx
            reaches cap or rx + 1 reaches best."""
            nonlocal best
            if rx >= cap or rx + 1 >= best:
                return
            if i == m:
                best = rx + 1
                return
            col = cols[i]
            if nb < rk:
                p = tb.push(col)
                if p is not None:  # a dependent B prefix extends to no basis
                    rec(i + 1, nb + 1, rx)
                    tb.pop(p)
            if i - nb < free:
                p = tx.push(col)
                if p is None:
                    rec(i + 1, nb, rx)
                else:
                    rec(i + 1, nb, rx + 1)
                    tx.pop(p)

        rec(0, 0, 0)
        return best

    def tutte_connectivity(self, budget: int = DEFAULT_PARTITION_BUDGET):
        """Smallest order of a Tutte separation, cross-checked for |E| >= 3.

        A minimal Tutte separation is vertical, cyclic, or splits a
        dependent set from a basis, so the direct search must agree with
        min(kappa, kappa*, basis_complement_bound); a mismatch means an
        implementation bug.
        """
        direct = self._bipartition_search("tutte", budget)
        if self.m >= 3:
            kv, _ = self.vertical_connectivity(budget)
            kc, _ = self.cyclic_connectivity(budget)
            kb = self.basis_complement_bound()
            if direct[0] != min(kv, kc, kb):
                raise ConsistencyError(
                    f"tutte connectivity {direct[0]} != min(vertical={kv}, "
                    f"cyclic={kc}, basis-complement={kb})")
        return direct

    def _circuit_components(self) -> tuple[list[int], int]:
        """(groups, coloops) as column masks: the supports of the
        fundamental circuits of one greedy basis, merged where they meet,
        and the columns no circuit holds.  These circuits join exactly the
        components, and a loop is a one-bit group."""
        st = RrefState(self.field, self.matrix.n)
        cols = iter(self.matrix.native_columns())
        groups, covered = [], 0
        while (dep := st.push_run(cols)[1]) is not None:
            mask = 0
            for j in dep:
                mask |= 1 << j
            covered |= mask
            for g in groups:
                if g & mask:
                    mask |= g
            groups = [g for g in groups if not g & mask] + [mask]
        return groups, ((1 << self.m) - 1) & ~covered

    def components(self) -> list[frozenset]:
        """Direct-sum components, ordered by their smallest member."""
        groups, coloops = self._circuit_components()
        groups += [1 << j for j in range(self.m) if coloops >> j & 1]
        return [frozenset(j for j in range(self.m) if g >> j & 1)
                for g in sorted(groups, key=lambda g: g & -g)]

    def is_vertically_2_connected(self) -> bool:
        """No vertical 1-separation, i.e. at most one component holds a
        non-loop."""
        groups, coloops = self._circuit_components()
        return sum(g & (g - 1) != 0 for g in groups) + coloops.bit_count() <= 1

    # ---- critical number ---------------------------------------------------

    def critical_number(self) -> int:
        """Smallest k such that some (n-k)-dimensional subspace avoids all
        columns; 0 with no columns.  It is the first level k whose largest
        death index is the number of columns (fqlinalg.level_deaths), so it
        raises BudgetExceeded rather than build a level of more than 10^6
        candidate subspaces."""
        if self.loops():
            raise LoopPresent("critical number undefined with a zero column")
        return len(level_deaths(self.field, self.matrix.n, list(self.matrix.columns), [0])) - 1


def _spans(mat: FqMatrix, k: int):
    """The columns in span form and k empty spans over them: at q = 2 the
    packed columns that the gf2 engine also takes."""
    if mat.field.q == 2:
        return mat.native_columns(), [Span2(mat.n) for _ in range(k)]
    return list(mat.columns), [SpanQ(mat.field, mat.n) for _ in range(k)]


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

"""The growing random matrix A_1, A_2, ... and hitting-time trackers.

Each column is drawn uniformly from F_q^n and appended; the represented
matroid M[A_m] evolves as columns arrive.  ProcessState.step returns the
new column's dependency as RrefState.push gave it: the first one that is
not None is the first circuit, and a support of one column is a loop.
Trackers observe a single trajectory and report the first step at which
their property holds.
Everything is deterministic given (master seed, trial index): trial i
reads from a counter-based stream keyed by (seed, i), so parallel runs
reproduce serial ones exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BudgetExceeded, ConsistencyError, InvalidParam
from .fqlinalg import (
    FieldSpec,
    FqMatrix,
    RrefState,
    draw_native_column,
    make_field,
    native_point,
    native_to_tuple,
    projective_points,
)
from .matroid import (
    DEFAULT_KERNEL_BUDGET,
    DEFAULT_PARTITION_BUDGET,
    INFINITY,
    ComponentTracker,
    KernelSweep,
    RepMatroid,
)
from .theory import gaussian_binomial, q_int

DEFAULT_TRACK_SUBSPACE_BUDGET = 10 ** 6

# ProcessState draws its columns this many at a time
_DRAW_BLOCK = 64


def process_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Per-trial stream from a counter-based generator.

    Keying by (master_seed, trial) makes trial streams independent of
    execution order and of how trials are sharded across workers.
    """
    return np.random.Generator(np.random.Philox(key=[master_seed, trial]))


class ProcessState:
    """One trajectory of the uniform column process over F_q^n.

    Keeps engine-native columns plus an incremental elimination state;
    each step returns the sparse dependency dict that push returned.
    """

    def __init__(self, field: FieldSpec, n: int, rng):
        if n < 1:
            raise InvalidParam("need at least one row")
        self.field = field
        self.n = n
        self.rng = rng
        self._ahead: list = []  # drawn, not yet pushed; pop() gives the next
        self.rref = RrefState(field, n)
        self.native_cols: list = []
        self.corank_history: list[int] = []
        self.m = 0

    @property
    def rank(self) -> int:
        return self.rref.rank

    @property
    def corank(self) -> int:
        return self.rref.corank

    def step(self) -> dict | None:
        """Draw one uniform column and append it; returns what
        RrefState.push returned for it: None when it is independent of the
        columns before it, else a kernel vector {column index: coefficient}
        whose support includes the new column.

        Columns are drawn _DRAW_BLOCK at a time, so the state reads its rng
        ahead: once it has stepped, nothing else may draw from that rng."""
        if not self._ahead:
            self._ahead = draw_native_column(self.field, self.n, self.rng,
                                             count=_DRAW_BLOCK)[::-1]
        col = self._ahead.pop()
        prev_corank = self.corank_history[-1] if self.corank_history else 0
        dep = self.rref.push(col)
        self.native_cols.append(col)
        self.m += 1
        c = self.rref.corank
        if c not in (prev_corank, prev_corank + 1):
            raise ConsistencyError(
                f"corank jumped {prev_corank} -> {c} at step {self.m}")
        self.corank_history.append(c)
        return dep

    def column_tuples(self) -> list[tuple]:
        return [native_to_tuple(self.field, self.n, c) for c in self.native_cols]

    def matrix(self) -> FqMatrix:
        return FqMatrix(self.field, self.column_tuples(), n=self.n)

    def matroid(self) -> RepMatroid:
        return RepMatroid(self.matrix())


# ---- elementary hitting times -----------------------------------------


def track_first_circuit(state: ProcessState) -> tuple[int, int]:
    """Step and exact length of the first circuit.

    The first dependent column leaves a one-dimensional kernel whose
    generator's support is the circuit; a zero column gives length 1.
    """
    if state.corank:
        raise InvalidParam("the first circuit has already appeared")
    while (dep := state.step()) is None:
        pass
    return state.m, len(dep)


# ---- k-circuit tracking -------------------------------------------------


def _rank_of_mask(state: ProcessState, mask: int) -> int:
    """Rank of the columns whose bits are set in mask."""
    probe = RrefState(state.field, state.n)
    while mask:
        low = mask & -mask
        probe.push(state.native_cols[low.bit_length() - 1])
        mask ^= low
    return probe.rank


def track_k_circuit(state: ProcessState, k: int,
                    kernel_budget: int = DEFAULT_KERNEL_BUDGET,
                    max_steps: int | None = None) -> int | None:
    """First step with a circuit of length exactly k; None if censored.

    k=1 is the first zero column and k=2 the first repeated projective
    point, both O(1) per step.  The kernel sweep gives the same step, but
    at n <= 2 zero and parallel columns soon push q^corank past the
    budget.  Larger k inspects, at each dependent step, only the kernel
    classes its dependency opens (KernelSweep; circuits never disappear):
    a support S of size k is a circuit iff rank(S) = k - 1.  Raises
    BudgetExceeded once q^corank exceeds kernel_budget.
    """
    if k < 1:
        raise InvalidParam("circuit length must be >= 1")
    field, n = state.field, state.n
    if state.m:
        raise InvalidParam("k-circuit tracking must start from an empty state")
    if k > n + 1:
        # every circuit spans at most rank+1 <= n+1 columns
        return None
    if k <= 2:
        seen: set = set()
        while max_steps is None or state.m < max_steps:
            state.step()
            pt = native_point(field, n, state.native_cols[-1])
            if k == 1 and pt is None or k == 2 and pt in seen:
                return state.m
            if pt is not None:
                seen.add(pt)
        return None
    sweep = KernelSweep(field)
    while max_steps is None or state.m < max_steps:
        dep = state.step()
        if dep is None:
            continue
        if field.q ** state.corank > kernel_budget:
            raise BudgetExceeded(
                f"kernel sweep q^{state.corank} exceeds budget {kernel_budget}"
                f" at step {state.m}")
        for mask in sweep.add(dep):
            if mask.bit_count() == k and _rank_of_mask(state, mask) == k - 1:
                return state.m
    return None


# ---- connectivity tracking ----------------------------------------------


def track_connectivity(state: ProcessState, k: int,
                       partition_budget: int = DEFAULT_PARTITION_BUDGET,
                       min_steps: int = 0,
                       max_steps: int | None = None) -> int | None:
    """First step m >= min_steps with vertical connectivity >= k; None if
    censored, that is when no such m <= max_steps exists.

    With a single column the matroid is vacuously k-connected for every
    k, so the literal hitting time is 1; min_steps lets callers skip
    that degenerate free phase.  k=2 runs on incremental components;
    k>=3 re-proves connectivity by bounded bipartition search and raises
    BudgetExceeded once m outgrows the partition budget.
    """
    if k < 1:
        raise InvalidParam("connectivity target must be >= 1")
    cap = INFINITY if max_steps is None else max_steps
    if max(1, min_steps, state.m) > cap:
        return None
    while state.m < max(1, min_steps):
        state.step()
    if k == 1 or state.m == 1:
        return state.m
    if k == 2:
        comps = ComponentTracker()
        # replay history, then extend
        probe = RrefState(state.field, state.n)
        for col in state.native_cols:
            comps.add(probe.push(col))
        while comps.nonloop_roots > 1:
            if state.m >= cap:
                return None
            comps.add(state.step())
        return state.m
    while True:
        if state.m > partition_budget:
            raise BudgetExceeded(
                f"{state.m} columns exceed partition budget {partition_budget}")
        if state.matroid().is_vertically_k_connected(k, budget=partition_budget):
            return state.m
        if state.m >= cap:
            return None
        state.step()


@dataclass
class KappaTrace:
    """Step-by-step vertical connectivity along one trajectory."""

    kappas: list  # kappas[i] = kappa(M[A_{i+1}])
    full_rank_at: int | None
    decreases: list  # (step m, previous kappa, kappa at m)

    def post_full_rank_decreases(self) -> list:
        if self.full_rank_at is None:
            return []
        return [d for d in self.decreases if d[0] > self.full_rank_at]


def _seeded_vertical_connectivity(M: RepMatroid, sep, budget: int):
    """M.vertical_connectivity(budget), seeded with sep: a vertical witness
    for the columns before M's newest one, or None.

    Putting the newest column on either side of sep gives two
    bipartitions.  When one is vertical, of order k, kappa <= k and the
    search only looks below k + 1.  The first minimal leaf in the search's
    order is never pruned by that bound, so the order and the witness
    equal the unseeded search's.
    """
    if sep is not None:
        rank_of, e = M.matrix.rank_of, M.m - 1
        r1, r2 = rank_of(sep.part1), rank_of(sep.part2)
        seed = INFINITY
        for a, b in ((rank_of(sep.part1 + (e,)), r2), (r1, rank_of(sep.part2 + (e,)))):
            order = a + b - M.rank + 1
            if min(a, b) >= order:
                seed = min(seed, order)
        if seed is not INFINITY:
            return M.vertical_separation_below(seed + 1, budget)
    return M.vertical_connectivity(budget)


def kappa_trajectory(state: ProcessState, horizon: int,
                     partition_budget: int = DEFAULT_PARTITION_BUDGET) -> KappaTrace:
    """Exact kappa at every step up to the horizon, with a decrease monitor.

    Each step runs one exact bipartition search, seeded from the previous
    step's witness (_seeded_vertical_connectivity); kappa and its witness
    equal those of an unseeded search.  Once the rank is stable, deleting
    the newest column at equal rank preserves k-connectedness, so any
    decrease the monitor records after full rank would be a genuine
    counterexample (or an implementation bug).
    """
    if state.m:
        raise InvalidParam("kappa trajectory must start from an empty state")
    if horizon > partition_budget:
        raise BudgetExceeded(
            f"horizon {horizon} exceeds partition budget {partition_budget}")
    kappas: list = []
    decreases: list = []
    full_rank_at = None
    prev = None
    witness = None
    prev_rank = 0
    for _ in range(horizon):
        state.step()
        grew = state.rank > prev_rank
        prev_rank = state.rank
        if full_rank_at is None and state.rank == state.n:
            full_rank_at = state.m
        if prev is INFINITY and not grew:
            cur = INFINITY  # still no separation after an equal-rank step
        else:
            cur, witness = _seeded_vertical_connectivity(
                state.matroid(), witness, partition_budget)
        if prev is not None and cur < prev:
            decreases.append((state.m, prev, cur))
        kappas.append(cur)
        prev = cur
    return KappaTrace(kappas=kappas, full_rank_at=full_rank_at,
                      decreases=decreases)


# ---- critical number tracking -------------------------------------------


@lru_cache(maxsize=64)
def _schubert_cells(q: int, n: int, k: int) -> tuple:
    """Per pivot pattern (Schubert cell) of the k-dimensional subspaces of F_q^n,
    in enumerate_subspaces order, the open mesh (np.ix_) of the projective_points
    indices its k reduced basis rows run through; raveled in C order, it lists
    the cell's spaces in table order.  Point (0,..,0,1,x_{l+1},..) has index
    offsets[l] + sum_j x_j q^(n-1-j), and the smallest free j varies slowest."""
    offsets = np.cumsum([0] + [q ** (n - 1 - lead) for lead in range(n - 1)])
    cells = []
    for pivots in itertools.combinations(range(n), k):
        places = [[np.arange(q) * q ** (n - 1 - j)
                   for j in range(lead + 1, n) if j not in pivots] for lead in pivots]
        cells.append(np.ix_(*[np.ravel(offsets[lead] + sum(np.ix_(*row)))
                              for lead, row in zip(pivots, places)]))
    return tuple(cells)


@lru_cache(maxsize=64)
def _normal_bases(q: int, n: int, k: int) -> np.ndarray:
    """Reduced bases of the k-dimensional subspaces U of F_q^n, in table order, as
    (k, N) indices into projective_points(F_q, n); U encodes its annihilator."""
    arr = np.concatenate([np.array(np.broadcast_arrays(*mesh), dtype=np.int64).reshape(
        k, -1 if k else 1) for mesh in _schubert_cells(q, n, k)], axis=1)
    arr.setflags(write=False)
    return arr


def _dual_normal_bases(n: int, k: int, q: int = 2) -> np.ndarray:
    return _normal_bases(q, n, k)  # one cache entry for every call form


@lru_cache(maxsize=16)  # E10: the reporter's 8 (q, n) pairs beside the trials' 2
def _digit_tables(q: int, n: int) -> tuple:
    """Base-p digits (least significant first) of projective_points(F_q, n),
    n*e per point; and the multiplication map of every element x of F_q,
    a (q, e, e) array whose row t holds the digits of x * X^t.  Both are
    float64, so products run in BLAS and stay exact."""
    field = make_field(q)
    p, e = field.p, field.e
    elem = (np.arange(q)[:, None] // p ** np.arange(e) % p).astype(np.float64)
    step = np.eye(e, k=1)  # digits(X*y) = digits(y) @ step mod p
    step[e - 1] = [-c % p for c in field.modulus[:e]]
    maps = [elem]
    for _ in range(e - 1):
        maps.append(maps[-1] @ step % p)
    # points led by coordinate l: e_l plus the base-q digits of arange(q^(n-1-l))
    places = q ** np.arange(n - 1, -1, -1)
    coords = np.concatenate([np.arange(q ** (n - 1 - lead))[:, None] // places % q
                             + np.eye(n, dtype=np.int64)[lead] for lead in range(n)])
    return elem[coords].reshape(len(coords), -1), np.stack(maps, axis=1)


class _CriticalTracker:
    """Current chi via the shrinking set of avoiding subspaces.

    At level k the tracker keeps every codimension-k subspace that still
    avoids all columns; a new column prunes the set, and chi increments
    by exactly one when the set dies (a rebuild at the next level that
    also comes up empty would be a skip, which is recorded rather than
    assumed away).

    A codimension-k subspace is the annihilator of a k-dimensional dual
    space U whose reduced basis rows u_1..u_k are projective points, and
    it avoids column v exactly when <u_i, v> != 0 for some i.  A rebuild
    tabulates that test for every point and column, one bit per column, and
    keeps the U whose k rows OR to all ones, by an outer OR over each Schubert
    cell's mesh that reads no table of bases; a prune keeps the U with a row
    off the new column's hyperplane.  Only `cols` and `alive` outlive a call.
    RepMatroid.critical_number runs on this tracker too.
    """

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.level = 0
        self.cols: list[tuple] = []
        self.skips: list[int] = []
        self.alive = np.empty(0, dtype=np.intp)  # indices into _dual_normal_bases(n, level, q)

    def _nonzero(self, cols, points=slice(None)) -> np.ndarray:
        """<a, v> != 0 for the projective points a at `points` (an index
        array of any shape; all points by default) and the columns v, as a
        bool array of that shape plus a len(cols) axis.  It is one product
        over F_p of the points' digits with the multiplication maps of the
        columns' entries; its sums stay below n*e*p^2 < 2^53, so float64
        is exact."""
        digits, mul = _digit_tables(self.field.q, self.n)
        p, e = self.field.p, self.field.e
        # row (i, t) of a column's map holds the digits of entry i times X^t
        maps = mul[np.asarray(cols)].transpose(1, 2, 0, 3).reshape(self.n * e, -1)
        prod = digits[points] @ maps
        # prod mod p != 0, without the slow float modulo
        return (prod != p * np.floor(prod / p)).reshape(*prod.shape[:-1], -1, e).any(axis=-1)

    def _rebuild(self, k: int) -> None:
        count = gaussian_binomial(self.n, k, self.field.q)
        if count > DEFAULT_TRACK_SUBSPACE_BUDGET:
            raise BudgetExceeded(f"{count} candidate subspaces at level {k} exceed"
                                 f" budget {DEFAULT_TRACK_SUBSPACE_BUDGET}")
        # 64 columns a word, padding bits set, so a surviving OR is all ones
        syn = np.packbits(np.pad(self._nonzero(self.cols), ((0, 0), (0, -len(self.cols) % 64)),
                                 constant_values=True), axis=1).view(np.uint64)
        cells, ok = _schubert_cells(self.field.q, self.n, k), np.ones(count, dtype=bool)
        for word in syn.T:
            ok &= np.concatenate([reduce(np.bitwise_or, [word[ix] for ix in mesh]).ravel()
                                  == ~np.uint64(0) for mesh in cells])
        self.alive = np.flatnonzero(ok)

    def _prune(self, col: tuple) -> None:
        rows = _dual_normal_bases(self.n, self.level, self.field.q)[:, self.alive]
        # <a, col> at the survivors' rows, or at every point once those
        # rows outnumber the points
        if rows.size < len(_digit_tables(self.field.q, self.n)[0]):
            hit = self._nonzero([col], rows)[..., 0]
        else:
            hit = self._nonzero([col])[rows, 0]
        self.alive = self.alive[hit.any(axis=0)]

    def add(self, col: tuple, cap: int | None = None) -> int:
        """Absorb one nonzero column; returns chi of the columns so far.

        With a cap, the tracker stops rising at level `cap`: once that
        level's set dies it returns cap + 1 (chi >= cap + 1) and builds no
        level above it."""
        if not any(col):
            raise InvalidParam("chi is undefined once a loop is present")
        self.cols.append(col)
        if self.level:
            self._prune(col)
        while len(self.alive) == 0:
            if self.level == cap:
                return cap + 1
            self.level += 1
            if self.level > self.n:
                raise ConsistencyError("no avoiding subspace at full dual level")
            self._rebuild(self.level)
            if len(self.alive) == 0:
                self.skips.append(len(self.cols))
        return self.level


@dataclass
class CriticalTrace:
    chis: list  # chis[i] = chi(M[A_{i+1}]), or None from the first loop on
    loop_at: int | None
    skips: list


def critical_trajectory(state: ProcessState, horizon: int) -> CriticalTrace:
    """chi at every step until the horizon; tracking stops at a loop."""
    if state.m:
        raise InvalidParam("critical trajectory must start from an empty state")
    tracker = _CriticalTracker(state.field, state.n)
    chis: list = []
    loop_at = None
    for _ in range(horizon):
        state.step()
        col = native_to_tuple(state.field, state.n, state.native_cols[-1])
        if loop_at is None and not any(col):
            loop_at = state.m
        chis.append(None if loop_at is not None else tracker.add(col))
    return CriticalTrace(chis=chis, loop_at=loop_at, skips=tracker.skips)


def track_critical(state: ProcessState, k: int,
                   max_steps: int | None = None) -> int | None:
    """First step with chi >= k+1; None when a loop arrives first or censored.

    A loopless matroid has chi >= k+1 exactly when no codimension-k
    subspace avoids every column, so the tracker prunes the avoiding sets
    of levels <= k incrementally and the run ends when the level-k set
    dies; no level above k is ever built.
    """
    if k < 0:
        raise InvalidParam("critical target must be >= 0")
    if state.m:
        raise InvalidParam("critical tracking must start from an empty state")
    if k + 1 > state.n:
        return None  # chi never exceeds n (the zero subspace avoids everything)
    tracker = _CriticalTracker(state.field, state.n)
    while max_steps is None or state.m < max_steps:
        state.step()
        col = native_to_tuple(state.field, state.n, state.native_cols[-1])
        if not any(col):
            return None  # chi undefined from here on
        if tracker.add(col, cap=k) > k:
            return state.m
    return None


# ---- projective-geometry models -----------------------------------------


def sample_pg_model(field: FieldSpec, n: int, rng,
                    m: int | None = None, p: float | None = None) -> FqMatrix:
    """Sample M2 (uniform m-subset of PG(n-1,q)) or M3 (Bernoulli(p) inclusion).

    The matrix's columns are the chosen points' canonical representatives
    (first nonzero coordinate 1), in the fixed enumeration order, so equal
    selections give equal matrices.  Raises BudgetExceeded before listing more
    than DEFAULT_TRACK_SUBSPACE_BUDGET points.
    """
    if (m is None) == (p is None):
        raise InvalidParam("exactly one of m (M2) or p (M3) must be given")
    total = q_int(n, field.q)
    if total > DEFAULT_TRACK_SUBSPACE_BUDGET:
        raise BudgetExceeded(f"{total} projective points exceed budget "
                             f"{DEFAULT_TRACK_SUBSPACE_BUDGET}")
    pts = projective_points(field, n)
    if m is not None:
        if not 0 <= m <= total:
            raise InvalidParam(f"m must lie in [0, {total}]")
        idx = sorted(int(i) for i in rng.choice(total, size=m, replace=False))
        sel = [pts[i] for i in idx]
    else:
        if not 0.0 <= p <= 1.0:
            raise InvalidParam("p must lie in [0, 1]")
        mask = rng.random(total) < p
        sel = [pt for pt, keep in zip(pts, mask) if keep]
    return FqMatrix(field, sel, n=n)

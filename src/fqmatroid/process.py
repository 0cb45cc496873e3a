"""The growing random matrix A_1, A_2, ... and hitting-time trackers.

Each column is drawn uniformly from F_q^n and appended; the represented
matroid M[A_m] evolves as columns arrive.  ProcessState.step returns the
new column's dependency as RrefState.push gave it: the first one that is
not None is the first circuit, and a support of one column is a loop.
Trackers that act only on dependencies step through
ProcessState.step_until_dependent, one engine call per run of columns;
step is that call stopped after one column.
Trackers observe a single trajectory and report the first step at which
their property holds.
Everything is deterministic given (master seed, trial index): trial i
reads from a counter-based stream keyed by (seed, i), so parallel runs
reproduce serial ones exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ConsistencyError, InvalidParam
from .fqlinalg import (
    DEFAULT_LEVEL_BUDGET,
    FieldSpec,
    FqMatrix,
    RrefState,
    canonical_point,
    level_deaths,
    pack_native,
    projective_points,
)
from .matroid import (
    DEFAULT_KERNEL_BUDGET,
    DEFAULT_PARTITION_BUDGET,
    INFINITY,
    KernelSweep,
    RepMatroid,
    _spans,
)
from .theory import q_int

# ProcessState draws its columns this many at a time
_DRAW_BLOCK = 64
# track_critical's first look-ahead window holds this many times n columns
_LOOKAHEAD = 2


def _rekey(rng: np.random.Generator, master_seed: int,
           trial: int) -> np.random.Generator:
    """Reset a Philox generator to the start of trial's stream: the state
    Philox(key=[master_seed, trial]) starts in, with a zero counter and an
    empty buffer."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([master_seed, trial], np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


def process_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Per-trial stream from a counter-based generator.

    Keying by (master_seed, trial) makes trial streams independent of
    execution order and of how trials are sharded across workers.
    """
    return _rekey(np.random.Generator(np.random.Philox(key=0)), master_seed, trial)


class ProcessState:
    """One trajectory of the uniform column process over F_q^n.

    Keeps the element rows of every drawn column in one (drawn, n) store of
    the narrowest unsigned dtype that holds q - 1, which peek, rows,
    column_tuples and matrix slice.  Columns are eliminated on demand: advance
    appends columns without pushing them, and they are pushed, in order, before
    a step pushes its own columns or a caller reads rank, corank or
    native_cols.  A block is packed into engine-native form the first time one
    of its columns is pushed.

    Columns are pushed in runs: one RrefState.push_run call takes the
    columns up to the end of their block, or to the last one wanted, and
    stops after the first dependent one.  step_until_dependent appends the
    rest of each block in one run, until a column is dependent; step is
    step_until_dependent stopped after one column.  The corank check holds
    per run: the corank grows by one exactly when the run ends at a
    dependent column.
    """

    def __init__(self, field: FieldSpec, n: int, rng):
        if n < 1:
            raise InvalidParam("need at least one row")
        self.field = field
        self.n = n
        self.rng = rng
        self._rows = np.empty((0, n), dtype=np.uint8 if field.q <= 256 else np.uint16)
        self._drawn = 0  # columns in the store
        self._pushed = 0  # the first m columns are appended, the first _pushed pushed
        self._block: list = []  # the natives of the block that holds the last push
        self._rref = RrefState(field, n)
        self._native_cols: list = []
        self.m = 0

    def _run(self, end: int) -> dict | None:
        """Push the appended columns from the first one not pushed yet, up to
        `end` or the end of its block, in one push_run, which stops after the
        first dependent column; returns its dependency, or None.  A block is
        packed at its first column."""
        i = self._pushed
        j = i % _DRAW_BLOCK
        if j == 0:
            self._block = pack_native(self.field, self.n, self._rows[i:i + _DRAW_BLOCK])
        prev = self._rref.corank
        count, dep = self._rref.push_run(self._block[j:j + min(end - i, _DRAW_BLOCK - j)])
        self._native_cols += self._block[j:j + count]
        self._pushed = i + count
        if self._rref.corank != prev + (dep is not None):
            raise self._corank_error()
        return dep

    def _corank_error(self) -> ConsistencyError:
        """The error for a run whose corank check failed, naming the first
        step whose corank does not follow from its push, found by pushing
        the pushed natives again one at a time."""
        probe = RrefState(self.field, self.n)
        prev = 0
        for step, col in enumerate(self._native_cols, start=1):
            dep = probe.push(col)
            c = probe.corank
            if c != prev + (dep is not None):
                return ConsistencyError(f"corank jumped {prev} -> {c} at step {step}")
            prev = c
        return ConsistencyError(f"corank check failed by step {self._pushed}, "
                                "and not again when the steps were pushed one at a time")

    def _synced(self) -> RrefState:
        """The elimination state once every appended column is pushed, in order."""
        while self._pushed < self.m:
            self._run(self.m)
        return self._rref

    @property
    def native_cols(self) -> list:
        self._synced()
        return self._native_cols

    @property
    def rank(self) -> int:
        return self._synced().rank

    @property
    def corank(self) -> int:
        return self._synced().corank

    @property
    def rows(self) -> np.ndarray:
        """The (m, n) element rows of the appended columns, a view of the store."""
        return self._rows[:self.m]

    def _draw_block(self) -> None:
        """Draw _DRAW_BLOCK columns into the store, which doubles when it is full."""
        drawn = self._drawn
        if drawn == len(self._rows):
            grown = np.empty((max(2 * drawn, _DRAW_BLOCK), self.n), self._rows.dtype)
            grown[:drawn] = self._rows
            self._rows = grown
        self._rows[drawn:drawn + _DRAW_BLOCK] = self.rng.integers(
            0, self.field.q, size=(_DRAW_BLOCK, self.n))
        self._drawn = drawn + _DRAW_BLOCK

    def step(self) -> dict | None:
        """Draw one uniform column and append it; returns what
        RrefState.push returned for it: None when it is independent of the
        columns before it, else a kernel vector {column index: coefficient}
        whose support includes the new column.

        Columns are drawn _DRAW_BLOCK at a time, and peek and advance may draw
        further blocks, so the state reads its rng ahead: once it has
        stepped, peeked or advanced, nothing else may draw from that rng."""
        return self.step_until_dependent(self.m + 1)

    def step_until_dependent(self, limit: int | None = None) -> dict | None:
        """Step until a column is dependent and return its dependency, as step
        returns it; None once m reaches `limit` with no dependent column.

        Columns are appended a run at a time, the rest of the current block
        or up to `limit`, and each run is pushed in one RrefState.push_run
        call; the state ends at the dependent column, and blocks are drawn
        as steps would draw them."""
        self._synced()
        while limit is None or self.m < limit:
            if self.m == self._drawn:
                self._draw_block()
            dep = self._run(self._drawn if limit is None else min(self._drawn, limit))
            self.m = self._pushed
            if dep is not None:
                return dep
        return None

    def peek(self, count: int) -> np.ndarray:
        """The (count, n) element rows of the next `count` columns, a view of
        the store, without appending them: the next `count` steps append
        exactly these.  Blocks are drawn in the order steps would draw them."""
        if count < 0:
            raise InvalidParam("column count must be >= 0")
        while self._drawn < self.m + count:
            self._draw_block()
        return self._rows[self.m:self.m + count]

    def advance(self, count: int) -> None:
        """Append the next `count` columns, the rows peek(count) returns,
        without pushing them; they are pushed when a step or a read needs them."""
        self.m += len(self.peek(count))

    def points(self, start: int) -> list:
        """The projective points of the columns from index `start` on, None
        for a zero column: at q = 2 their packed natives, each its own
        representative, else canonical_point of their element rows."""
        if self.field.q == 2:
            return [v or None for v in self.native_cols[start:]]
        return [canonical_point(self.field, r) for r in self._rows[start:self.m].tolist()]

    def column_tuples(self) -> list[tuple]:
        return [tuple(r) for r in self.rows.tolist()]

    def matrix(self) -> FqMatrix:
        """The appended columns as an FqMatrix; when all of them are pushed,
        it shares their engine-native forms and their rank, so it packs and
        eliminates none again."""
        cols = tuple(self.column_tuples())
        if self._pushed < self.m:
            return FqMatrix._trusted(self.field, cols, self.n)
        return FqMatrix._trusted(self.field, cols, self.n, self._native_cols[:],
                                 rank=self._rref.rank)


# ---- elementary hitting times -----------------------------------------


def track_first_circuit(state: ProcessState) -> tuple[int, int]:
    """Step and exact length of the first circuit.

    The first dependent column leaves a one-dimensional kernel whose
    generator's support is the circuit; a zero column gives length 1.
    """
    if state.corank:
        raise InvalidParam("the first circuit has already appeared")
    dep = state.step_until_dependent()
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
    if max_steps is not None and max_steps < 0:
        raise InvalidParam("max_steps must be >= 0")
    if state.m:
        raise InvalidParam("k-circuit tracking must start from an empty state")
    if k > state.n + 1:
        # every circuit spans at most rank+1 <= n+1 columns
        return None
    if k <= 2:
        seen: set = set()
        while max_steps is None or state.m < max_steps:
            state.step()
            pt = state.points(state.m - 1)[0]
            if k == 1 and pt is None or k == 2 and pt in seen:
                return state.m
            if pt is not None:
                seen.add(pt)
        return None
    sweep = KernelSweep(state.field)
    while (dep := state.step_until_dependent(max_steps)) is not None:
        if state.field.q ** state.corank > kernel_budget:
            raise BudgetExceeded(
                f"kernel sweep q^{state.corank} exceeds budget {kernel_budget}"
                f" at step {state.m}")
        for mask in sweep.add(dep):
            if mask.bit_count() == k and _rank_of_mask(state, mask) == k - 1:
                return state.m
    return None


# ---- connectivity tracking ----------------------------------------------


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
    bipartitions.  A placement A, B that leaves neither side spanning M is
    vertical, of order k = r(A) + r(B) - r(M) + 1, so kappa <= k and the
    search only looks below k + 1.  The first minimal leaf in the search's
    order is never pruned by that bound, so the order and the witness
    equal the unseeded search's.
    """
    if sep is not None:
        # each side's rank, then with the newest column: one span per side
        cols, spans = _spans(M.matrix, 2)
        rank, ranks = M.rank, []
        for part, span in zip((sep.part1, sep.part2), spans):
            r = sum(span.push(cols[j]) is not None for j in part)
            ranks.append((r, r + (span.push(cols[-1]) is not None)))
        (r1, r1e), (r2, r2e) = ranks
        seed = INFINITY
        for a, b in ((r1e, r2), (r1, r2e)):
            if max(a, b) < rank:
                seed = min(seed, a + b - rank + 1)
        if seed < INFINITY:
            return M.vertical_separation_below(seed + 1, budget)
    return M.vertical_connectivity(budget)


def kappa_trajectory(state: ProcessState, horizon: int,
                     partition_budget: int = DEFAULT_PARTITION_BUDGET) -> KappaTrace:
    """Exact kappa at every step up to the horizon, with a decrease monitor.

    Each step runs one exact bipartition search, seeded from the previous
    step's witness (_seeded_vertical_connectivity); kappa and its witness
    equal those of an unseeded search.  The search ends a branch once one
    side spans the prefix matroid, which prunes most at the late steps,
    where the search costs most.  Once the rank is stable, deleting
    the newest column at equal rank preserves k-connectedness, so any
    decrease the monitor records after full rank would be a genuine
    counterexample (or an implementation bug).
    """
    if horizon < 0:
        raise InvalidParam("kappa trajectory horizon must be >= 0")
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
    for _ in range(horizon):
        state.step()
        if full_rank_at is None and state.rank == state.n:
            full_rank_at = state.m
        cur, witness = _seeded_vertical_connectivity(
            RepMatroid(state.matrix()), witness, partition_budget)
        if prev is not None and cur < prev:
            decreases.append((state.m, prev, cur))
        kappas.append(cur)
        prev = cur
    return KappaTrace(kappas=kappas, full_rank_at=full_rank_at,
                      decreases=decreases)


# ---- critical number tracking -------------------------------------------


@dataclass
class CriticalTrace:
    chis: list  # chis[i] = chi(M[A_{i+1}]), or None from the first loop on
    loop_at: int | None
    skips: list


def _first_loop(rows: np.ndarray) -> int | None:
    """Index of the first zero row, or None."""
    zero = np.flatnonzero(~rows.any(axis=1))
    return int(zero[0]) if zero.size else None


def critical_trajectory(state: ProcessState, horizon: int) -> CriticalTrace:
    """chi at every step until the horizon; tracking stops at a loop.

    The levels are evaluated once, over the loopless prefix: chi(m) is the
    least k with E_k >= m, and level k+1 is skipped at step E_k + 1 when
    E_{k+1} = E_k (recorded rather than assumed away).
    """
    if horizon < 0:
        raise InvalidParam("critical trajectory horizon must be >= 0")
    if state.m:
        raise InvalidParam("critical trajectory must start from an empty state")
    state.advance(horizon)
    rows = state.rows
    loop = _first_loop(rows)
    rows = rows[:loop]
    deaths = level_deaths(state.field, state.n, rows, [0])
    chis = [bisect_left(deaths, m) for m in range(1, len(rows) + 1)]
    return CriticalTrace(chis=chis + [None] * (horizon - len(rows)),
                         loop_at=None if loop is None else loop + 1,
                         skips=[e + 1 for e, up in zip(deaths, deaths[1:]) if up == e])


def track_critical(state: ProcessState, k: int,
                   max_steps: int | None = None) -> int | None:
    """First step with chi >= k+1; None when a loop arrives first or censored.

    The hit is E_k + 1.  The levels <= k are evaluated over a look-ahead
    window of the state's next columns (peek), cut at the first loop and at
    max_steps; while the window's last level survives, the window doubles
    and that level is evaluated again.  No level above k is ever built.
    The state then advances to the hit, the loop or max_steps, pushing none
    of its columns (ProcessState.advance).
    """
    if k < 0:
        raise InvalidParam("critical target must be >= 0")
    if max_steps is not None and max_steps < 0:
        raise InvalidParam("max_steps must be >= 0")
    if state.m:
        raise InvalidParam("critical tracking must start from an empty state")
    field, n = state.field, state.n
    if k + 1 > n:
        return None  # chi never exceeds n (the zero subspace avoids everything)
    deaths, size = [0], _LOOKAHEAD * n
    while True:
        end = size if max_steps is None else min(size, max_steps)
        rows = state.peek(end)
        loop = _first_loop(rows)
        rows = rows[:loop]
        level_deaths(field, n, rows, deaths, top=k)
        if deaths[-1] < len(rows):
            stop = hit = deaths[k] + 1
            break
        if loop is not None or end == max_steps:
            stop, hit = end if loop is None else loop + 1, None
            break
        deaths.pop()  # the surviving level, evaluated again over more columns
        size *= 2
    state.advance(stop)
    return hit


# ---- projective-geometry models -----------------------------------------


def sample_pg_model(field: FieldSpec, n: int, rng,
                    m: int | None = None, p: float | None = None) -> FqMatrix:
    """Sample M2 (uniform m-subset of PG(n-1,q)) or M3 (Bernoulli(p) inclusion).

    The matrix's columns are the chosen points' canonical representatives
    (first nonzero coordinate 1), in the fixed enumeration order, so equal
    selections give equal matrices.  Raises BudgetExceeded before listing more
    than DEFAULT_LEVEL_BUDGET points.
    """
    if (m is None) == (p is None):
        raise InvalidParam("exactly one of m (M2) or p (M3) must be given")
    total = q_int(n, field.q)
    if total > DEFAULT_LEVEL_BUDGET:
        raise BudgetExceeded(f"{total} projective points exceed budget "
                             f"{DEFAULT_LEVEL_BUDGET}")
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
    return FqMatrix._trusted(field, tuple(sel), n)

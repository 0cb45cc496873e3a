"""The growing random matrix A_1, A_2, ... and hitting-time trackers.

Each column is drawn uniformly from F_q^n and appended; the represented
matroid M[A_m] evolves as columns arrive.  Trackers observe a single
trajectory and report the first step at which their property holds.
Everything is deterministic given (master seed, trial index): trial i
reads from a counter-based stream keyed by (seed, i), so parallel runs
reproduce serial ones exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as _dfield
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, ConsistencyError, InvalidParam
from .fqlinalg import (
    FieldSpec,
    FqMatrix,
    RrefState,
    canonical_point,
    draw_native_column,
    enumerate_subspaces,
    native_to_tuple,
    pack_gf2,
    projective_points,
    random_uniform_matrix,
)
from .matroid import (
    DEFAULT_KERNEL_BUDGET,
    DEFAULT_PARTITION_BUDGET,
    INFINITY,
    RepMatroid,
)

DEFAULT_TRACK_SUBSPACE_BUDGET = 10 ** 6

# ProcessState draws its columns this many at a time
_DRAW_BLOCK = 64

# combos arrays for the gf2 kernel sweep stay vectorized up to this many
# entries; beyond it the sweep streams one combination at a time
_SWEEP_VECTOR_MAX = 1 << 22


def process_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Per-trial stream from a counter-based generator.

    Keying by (master_seed, trial) makes trial streams independent of
    execution order and of how trials are sharded across workers.
    """
    return np.random.Generator(np.random.Philox(key=[master_seed, trial]))


@dataclass
class StepReport:
    """What one column addition did to the matroid."""

    m: int
    dependent: bool
    dependency: dict | None  # sparse kernel vector {column index: coefficient}
    is_loop: bool
    first_circuit: frozenset | None  # set exactly at the step corank hits 1


@dataclass
class HittingTimes:
    """First hitting steps per tracked property; None = not yet observed."""

    tau_crk: dict = _dfield(default_factory=dict)
    tau_first_circuit: int | None = None
    first_circuit_length: int | None = None
    tau_k_circ: dict = _dfield(default_factory=dict)
    tau_hamilton: int | None = None
    tau_k_conn: dict = _dfield(default_factory=dict)
    tau_k_crt: dict = _dfield(default_factory=dict)
    tau_minor: dict = _dfield(default_factory=dict)
    tau_pg: dict = _dfield(default_factory=dict)

    def validate(self) -> None:
        """Cross-field monotonicity that holds on every trajectory."""
        for table, gap in ((self.tau_crk, 1), (self.tau_k_crt, 1)):
            ks = sorted(k for k, v in table.items() if v is not None)
            for a, b in zip(ks, ks[1:]):
                if table[b] < table[a] + gap * (b - a):
                    raise ConsistencyError(
                        f"hitting times not monotone: [{a}]={table[a]}, [{b}]={table[b]}")
        if (self.tau_first_circuit is not None and 1 in self.tau_crk
                and self.tau_crk[1] != self.tau_first_circuit):
            raise ConsistencyError("first circuit must arrive at corank 1")


class ProcessState:
    """One trajectory of the uniform column process over F_q^n.

    Keeps engine-native columns plus an incremental elimination state;
    kernel vectors are accumulated as the sparse dependency dicts
    returned by push, one per dependent column (they form a kernel basis
    since each touches its own column and no earlier vector does).
    """

    def __init__(self, field: FieldSpec, n: int, rng,
                 record_trajectory: bool = False, checkpoint_every: int = 0):
        if n < 1:
            raise InvalidParam("need at least one row")
        self.field = field
        self.n = n
        self.rng = rng
        self._ahead: list = []  # drawn, not yet pushed; pop() gives the next
        self.rref = RrefState(field, n)
        self.native_cols: list = []
        self.kernel_vectors: list[dict] = []
        self.corank_history: list[int] = []
        self.m = 0
        self.first_circuit: frozenset | None = None
        self.trajectory: list[str] | None = [] if record_trajectory else None
        self.checkpoint_every = checkpoint_every

    @property
    def rank(self) -> int:
        return self.rref.rank

    @property
    def corank(self) -> int:
        return self.rref.corank

    def step(self) -> StepReport:
        """Draw one uniform column and append it.

        Columns are drawn _DRAW_BLOCK at a time, so the state reads its rng
        ahead: once it has stepped, nothing else may draw from that rng."""
        if not self._ahead:
            self._ahead = draw_native_column(self.field, self.n, self.rng,
                                             count=_DRAW_BLOCK)[::-1]
        return self.push_column(self._ahead.pop())

    def push_column(self, native_col) -> StepReport:
        prev_corank = self.corank_history[-1] if self.corank_history else 0
        dep = self.rref.push(native_col)
        self.native_cols.append(native_col)
        self.m += 1
        c = self.rref.corank
        if c not in (prev_corank, prev_corank + 1):
            raise ConsistencyError(
                f"corank jumped {prev_corank} -> {c} at step {self.m}")
        self.corank_history.append(c)

        is_loop = False
        circuit = None
        if dep is not None:
            self.kernel_vectors.append(dep)
            is_loop = len(dep) == 1
            if c == 1 and prev_corank == 0:
                # kernel is one-dimensional here, so this support is the
                # unique first circuit
                circuit = frozenset(dep)
                self.first_circuit = circuit
        if self.trajectory is not None:
            tags = []
            if dep is not None:
                tags.append("dependent")
            if is_loop:
                tags.append("loop")
            if circuit is not None:
                tags.append("first-circuit")
            suffix = (", " + ",".join(tags)) if tags else ""
            self.trajectory.append(
                f"step {self.m}: rank {self.rank}, corank {c}{suffix}")
        if self.checkpoint_every and self.m % self.checkpoint_every == 0:
            self.check_consistency()
        return StepReport(m=self.m, dependent=dep is not None, dependency=dep,
                          is_loop=is_loop, first_circuit=circuit)

    def column_tuples(self) -> list[tuple]:
        return [native_to_tuple(self.field, self.n, c) for c in self.native_cols]

    def matrix(self) -> FqMatrix:
        return FqMatrix(self.field, self.column_tuples(), n=self.n)

    def matroid(self) -> RepMatroid:
        return RepMatroid(self.matrix())

    def check_consistency(self) -> None:
        """Incremental rank must equal batch elimination from scratch."""
        scratch = RrefState(self.field, self.n)
        for col in self.native_cols:
            scratch.push(col)
        if scratch.rank != self.rank:
            raise ConsistencyError(
                f"incremental rank {self.rank} != scratch rank {scratch.rank}")
        for a, b in zip(self.corank_history, self.corank_history[1:]):
            if b < a or b > a + 1:
                raise ConsistencyError("corank history not a unit-step ascent")

    def dump_trajectory(self) -> str:
        if self.trajectory is None:
            raise InvalidParam("state was created without trajectory recording")
        return "\n".join(self.trajectory)


# ---- elementary hitting times -----------------------------------------


def run_until_corank(state: ProcessState, c: int) -> int:
    """First step m with corank(A_m) = c; the state is left at that step."""
    if c < 1:
        raise InvalidParam("corank target must be >= 1")
    while state.corank < c:
        state.step()
    return state.m


def track_first_circuit(state: ProcessState) -> tuple[int, int]:
    """Step and exact length of the first circuit.

    The first dependent column leaves a one-dimensional kernel whose
    generator's support is the circuit; a zero column gives length 1.
    """
    run_until_corank(state, 1)
    assert state.first_circuit is not None
    return state.m, len(state.first_circuit)


# ---- k-circuit tracking -------------------------------------------------


class _Gf2KernelSweep:
    """All F_2 kernel combinations as packed column-index masks.

    New circuits at a dependent step are exactly the minimal supports
    among combinations involving the newest kernel vector, so only the
    fresh half of the doubling array is ever inspected.
    """

    def __init__(self):
        self.combos: np.ndarray | None = np.zeros(1, dtype=np.uint64)
        self.vectors: list[int] = []

    def add(self, mask: int, want: int) -> list[int]:
        """Absorb one kernel vector; return fresh combo masks of popcount want."""
        self.vectors.append(mask)
        if (self.combos is not None and mask < (1 << 64)
                and len(self.combos) <= _SWEEP_VECTOR_MAX):
            fresh = self.combos ^ np.uint64(mask)
            hits = fresh[np.bitwise_count(fresh) == want]
            self.combos = np.concatenate([self.combos, fresh])
            return [int(x) for x in hits]
        # streamed Gray-code walk over the previous vectors; also the
        # fallback once column indices outgrow one machine word
        if self.combos is not None:
            self.combos = None
        hits = []
        cur = mask
        if cur.bit_count() == want:
            hits.append(cur)
        prev = self.vectors[:-1]
        for i in range(1, 1 << len(prev)):
            cur ^= prev[(i & -i).bit_length() - 1]
            if cur.bit_count() == want:
                hits.append(cur)
        return hits


def _mask_to_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_circuit_support(state: ProcessState, indices) -> bool:
    probe = RrefState(state.field, state.n)
    deps = 0
    for j in indices:
        if probe.push(state.native_cols[j]) is not None:
            deps += 1
    return deps == 1 and probe.rank == len(indices) - 1


def _fresh_circuits_generic(state: ProcessState, want: int) -> bool:
    """Any circuit of size want among combos touching the newest kernel vector."""
    field = state.field
    vecs = state.kernel_vectors
    new = vecs[-1]
    old = vecs[:-1]
    nonzero = [x for x in range(1, field.q)]
    for r in range(len(old) + 1):
        for picks in itertools.combinations(range(len(old)), r):
            for coeffs in itertools.product(nonzero, repeat=r):
                acc = dict(new)
                for idx, cf in zip(picks, coeffs):
                    for col, val in old[idx].items():
                        v = field.add(acc.get(col, 0), field.mul(cf, val))
                        if v:
                            acc[col] = v
                        else:
                            acc.pop(col, None)
                if len(acc) == want and _is_circuit_support(state, sorted(acc)):
                    return True
    return False


def track_k_circuit(state: ProcessState, k: int,
                    kernel_budget: int = DEFAULT_KERNEL_BUDGET,
                    max_steps: int | None = None) -> int | None:
    """First step with a circuit of length exactly k; None if censored.

    k=1 is the first zero column and k=2 the first repeated projective
    point, both O(1) per step; larger k sweeps the kernel combinations
    that involve the newest dependency (circuits never disappear, so
    older combinations need no re-inspection).
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
            pt = canonical_point(field, native_to_tuple(field, n, state.native_cols[-1]))
            if k == 1 and pt is None or k == 2 and pt in seen:
                return state.m
            if pt is not None:
                seen.add(pt)
        return None

    sweep = _Gf2KernelSweep() if field.q == 2 else None
    while max_steps is None or state.m < max_steps:
        rep = state.step()
        if rep.dependency is None:
            continue
        if field.q ** state.corank > kernel_budget:
            raise BudgetExceeded(
                f"kernel sweep q^{state.corank} exceeds budget {kernel_budget}"
                f" at step {state.m}")
        if sweep is not None:
            mask = 0
            for j in rep.dependency:
                mask |= 1 << j
            for hit in sweep.add(mask, k):
                if _is_circuit_support(state, _mask_to_indices(hit)):
                    return state.m
        else:
            if _fresh_circuits_generic(state, k):
                return state.m
    return None


def track_hamilton(state: ProcessState,
                   kernel_budget: int = DEFAULT_KERNEL_BUDGET,
                   max_steps: int | None = None) -> int | None:
    """Hamilton hitting time: first circuit of length n."""
    return track_k_circuit(state, state.n, kernel_budget=kernel_budget,
                           max_steps=max_steps)


# ---- connectivity tracking ----------------------------------------------


class _ComponentTracker:
    """Incremental direct-sum components via fundamental-circuit supports."""

    def __init__(self):
        self.parent: list[int] = []
        self.has_nonloop: list[bool] = []
        self.nonloop_roots = 0

    def _find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if self.has_nonloop[ra] and self.has_nonloop[rb]:
            self.nonloop_roots -= 1
        self.has_nonloop[rb] = self.has_nonloop[rb] or self.has_nonloop[ra]
        self.parent[ra] = rb

    def add(self, report: StepReport) -> None:
        idx = len(self.parent)
        self.parent.append(idx)
        nonloop = not report.is_loop
        self.has_nonloop.append(nonloop)
        if nonloop:
            self.nonloop_roots += 1
        dep = report.dependency
        if dep is not None and len(dep) > 1:
            it = iter(dep)
            first = next(it)
            for j in it:
                self._union(first, j)

    @property
    def is_2connected(self) -> bool:
        return self.nonloop_roots <= 1


def track_connectivity(state: ProcessState, k: int,
                       partition_budget: int = DEFAULT_PARTITION_BUDGET,
                       min_steps: int = 0) -> int:
    """First step m >= min_steps with vertical connectivity >= k.

    With a single column the matroid is vacuously k-connected for every
    k, so the literal hitting time is 1; min_steps lets callers skip
    that degenerate free phase.  k=2 runs on incremental components;
    k>=3 re-proves connectivity by bounded bipartition search and raises
    BudgetExceeded once m outgrows the partition budget.
    """
    if k < 1:
        raise InvalidParam("connectivity target must be >= 1")
    while state.m < max(1, min_steps):
        state.step()
    if k == 1 or state.m == 1:
        return state.m
    if k == 2:
        comps = _ComponentTracker()
        # replay history, then extend
        probe = RrefState(state.field, state.n)
        for i, col in enumerate(state.native_cols):
            dep = probe.push(col)
            comps.add(StepReport(m=i + 1, dependent=dep is not None,
                                 dependency=dep, is_loop=dep is not None and len(dep) == 1,
                                 first_circuit=None))
        while not comps.is_2connected:
            comps.add(state.step())
        return state.m
    while True:
        if state.m > partition_budget:
            raise BudgetExceeded(
                f"{state.m} columns exceed partition budget {partition_budget}")
        if state.matroid().is_vertically_k_connected(k, budget=partition_budget):
            return state.m
        state.step()


def exact_vertical_connectivity(matroid: RepMatroid, lower: int = 1,
                                budget: int = DEFAULT_PARTITION_BUDGET):
    """Exact vertical connectivity, escalating from a trusted lower bound.

    Searches for separations of order <= b for b = lower, lower+1, ...;
    the first hit is exact even when it lands below the advertised bound
    (the caller may be monitoring for exactly that).
    """
    rank = matroid.rank
    b = max(1, lower)
    while b <= rank:
        order, _ = matroid.vertical_separation_below(b + 1, budget=budget)
        if order is not INFINITY and order <= b:
            return order
        b += 1
    return INFINITY


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


def kappa_trajectory(state: ProcessState, horizon: int,
                     partition_budget: int = DEFAULT_PARTITION_BUDGET) -> KappaTrace:
    """Exact kappa at every step up to the horizon, with a decrease monitor.

    While the rank is still growing each step is computed from scratch;
    once the rank is stable, deleting the newest column at equal rank
    preserves k-connectedness, so the previous value warm-starts the
    search and any decrease the monitor records would be a genuine
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
    prev_rank = 0
    for _ in range(horizon):
        state.step()
        grew = state.rank > prev_rank
        prev_rank = state.rank
        if full_rank_at is None and state.rank == state.n:
            full_rank_at = state.m
        lower = 1 if (grew or prev is None or prev is INFINITY) else prev
        if prev is INFINITY and not grew:
            cur = INFINITY  # still no separation after an equal-rank step
        else:
            cur = exact_vertical_connectivity(state.matroid(), lower=lower,
                                              budget=partition_budget)
        if prev is not None and cur < prev:
            decreases.append((state.m, prev, cur))
        kappas.append(cur)
        prev = cur
    return KappaTrace(kappas=kappas, full_rank_at=full_rank_at,
                      decreases=decreases)


# ---- critical number tracking -------------------------------------------


@lru_cache(maxsize=64)
def _dual_normal_bases(n: int, k: int) -> np.ndarray:
    """Packed normal bases of all k-dimensional subspaces of F_2^n.

    Row i holds a basis of the i-th k-dimensional space U; the avoiding
    subspace it encodes is the codimension-k annihilator of U.
    """
    from .fqlinalg import make_field

    field = make_field(2)
    rows = []
    for handle in enumerate_subspaces(field, n, k):
        rows.append([pack_gf2(r) for r in handle.rows])
    arr = np.asarray(rows, dtype=np.uint32).reshape(len(rows), k)
    arr.setflags(write=False)
    return arr


class _CriticalTracker:
    """Current chi via the shrinking set of avoiding subspaces.

    At level k the tracker keeps every codimension-k subspace that still
    avoids all columns; a new column prunes the set, and chi increments
    by exactly one when the set dies (a rebuild at the next level that
    also comes up empty would be a skip, which is recorded rather than
    assumed away).

    Fast path (q = 2, n <= 16): a codimension-k subspace is the
    annihilator of a k-dimensional dual space U with basis rows
    u_1..u_k, and it avoids column v exactly when <u_i, v> = 1 for some
    i.  A rebuild tabulates, from `cols`, the syndromes of all 2^n dual
    vectors: bit j of syn[w, a] is <a, v_{64w+j}>.  U then avoids all m
    columns iff syn[:, u_1] | ... | syn[:, u_k] has all m bits set, one
    gather per basis row.  Nothing but `cols` and `alive` outlives a call.
    """

    def __init__(self, field: FieldSpec, n: int, subspace_budget: int):
        self.field = field
        self.n = n
        self.budget = subspace_budget
        self.level = 0
        self.cols: list[tuple] = []
        self.skips: list[int] = []
        self.fast = field.q == 2 and n <= 16
        self.alive = None  # fast: index array into _dual_normal_bases

    def _space_count(self, k: int) -> int:
        from .theory import gaussian_binomial

        return gaussian_binomial(self.n, k, self.field.q)

    def _rebuild(self, k: int) -> None:
        if self._space_count(k) > self.budget:
            raise BudgetExceeded(
                f"{self._space_count(k)} candidate subspaces exceed budget")
        if self.fast:
            m = len(self.cols)
            v = np.array([pack_gf2(c) for c in self.cols], dtype=np.uint64)
            duals = np.arange(1 << self.n, dtype=np.uint64)
            par = (np.bitwise_count(v[:, None] & duals) & 1).astype(np.uint64)
            bits = par << (np.arange(m, dtype=np.uint64) % 64)[:, None]
            syn = np.stack([np.bitwise_or.reduce(bits[w:w + 64]) for w in range(0, m, 64)])
            full = np.array([(1 << min(64, m - w)) - 1 for w in range(0, m, 64)],
                            dtype=np.uint64)
            bases = _dual_normal_bases(self.n, k)
            acc = syn[:, bases[:, 0]]
            for i in range(1, k):
                acc |= syn[:, bases[:, i]]
            self.alive = np.nonzero((acc == full[:, None]).all(axis=0))[0]
        else:
            self.alive = [h for h in enumerate_subspaces(self.field, self.n,
                                                         self.n - k)
                          if not any(h.contains(self.field, c) for c in self.cols)]

    def _prune(self, col: tuple) -> None:
        if self.fast:
            bases = _dual_normal_bases(self.n, self.level)[self.alive]
            v = np.uint32(pack_gf2(col))
            self.alive = self.alive[(np.bitwise_count(bases & v) & 1).any(axis=1)]
        else:
            self.alive = [h for h in self.alive if not h.contains(self.field, col)]

    def add(self, col: tuple) -> int:
        """Absorb one nonzero column; returns chi of the columns so far."""
        if not any(col):
            raise InvalidParam("chi is undefined once a loop is present")
        self.cols.append(col)
        if self.level == 0:
            self.level = 1
            self._rebuild(1)
        else:
            self._prune(col)
        while len(self.alive) == 0:
            self.level += 1
            if self.level > self.n:
                raise ConsistencyError("no avoiding subspace at full dual level")
            self._rebuild(self.level)
            if len(self.alive) == 0:
                self.skips.append(len(self.cols))
        return self.level

    def witness_rows(self):
        """Normal rows (fast path) or a subspace handle for one witness."""
        if self.level == 0 or len(self.alive) == 0:
            return None
        if self.fast:
            bases = _dual_normal_bases(self.n, self.level)[self.alive[0]]
            return tuple(int(b) for b in bases)
        return self.alive[0]


@dataclass
class CriticalTrace:
    chis: list  # chis[i] = chi(M[A_{i+1}]), or None from the first loop on
    loop_at: int | None
    skips: list


def critical_trajectory(state: ProcessState, horizon: int,
                        subspace_budget: int = DEFAULT_TRACK_SUBSPACE_BUDGET) -> CriticalTrace:
    """chi at every step until the horizon; tracking stops at a loop."""
    if state.m:
        raise InvalidParam("critical trajectory must start from an empty state")
    tracker = _CriticalTracker(state.field, state.n, subspace_budget)
    chis: list = []
    loop_at = None
    for _ in range(horizon):
        rep = state.step()
        if loop_at is not None:
            chis.append(None)
            continue
        col = native_to_tuple(state.field, state.n, state.native_cols[-1])
        if not any(col):
            loop_at = state.m
            chis.append(None)
            continue
        chis.append(tracker.add(col))
    return CriticalTrace(chis=chis, loop_at=loop_at, skips=tracker.skips)


def track_critical(state: ProcessState, k: int,
                   subspace_budget: int = DEFAULT_TRACK_SUBSPACE_BUDGET,
                   max_steps: int | None = None) -> int | None:
    """First step with chi = k+1; None when a loop arrives first or censored.

    chi changes only when the new column lands inside every surviving
    witness... equivalently, when the last witness at the current level
    dies; the tracker prunes the witness set incrementally and rebuilds
    one level up on death.
    """
    if k < 0:
        raise InvalidParam("critical target must be >= 0")
    if state.m:
        raise InvalidParam("critical tracking must start from an empty state")
    if k + 1 > state.n:
        return None  # chi never exceeds n (the zero subspace avoids everything)
    tracker = _CriticalTracker(state.field, state.n, subspace_budget)
    while max_steps is None or state.m < max_steps:
        state.step()
        col = native_to_tuple(state.field, state.n, state.native_cols[-1])
        if not any(col):
            return None  # chi undefined from here on
        if tracker.add(col) >= k + 1:
            return state.m
    return None


# ---- minor tracking ------------------------------------------------------


def _fast_minor_kind(target: RepMatroid) -> str | None:
    tm, tr = target.m, target.rank
    if tm == tr:
        return "free"
    if tr == 1 and tm == 2 and not target.loops():
        return "u12"
    if tr == 2 and tm == 3 and target.is_simple():
        return "u23"
    return None


def track_minor(state: ProcessState, target: RepMatroid,
                ground_budget: int = 12,
                max_steps: int | None = None) -> int | None:
    """First step at which the target appears as a minor.

    U_{1,2}, U_{2,3} and free targets have O(1)-per-step detectors (a
    circuit of length >= 2 exists iff some nonzero column repeats a
    dependency, i.e. rank < #nonzero; a circuit of length >= 3 iff the
    simplification is dependent, i.e. rank < #distinct points; a free
    rank-r minor iff rank >= r).  Anything else re-runs the generic
    minor search each step, so the ground budget applies per step.
    """
    kind = _fast_minor_kind(target)
    field, n = state.field, state.n
    if kind == "free":
        r = target.rank
        if r > n:
            return None
        while max_steps is None or state.m < max_steps:
            state.step()
            if state.rank >= r:
                return state.m
        return None
    if kind in ("u12", "u23"):
        nonzero = 0
        points: set = set()
        # replay any existing prefix
        for col in (native_to_tuple(field, n, c) for c in state.native_cols):
            if any(col):
                nonzero += 1
                points.add(canonical_point(field, col))
        threshold = (lambda: nonzero) if kind == "u12" else (lambda: len(points))
        if state.m and state.rank < threshold():
            return state.m
        while max_steps is None or state.m < max_steps:
            state.step()
            col = native_to_tuple(field, n, state.native_cols[-1])
            if any(col):
                nonzero += 1
                points.add(canonical_point(field, col))
            if state.rank < threshold():
                return state.m
        return None
    while max_steps is None or state.m < max_steps:
        state.step()
        if state.m > ground_budget:
            raise BudgetExceeded(
                f"{state.m} columns exceed minor ground budget {ground_budget}")
        if state.matroid().has_minor(target, ground_budget=ground_budget):
            return state.m
    return None


def track_pg(state: ProcessState, r: int,
             search_budget: int = 10 ** 6,
             max_steps: int | None = None) -> int | None:
    """First step whose columns cover a full rank-r projective geometry."""
    field, n = state.field, state.n
    if r > n:
        return None
    if r == n:
        from .theory import q_int

        need = q_int(n, field.q)
        seen: set = set()
        for col in (native_to_tuple(field, n, c) for c in state.native_cols):
            if any(col):
                seen.add(canonical_point(field, col))
        if len(seen) == need:
            return state.m if state.m else None
        while max_steps is None or state.m < max_steps:
            state.step()
            col = native_to_tuple(field, n, state.native_cols[-1])
            if any(col):
                seen.add(canonical_point(field, col))
                if len(seen) == need:
                    return state.m
        return None
    while max_steps is None or state.m < max_steps:
        state.step()
        if state.matroid().contains_pg(r, search_budget=search_budget):
            return state.m
    return None


# ---- projective-geometry models -----------------------------------------


@dataclass
class ModelSample:
    """One draw from M1/M2/M3 with its realized point multiset."""

    model: str
    n: int
    q: int
    param: object  # m for M1/M2, inclusion probability p for M3
    selection: tuple  # column tuples in canonical order
    matrix: FqMatrix


def sample_pg_model(field: FieldSpec, n: int, rng,
                    m: int | None = None, p: float | None = None) -> ModelSample:
    """Sample M2 (uniform m-subset of PG(n-1,q)) or M3 (Bernoulli(p) inclusion).

    Points are realized by their canonical representatives (first nonzero
    coordinate 1), listed in the fixed enumeration order so equal
    selections compare equal.
    """
    if (m is None) == (p is None):
        raise InvalidParam("exactly one of m (M2) or p (M3) must be given")
    pts = projective_points(field, n)
    total = len(pts)
    if m is not None:
        if not 0 <= m <= total:
            raise InvalidParam(f"m must lie in [0, {total}]")
        idx = sorted(int(i) for i in rng.choice(total, size=m, replace=False))
        sel = tuple(pts[i] for i in idx)
        tag, param = "M2", m
    else:
        if not 0.0 <= p <= 1.0:
            raise InvalidParam("p must lie in [0, 1]")
        mask = rng.random(total) < p
        sel = tuple(pt for pt, keep in zip(pts, mask) if keep)
        tag, param = "M3", p
    return ModelSample(model=tag, n=n, q=field.q, param=param, selection=sel,
                       matrix=FqMatrix(field, sel, n=n))


def sample_m1(field: FieldSpec, n: int, m: int, rng) -> ModelSample:
    """m i.i.d. uniform columns, wrapped like the PG-model samples."""
    mat = random_uniform_matrix(field, n, m, rng)
    return ModelSample(model="M1", n=n, q=field.q, param=m, selection=mat.columns,
                       matrix=mat)

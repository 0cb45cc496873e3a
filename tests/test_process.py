"""Trajectory trackers against independent per-prefix recomputation.

Every tracker test replays the identical column stream (counter-based
rng keyed by (seed, trial)) and checks the reported hitting step against
a from-scratch oracle on each prefix matrix.
"""

import bisect
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fqmatroid import montecarlo as MC
from fqmatroid import process as P
from fqmatroid.errors import BudgetExceeded, ConsistencyError, InvalidParam
from fqmatroid.fqlinalg import (
    FqMatrix,
    RrefState,
    Span2,
    canonical_point,
    enumerate_subspaces,
    level_deaths,
    make_field,
    pack_gf2,
    projective_points,
    random_uniform_matrix,
)
from fqmatroid.fqlinalg import subspaces as S
from fqmatroid.matroid import INFINITY as INF, RepMatroid

from conftest import (brute_circuit_count, brute_critical_number, brute_rank,
                      gf2_chi_at_most_one)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(4)
F9 = make_field(9)


def replay_columns(field, n, seed, trial, m):
    """The first m column tuples of the (seed, trial) stream."""
    st = P.ProcessState(field, n, P.process_rng(seed, trial))
    for _ in range(m):
        st.step()
    return st.column_tuples()


def prefix_matroid(cols, field, n, m):
    return RepMatroid(FqMatrix(field, cols[:m], n=n))


def canonical(field, col):
    lead = next(x for x in col if x)
    inv = field.inv(lead)
    return tuple(field.mul(inv, x) for x in col)


# ---- the state itself -------------------------------------------------------


def test_same_stream_same_trajectory():
    a = P.ProcessState(F2, 8, P.process_rng(123, 5))
    b = P.ProcessState(F2, 8, P.process_rng(123, 5))
    for _ in range(30):
        a.step()
        b.step()
        assert a.corank == b.corank
    assert a.column_tuples() == b.column_tuples()
    c = P.ProcessState(F2, 8, P.process_rng(123, 6))
    for _ in range(30):
        c.step()
    assert c.column_tuples() != a.column_tuples()


def test_block_refills_keep_the_per_column_stream():
    # 150 steps cross two refills of the state's draw-ahead buffer
    st = P.ProcessState(F3, 5, P.process_rng(77, 3))
    for _ in range(150):
        st.step()
    rng = P.process_rng(77, 3)
    expected = [tuple(int(x) for x in rng.integers(0, 3, size=5)) for _ in range(150)]
    assert st.column_tuples() == expected


def assert_consistent(st):
    """The incremental rank equals batch elimination from scratch."""
    scratch = RrefState(st.field, st.n)
    for col in st.native_cols:
        scratch.push(col)
    assert scratch.rank == st.rank


def test_corank_ascends_by_unit_steps():
    st = P.ProcessState(F3, 4, P.process_rng(7, 0))
    coranks = [0]
    for _ in range(40):
        st.step()
        coranks.append(st.corank)
        if st.m % 7 == 0:
            assert_consistent(st)
    assert all(b - a in (0, 1) for a, b in zip(coranks, coranks[1:]))
    assert st.rank + st.corank == st.m == 40
    assert_consistent(st)


def test_state_rejects_empty_row_space():
    with pytest.raises(InvalidParam):
        P.ProcessState(F2, 0, P.process_rng(1, 1))


# gf2, packed GF(3), generic, the numpy prime engine (q = 5, n = 24), and
# generic over a uint16 store (q = 257)
@pytest.mark.parametrize("q,n,dtype", [(2, 6, np.uint8), (3, 5, np.uint8),
                                       (4, 4, np.uint8), (5, 24, np.uint8),
                                       (257, 3, np.uint16)])
def test_store_holds_the_rows_of_the_pushed_natives(q, n, dtype, monkeypatch):
    field = make_field(q)
    pushed = []
    push, push_run = RrefState.push, RrefState.push_run

    def record(self, column):
        pushed.append(column)
        return push(self, column)

    def record_run(self, cols):
        def taken():  # push_run draws exactly the columns it pushes
            for col in cols:
                pushed.append(col)
                yield col
        return push_run(self, taken())

    monkeypatch.setattr(RrefState, "push", record)
    monkeypatch.setattr(RrefState, "push_run", record_run)
    st = P.ProcessState(field, n, P.process_rng(88, q))
    assert st.peek(0).shape == (0, n)
    first = st.peek(100).copy()  # past the first 64-column block
    for _ in range(30):
        st.step()
    later = st.peek(150)  # columns 30..179, into the third block
    assert first.dtype == later.dtype == st.rows.dtype == dtype
    assert np.array_equal(later[:70], first[30:])
    for _ in range(150):
        st.step()
    assert st.m == 180
    rows = np.concatenate([first[:30], later])
    assert st.column_tuples() == [tuple(r) for r in rows.tolist()]
    replay = random_uniform_matrix(field, n, 180, P.process_rng(88, q))
    assert st.matrix() == replay
    assert list(replay.columns) == st.column_tuples()
    # the natives the state pushed are FqMatrix's of the same columns, in
    # value and type
    assert len(pushed) == 180 and pushed == st.native_cols
    for got, want in zip(pushed, FqMatrix(field, st.column_tuples(), n=n).native_columns()):
        assert type(got) is type(want)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        else:
            assert got == want
            if isinstance(want, tuple):
                assert {type(x) for x in got} == {type(x) for x in want}


@pytest.mark.parametrize("call", [
    lambda st: st.peek(-3),
    lambda st: P.critical_trajectory(st, -2),
    lambda st: P.track_critical(st, 1, max_steps=-3),
    lambda st: P.track_k_circuit(st, 3, max_steps=-1),
    lambda st: P.kappa_trajectory(st, -1),
    lambda st: st.advance(-1),
], ids=["peek", "critical_trajectory", "track_critical", "track_k_circuit",
        "kappa_trajectory", "advance"])
def test_negative_counts_are_refused(call):
    st = P.ProcessState(F2, 4, P.process_rng(5, 0))
    with pytest.raises(InvalidParam):
        call(st)
    # nothing was stepped or drawn
    fresh = P.ProcessState(F2, 4, P.process_rng(5, 0))
    assert st.m == 0 and np.array_equal(st.peek(64), fresh.peek(64))


def assert_same_natives(got, want):
    """Engine-native columns equal in value and in type (dtype for arrays)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("q,n", [(2, 6), (3, 24), (4, 4), (5, 24), (257, 3)],
                         ids=["gf2", "gf3-packed", "generic-q4", "prime-q5", "generic-q257"])
def test_advance_then_step_reads_as_a_stepped_twin(q, n):
    # advancing appends columns unpushed; every later step and read pushes
    # them first, in order, so nothing a caller reads differs from stepping
    field = make_field(q)
    st = P.ProcessState(field, n, P.process_rng(71, q))
    deps, coranks = {}, {}
    for count in (10, 0, 60, 3, 70, 1, 65):  # across the 64-, 128- and 192-column blocks
        st.advance(count)
        for _ in range(2):
            deps[st.m] = st.step()
            coranks[st.m] = st.corank
    assert st.m == 223
    twin = P.ProcessState(field, n, P.process_rng(71, q))
    twin_deps, twin_coranks = [], []
    for _ in range(223):
        twin_deps.append(twin.step())
        twin_coranks.append(twin.corank)
    assert deps == {m: twin_deps[m - 1] for m in deps}
    assert coranks == {m: twin_coranks[m - 1] for m in coranks}
    assert st.rank == twin.rank and st.corank == twin.corank
    assert_same_natives(st.native_cols, twin.native_cols)
    assert st.column_tuples() == twin.column_tuples()
    assert st.matrix() == twin.matrix()
    # columns advanced past the last step are pushed by the first read
    st.advance(40)
    for _ in range(40):
        twin.step()
    assert st.rank == twin.rank and st.corank == twin.corank
    assert_same_natives(st.native_cols, twin.native_cols)


@pytest.mark.parametrize("q,n", [(2, 6), (2, 70), (3, 24), (4, 4), (5, 24), (257, 3)],
                         ids=["gf2", "gf2-n70", "gf3-packed", "generic-q4", "prime-q5",
                              "generic-q257"])
def test_step_until_dependent_reads_as_stepping(q, n):
    # one run per block reads as steps one column at a time, to the same
    # dependent column or limit; interleaved with peek, advance and step
    field = make_field(q)
    st = P.ProcessState(field, n, P.process_rng(76, q))
    twin = P.ProcessState(field, n, P.process_rng(76, q))

    def twin_until(limit):
        while limit is None or twin.m < limit:
            if (dep := twin.step()) is not None:
                return dep
        return None

    ops = [("until", None), ("until", None), ("peek", 150), ("until", None),
           ("advance", 7), ("until", None), ("step", 1), ("until", 3), ("until", 0),
           ("advance", 64), ("until", 70), ("step", 1), ("until", None), ("until", 200)]
    deps = 0
    for op, arg in ops:
        if op == "peek":
            st.peek(arg)
            continue
        if op == "advance":  # unpushed until the next run
            st.advance(arg)
            for _ in range(arg):
                twin.step()
            continue
        if op == "step":
            assert st.step() == twin.step()
        else:
            limit = None if arg is None else st.m + arg
            dep = st.step_until_dependent(limit)
            assert dep == twin_until(limit)
            assert dep is not None or st.m == limit
            deps += dep is not None
        assert st.m == twin.m
        assert (st.rank, st.corank) == (twin.rank, twin.corank)
        assert_same_natives(st.native_cols, twin.native_cols)
        assert st.matrix() == twin.matrix()
    assert deps >= 4 and st.m > 64


def test_first_circuit_trial_pushes_one_run_per_block(monkeypatch):
    # E5's fc2 trial at n = 100 pushes a block's columns in one push_run,
    # and none through the per-column push
    runs, pushes = [], []
    push_run = RrefState.push_run

    def count_run(self, cols):
        runs.append(1)
        return push_run(self, cols)

    monkeypatch.setattr(RrefState, "push_run", count_run)
    monkeypatch.setattr(RrefState, "push", lambda self, col: pushes.append(col))
    for trial in range(20):
        runs.clear()
        out = MC._t_first_circuit({"q": 2, "n": 100}, P.process_rng(20260814, trial))
        assert len(runs) <= -(-out["tau"] // 64) + 1
    assert not pushes


def assert_checked_equal(mat):
    """mat, built without the entry check, equals FqMatrix(...) of its
    columns: Python int entries, and the same engine-native columns."""
    checked = FqMatrix(mat.field, mat.columns, n=mat.n)
    assert mat == checked and mat.m == checked.m
    assert all(type(x) is int for col in mat.columns for x in col)
    assert_same_natives(mat.native_columns(), checked.native_columns())


@pytest.mark.parametrize("q,n", [(2, 6), (3, 24), (4, 4), (5, 24)],
                         ids=["gf2", "gf3-packed", "generic-q4", "prime-q5"])
def test_state_matrix_is_a_checked_matrix(q, n, monkeypatch):
    # matrix() shares the natives of a fully pushed state, and pushes
    # nothing for a state with columns advanced but not pushed yet
    field = make_field(q)
    st = P.ProcessState(field, n, P.process_rng(73, q))
    for _ in range(5):
        st.step()
    stepped = st.matrix()
    st.advance(70)
    monkeypatch.setattr(RrefState, "push", lambda *args: pytest.fail("pushed"))
    monkeypatch.setattr(RrefState, "push_run", lambda *args: pytest.fail("pushed"))
    advanced = st.matrix()
    monkeypatch.undo()
    st.step()
    assert (stepped.m, advanced.m) == (5, 75)
    assert_checked_equal(stepped)  # later steps leave its natives alone
    assert_checked_equal(advanced)
    assert advanced.columns == tuple(st.column_tuples()[:75])


@pytest.mark.parametrize("read", [
    lambda st: st.step(),
    lambda st: st.rank,
    lambda st: st.corank,
    lambda st: st.native_cols,
], ids=["step", "rank", "corank", "native_cols"])
def test_advanced_columns_keep_the_corank_check(read, monkeypatch):
    corank = RrefState.corank
    # from the fifth column on, the engine reports a corank two too high
    monkeypatch.setattr(RrefState, "corank",
                        property(lambda self: corank.fget(self) + 2 * (self._core.ncols >= 5)))
    st = P.ProcessState(F2, 6, P.process_rng(72, 0))
    st.advance(10)  # nothing is pushed yet
    with pytest.raises(ConsistencyError, match="at step 5"):
        read(st)


# ---- corank and first-circuit hitting times ---------------------------------


def test_first_circuit_is_the_first_dependency():
    st = P.ProcessState(F2, 6, P.process_rng(31, 4))
    m1, length = P.track_first_circuit(st)
    assert st.corank == 1 and st.m == m1
    # replay the stream: the first dependency's support is the circuit
    replay = P.ProcessState(F2, 6, P.process_rng(31, 4))
    while (dep := replay.step()) is None:
        pass
    assert replay.m == m1 and len(dep) == length
    # the reported support really is a circuit of the prefix matroid
    cols = st.column_tuples()
    assert brute_circuit_count(F2, [cols[j] for j in dep], length) == 1
    while st.step() is None:
        pass
    assert st.m > m1 and st.corank == 2


def test_first_circuit_matches_tau_crk_1():
    st = P.ProcessState(F3, 5, P.process_rng(32, 9))
    tau_fc, _ = P.track_first_circuit(st)
    assert tau_fc == st.m and st.corank == 1
    while st.corank < 3:
        st.step()
    # a twin stepped one column at a time to the same corank
    twin = P.ProcessState(F3, 5, P.process_rng(32, 9))
    coranks = []
    while not coranks or coranks[-1] < 3:
        twin.step()
        coranks.append(twin.corank)
    tau1, tau2, tau3 = (coranks.index(c) + 1 for c in (1, 2, 3))
    assert tau_fc == tau1 < tau2 < tau3 == st.m
    with pytest.raises(InvalidParam):
        P.track_first_circuit(st)


# q = 3 and 5 at n >= 24 run the prime engines (packed GF(3), numpy)
@pytest.mark.parametrize("q,n", [(2, 6), (2, 70), (3, 5), (3, 24), (4, 4),
                                 (5, 3), (5, 30)])
def test_step_returns_what_push_returns(q, n):
    field = make_field(q)
    st = P.ProcessState(field, n, P.process_rng(33, q * 100 + n))
    fresh = RrefState(field, n)
    deps = 0
    for _ in range(n + 8):
        dep = st.step()
        col = st.column_tuples()[-1]
        assert dep == fresh.push(FqMatrix(field, [col], n=n).native_columns()[0])
        deps += dep is not None
    assert deps == st.corank >= 8


@pytest.mark.parametrize("q,n", [(2, 5), (2, 70), (3, 4), (3, 30), (4, 3),
                                 (5, 3), (5, 30), (9, 2), (257, 3)])
def test_newest_point_is_canonical_point_of_the_newest_column(q, n):
    # every engine: packed gf2 ints, generic tuples, packed GF(3) ints at
    # n >= 24, numpy rows at p >= 5 and n >= 24, and generic over a uint16
    # store; read after steps and after advances, zero columns included
    field = make_field(q)
    st = P.ProcessState(field, n, P.process_rng(74, q))
    # steps append columns 1, 2, 4, 5, 66, 70, 71 and 107, and advances end
    # at 3, 65, 69 and 106; four of them are zero
    st.peek(107)[[0, 3, 64, 65]] = 0

    def check():
        got, want = st.points(st.m - 1)[0], canonical_point(field, st.column_tuples()[-1])
        if q == 2 and got is not None:
            got = tuple((got >> i) & 1 for i in range(n))  # a packed gf2 column
        assert got == want
        return want is None

    zeros = 0
    for count in (0, 0, 1, 0, 60, 3, 0, 35):
        if count:
            st.advance(count)
            zeros += check()
        st.step()
        zeros += check()
    assert st.m == 107 and zeros >= 4


@pytest.mark.parametrize("q,n", [(2, 5), (2, 70), (3, 4), (3, 30), (4, 3), (5, 30), (257, 3)])
def test_points_are_the_canonical_points_of_the_columns(q, n):
    field = make_field(q)
    st = P.ProcessState(field, n, P.process_rng(79, q))
    st.peek(100)[[0, 63, 64]] = 0
    st.advance(100)
    want = [canonical_point(field, c) for c in st.column_tuples()]
    for start in (0, 1, 63, 64, 99, 100):
        got = st.points(start)
        if q == 2:  # packed gf2 columns
            got = [v and tuple((v >> i) & 1 for i in range(n)) for v in got]
        assert got == want[start:]
    assert want.count(None) >= 3


# ---- k-circuit tracking ------------------------------------------------------


def test_track_loop_time():
    st = P.ProcessState(F2, 3, P.process_rng(41, 0))
    m = P.track_k_circuit(st, 1)
    cols = st.column_tuples()
    assert not any(cols[-1])
    assert all(any(c) for c in cols[:-1])
    assert m == len(cols)


@pytest.mark.parametrize("field,trial", [(F2, 0), (F3, 3)])
def test_track_parallel_pair(field, trial):
    st = P.ProcessState(field, 3, P.process_rng(42, trial))
    m = P.track_k_circuit(st, 2)
    cols = st.column_tuples()
    pts = [canonical(field, c) for c in cols if any(c)]
    assert len(set(pts)) == len(pts) - 1  # exactly one repeat, at the end
    assert any(cols[-1]) and canonical(field, cols[-1]) in pts[:-1]
    assert m == len(cols)


@pytest.mark.parametrize("q,n,k,trial", [(5, 1, 1, 14), (16, 2, 2, 8)])
def test_track_small_k_past_the_kernel_budget(q, n, k, trial):
    # zero and parallel columns lift q^corank past the kernel budget
    # before the first 1- or 2-circuit; the tracker still answers
    field = make_field(q)
    st = P.ProcessState(field, n, P.process_rng(61, trial))
    m = P.track_k_circuit(st, k, max_steps=60)
    assert m is not None and q ** st.corank > P.DEFAULT_KERNEL_BUDGET
    cols = replay_columns(field, n, 61, trial, m)
    assert brute_circuit_count(field, cols, k) > 0
    assert brute_circuit_count(field, cols[:-1], k) == 0


@pytest.mark.parametrize("trial", [0, 1, 2, 3])
def test_track_3_circuit_gf2_against_spectrum(trial):
    st = P.ProcessState(F2, 5, P.process_rng(901, trial))
    m = P.track_k_circuit(st, 3, max_steps=40)
    assert m is not None
    cols = replay_columns(F2, 5, 901, trial, m)
    assert brute_circuit_count(F2, cols, 3) > 0
    assert brute_circuit_count(F2, cols[:-1], 3) == 0


@pytest.mark.parametrize("trial", [0, 1, 2, 3])
def test_track_3_circuit_generic_field(trial):
    st = P.ProcessState(F3, 4, P.process_rng(902, trial))
    m = P.track_k_circuit(st, 3, max_steps=30)
    assert m is not None
    cols = replay_columns(F3, 4, 902, trial, m)
    assert brute_circuit_count(F3, cols, 3) > 0
    assert brute_circuit_count(F3, cols[:-1], 3) == 0


def test_track_k_circuit_edge_cases():
    st = P.ProcessState(F2, 3, P.process_rng(43, 0))
    assert P.track_k_circuit(st, 5) is None  # k > n+1 is impossible
    assert st.m == 0
    assert P.track_k_circuit(st, 4, max_steps=2) is None  # censored
    st2 = P.ProcessState(F2, 3, P.process_rng(43, 1))
    st2.step()
    with pytest.raises(InvalidParam):
        P.track_k_circuit(st2, 2)
    with pytest.raises(InvalidParam):
        P.track_k_circuit(P.ProcessState(F2, 3, P.process_rng(43, 2)), 0)


def test_track_k_circuit_kernel_budget():
    st = P.ProcessState(F2, 4, P.process_rng(44, 0))
    with pytest.raises(BudgetExceeded):
        # any dependent step already overflows a unit budget
        P.track_k_circuit(st, 3, kernel_budget=1)


def test_track_hamilton_against_spectrum():
    st = P.ProcessState(F2, 4, P.process_rng(905, 0))
    m = P.track_k_circuit(st, 4, max_steps=200)  # a circuit of length n
    assert m == 10
    cols = replay_columns(F2, 4, 905, 0, m)
    assert brute_circuit_count(F2, cols, 4) > 0
    assert brute_circuit_count(F2, cols[:-1], 4) == 0


# ---- connectivity tracking -----------------------------------------------------


@pytest.mark.parametrize("field,n,trial,horizon", [
    pytest.param(F2, 4, 1, 14, id="q2-4-1"),
    pytest.param(F2, 5, 0, 20, id="q2-5-0"),
    pytest.param(F3, 3, 1, 12, id="q3-3-1"),
])
def test_kappa_trajectory_against_per_prefix_recompute(field, n, trial, horizon):
    st = P.ProcessState(field, n, P.process_rng(55, trial))
    trace = P.kappa_trajectory(st, horizon=horizon)
    cols = replay_columns(field, n, 55, trial, horizon)
    ranks = []
    for m in range(1, horizon + 1):
        mat = prefix_matroid(cols, field, n, m)
        ranks.append(mat.rank)
        assert trace.kappas[m - 1] == mat.vertical_connectivity()[0]
    expect_full = next((m for m, r in enumerate(ranks, start=1) if r == n), None)
    assert trace.full_rank_at == expect_full
    expect_dec = [(m, a, b) for m, (a, b) in
                  enumerate(zip(trace.kappas, trace.kappas[1:]), start=2) if b < a]
    assert trace.decreases == expect_dec
    assert all(m > expect_full for m, _, _ in trace.post_full_rank_decreases())


# kappa_trajectory(...).kappas at q = 2, n = 12, horizon 24 (E8's monitor
# size), and each prefix's vertical witness as the bit mask of part1
PINNED_KAPPA = {
    (20260814, 0): (
        [INF, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4],
        [None, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 3071, 4095, 12287, 32751,
         45055, 130043, 194047, 456191, 980479, 980479, 3077631, 7271935,
         15660543]),
    (20260814, 1): (
        [INF, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 3, 3, 3],
        [None, 1, 3, 7, 15, 31, 63, 223, 255, 511, 1023, 2047, 2047, 13311, 31999,
         65247, 65535, 65535, 524277, 1048565, 2097141, 2097141, 65793, 65793]),
    (314159, 2): (
        [INF, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3],
        [None, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047, 7167, 15359, 31743,
         65023, 130559, 261631, 261631, 786423, 1310207, 4159359, 8353663,
         15466487]),
}


@pytest.mark.parametrize("seed,trial", sorted(PINNED_KAPPA))
def test_kappa_trajectory_pinned(seed, trial):
    kappas, masks = PINNED_KAPPA[seed, trial]
    st = P.ProcessState(F2, 12, P.process_rng(seed, trial))
    assert P.kappa_trajectory(st, 24, partition_budget=24).kappas == kappas
    cols = st.column_tuples()
    for m in range(1, 25):
        order, sep = prefix_matroid(cols, F2, 12, m).vertical_connectivity(24)
        assert order == kappas[m - 1]
        if sep is None:
            assert masks[m - 1] is None
        else:
            assert sum(1 << j for j in sep.part1) == masks[m - 1]
            assert sep.part2 == tuple(j for j in range(m) if j not in sep.part1)


# Span2.push calls of the bipartition searches and their seeds in
# kappa_trajectory at E8's monitor size (q = 2, n = 12, horizon 24), seed
# 20260814, trials 0-2; the common-rest walk at q = 2 reduces on copies of
# the row tables and pushes nothing, so a walk that pushed would exceed them
KAPPA_SPAN_PUSHES = {0: 6471, 1: 6909, 2: 6381}


@pytest.mark.parametrize("trial", sorted(KAPPA_SPAN_PUSHES))
def test_kappa_trajectory_span_pushes_stay_at_their_count(trial, monkeypatch):
    pushes = []
    push = Span2.push

    def count_push(self, v):
        pushes.append(1)
        return push(self, v)

    monkeypatch.setattr(Span2, "push", count_push)
    st = P.ProcessState(F2, 12, P.process_rng(20260814, trial))
    P.kappa_trajectory(st, 24, partition_budget=24)
    assert len(pushes) <= KAPPA_SPAN_PUSHES[trial]


@pytest.mark.parametrize("field,n,horizon", [
    pytest.param(F2, 8, 16, id="q2"),
    pytest.param(F3, 5, 12, id="q3"),
    pytest.param(F4, 4, 10, id="q4"),
])
def test_seeded_vertical_connectivity_matches_unseeded(field, n, horizon, monkeypatch):
    # each step seeds the search with the previous prefix's witness, as
    # kappa_trajectory does; order and witness must not change
    bounds = []
    below = RepMatroid.vertical_separation_below
    monkeypatch.setattr(RepMatroid, "vertical_separation_below",
                        lambda M, bound, budget: bounds.append(bound) or below(M, bound, budget))
    for trial in range(6):
        cols = replay_columns(field, n, 58, trial, horizon)
        sep = None
        for m in range(1, horizon + 1):
            M = prefix_matroid(cols, field, n, m)
            want = M.vertical_connectivity(horizon)
            assert P._seeded_vertical_connectivity(M, sep, horizon) == want, (trial, m)
            sep = want[1]
    assert len(bounds) >= 20  # the seeded search ran


def test_kappa_trajectory_guards():
    st = P.ProcessState(F2, 4, P.process_rng(55, 2))
    with pytest.raises(BudgetExceeded):
        P.kappa_trajectory(st, horizon=30, partition_budget=22)
    st.step()
    with pytest.raises(InvalidParam):
        P.kappa_trajectory(st, horizon=5)


# ---- critical number tracking ---------------------------------------------------


# top: the largest chi the trajectory reaches, so every case with top >= 2
# checks at least one rebuild above level 1
@pytest.mark.parametrize("field,n,trial,horizon,top", [
    pytest.param(F2, 5, 0, 12, 2, id="field0-5-0"),
    pytest.param(F2, 5, 1, 12, 1, id="field1-5-1"),
    pytest.param(F3, 3, 0, 12, 2, id="field2-3-0"),
    # chi reaches 3 by step 30 (trial 0) and 38 (trial 1): level-2 and
    # level-3 rebuilds
    pytest.param(F2, 8, 0, 40, 3, id="field3-8-0"),
    pytest.param(F2, 8, 1, 40, 3, id="field4-8-1"),
    # extension fields go through the digit maps of x * X^t; the q = 3
    # and second q = 9 streams end in a loop after a level-2 rebuild
    pytest.param(F3, 4, 0, 40, 2, id="q3-4-0"),
    pytest.param(F4, 3, 0, 20, 2, id="q4-3-0"),
    pytest.param(F4, 3, 1, 25, 2, id="q4-3-1"),
    pytest.param(F9, 2, 0, 60, 2, id="q9-2-0"),
    pytest.param(F9, 2, 1, 60, 2, id="q9-2-1"),
])
def test_critical_trajectory_against_per_prefix(field, n, trial, horizon, top):
    st = P.ProcessState(field, n, P.process_rng(56, trial))
    trace = P.critical_trajectory(st, horizon=horizon)
    assert max(c for c in trace.chis if c is not None) == top
    cols = replay_columns(field, n, 56, trial, horizon)
    # chi never falls as columns arrive, and brute gives None from a loop on,
    # so the first and last prefix of each run of equal values cover them all
    edges = {1, horizon}
    for m in range(2, horizon + 1):
        if trace.chis[m - 1] != trace.chis[m - 2]:
            edges |= {m - 1, m}
    for m in sorted(edges):
        assert trace.chis[m - 1] == brute_critical_number(field, cols[:m]), m
    assert trace.skips == []


def death_indices(field, n, k, cols):
    return S._death_indices(S._syndrome_words(field, n, cols), len(cols), field.q, n, k)


# q = 2 builds the words by XOR doubling, every other q by a float product
@pytest.mark.parametrize("field,n", [(F2, 1), (F2, 6), (F3, 3), (F4, 3)],
                         ids=["q2-1", "q2-6", "q3-3", "q4-3"])
def test_syndrome_words_against_field_arithmetic(field, n):
    points = projective_points(field, n)
    rng = np.random.default_rng(field.q * 10 + n)
    for count in (1, 64, 70, 130):
        cols = rng.integers(0, field.q, size=(count, n)).astype(np.uint8)
        words = S._syndrome_words(field, n, cols)
        assert words.dtype == np.uint64 and words.shape == (len(points), -(-count // 64))
        assert np.array_equal(S._syndrome_words(field, n, [tuple(c) for c in cols.tolist()]),
                              words)
        width = 64 * words.shape[1]
        for a, row in zip(points, words.tolist()):
            bits = [row[j // 64] >> j % 64 & 1 for j in range(width)]
            dots = [0] * count
            for j, col in enumerate(cols.tolist()):
                for x, y in zip(a, col):
                    dots[j] = field.add(dots[j], field.mul(x, y))
            # bit j is set when <a, column j> != 0, and every padding bit is set
            assert bits == [int(d != 0) for d in dots] + [1] * (width - count)


def test_critical_tracker_rebuilds_over_more_than_64_columns():
    # 70 distinct columns with first coordinate 1: only e_1 in the dual
    # has <a, v> = 1 on all of them, so chi stays 1 until e_2 arrives and
    # level 2 is read over 71 columns (two syndrome words, the second one
    # padded)
    n = 8
    cols = [(1,) + tuple((w >> i) & 1 for i in range(n - 1)) for w in range(70)]
    cols.append((0, 1) + (0,) * (n - 2))
    deaths = level_deaths(F2, n, cols, [0])
    assert deaths == [0, 70, 71]  # chi = 1 up to 70 and 2 at 71, no skip
    for m in (70, 71):
        assert brute_critical_number(F2, cols[:m]) == bisect.bisect_left(deaths, m)
    # the spaces with death >= m are exactly the dual planes avoiding the
    # first m columns, in enumerate_subspaces order
    death = death_indices(F2, n, 2, cols)
    packed = [pack_gf2(c) for c in cols]
    planes = [[pack_gf2(row) for row in h.rows] for h in enumerate_subspaces(F2, n, 2)]
    for m in (70, 71):
        keep = [i for i, rows in enumerate(planes)
                if all(any((r & v).bit_count() & 1 for r in rows) for v in packed[:m])]
        assert np.flatnonzero(death >= m).tolist() == keep


def _first_inside(field, rows, cols):
    """Index of the first column with <u, v> = 0 for every row u; len(cols)
    when there is none, from FieldSpec arithmetic alone."""
    def dot(u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = field.add(acc, field.mul(x, y))
        return acc
    return next((j for j, v in enumerate(cols) if not any(dot(u, v) for u in rows)),
                len(cols))


@pytest.mark.parametrize("field,n,trial,horizon", [
    pytest.param(F2, 4, 0, 20, id="q2-4"),
    pytest.param(F3, 3, 0, 20, id="q3-3"),
    pytest.param(F3, 4, 1, 30, id="q3-4"),
    pytest.param(F4, 2, 0, 12, id="q4-2"),
    pytest.param(F4, 3, 1, 25, id="q4-3"),
])
def test_death_indices_against_brute_first_column_inside(field, n, trial, horizon):
    cols = replay_columns(field, n, 58, trial, horizon)
    cols = [v for v in cols if any(v)]  # the evaluator reads loopless columns
    for k in range(1, n + 1):
        want = [_first_inside(field, h.rows, cols) for h in enumerate_subspaces(field, n, k)]
        assert death_indices(field, n, k, cols).tolist() == want, k


def test_death_indices_past_64_columns_read_the_second_word():
    # 70 columns with first coordinate 1, then e_2: the dual point e_1 and
    # every dual space through it avoid the first 70, so their deaths are
    # 70 (e_2 lies inside) or 71 (e_2 too is avoided)
    F, n = F3, 4
    rng = np.random.default_rng(59)
    cols = [(1,) + tuple(int(x) for x in rng.integers(0, 3, n - 1)) for _ in range(70)]
    cols.append((0, 1, 0, 0))
    for k in range(1, n + 1):
        got = death_indices(F, n, k, cols).tolist()
        assert got == [_first_inside(F, h.rows, cols) for h in enumerate_subspaces(F, n, k)]
        assert max(got) >= 70


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_normal_bases_follow_enumerate_subspaces(q):
    # the Schubert cells' meshes, raveled in C order, must list the reduced
    # bases in enumerate_subspaces order, the order of the death indices
    # that the tracker reads; each basis row is a projective_points index
    F = make_field(q)
    for n in range(1, 5):
        index = {pt: i for i, pt in enumerate(projective_points(F, n))}
        for k in range(n + 1):
            want = [[index[row] for row in h.rows] for h in enumerate_subspaces(F, n, k)]
            got = [[int(ix.ravel()[i]) for ix, i in zip(mesh, pos)]
                   for mesh in S._schubert_cells(q, n, k)
                   for pos in np.ndindex(*(ix.size for ix in mesh))]
            assert got == want


def test_critical_tracker_over_gf256_against_field_arithmetic():
    # e = 8: each inner product is a product with the digit maps of x * X^t;
    # at level 1 the table is the identity, so the survivors of each prefix
    # are the points a with <a, v> != 0 for every column v in it
    F = make_field(256)
    n, horizon = 2, 24
    cols = replay_columns(F, n, 56, 0, horizon)
    points = projective_points(F, n)
    deaths = level_deaths(F, n, cols, [0])
    death = death_indices(F, n, 1, cols)
    for m in range(1, horizon + 1):
        assert bisect.bisect_left(deaths, m) == brute_critical_number(F, cols[:m])
        off = [i for i, a in enumerate(points)
               if all(F.add(F.mul(a[0], v[0]), F.mul(a[1], v[1])) for v in cols[:m])]
        assert np.flatnonzero(death >= m).tolist() == off


def _track_critical(field, n):
    P.track_critical(P.ProcessState(field, n, P.process_rng(57, 0)), 1, max_steps=5)


def _critical_number(field, n):
    pad = (0,) * (n - 2)
    cols = [(1, 0) + pad, (0, 1) + pad, (1, 1) + pad]
    RepMatroid(FqMatrix(field, cols, n=n)).critical_number()


@pytest.mark.parametrize("entry,field,n", [
    pytest.param(_track_critical, F2, 40, id="field0-40"),
    pytest.param(_track_critical, F3, 14, id="field1-14"),
    pytest.param(_critical_number, F2, 40, id="critical_number-q2-40"),
    pytest.param(_critical_number, F3, 14, id="critical_number-q3-14"),
])
def test_track_critical_refuses_before_building_tables(entry, field, n):
    # [n]_q level-1 spaces exceed the budget: the refusal comes first
    caches = (S._schubert_cells, S._digit_tables)
    before = [c.cache_info().misses for c in caches]
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="budget 1000000"):
        entry(field, n)
    assert time.perf_counter() - t0 < 1.0
    assert [c.cache_info().misses for c in caches] == before


def test_bench_warm_up_fills_the_tables_the_tracker_reads(monkeypatch):
    # bench/child.py's set-up runs one e10_critical reference call at the
    # default seed; it must build the tables every timed call reads, or
    # their building moves into the timed calls
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    wl = workloads.WORKLOADS["e10_critical"]
    S._schubert_cells.cache_clear()
    MC.run_experiment(workloads.experiment_config(MC, wl.preset, workloads.DEFAULT_SEED,
                                                  wl.warmup))
    misses = S._schubert_cells.cache_info().misses
    for key in ((2, 10, 1), (2, 8, 1), (2, 8, 2)):
        S._schubert_cells(*key)
    assert S._schubert_cells.cache_info().misses == misses


def test_critical_trajectory_stops_at_loop():
    st = P.ProcessState(F2, 2, P.process_rng(904, 0))
    trace = P.critical_trajectory(st, horizon=6)
    assert trace.loop_at == 2
    assert trace.chis[0] is not None
    assert trace.chis[1:] == [None] * 5


def test_track_critical_hits_and_censors():
    st = P.ProcessState(F2, 4, P.process_rng(57, 1))
    m = P.track_critical(st, 1, max_steps=60)
    assert m is not None
    cols = replay_columns(F2, 4, 57, 1, m)
    assert brute_critical_number(F2, cols) == 2
    assert brute_critical_number(F2, cols[:-1]) == 1
    # chi can never exceed n: target k+1 > n reports None without stepping
    st2 = P.ProcessState(F2, 2, P.process_rng(57, 1))
    assert P.track_critical(st2, 2, max_steps=60) is None
    assert st2.m == 0
    # a loop ends tracking
    st3 = P.ProcessState(F2, 2, P.process_rng(904, 0))
    assert P.track_critical(st3, 1, max_steps=50) is None
    assert st3.m == 2
    with pytest.raises(InvalidParam):
        P.track_critical(P.ProcessState(F2, 3, P.process_rng(57, 2)), -1)
    st4 = P.ProcessState(F2, 3, P.process_rng(57, 3))
    st4.step()
    with pytest.raises(InvalidParam):
        P.track_critical(st4, 1)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("field", [F2, F3, F4], ids=["q2", "q3", "q4"])
def test_track_critical_is_the_first_brute_hit(field, n, k):
    # chi of the loopless prefixes never falls, so the first m with
    # chi >= k + 1 is the hit whose prefix one column shorter stays below
    horizon = 80
    for seed in range(8):
        st = P.ProcessState(field, n, P.process_rng(seed, 0))
        got = P.track_critical(st, k, max_steps=horizon)
        cols = replay_columns(field, n, seed, 0, horizon)
        loop = next((m for m, v in enumerate(cols, start=1) if not any(v)), None)
        loopless = horizon if loop is None else loop - 1
        if got is None:
            assert brute_critical_number(field, cols[:loopless]) <= k
            if k < n:  # k + 1 > n returns before the first step
                assert st.m == (horizon if loop is None else loop)
        else:
            assert got <= loopless and st.m == got
            assert brute_critical_number(field, cols[:got]) >= k + 1
            assert brute_critical_number(field, cols[:got - 1]) <= k


@pytest.mark.parametrize("field,n,k", [
    (F2, 10, 1), (F2, 6, 2), (F2, 5, 0), (F3, 4, 1), (F4, 3, 1)])
def test_track_critical_builds_no_level_above_its_target(field, n, k, monkeypatch):
    levels = []
    evaluate = S._death_indices

    def record(words, count, q, n, level):
        levels.append(level)
        return evaluate(words, count, q, n, level)

    monkeypatch.setattr(S, "_death_indices", record)
    for trial in range(4):
        levels.clear()
        got = P.track_critical(P.ProcessState(field, n, P.process_rng(60, trial)), k)
        assert max(levels, default=0) <= k
        # levels go upward; a level that survives a look-ahead window is
        # read again over the doubled one
        assert levels == sorted(levels)
        if got is not None:  # the hit is the death of level k
            assert list(dict.fromkeys(levels)) == list(range(1, k + 1))


def refuse_in_package(monkeypatch, *names):
    """Rebind every fqmatroid module's binding of each name to a refusal."""
    def refuse(*args):
        raise AssertionError(f"one of {names} was called")

    for name, module in list(sys.modules.items()):
        if name.startswith("fqmatroid"):
            for attr in names:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    return refuse


def check_critical_trackers(field, seeds):
    """track_critical(k = 1) and critical_trajectory against the brute oracle
    on (seed, 2) streams; returns (seed, state) for every state they left."""
    n, horizon = 4, 60
    states = []
    for seed in seeds:
        cols = list(random_uniform_matrix(field, n, horizon,
                                          P.process_rng(seed, 2)).columns)
        loop = next((m for m, v in enumerate(cols, start=1) if not any(v)), None)
        loopless = horizon if loop is None else loop - 1
        st = P.ProcessState(field, n, P.process_rng(seed, 2))
        got = P.track_critical(st, 1, max_steps=horizon)
        if got is None:
            assert brute_critical_number(field, cols[:loopless]) <= 1
        else:
            assert brute_critical_number(field, cols[:got]) == 2
            assert brute_critical_number(field, cols[:got - 1]) <= 1
        traced = P.ProcessState(field, n, P.process_rng(seed, 2))
        trace = P.critical_trajectory(traced, 12)
        assert trace.loop_at == (loop if loop is not None and loop <= 12 else None)
        for m, chi in enumerate(trace.chis, start=1):
            assert chi == (None if m > loopless else brute_critical_number(field, cols[:m]))
        states += [(seed, st), (seed, traced)]
    return states


@pytest.mark.parametrize("field", [F2, F3], ids=["q2", "q3"])
def test_critical_trackers_push_and_pack_nothing(field, monkeypatch):
    # both trackers advance the state without eliminating or packing a
    # column; a later read pushes them, as if the state had stepped
    refuse = refuse_in_package(monkeypatch, "pack_native")
    monkeypatch.setattr(RrefState, "push", refuse)
    monkeypatch.setattr(RrefState, "push_run", refuse)
    states = check_critical_trackers(field, range(6))
    monkeypatch.undo()
    assert all(st.m for _, st in states)
    for seed, st in states:
        twin = P.ProcessState(field, st.n, P.process_rng(seed, 2))
        for _ in range(st.m):
            twin.step()
        assert (st.m, st.rank, st.corank) == (twin.m, twin.rank, twin.corank)
        assert_same_natives(st.native_cols, twin.native_cols)


@pytest.mark.parametrize("n", [12, 16])
def test_track_critical_at_q2_past_the_level_2_budget(n):
    # level 2 holds more than 10^6 spaces from n = 12 on; tau_1crt reads
    # only level 1, so it runs, and the rank oracle checks each hit
    for trial in range(5):
        got = P.track_critical(P.ProcessState(F2, n, P.process_rng(61, trial)), 1)
        assert got is not None
        cols = replay_columns(F2, n, 61, trial, got)
        assert all(any(v) for v in cols)
        assert not gf2_chi_at_most_one(cols)
        assert gf2_chi_at_most_one(cols[:-1])


# ---- minor hitting times (the E2 and E3 detectors) -------------------------------


def first_prefix(cols, field, count):
    """First m with brute rank of the m-prefix < count(prefix)."""
    for m in range(1, len(cols) + 1):
        if brute_rank(field, cols[:m]) < count(cols[:m]):
            return m
    return None


def nonzero_count(cols):
    return sum(1 for c in cols if any(c))


def point_count(field):
    return lambda cols: len({canonical(field, c) for c in cols if any(c)})


# (1, 1), (2, 3) and (3, 4) draw zero columns before the hitting step
@pytest.mark.parametrize("n,trial", [(1, 1), (2, 3), (3, 4), (5, 1), (8, 3)])
def test_tau_u12_packed_draw_against_per_prefix(n, trial):
    # q = 2 draws packed integers in blocks of 128; replay them from the same rng
    out = MC._t_tau_u12({"q": 2, "n": n}, P.process_rng(63, trial))
    rng = P.process_rng(63, trial)
    raw = rng.integers(0, 1 << n, size=128, dtype=np.int64).tolist()
    cols = [tuple((v >> i) & 1 for i in range(n)) for v in raw]
    assert out["tau_u12_minus_n"] + n == first_prefix(cols, F2, nonzero_count)


# (1, 1) and (2, 5) draw zero columns before the hitting step
@pytest.mark.parametrize("n,trial", [(1, 1), (2, 5), (4, 2), (5, 3)])
def test_tau_u12_process_fallback_against_per_prefix(n, trial):
    out = MC._t_tau_u12({"q": 3, "n": n}, P.process_rng(64, trial))
    cols = replay_columns(F3, n, 64, trial, 3 * n + 12)
    assert out["tau_u12_minus_n"] + n == first_prefix(cols, F3, nonzero_count)


@pytest.mark.parametrize("field,n,trial", [(F2, 3, 0), (F2, 5, 1), (F2, 7, 2),
                                           (F3, 2, 0), (F3, 3, 1), (F3, 4, 2),
                                           (F4, 2, 0), (F4, 3, 1)])
def test_tau_u23_against_per_prefix(field, n, trial):
    out = MC._t_tau_u23({"q": field.q, "n": n}, P.process_rng(65, trial))
    cols = replay_columns(field, n, 65, trial, 3 * n + 12)
    tau = first_prefix(cols, field, point_count(field))
    assert out["tau_u23_minus_n"] + n == tau
    tau_crk1 = first_prefix(cols, field, len)
    assert out["agree"] == int(tau == tau_crk1)
    assert out["le_n1"] == int(tau <= n + 1)
    assert out["eq_n1"] == int(tau == n + 1)
    # a circuit among distinct points is a circuit among the columns
    assert tau >= tau_crk1


def tau_u23_per_step(field, n, rng):
    """E3's trial output from the rank and the point set after every step."""
    st = P.ProcessState(field, n, rng)
    points, tau_crk1 = set(), None
    while True:
        dep = st.step()
        col = st.column_tuples()[-1]
        if any(col):
            points.add(canonical(field, col))
        if tau_crk1 is None and dep is not None:
            tau_crk1 = st.m
        if st.rank < len(points):
            return {"tau_u23_minus_n": st.m - n, "agree": int(st.m == tau_crk1),
                    "le_n1": int(st.m <= n + 1), "eq_n1": int(st.m == n + 1)}


@pytest.mark.parametrize("q,n", [(2, 2), (2, 4), (2, 70), (3, 2), (3, 30), (4, 2), (4, 3)])
def test_tau_u23_equals_the_per_step_reference(q, n):
    # the trial steps a run at a time and tests only dependent columns
    field = make_field(q)
    for trial in range(30):
        got = MC._t_tau_u23({"q": field.q, "n": n}, P.process_rng(67, trial))
        assert got == tau_u23_per_step(field, n, P.process_rng(67, trial))


def u23_by_stepping(field, n, rng):
    """E3's hitting times stepped through a ProcessState: the first step at
    a dependent column whose point is new and nonzero, and the first step
    of corank 1."""
    st = P.ProcessState(field, n, rng)
    points, tau_crk1 = set(), None
    while True:
        start = st.m
        st.step_until_dependent()
        *independent, pt = st.points(start)
        points.update(independent)
        if tau_crk1 is None:
            tau_crk1 = st.m
        if pt is not None and pt not in points:
            return st.m, tau_crk1


@pytest.mark.parametrize("n", [2, 5, 64, 200])
def test_u23_tracker_matches_stepping(n):
    # the q = 2 loop draws the blocks a ProcessState draws and reduces them
    # on a rank-only echelon; it must stop where stepping stops
    for seed in range(300):
        assert (P.track_u23_minor(F2, n, P.process_rng(seed, n))
                == u23_by_stepping(F2, n, P.process_rng(seed, n))), seed


@pytest.mark.parametrize("n", [6, 200])
def test_u23_gf2_loop_checks_rank_plus_corank(n):
    # a row no column put there: the table's rank runs one past what the
    # columns account for, so the first block's check fails
    rows = [None] * (n + 1)
    rows[2] = 0b10
    with pytest.raises(ConsistencyError, match="rank .* corank"):
        P._track_u23_gf2(F2, n, P.process_rng(5, 1), rows)


@pytest.mark.parametrize("q", [2, 3])
def test_u23_tracker_refuses_one_row(q):
    # one row holds one projective point, so U_{2,3} never appears
    with pytest.raises(InvalidParam):
        P.track_u23_minor(make_field(q), 1, P.process_rng(5, 1))


# ---- point-sample models -----------------------------------------------------------


def test_sample_pg_model_param_validation():
    rng = P.process_rng(62, 0)
    with pytest.raises(InvalidParam):
        P.sample_pg_model(F2, 3, rng)
    with pytest.raises(InvalidParam):
        P.sample_pg_model(F2, 3, rng, m=2, p=0.5)
    with pytest.raises(InvalidParam):
        P.sample_pg_model(F2, 3, rng, m=8)  # only 7 points exist
    with pytest.raises(InvalidParam):
        P.sample_pg_model(F2, 3, rng, p=1.5)


def test_sample_m2_is_a_sorted_simple_point_set():
    pts = projective_points(F2, 3)
    sample = P.sample_pg_model(F2, 3, P.process_rng(62, 1), m=4)
    assert (sample.n, sample.m) == (3, 4)
    assert len(set(sample.columns)) == 4
    order = [pts.index(c) for c in sample.columns]
    assert order == sorted(order)
    mat = RepMatroid(sample)
    assert mat.is_simple() and not mat.loops()
    # same stream, same subset
    again = P.sample_pg_model(F2, 3, P.process_rng(62, 1), m=4)
    assert again == sample


def test_sample_pg_models_are_checked_matrices():
    for field, n in ((F2, 3), (F3, 2), (F4, 2)):
        assert_checked_equal(P.sample_pg_model(field, n, P.process_rng(62, 5), m=3))
        assert_checked_equal(P.sample_pg_model(field, n, P.process_rng(62, 6), p=0.5))


def test_sample_m3_bernoulli_inclusion():
    pts = projective_points(F3, 2)
    sample = P.sample_pg_model(F3, 2, P.process_rng(62, 2), p=0.5)
    assert sample.n == 2
    assert set(sample.columns) <= set(pts)
    order = [pts.index(c) for c in sample.columns]
    assert order == sorted(order)
    assert P.sample_pg_model(F3, 2, P.process_rng(62, 3), p=0.0).m == 0
    assert P.sample_pg_model(F3, 2, P.process_rng(62, 4), p=1.0).m == 4


def test_sample_m1_matches_process_stream():
    mat = random_uniform_matrix(F3, 3, 9, P.process_rng(63, 0))
    assert (mat.n, mat.m) == (3, 9)
    st = P.ProcessState(F3, 3, P.process_rng(63, 0))
    for _ in range(9):
        st.step()
    assert list(mat.columns) == st.column_tuples()

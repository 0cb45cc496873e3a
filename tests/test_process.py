"""Trajectory trackers against independent per-prefix recomputation.

Every tracker test replays the identical column stream (counter-based
rng keyed by (seed, trial)) and checks the reported hitting step against
a from-scratch oracle on each prefix matrix.
"""

import re

import pytest

from fqmatroid import process as P
from fqmatroid.errors import BudgetExceeded, ConsistencyError, InvalidParam
from fqmatroid.fqlinalg import FqMatrix, make_field, pack_gf2, projective_points
from fqmatroid.matroid import INFINITY, RepMatroid, uniform_matroid_matrix

F2 = make_field(2)
F3 = make_field(3)


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
    a = P.ProcessState(F2, 8, P.process_rng(123, 5), record_trajectory=True)
    b = P.ProcessState(F2, 8, P.process_rng(123, 5), record_trajectory=True)
    for _ in range(30):
        a.step()
        b.step()
    assert a.dump_trajectory() == b.dump_trajectory()
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


def test_corank_ascends_by_unit_steps():
    st = P.ProcessState(F3, 4, P.process_rng(7, 0), checkpoint_every=7)
    for _ in range(40):
        st.step()
    assert st.rank + st.corank == st.m == 40
    hist = st.corank_history
    assert all(b - a in (0, 1) for a, b in zip(hist, hist[1:]))
    st.check_consistency()


def test_trajectory_text_format():
    st = P.ProcessState(F2, 3, P.process_rng(11, 2), record_trajectory=True)
    for _ in range(12):
        st.step()
    lines = st.dump_trajectory().splitlines()
    assert len(lines) == 12
    pat = re.compile(
        r"^step (\d+): rank (\d+), corank (\d+)"
        r"(, (dependent|loop|first-circuit)(,(dependent|loop|first-circuit))*)?$")
    for i, line in enumerate(lines):
        mo = pat.match(line)
        assert mo, line
        assert int(mo.group(1)) == i + 1
    # 12 columns in F_2^3 force dependencies, so tags must have appeared
    assert any("dependent" in line for line in lines)
    assert any("first-circuit" in line for line in lines)


def test_dump_requires_recording():
    st = P.ProcessState(F2, 3, P.process_rng(11, 2))
    with pytest.raises(InvalidParam):
        st.dump_trajectory()


def test_state_rejects_empty_row_space():
    with pytest.raises(InvalidParam):
        P.ProcessState(F2, 0, P.process_rng(1, 1))


# ---- corank and first-circuit hitting times ---------------------------------


def test_run_until_corank_and_first_circuit():
    st = P.ProcessState(F2, 6, P.process_rng(31, 4))
    m1, length = P.track_first_circuit(st)
    assert st.corank == 1 and st.m == m1
    assert st.first_circuit is not None and len(st.first_circuit) == length
    # the reported support really is a circuit of the prefix matroid
    assert st.matroid().is_circuit(sorted(st.first_circuit))
    m2 = P.run_until_corank(st, 2)
    assert m2 > m1 and st.corank == 2
    with pytest.raises(InvalidParam):
        P.run_until_corank(st, 0)


def test_first_circuit_matches_tau_crk_1():
    times = P.HittingTimes()
    st = P.ProcessState(F3, 5, P.process_rng(32, 9))
    times.tau_first_circuit, times.first_circuit_length = P.track_first_circuit(st)
    times.tau_crk[1] = st.m
    times.tau_crk[2] = P.run_until_corank(st, 2)
    times.tau_crk[3] = P.run_until_corank(st, 3)
    times.validate()


def test_hitting_times_validate_rejects_bad_tables():
    bad = P.HittingTimes(tau_crk={1: 5, 2: 5})
    with pytest.raises(ConsistencyError):
        bad.validate()
    bad2 = P.HittingTimes(tau_crk={1: 5}, tau_first_circuit=6)
    with pytest.raises(ConsistencyError):
        bad2.validate()
    P.HittingTimes(tau_crk={1: 5, 3: 8}, tau_first_circuit=5).validate()


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


@pytest.mark.parametrize("trial", [0, 1, 2, 3])
def test_track_3_circuit_gf2_against_spectrum(trial):
    st = P.ProcessState(F2, 5, P.process_rng(901, trial))
    m = P.track_k_circuit(st, 3, max_steps=40)
    assert m is not None
    cols = replay_columns(F2, 5, 901, trial, m)
    assert prefix_matroid(cols, F2, 5, m).circuit_spectrum()[3] > 0
    assert prefix_matroid(cols, F2, 5, m - 1).circuit_spectrum()[3] == 0


@pytest.mark.parametrize("trial", [0, 1, 2, 3])
def test_track_3_circuit_generic_field(trial):
    st = P.ProcessState(F3, 4, P.process_rng(902, trial))
    m = P.track_k_circuit(st, 3, max_steps=30)
    assert m is not None
    cols = replay_columns(F3, 4, 902, trial, m)
    assert prefix_matroid(cols, F3, 4, m).circuit_spectrum()[3] > 0
    assert prefix_matroid(cols, F3, 4, m - 1).circuit_spectrum()[3] == 0


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
    m = P.track_hamilton(st, max_steps=200)
    assert m == 10
    cols = replay_columns(F2, 4, 905, 0, m)
    assert prefix_matroid(cols, F2, 4, m).circuit_spectrum()[4] > 0
    assert prefix_matroid(cols, F2, 4, m - 1).circuit_spectrum()[4] == 0


# ---- connectivity tracking -----------------------------------------------------


def test_track_connectivity_literal_start():
    st = P.ProcessState(F2, 4, P.process_rng(51, 0))
    assert P.track_connectivity(st, 1) == 1
    st2 = P.ProcessState(F2, 4, P.process_rng(51, 1))
    assert P.track_connectivity(st2, 5) == 1  # single column is vacuously k-conn
    st3 = P.ProcessState(F2, 4, P.process_rng(51, 2))
    assert P.track_connectivity(st3, 1, min_steps=7) == 7
    with pytest.raises(InvalidParam):
        P.track_connectivity(st3, 0)


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_track_2_connectivity_against_prefixes(trial):
    st = P.ProcessState(F2, 5, P.process_rng(52, trial))
    tau = P.track_connectivity(st, 2, min_steps=3)
    cols = replay_columns(F2, 5, 52, trial, tau)
    assert prefix_matroid(cols, F2, 5, tau).is_vertically_2_connected()
    for m in range(3, tau):
        assert not prefix_matroid(cols, F2, 5, m).is_vertically_2_connected()


def test_track_2_connectivity_resumes_mid_stream():
    st = P.ProcessState(F2, 5, P.process_rng(52, 0))
    for _ in range(4):
        st.step()
    fresh = P.ProcessState(F2, 5, P.process_rng(52, 0))
    assert P.track_connectivity(st, 2, min_steps=3) == P.track_connectivity(
        fresh, 2, min_steps=3)


@pytest.mark.parametrize("trial", [0, 2, 3])
def test_track_3_connectivity_against_prefixes(trial):
    st = P.ProcessState(F2, 4, P.process_rng(903, trial))
    tau = P.track_connectivity(st, 3, min_steps=6)
    cols = replay_columns(F2, 4, 903, trial, tau)
    assert prefix_matroid(cols, F2, 4, tau).is_vertically_k_connected(3)
    for m in range(6, tau):
        assert not prefix_matroid(cols, F2, 4, m).is_vertically_k_connected(3)


def test_track_connectivity_budget():
    st = P.ProcessState(F2, 5, P.process_rng(53, 0))
    with pytest.raises(BudgetExceeded):
        P.track_connectivity(st, 3, partition_budget=5, min_steps=6)


def test_exact_vertical_connectivity_matches_direct_search():
    import numpy as np

    rng = np.random.default_rng(54)
    for _ in range(60):
        q = int(rng.choice([2, 3]))
        field = make_field(q)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        cols = [tuple(int(x) for x in rng.integers(0, q, size=n))
                for _ in range(m)]
        mat = RepMatroid(FqMatrix(field, cols, n=n))
        direct = mat.vertical_connectivity()[0]
        assert P.exact_vertical_connectivity(mat) == direct


def test_exact_vertical_connectivity_warm_start_stays_exact():
    # a stale lower bound must not hide a small separation (the decrease
    # monitor depends on this); needs rank >= lower for the scan to run
    cols = [(1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
            (0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    mat = RepMatroid(FqMatrix(F2, cols, n=4))
    assert mat.vertical_connectivity()[0] == 1
    assert P.exact_vertical_connectivity(mat, lower=3) == 1


def test_kappa_trajectory_against_per_prefix_recompute():
    st = P.ProcessState(F2, 4, P.process_rng(55, 1))
    trace = P.kappa_trajectory(st, horizon=14)
    cols = replay_columns(F2, 4, 55, 1, 14)
    ranks = []
    for m in range(1, 15):
        mat = prefix_matroid(cols, F2, 4, m)
        ranks.append(mat.rank)
        assert trace.kappas[m - 1] == mat.vertical_connectivity()[0]
    expect_full = next((m for m, r in enumerate(ranks, start=1) if r == 4), None)
    assert trace.full_rank_at == expect_full
    expect_dec = [(m, a, b) for m, (a, b) in
                  enumerate(zip(trace.kappas, trace.kappas[1:]), start=2) if b < a]
    assert trace.decreases == expect_dec
    assert all(m > expect_full for m, _, _ in trace.post_full_rank_decreases())


def test_kappa_trajectory_guards():
    st = P.ProcessState(F2, 4, P.process_rng(55, 2))
    with pytest.raises(BudgetExceeded):
        P.kappa_trajectory(st, horizon=30, partition_budget=22)
    st.step()
    with pytest.raises(InvalidParam):
        P.kappa_trajectory(st, horizon=5)


# ---- critical number tracking ---------------------------------------------------


@pytest.mark.parametrize("field,n,trial,horizon", [
    pytest.param(F2, 5, 0, 12, id="field0-5-0"),
    pytest.param(F2, 5, 1, 12, id="field1-5-1"),
    pytest.param(F3, 3, 0, 12, id="field2-3-0"),
    # chi reaches 3 by step 30 (trial 0) and 38 (trial 1): level-2 and
    # level-3 rebuilds of the gf2 fast path
    pytest.param(F2, 8, 0, 40, id="field3-8-0"),
    pytest.param(F2, 8, 1, 40, id="field4-8-1"),
])
def test_critical_trajectory_against_per_prefix(field, n, trial, horizon):
    st = P.ProcessState(field, n, P.process_rng(56, trial))
    trace = P.critical_trajectory(st, horizon=horizon)
    cols = replay_columns(field, n, 56, trial, horizon)
    for m in range(1, horizon + 1):
        mat = prefix_matroid(cols, field, n, m)
        if trace.loop_at is not None and m >= trace.loop_at:
            assert trace.chis[m - 1] is None
            assert mat.loops()
        else:
            assert trace.chis[m - 1] == mat.critical_number()
    assert trace.skips == []


def test_critical_tracker_rebuilds_over_more_than_64_columns():
    # 70 distinct columns with first coordinate 1: only e_1 in the dual
    # has <a, v> = 1 on all of them, so chi stays 1 until e_2 arrives and
    # forces a level-2 rebuild over 71 columns (two 64-bit words)
    n = 8
    cols = [(1,) + tuple((w >> i) & 1 for i in range(n - 1)) for w in range(70)]
    cols.append((0, 1) + (0,) * (n - 2))
    tracker = P._CriticalTracker(F2, n, P.DEFAULT_TRACK_SUBSPACE_BUDGET)
    chis = [tracker.add(c) for c in cols]
    assert chis == [1] * 70 + [2]
    assert tracker.skips == []
    for m in (70, 71):
        assert prefix_matroid(cols, F2, n, m).critical_number() == chis[m - 1]
    # the surviving set is exactly the dual planes avoiding every column
    packed = [pack_gf2(c) for c in cols]
    keep = [i for i, rows in enumerate(P._dual_normal_bases(n, 2).tolist())
            if all(any((r & v).bit_count() & 1 for r in rows) for v in packed)]
    assert tracker.alive.tolist() == keep


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
    assert prefix_matroid(cols, F2, 4, m).critical_number() == 2
    assert prefix_matroid(cols, F2, 4, m - 1).critical_number() == 1
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


# ---- minor tracking --------------------------------------------------------------


def test_track_minor_free_target():
    target = RepMatroid(FqMatrix(F2, [(1, 0, 0), (0, 1, 0)], n=3))
    st = P.ProcessState(F2, 3, P.process_rng(58, 0))
    m = P.track_minor(st, target)
    cols = replay_columns(F2, 3, 58, 0, m)
    assert prefix_matroid(cols, F2, 3, m).rank >= 2
    assert prefix_matroid(cols, F2, 3, m - 1).rank < 2
    big = RepMatroid(FqMatrix(F2, [tuple(int(i == j) for i in range(5))
                                   for j in range(5)], n=5))
    st2 = P.ProcessState(F2, 3, P.process_rng(58, 1))
    assert P.track_minor(st2, big) is None  # rank 5 never fits in F_2^3


def test_track_minor_u12_u23_and_ordering():
    u12 = RepMatroid(FqMatrix(F2, [(1,), (1,)], n=1))
    u23 = RepMatroid(FqMatrix(F2, [(1, 0), (0, 1), (1, 1)], n=2))
    for trial in (0, 1, 2):
        t12 = P.track_minor(P.ProcessState(F2, 4, P.process_rng(59, trial)), u12)
        t23 = P.track_minor(P.ProcessState(F2, 4, P.process_rng(59, trial)), u23)
        cols = replay_columns(F2, 4, 59, trial, t23)

        def stats(m):
            pre = [c for c in cols[:m] if any(c)]
            return len(pre), len({canonical(F2, c) for c in pre})

        mat = prefix_matroid(cols, F2, 4, t12)
        nz, _ = stats(t12)
        assert mat.rank < nz
        nz_prev, _ = stats(t12 - 1)
        assert prefix_matroid(cols, F2, 4, t12 - 1).rank == nz_prev
        _, pts = stats(t23)
        assert prefix_matroid(cols, F2, 4, t23).rank < pts
        _, pts_prev = stats(t23 - 1)
        assert prefix_matroid(cols, F2, 4, t23 - 1).rank == pts_prev
        # a circuit among distinct points implies a circuit among columns
        assert t23 >= t12


def test_track_minor_resumes_mid_stream():
    u23 = RepMatroid(FqMatrix(F2, [(1, 0), (0, 1), (1, 1)], n=2))
    st = P.ProcessState(F2, 4, P.process_rng(59, 0))
    for _ in range(3):
        st.step()
    fresh = P.ProcessState(F2, 4, P.process_rng(59, 0))
    assert P.track_minor(st, u23) == P.track_minor(fresh, u23)


@pytest.mark.parametrize("trial", [0, 1, 2, 3])
def test_track_minor_generic_target(trial):
    target = RepMatroid(uniform_matroid_matrix(F3, 2, 4))
    st = P.ProcessState(F3, 3, P.process_rng(906, trial))
    m = P.track_minor(st, target, ground_budget=10, max_steps=10)
    assert m is not None
    cols = replay_columns(F3, 3, 906, trial, m)
    assert prefix_matroid(cols, F3, 3, m).has_minor(target) is not None
    assert prefix_matroid(cols, F3, 3, m - 1).has_minor(target) is None


def test_track_minor_generic_budget():
    target = RepMatroid(uniform_matroid_matrix(F3, 2, 4))
    st = P.ProcessState(F3, 8, P.process_rng(60, 0))
    with pytest.raises(BudgetExceeded):
        # in F_3^8 a U_{2,4} minor needs more than 3 columns
        P.track_minor(st, target, ground_budget=3)


def test_track_pg_full_rank_cover():
    st = P.ProcessState(F2, 2, P.process_rng(61, 0))
    m = P.track_pg(st, 2)
    cols = replay_columns(F2, 2, 61, 0, m)
    pts = {canonical(F2, c) for c in cols if any(c)}
    assert len(pts) == 3  # all of PG(1,2)
    prev = {canonical(F2, c) for c in cols[:-1] if any(c)}
    assert len(prev) == 2
    st2 = P.ProcessState(F2, 2, P.process_rng(61, 1))
    assert P.track_pg(st2, 3) is None  # r > n


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_track_pg_submatroid_search(trial):
    st = P.ProcessState(F2, 3, P.process_rng(907, trial))
    m = P.track_pg(st, 2, max_steps=40)
    assert m is not None
    cols = replay_columns(F2, 3, 907, trial, m)
    assert prefix_matroid(cols, F2, 3, m).contains_pg(2)
    assert not prefix_matroid(cols, F2, 3, m - 1).contains_pg(2)


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
    assert sample.model == "M2" and sample.param == 4
    assert len(sample.selection) == 4
    assert len(set(sample.selection)) == 4
    order = [pts.index(c) for c in sample.selection]
    assert order == sorted(order)
    mat = RepMatroid(sample.matrix)
    assert mat.is_simple() and not mat.loops()
    # same stream, same subset
    again = P.sample_pg_model(F2, 3, P.process_rng(62, 1), m=4)
    assert again.selection == sample.selection


def test_sample_m3_bernoulli_inclusion():
    pts = projective_points(F3, 2)
    sample = P.sample_pg_model(F3, 2, P.process_rng(62, 2), p=0.5)
    assert sample.model == "M3" and sample.param == 0.5
    assert set(sample.selection) <= set(pts)
    order = [pts.index(c) for c in sample.selection]
    assert order == sorted(order)
    assert P.sample_pg_model(F3, 2, P.process_rng(62, 3), p=0.0).selection == ()
    assert len(P.sample_pg_model(F3, 2, P.process_rng(62, 4), p=1.0).selection) == 4


def test_sample_m1_matches_process_stream():
    sample = P.sample_m1(F3, 3, 9, P.process_rng(63, 0))
    assert sample.model == "M1" and sample.param == 9
    st = P.ProcessState(F3, 3, P.process_rng(63, 0))
    for _ in range(9):
        st.step()
    assert list(sample.selection) == st.column_tuples()

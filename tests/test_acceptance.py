"""Desk-scale verification gate.

Twelve criteria (E0-E11), one test each, run at full scale with a frozen
seed.  Every test prints a single ``ACCEPTANCE E<k>: PASS|FAIL -- ...``
line with the measured numbers before asserting, so the log stays
scannable even when a clause is expected to stay red (see E4).
"""

import itertools
import math
import time
from fractions import Fraction

from conftest import axiom_violations, brute_rank, random_cols

import numpy as np
import pytest

from fqmatroid import montecarlo as MC
from fqmatroid import theory
from fqmatroid.fqlinalg import FqMatrix, make_field
from fqmatroid.fqlinalg.subspaces import enumerate_subspaces

pytestmark = pytest.mark.acceptance

SEED = 20260814

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
                   29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def _run(preset):
    cfg = MC.ExperimentConfig(preset=preset, seed=SEED)
    t0 = time.perf_counter()
    agg, report = MC.run_experiment(cfg)
    return agg, report, time.perf_counter() - t0


def _check(report, name):
    for c in report.checks:
        if c["name"] == name:
            return c
    raise AssertionError(f"no check named {name!r} in {report.preset}")


def _say(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} -- {detail}")


def _bitrank(masks):
    # GF(2) elimination over n-bit column masks
    basis = []
    for v in masks:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def test_e0_exhaustive_oracles():
    t0 = time.perf_counter()
    bad = {"axioms": 0, "rank": 0, "kernel": 0, "delete": 0,
           "contract": 0, "enum": 0, "count": 0, "partition": 0}

    for q in PRIME_POWERS_64:
        bad["axioms"] += axiom_violations(make_field(q))

    # every F_2 matrix with n <= 3, m <= 5: engine vs bit-elimination
    # oracle, kernel basis sanity, and r(E-S) / r(E)-r(S) identities for
    # every subset S
    f2 = make_field(2)
    for n in (1, 2, 3):
        cells = list(itertools.product(range(2), repeat=n))
        mask_of = {c: sum(bit << i for i, bit in enumerate(c)) for c in cells}
        for m in range(1, 6):
            full = (1 << m) - 1
            for cols in itertools.product(cells, repeat=m):
                mat = FqMatrix(f2, list(cols), n=n)
                col_masks = [mask_of[c] for c in cols]
                table = [_bitrank([col_masks[j] for j in range(m)
                                   if bits >> j & 1])
                         for bits in range(1 << m)]
                if mat.rank != table[full]:
                    bad["rank"] += 1
                kb = mat.kernel_basis()
                ok = len(kb) + table[full] == m
                ok = ok and _bitrank([sum(b << j for j, b in enumerate(v))
                                      for v in kb]) == len(kb)
                for vec in kb:
                    ok = ok and all(
                        sum(vec[j] * cols[j][row] for j in range(m)) % 2 == 0
                        for row in range(n))
                if not ok:
                    bad["kernel"] += 1
                for bits in range(1 << m):
                    S = [j for j in range(m) if bits >> j & 1]
                    if mat.delete(S).rank != table[full & ~bits]:
                        bad["delete"] += 1
                    if mat.contract(S).rank != table[full] - table[bits]:
                        bad["contract"] += 1

    # random q=3 instances, same identities against the generic oracle
    f3 = make_field(3)
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        cols = random_cols(3, n, m, rng)
        mat = FqMatrix(f3, cols, n=n)
        full = (1 << m) - 1
        table = [brute_rank(f3, [cols[j] for j in range(m) if bits >> j & 1])
                 for bits in range(1 << m)]
        if mat.rank != table[full]:
            bad["rank"] += 1
        kb = mat.kernel_basis()
        ok = len(kb) + table[full] == m
        ok = ok and (not kb or brute_rank(f3, kb) == len(kb))
        for vec in kb:
            ok = ok and all(
                sum(vec[j] * cols[j][row] for j in range(m)) % 3 == 0
                for row in range(n))
        if not ok:
            bad["kernel"] += 1
        for bits in range(1 << m):
            S = [j for j in range(m) if bits >> j & 1]
            if mat.delete(S).rank != table[full & ~bits]:
                bad["delete"] += 1
            if mat.contract(S).rank != table[full] - table[bits]:
                bad["contract"] += 1

    # subspace enumeration: distinct handles, count = gaussian binomial
    for q in (2, 3):
        f = make_field(q)
        for n in range(1, 5):
            for k in range(0, n + 1):
                handles = list(enumerate_subspaces(f, n, k))
                want = theory.gaussian_binomial(n, k, q)
                if len(handles) != want:
                    bad["enum"] += 1
                if len({h.rows for h in handles}) != len(handles):
                    bad["enum"] += 1

    # subspace_count vs brute histogram of intersection dimensions, and
    # the partition identity sum_ell count(n,k,j,ell) = gbinom(n,j)
    for q in (2, 3):
        f = make_field(q)
        for n in range(1, 6):
            for k in range(0, n + 1):
                fixed = next(iter(enumerate_subspaces(f, n, k)))
                for j in range(0, n + 1):
                    hist = {}
                    for sub in enumerate_subspaces(f, n, j):
                        stacked = list(fixed.rows) + list(sub.rows)
                        r = brute_rank(f, stacked) if stacked else 0
                        ell = k + j - r
                        hist[ell] = hist.get(ell, 0) + 1
                    for ell in range(0, min(j, k) + 1):
                        if theory.subspace_count(n, k, j, ell, q) \
                                != hist.get(ell, 0):
                            bad["count"] += 1
                    if sum(theory.subspace_count(n, k, j, ell, q)
                           for ell in range(0, min(j, k) + 1)) \
                            != theory.gaussian_binomial(n, j, q):
                        bad["partition"] += 1

    wall = time.perf_counter() - t0
    ok = all(v == 0 for v in bad.values()) and wall < 120
    _say("E0", ok, f"mismatches {bad}, wall {wall:.1f}s (< 120s)")
    assert all(v == 0 for v in bad.values()), bad
    assert wall < 120


def test_e1_full_rank_law():
    assert theory.rank_full_prob(2, 2, 2, exact=True) == Fraction(3, 8)
    agg, report, wall = _run("E1")
    mc = _check(report, "full_rank_within_3_binomial_sigma")
    enum = _check(report, "rank_full_prob_2_2_2")
    ok = (mc["passed"] and enum["passed"]
          and not report.insufficient and wall < 60)
    _say("E1", ok,
         f"P(full rank) observed {mc['observed']:.5f} vs "
         f"{mc['target']:.5f} (z={mc.get('z', 0.0):+.2f}), "
         f"(2,2,2) closed form {enum['observed']} == {enum['expected']}, "
         f"wall {wall:.1f}s (< 60s)")
    assert not report.insufficient
    assert enum["passed"], enum
    assert mc["passed"], mc
    assert wall < 60


def test_e2_corank_hitting_pmf_convergence():
    agg, report, wall = _run("E2")
    dp1 = _check(report, "dp_vs_limit_sup_c1")
    dp2 = _check(report, "dp_vs_limit_sup_c2")
    sim = _check(report, "sim_tau_u12_vs_limit_sup")
    gam = _check(report, "limit_Cck_equals_gamma")
    ok = (dp1["passed"] and dp2["passed"] and sim["passed"] and gam["passed"]
          and not report.insufficient and wall < 300)
    _say("E2", ok,
         f"sup|DP - limit| c=1 {dp1['observed']:.2e} c=2 {dp2['observed']:.2e}"
         f" (< 0.01), sim sup {sim['observed']:.4f} (< 0.02), "
         f"|C(c,c) - gamma| {gam['observed']:.1e} (< 1e-12), "
         f"wall {wall:.1f}s (< 300s)")
    assert not report.insufficient
    assert dp1["passed"] and dp1["hi"] == 0.01, dp1
    assert dp2["passed"] and dp2["hi"] == 0.01, dp2
    assert sim["passed"] and sim["hi"] == 0.02, sim
    assert gam["passed"] and gam["hi"] == 1e-12, gam
    assert wall < 300


def test_e3_first_small_minor_window():
    agg, report, wall = _run("E3")
    same = _check(report, "tau_minor_equals_tau_crk1_freq")
    below = _check(report, "tau_le_n_plus_1_freq")
    edge = _check(report, "tau_eq_n_plus_1_vs_gamma")
    ok = (same["passed"] and below["passed"] and edge["passed"]
          and not report.insufficient and wall < 300)
    _say("E3", ok,
         f"tau_minor == tau_crk freq {same['observed']:.4f} (>= 0.95), "
         f"tau <= n+1 freq {below['observed']:.4f} (>= 0.99), "
         f"tau == n+1 freq {edge['observed']:.4f} vs "
         f"{edge['target']:.4f} +-0.03, wall {wall:.1f}s (< 300s)")
    assert not report.insufficient
    assert same["passed"] and same["lo"] == 0.95, same
    assert below["passed"] and below["lo"] == 0.99, below
    assert edge["passed"] and edge["tolerance"] == 0.03, edge
    assert wall < 300


def test_e4_two_circuit_counts():
    agg, report, wall = _run("E4")
    mu2 = _check(report, "mean_two_circuits_vs_mu2")
    exact = _check(report, "mean_two_circuits_vs_exact")
    tail = _check(report, "no_two_circuit_vs_exponential")
    ok = (mu2["passed"] and exact["passed"] and tail["passed"]
          and not report.insufficient and wall < 120)
    _say("E4", ok,
         f"mean 2-circuits {mu2['observed']:.4f} vs asymptotic "
         f"{mu2['target']:.4f} (z={mu2.get('z', 0.0):+.1f}) vs exact "
         f"{exact['target']:.5f}, P(no 2-circuit) gap "
         f"{abs(tail['observed'] - tail['target']):.4f} (< 0.05), "
         f"wall {wall:.1f}s (< 120s)")
    assert not report.insufficient
    assert tail["passed"] and tail["tolerance"] == 0.05, tail
    assert exact["passed"], exact
    assert wall < 120
    # The asymptotic target 0.75 is a large-n limit; at (n,m) = (3,4) the
    # true expectation is C(4,2) * 3 / 2**6 = 21/32 = 0.65625, about 35
    # binomial sigma away at 1e5 trials.  The clause is kept verbatim and
    # stays red; the companion exact-value check above is the one a
    # finite-n simulation can and does meet.
    assert mu2["passed"], mu2


def test_e5_first_circuit_length():
    agg, report, wall = _run("E5")
    r2 = _check(report, "mean_first_circuit_ratio_q2")
    r3 = _check(report, "mean_first_circuit_ratio_q3")
    ok = (r2["passed"] and r3["passed"]
          and not report.insufficient and wall < 180)
    _say("E5", ok,
         f"mean len/n q=2 {r2['observed']:.4f} (in [0.45, 0.55]), "
         f"q=3 {r3['observed']:.4f} (in [0.61, 0.72]), "
         f"wall {wall:.1f}s (< 180s)")
    assert not report.insufficient
    assert r2["passed"] and (r2["lo"], r2["hi"]) == (0.45, 0.55), r2
    assert r3["passed"] and (r3["lo"], r3["hi"]) == (0.61, 0.72), r3
    assert wall < 180


def test_e6_spanning_circuit_hitting_time():
    agg, report, wall = _run("E6")
    med = _check(report, "median_tau_ham_over_n")
    frac = _check(report, "tau_ham_below_2n_freq")
    ok = (med["passed"] and frac["passed"]
          and not report.insufficient and wall < 600)
    _say("E6", ok,
         f"median tau_ham/n {med['observed']:.3f} (in [1.1, 1.7]), "
         f"P(tau_ham < 2n) {frac['observed']:.3f} (>= 0.85), "
         f"wall {wall:.1f}s (< 600s)")
    assert not report.insufficient
    assert med["passed"] and (med["lo"], med["hi"]) == (1.1, 1.7), med
    assert frac["passed"] and frac["lo"] == 0.85, frac
    assert wall < 600


def test_e7_threshold_curve_shape():
    t0 = time.perf_counter()
    b_half = theory.b_of_a(2, 0.5)
    b_one = theory.b_of_a(2, 1.0)
    grid = [0.05 + 0.9 * i / 99 for i in range(100)]
    bs = [theory.b_of_a(2, a) for a in grid]
    min_second_diff = min(bs[i - 1] + bs[i + 1] - 2 * bs[i]
                          for i in range(1, 99))
    h = 1e-6
    max_rel = 0.0
    for a in (0.15, 0.3, 0.45, 0.6, 0.85):
        fd = (theory.b_of_a(2, a + h) - theory.b_of_a(2, a - h)) / (2 * h)
        bp = theory.b_prime(2, a)
        max_rel = max(max_rel, abs(bp - fd) / max(1.0, abs(fd)))
    stationary = abs(theory.b_prime(2, 0.5))
    wall = time.perf_counter() - t0
    ok = (abs(b_half - 1) <= 1e-9 and 1 < b_one < 2
          and min_second_diff >= -1e-6 and max_rel <= 1e-4
          and stationary <= 1e-6 and wall < 10)
    _say("E7", ok,
         f"|b(1/2) - 1| {abs(b_half - 1):.1e}, b(1) {b_one:.6f}, "
         f"min 2nd diff {min_second_diff:.2e} (>= -1e-6), "
         f"max rel dB {max_rel:.1e} (<= 1e-4), |b'(a*)| {stationary:.1e}, "
         f"wall {wall:.2f}s (< 10s)")
    assert abs(b_half - 1) <= 1e-9
    assert 1 < b_one < 2
    assert min_second_diff >= -1e-6
    assert max_rel <= 1e-4
    assert stationary <= 1e-6
    assert wall < 10


def test_e8_connectivity():
    agg, report, wall = _run("E8")
    pg = _check(report, "kappa_pg12_infinite")
    ident = _check(report, "girth_identity_mismatches")
    conn = _check(report, "p_two_connected_vs_exp_minus_1")
    mono = _check(report, "kappa_decrease_fraction")
    ok = (pg["passed"] and ident["passed"] and conn["passed"]
          and mono["passed"] and not report.insufficient and wall < 900)
    _say("E8", ok,
         f"kappa(PG(1,2)) infinite: {pg['passed']}, identity mismatches "
         f"{ident['observed']} (== 0), P(2-conn) {conn['observed']:.4f} vs "
         f"{conn['target']:.4f} +-0.1, post-full-rank kappa drops "
         f"{mono['observed']:.3f} (<= 0.05), wall {wall:.1f}s (< 900s)")
    assert not report.insufficient
    assert pg["passed"], pg
    assert ident["passed"] and ident["observed"] == 0, ident
    assert conn["passed"] and conn["tolerance"] == 0.1, conn
    assert mono["passed"] and mono["hi"] == 0.05, mono
    assert wall < 900


def test_e9_projective_point_cover():
    agg, report, wall = _run("E9")
    cover = _check(report, "cover_freq")
    miss = _check(report, "miss_rate_within_poisson_bound")
    ok = (cover["passed"] and miss["passed"]
          and not report.insufficient and wall < 60)
    _say("E9", ok,
         f"cover freq {cover['observed']:.4f} (>= 0.90), miss rate "
         f"{miss['observed']:.4f} <= bound {miss['hi']:.4f}, "
         f"wall {wall:.1f}s (< 60s)")
    assert not report.insufficient
    assert cover["passed"] and cover["lo"] == 0.90, cover
    assert miss["passed"], miss
    assert wall < 60


def test_e10_critical_number():
    agg, report, wall = _run("E10")
    chi_pg = _check(report, "chi_pg_equals_dimension")
    skips = _check(report, "chi_skip_count")
    tau1 = _check(report, "mean_tau_1crt_over_n")
    table = _check(report, "inequality_holds_except_q2_k1")
    ok = (chi_pg["passed"] and skips["passed"] and tau1["passed"]
          and table["passed"] and not report.insufficient and wall < 600)
    _say("E10", ok,
         f"chi(PG(n-1,q)) == n for n <= 4, q in {{2,3}}: {chi_pg['passed']}, "
         f"skips {skips['observed']} (== 0), mean tau_1crt/n "
         f"{tau1['observed']:.3f} (in [0.8, 1.3]), inequality table: "
         f"{table['passed']}, wall {wall:.1f}s (< 600s)")
    assert not report.insufficient
    assert chi_pg["passed"], chi_pg
    assert skips["passed"] and skips["observed"] == 0, skips
    assert tau1["passed"] and (tau1["lo"], tau1["hi"]) == (0.8, 1.3), tau1
    assert table["passed"], table
    assert wall < 600


def test_e11_model_equivalence():
    agg, report, wall = _run("E11")
    c1 = _check(report, "chi2_m2_vs_m1_conditioned_simple")
    c2 = _check(report, "chi2_m3_conditioned_vs_m2")
    ok = (c1["passed"] and c2["passed"]
          and not report.insufficient and wall < 120)
    _say("E11", ok,
         f"chi2 p-values: fixed-size vs column-process|simple "
         f"{c1['observed']:.4f}, Bernoulli||S|=m vs fixed-size "
         f"{c2['observed']:.4f} (both > 0.01), wall {wall:.1f}s (< 120s)")
    assert not report.insufficient
    assert c1["passed"] and c1["lo"] == 0.01, c1
    assert c2["passed"] and c2["lo"] == 0.01, c2
    assert wall < 120

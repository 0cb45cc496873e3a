"""Experiment presets, trial orchestration, and theory-vs-empirical reports.

A preset is a list of parts; each part runs independent trials whose
only output is a dict of small integers, aggregated into exact
histograms.  Per-trial randomness comes from a counter-based stream
keyed by (master seed, part offset + trial index), so results are
independent of worker count and scheduling; merging is plain counter
addition.  Statistical verdicts are data in the report -- they never
raise and never change exit status.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field as _dfield
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, ConfigError, IoError
from .fqlinalg import Span2, canonical_point, make_field, random_uniform_matrix
from .matroid import DEFAULT_PARTITION_BUDGET, INFINITY, RepMatroid, pg_matrix
from . import process as proc
from . import theory

SCHEMA_VERSION = "1"

# fixed chunk size: the trial -> chunk map must not depend on worker count
_CHUNK = 500

_PART_STRIDE = 1 << 32  # trial-key offset between parts of one preset

# E8's monitor refuses a kappa trajectory longer than its default
# monitor_horizon: the search at step m splits all m columns
_MONITOR_HORIZON_BUDGET = 24


# ---- configuration -------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Preset selection plus overrides; unset fields take preset defaults."""

    preset: str
    seed: int
    trials: int | None = None
    n: int | None = None
    q: int | None = None
    params: dict = _dfield(default_factory=dict)
    workers: int = 1
    out: str | None = None
    fmt: str = "json"

    def resolved(self) -> dict:
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; have "
                              f"{sorted(PRESETS)}")
        preset = PRESETS[self.preset]
        defaults = preset.defaults
        res = dict(defaults)
        res["preset"] = self.preset
        res["seed"] = self.seed
        flags = {key: val for key, val in (("trials", self.trials), ("n", self.n),
                                           ("q", self.q)) if val is not None}
        for key in [*flags, *self.params]:
            if key not in defaults:
                raise ConfigError(f"preset {self.preset} has no parameter {key!r}")
        res.update(flags)
        for key, val in self.params.items():
            if not _fits_default(defaults[key], val):
                raise ConfigError(f"parameter {key!r} must be of type "
                                  f"{type(defaults[key]).__name__}, got {val!r}")
            res[key] = val
        _validate_resolved(res)
        if preset.check is not None:
            preset.check(res)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, not {self.fmt!r}")
        return res


def _fits_default(default, val) -> bool:
    """int for int, int or float for float, and a bool is never a number;
    a tuple takes a tuple or list (JSON's form of it) of fitting items."""
    if isinstance(default, tuple):
        return isinstance(val, (tuple, list)) and len(val) == len(default) and \
            all(map(_fits_default, default, val))
    if isinstance(default, bool) or isinstance(val, bool):
        return type(val) is type(default)
    if isinstance(default, float):
        return isinstance(val, (int, float))
    return isinstance(val, type(default))


# desk-scale caps of the sizes: (key suffixes, exact keys, cap) for trial
# counts, row counts and column counts
_SIZE_CAPS = ((("trials",), (), 10 ** 7), (("_n",), ("n", "r"), 512),
              (("_m", "_horizon", "max_steps"), ("m", "b"), 10 ** 5))


def _validate_resolved(res: dict) -> None:
    for key, val in res.items():
        cap = next((c for ends, keys, c in _SIZE_CAPS
                    if key.endswith(ends) or key in keys), None)
        if cap is not None or key == "q":
            if not isinstance(val, int) or isinstance(val, bool) or val < 1:
                raise ConfigError(f"{key} must be a positive integer, got {val!r}")
            if cap is not None and val > cap:
                raise ConfigError(f"{key} beyond desk scale (max {cap})")
        if key.endswith("budget") and val <= 0:
            raise ConfigError(f"{key} must be positive")
    seed = res["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    try:
        make_field(res["q"])
    except Exception as e:  # noqa: BLE001 - re-tag as a config problem
        raise ConfigError(f"q={res['q']}: {e}") from None


# ---- aggregation ----------------------------------------------------------


def _median(cnt: Counter) -> float:
    """Lower median of a histogram {value: count}; nan when it is empty."""
    half = (sum(cnt.values()) - 1) / 2
    seen = 0
    for k in sorted(cnt):
        seen += cnt[k]
        if seen > half:
            return float(k)
    return math.nan


@dataclass
class Aggregate:
    """Exact integer histograms, keyed "part.observable"."""

    preset: str
    counters: dict = _dfield(default_factory=dict)

    def merge_in(self, other: dict) -> None:
        for key, cnt in other.items():
            self.counters.setdefault(key, Counter()).update(cnt)

    def total(self, key: str) -> int:
        return sum(self.counters.get(key, Counter()).values())

    def pmf(self, key: str) -> dict:
        cnt = self.counters.get(key, Counter())
        tot = sum(cnt.values())
        return {k: v / tot for k, v in sorted(cnt.items())} if tot else {}

    def mean(self, key: str) -> float:
        cnt = self.counters.get(key, Counter())
        tot = sum(cnt.values())
        return sum(k * v for k, v in cnt.items()) / tot if tot else math.nan

    def variance(self, key: str) -> float:
        cnt = self.counters.get(key, Counter())
        tot = sum(cnt.values())
        if tot < 2:
            return math.nan
        mu = self.mean(key)
        return sum(v * (k - mu) ** 2 for k, v in cnt.items()) / (tot - 1)

    def freq(self, key: str, value: int = 1) -> float:
        """Frequency of `value` among the trials of this part."""
        part = key.split(".")[0]
        tot = self.total(f"{part}.trials")
        return self.counters.get(key, Counter()).get(value, 0) / tot if tot else math.nan

    def validate(self, expected_trials: dict) -> None:
        for part, want in expected_trials.items():
            got = self.total(f"{part}.trials")
            if got != want:
                raise ConfigError(f"part {part}: {got} trials aggregated, expected {want}")

    def to_jsonable(self) -> dict:
        return {key: {str(k): v for k, v in sorted(cnt.items())}
                for key, cnt in sorted(self.counters.items())}


@dataclass
class ComparisonReport:
    """Predictor values, empirical values, and tolerance verdicts.

    Regenerating from the same seed reproduces everything except the
    runtime section, which is kept separate for exactly that reason.
    """

    preset: str
    seed: int
    schema_version: str
    config: dict
    predictors: dict
    empirical: dict
    distances: dict
    checks: list
    insufficient: bool
    runtime: dict

    def to_jsonable(self, include_runtime: bool = True) -> dict:
        out = {
            "preset": self.preset,
            "seed": self.seed,
            "schema_version": self.schema_version,
            "config": _jsonable(self.config),
            "predictors": _jsonable(self.predictors),
            "empirical": _jsonable(self.empirical),
            "distances": _jsonable(self.distances),
            "checks": _jsonable(self.checks),
            "insufficient": self.insufficient,
        }
        if include_runtime:
            out["runtime"] = self.runtime
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):  # theory ops return exact values at small sizes
        return float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


# ---- trial functions (top level so worker processes can import them) -----


def _t_rank(res, rng):
    field = make_field(res["q"])
    st = proc.ProcessState(field, res["n"], rng)
    st.advance(res["m"])
    return {"rank": st.rank}


def _t_tau_u12(res, rng):
    field = make_field(res["q"])
    n = res["n"]
    if field.q == 2 and n <= 62:
        # Packed batch draws; uniform over [0, 2^n) == uniform gf2 column.
        span = Span2(n)
        m = 0
        while True:
            for v in rng.integers(0, 1 << n, size=128, dtype=np.int64).tolist():
                m += 1
                if v and span.push(v) is None:
                    return {"tau_u12_minus_n": m - n}
    st = proc.ProcessState(field, n, rng)
    # rank < nonzero count first holds at a dependency of more than one
    # column: a support of one column is a zero column
    while len(st.step_until_dependent()) == 1:
        pass
    return {"tau_u12_minus_n": st.m - n}


def _t_tau_u23(res, rng):
    n = res["n"]
    tau, tau_crk1 = proc.track_u23_minor(make_field(res["q"]), n, rng)
    return {"tau_u23_minus_n": tau - n,
            "agree": int(tau == tau_crk1),
            "le_n1": int(tau <= n + 1),
            "eq_n1": int(tau == n + 1)}


def _uniform_points(field, n, m, rng):
    """Projective points of m draws from F_q^n, None for a zero draw.

    Collision statistics only need uniformity, not process order, so
    gf2 takes a vectorized integer path.
    """
    if field.q == 2 and n <= 62:
        return [v or None for v in rng.integers(0, 1 << n, size=m, dtype=np.int64).tolist()]
    return [canonical_point(field, c) for c in random_uniform_matrix(field, n, m, rng).columns]


def _t_two_circuit_count(res, rng):
    field = make_field(res["q"])
    # a point drawn c times gives C(c, 2) parallel pairs
    drawn = Counter(_uniform_points(field, res["count_n"], res["count_m"], rng))
    drawn.pop(None, None)
    return {"two_circuits": sum(c * (c - 1) // 2 for c in drawn.values())}


def _t_no_two_circuit(res, rng):
    field = make_field(res["q"])
    pts = [p for p in _uniform_points(field, res["prob_n"], res["prob_m"], rng)
           if p is not None]
    return {"no_two_circuit": int(len(set(pts)) == len(pts))}


def _t_first_circuit(res, rng):
    field = make_field(res["q"])
    st = proc.ProcessState(field, res["n"], rng)
    m, length = proc.track_first_circuit(st)
    return {"tau": m, "length": length}


def _t_hamilton(res, rng):
    field = make_field(res["q"])
    st = proc.ProcessState(field, res["n"], rng)
    tau = proc.track_k_circuit(st, res["n"], kernel_budget=res["kernel_budget"],
                               max_steps=res["max_steps"])
    if tau is None:
        return {"censored": 1}
    return {"tau_ham": tau}


def _t_girth_identity(res, rng):
    q = 2 if rng.integers(0, 2) == 0 else 3
    field = make_field(q)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(2, 9))
    M = RepMatroid(random_uniform_matrix(field, n, m, rng))
    uni = M.is_uniform()
    if uni is not None and uni[1] >= 2 * uni[0] - 1:
        # U_{r,m} with m >= 2r-1: the one family where Tutte connectivity
        # and min(kappa, girth) are allowed to disagree
        return {"checked": 0, "skipped": 1, "mismatch": 0}
    t, _ = M.tutte_connectivity()
    kappa, _ = M.vertical_connectivity()
    g = M.girth()
    return {"checked": 1, "skipped": 0, "mismatch": int(t != min(kappa, g))}


def _t_two_connected(res, rng):
    # refuse before any draw, not at whichever trial first draws the probe
    if res["m"] > DEFAULT_PARTITION_BUDGET:
        raise BudgetExceeded(
            f"m = {res['m']} exceeds partition budget {DEFAULT_PARTITION_BUDGET}")
    field = make_field(res["q"])
    M = RepMatroid(random_uniform_matrix(field, res["n"], res["m"], rng))
    ok = M.is_vertically_2_connected()  # fundamental circuits merged into components
    # occasional agreement probe against the exact bipartition search
    if rng.integers(0, 64) == 0 and ok != M.is_vertically_k_connected(2):
        raise AssertionError("bipartition search disagrees with components")
    return {"two_connected": int(ok)}


def _t_kappa_monitor(res, rng):
    field = make_field(res["q"])
    st = proc.ProcessState(field, res["monitor_n"], rng)
    # a fixed budget, so a longer horizon refuses before its first draw
    trace = proc.kappa_trajectory(st, res["monitor_horizon"],
                                  partition_budget=_MONITOR_HORIZON_BUDGET)
    return {"violation": int(bool(trace.post_full_rank_decreases()))}


def _t_pg_cover(res, rng):
    field = make_field(res["q"])
    zeta = theory.q_int(res["r"], res["q"])
    seen = set(_uniform_points(field, res["r"], res["b"], rng)) - {None}
    missed = zeta - len(seen)
    return {"covered": int(missed == 0), "missed": missed}


def _t_chi_noskip(res, rng):
    field = make_field(res["q"])
    st = proc.ProcessState(field, res["noskip_n"], rng)
    trace = proc.critical_trajectory(st, res["noskip_horizon"])
    return {"skip": int(bool(trace.skips)),
            "loop_censored": int(trace.loop_at is not None)}


def _t_tau_1crt(res, rng):
    field = make_field(res["q"])
    st = proc.ProcessState(field, res["n"], rng)
    tau = proc.track_critical(st, 1, max_steps=res["crt_max_steps"])
    if tau is None:
        return {"censored": 1}
    return {"tau1crt": tau}


def _t_m2_rank(res, rng):
    field = make_field(res["q"])
    return {"rank": proc.sample_pg_model(field, res["n"], rng, m=res["m"]).rank}


def _t_m1_simple_rank(res, rng):
    field = make_field(res["q"])
    while True:
        mat = random_uniform_matrix(field, res["n"], res["m"], rng)
        if RepMatroid(mat).is_simple():
            return {"rank": mat.rank}


def _t_m3_conditioned_rank(res, rng):
    field = make_field(res["q"])
    p = res["m"] / theory.q_int(res["n"], res["q"])
    while True:
        mat = proc.sample_pg_model(field, res["n"], rng, p=p)
        if mat.m == res["m"]:
            return {"rank": mat.rank}


# ---- preset registry -------------------------------------------------------


@dataclass(frozen=True)
class PartSpec:
    name: str
    trials_key: str
    fn: object
    overrides: tuple = ()  # (key, value) pairs layered over the resolved config


@dataclass(frozen=True)
class Preset:
    defaults: dict
    parts: tuple
    reporter: object
    check: object = None  # raises ConfigError for sizes at which no trial could end


# ---- preset checks ---------------------------------------------------------


def _check_e1(res):
    # the full-rank law is the chance of rank m, which needs m <= n
    if res["m"] > res["n"]:
        raise ConfigError(f"E1 needs m <= n for full column rank, got "
                          f"m={res['m']} > n={res['n']}")


def _check_e3(res):
    # one row gives rank and point count at most 1, so U_{2,3} never appears
    if res["n"] < 2:
        raise ConfigError(f"E3 needs n >= 2 for a U_{{2,3}} minor, got n={res['n']}")


def _check_e4(res):
    if not 1 <= res["k"] <= res["prob_m"]:
        raise ConfigError(f"need 1 <= k <= prob_m = {res['prob_m']}, got k={res['k']}")


# the most draws per trial, in expectation, that E11's m1s part may need
_E11_MAX_DRAWS = 1000


def _check_e11(res):
    """Refuse the sizes at which some part of E11 could not end.

    Every part draws m distinct points of PG(n-1, q), so m <= [n]_q.  The
    m1s part redraws m uniform columns until they are nonzero and pairwise
    non-parallel, which they are with chance
    P = prod_{i<m} (q^n - 1 - i(q-1)) / q^n, so a trial takes 1/P draws
    in expectation; sizes where 1/P passes _E11_MAX_DRAWS = 1000 are
    refused.
    """
    n, m, q = res["n"], res["m"], res["q"]
    points = theory.q_int(n, q)
    if m > points:
        raise ConfigError(f"m = {m} exceeds the {points} points of PG({n - 1}, {q})")
    size, chance = q ** n, 1.0
    for i in range(m):
        chance *= (size - 1 - i * (q - 1)) / size
        if chance * _E11_MAX_DRAWS < 1:
            raise ConfigError(
                f"m = {m} distinct points of PG({n - 1}, {q}) need more than "
                f"{_E11_MAX_DRAWS} draws per m1s trial in expectation")


# ---- report helpers --------------------------------------------------------


def _freq_check(name, observed, target, tol, trials, sigma=None):
    """Tolerance verdict on a frequency/mean claim, with a z-score.

    When no sigma is supplied the binomial one at the target value is
    used, which is the right scale for event-frequency claims.
    """
    entry = {"name": name, "observed": observed, "target": target,
             "tolerance": tol}
    if sigma is None and trials >= 2 and 0 < target < 1:
        sigma = math.sqrt(target * (1 - target) / trials)
    if sigma:
        entry["z"] = (observed - target) / sigma
    if trials < 2:
        entry["passed"] = None
        entry["note"] = "insufficient for tolerance check"
    else:
        entry["passed"] = bool(abs(observed - target) <= tol)
    return entry


def _bound_check(name, observed, lo=None, hi=None):
    entry = {"name": name, "observed": observed, "lo": lo, "hi": hi}
    ok = True
    if lo is not None:
        ok = ok and observed >= lo
    if hi is not None:
        ok = ok and observed <= hi
    entry["passed"] = bool(ok)
    return entry


def _exact_check(name, observed, expected):
    return {"name": name, "observed": observed, "expected": expected,
            "passed": bool(observed == expected)}


def _sup_distance(pa: dict, pb: dict) -> float:
    support = set(pa) | set(pb)
    return max((abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in support),
               default=0.0)


# ---- reporters -------------------------------------------------------------


def _report_e1(res, agg):
    n, m, q = res["n"], res["m"], res["q"]
    trials = res["trials"]
    p = float(theory.rank_full_prob(n, m, q))
    phat = agg.freq("rank.rank", m)
    sigma = math.sqrt(p * (1 - p) / trials) if trials else math.nan
    checks = [
        _freq_check("full_rank_within_3_binomial_sigma", phat, p,
                    3 * sigma, trials, sigma=sigma),
        _exact_check("rank_full_prob_2_2_2",
                     float(theory.rank_full_prob(2, 2, 2)), 0.375),
    ]
    exact = {m - c: float(pr) for c, pr in enumerate(theory.corank_pmf(n, q, m))}
    dist = _sup_distance(agg.pmf("rank.rank"), exact)
    return {"predictors": {"rank_full_prob": p},
            "empirical": {"full_rank_freq": phat},
            "distances": {"rank_pmf_vs_exact": dist},
            "checks": checks}


def _report_e2(res, agg):
    n, q, trials = res["n"], res["q"], res["trials"]
    # the limit curves live on k <= c and decay geometrically leftwards,
    # so [-45, c] carries all mass above 1e-12
    curves = {c: {k: theory.limit_Cck(q, c, k) for k in range(-45, c + 1)}
              for c in (1, 2)}
    dps = {c: {m - n: p for m, p in theory.tau_crk_exact_pmf(n, q, c).items()}
           for c in (1, 2)}
    emp = agg.pmf("tau12.tau_u12_minus_n")
    d_sim = _sup_distance(emp, curves[1])
    d_dp = {c: _sup_distance(dps[c], curves[c]) for c in (1, 2)}
    gamma_gap = max(abs(theory.limit_Cck(q, c, c) - theory.gamma_qc(q, c))
                    for c in (1, 2))
    checks = [
        _bound_check("sim_tau_u12_vs_limit_sup", d_sim, hi=0.02),
        _bound_check("dp_vs_limit_sup_c1", d_dp[1], hi=0.01),
        _bound_check("dp_vs_limit_sup_c2", d_dp[2], hi=0.01),
        _bound_check("limit_Cck_equals_gamma", gamma_gap, hi=1e-12),
    ]
    if trials < 2:
        checks[0]["passed"] = None
        checks[0]["note"] = "insufficient for tolerance check"
    return {"predictors": {"gamma_q1": theory.gamma_qc(q, 1),
                           "gamma_q2": theory.gamma_qc(q, 2)},
            "empirical": {"tau_u12_minus_n_mean": agg.mean("tau12.tau_u12_minus_n")},
            "distances": {"sim_vs_limit": d_sim, "dp_vs_limit_c1": d_dp[1],
                          "dp_vs_limit_c2": d_dp[2]},
            "checks": checks}


def _report_e3(res, agg):
    q, trials = res["q"], res["trials"]
    gamma = theory.gamma_qc(q, 1)
    agree = agg.freq("tau23.agree", 1)
    le = agg.freq("tau23.le_n1", 1)
    eq = agg.freq("tau23.eq_n1", 1)
    checks = [
        _bound_check("tau_minor_equals_tau_crk1_freq", agree, lo=0.95),
        _bound_check("tau_le_n_plus_1_freq", le, lo=0.99),
        _freq_check("tau_eq_n_plus_1_vs_gamma", eq, gamma, 0.03, trials),
    ]
    return {"predictors": {"gamma_q1": gamma},
            "empirical": {"agree_freq": agree, "le_freq": le, "eq_freq": eq},
            "distances": {},
            "checks": checks}


def _report_e4(res, agg):
    q, trials = res["q"], res["trials"]
    n, m = res["count_n"], res["count_m"]
    mu2 = theory.mu_k(m, 2, q, n)
    mean = agg.mean("count2.two_circuits")
    sigma_mean = math.sqrt(agg.variance("count2.two_circuits") / trials) \
        if trials >= 2 else math.nan
    # exact finite-n pair-collision expectation, for contrast with the
    # asymptotic count the 3-sigma clause is pinned to
    exact = (math.comb(m, 2) * (q ** n - 1) * (q - 1)) / q ** (2 * n)
    papprox = theory.no_kcircuit_prob_approx(res["prob_m"], res["k"], q,
                                             res["prob_n"])
    pfree = agg.freq("no2.no_two_circuit", 1)
    checks = [
        _freq_check("mean_two_circuits_vs_mu2", mean, mu2,
                    3 * sigma_mean, trials, sigma=sigma_mean),
        _freq_check("mean_two_circuits_vs_exact", mean, exact,
                    3 * sigma_mean, trials, sigma=sigma_mean),
        _freq_check("no_two_circuit_vs_exponential", pfree, papprox, 0.05, trials),
    ]
    return {"predictors": {"mu_2": mu2, "exact_expectation": exact,
                           "exponential_approx": papprox},
            "empirical": {"mean_two_circuits": mean, "no_two_circuit_freq": pfree},
            "distances": {},
            "checks": checks}


def _report_e5(res, agg):
    n = res["n"]
    r2 = agg.mean("fc2.length") / n
    r3 = agg.mean("fc3.length") / n
    checks = [
        _bound_check("mean_first_circuit_ratio_q2", r2,
                     lo=res["band2"][0], hi=res["band2"][1]),
        _bound_check("mean_first_circuit_ratio_q3", r3,
                     lo=res["band3"][0], hi=res["band3"][1]),
    ]
    return {"predictors": {"limit_ratio_q2": 1 - 1 / 2, "limit_ratio_q3": 1 - 1 / 3},
            "empirical": {"mean_ratio_q2": r2, "mean_ratio_q3": r3,
                          "mean_tau_over_n_q2": agg.mean("fc2.tau") / n,
                          "mean_tau_over_n_q3": agg.mean("fc3.tau") / n},
            "distances": {},
            "checks": checks}


def _report_e6(res, agg):
    n = res["n"]
    cnt = Counter(agg.counters.get("ham.tau_ham", Counter()))
    censored = agg.total("ham.censored")
    # censored trials sit above max_steps, beyond every quantile tested
    if censored:
        cnt[res["max_steps"] + 1] += censored
    tot = sum(cnt.values())
    med = _median(cnt)
    below_2n = sum(v for k, v in cnt.items() if k < 2 * n) / tot if tot else math.nan
    checks = [
        _bound_check("median_tau_ham_over_n", med / n, lo=1.1, hi=1.7),
        _bound_check("tau_ham_below_2n_freq", below_2n, lo=0.85),
    ]
    return {"predictors": {"b_of_1_times_n": theory.b_of_a(res["q"], 1.0) * n},
            "empirical": {"median_tau_ham": med, "below_2n_freq": below_2n,
                          "censored": censored},
            "distances": {},
            "checks": checks}


def _report_e8(res, agg):
    field = make_field(res["q"])
    kappa_pg, _ = RepMatroid(pg_matrix(field, 2)).vertical_connectivity()
    mism = agg.counters.get("identity.mismatch", Counter()).get(1, 0)
    checked = agg.counters.get("identity.checked", Counter()).get(1, 0)
    p2 = agg.freq("twoconn.two_connected", 1)
    viol = agg.freq("monitor.violation", 1)
    checks = [
        _exact_check("kappa_pg12_infinite", kappa_pg == INFINITY, True),
        _exact_check("girth_identity_mismatches", mism, 0),
        _freq_check("p_two_connected_vs_exp_minus_1", p2, math.exp(-1), 0.1,
                    res["trials"]),
        _bound_check("kappa_decrease_fraction", viol, hi=0.05),
    ]
    return {"predictors": {"exp_minus_1": math.exp(-1)},
            "empirical": {"p_two_connected": p2, "identity_checked": checked,
                          "identity_mismatches": mism,
                          "monitor_violation_freq": viol},
            "distances": {},
            "checks": checks}


def _report_e9(res, agg):
    zeta = theory.q_int(res["r"], res["q"])
    cover = agg.freq("cover.covered", 1)
    miss = 1 - cover
    _, upper_missed = theory.poisson_bounds(res["b"], zeta)
    checks = [
        _bound_check("cover_freq", cover, lo=0.90),
        _bound_check("miss_rate_within_poisson_bound", miss, hi=upper_missed),
    ]
    return {"predictors": {"poisson_miss_upper": upper_missed,
                           "b": res["b"], "zeta": zeta},
            "empirical": {"cover_freq": cover, "miss_rate": miss,
                          "mean_missed": agg.mean("cover.missed")},
            "distances": {},
            "checks": checks}


@functools.cache
def _e10_fixed_values() -> tuple[dict, bool, bool]:
    """E10's checks that read no trial, computed once per process: chi of
    PG(n - 1, q) for q in (2, 3) and n <= 4, whether each equals n, and
    whether the inequality table holds everywhere but at (q, k) = (2, 1)."""
    pg_ok = True
    pg_values = {}
    for qq in (2, 3):
        f = make_field(qq)
        for nn in range(1, 5):
            chi = RepMatroid(pg_matrix(f, nn)).critical_number()
            pg_values[f"chi_pg_{nn}_{qq}"] = chi
            pg_ok = pg_ok and chi == nn
    table_ok = all(theory.check_inequality(qq, k) == ((qq, k) != (2, 1))
                   for qq in range(2, 6) for k in range(1, 11))
    return pg_values, pg_ok, table_ok


def _report_e10(res, agg):
    pg_values, pg_ok, table_ok = _e10_fixed_values()
    skips = agg.counters.get("noskip.skip", Counter()).get(1, 0)
    mean_ratio = agg.mean("tau1.tau1crt") / res["n"]
    checks = [
        _exact_check("chi_pg_equals_dimension", pg_ok, True),
        _exact_check("chi_skip_count", skips, 0),
        _bound_check("mean_tau_1crt_over_n", mean_ratio, lo=0.8, hi=1.3),
        _exact_check("inequality_holds_except_q2_k1", table_ok, True),
    ]
    return {"predictors": {"tau_1crt_prediction": res["n"] - 1, **pg_values},
            "empirical": {"mean_tau1crt_ratio": mean_ratio,
                          "censored": agg.counters.get(
                              "tau1.censored", Counter()).get(1, 0)},
            "distances": {},
            "checks": checks}


def _chi2_tail(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with integer dof >= 1, in the closed forms
    of Abramowitz and Stegun 26.4.4-5: a Poisson sum for even dof, erfc and
    a finite series for odd dof."""
    if dof % 2 == 0:
        term = total = math.exp(-x / 2)
        for i in range(1, dof // 2):
            term *= x / (2 * i)
            total += term
        return total
    total = math.erfc(math.sqrt(x / 2))
    term = math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    for r in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return total


def _chi2_counters(a: Counter, b: Counter):
    """Two-sample chi-square p-value over the union of integer supports.

    Adjacent sparse support cells are pooled until each pooled cell
    holds >= 10 observations, keeping the asymptotics honest.  The test is
    Pearson's on the pooled 2 x k table, with Yates' correction at dof 1.
    """
    support = sorted(set(a) | set(b))
    merged = []
    carry = [0, 0]
    for k in support:
        carry = [carry[0] + a.get(k, 0), carry[1] + b.get(k, 0)]
        if sum(carry) >= 10:
            merged.append(carry)
            carry = [0, 0]
    if carry != [0, 0]:
        if merged:
            merged[-1] = [merged[-1][0] + carry[0], merged[-1][1] + carry[1]]
        else:
            merged.append(carry)
    if len(merged) < 2:
        return 1.0
    sizes = [sum(a.values()), sum(b.values())]
    total, dof, stat = sum(sizes), len(merged) - 1, 0.0
    for cell in merged:
        for obs, size in zip(cell, sizes):
            expected = size * sum(cell) / total
            dev = abs(obs - expected)
            dev -= min(0.5, dev) if dof == 1 else 0.0
            stat += dev * dev / expected
    return _chi2_tail(stat, dof)


def _report_e11(res, agg):
    m2 = agg.counters.get("m2.rank", Counter())
    m1s = agg.counters.get("m1s.rank", Counter())
    m3 = agg.counters.get("m3.rank", Counter())
    p_a = _chi2_counters(m2, m1s)
    p_b = _chi2_counters(m3, m2)
    checks = [
        _bound_check("chi2_m2_vs_m1_conditioned_simple", p_a, lo=0.01),
        _bound_check("chi2_m3_conditioned_vs_m2", p_b, lo=0.01),
    ]
    return {"predictors": {},
            "empirical": {"p_value_m2_vs_m1s": p_a, "p_value_m3_vs_m2": p_b},
            "distances": {},
            "checks": checks}


PRESETS = {
    "E1": Preset(
        defaults={"n": 16, "q": 2, "m": 16, "trials": 10 ** 5},
        parts=(PartSpec("rank", "trials", _t_rank),),
        reporter=_report_e1, check=_check_e1),
    "E2": Preset(
        defaults={"n": 60, "q": 2, "trials": 10 ** 5},
        parts=(PartSpec("tau12", "trials", _t_tau_u12),),
        reporter=_report_e2),
    "E3": Preset(
        defaults={"n": 200, "q": 2, "trials": 10 ** 4},
        parts=(PartSpec("tau23", "trials", _t_tau_u23),),
        reporter=_report_e3, check=_check_e3),
    "E4": Preset(
        defaults={"q": 2, "k": 2, "count_n": 3, "count_m": 4,
                  "prob_n": 10, "prob_m": 40, "trials": 10 ** 5},
        parts=(PartSpec("count2", "trials", _t_two_circuit_count),
               PartSpec("no2", "trials", _t_no_two_circuit)),
        reporter=_report_e4, check=_check_e4),
    "E5": Preset(
        defaults={"n": 100, "q": 2, "trials": 10 ** 4,
                  "band2": (0.45, 0.55), "band3": (0.61, 0.72)},
        parts=(PartSpec("fc2", "trials", _t_first_circuit, (("q", 2),)),
               PartSpec("fc3", "trials", _t_first_circuit, (("q", 3),))),
        reporter=_report_e5),
    "E6": Preset(
        defaults={"n": 16, "q": 2, "trials": 10 ** 3, "max_steps": 40,
                  "kernel_budget": 1 << 24},
        parts=(PartSpec("ham", "trials", _t_hamilton),),
        reporter=_report_e6),
    "E8": Preset(
        defaults={"n": 10, "q": 2, "m": 14, "trials": 10 ** 4,
                  "identity_trials": 1000, "monitor_trials": 60,
                  "monitor_n": 12, "monitor_horizon": 24},
        parts=(PartSpec("identity", "identity_trials", _t_girth_identity),
               PartSpec("twoconn", "trials", _t_two_connected),
               PartSpec("monitor", "monitor_trials", _t_kappa_monitor)),
        reporter=_report_e8),
    "E9": Preset(
        defaults={"q": 2, "r": 3, "b": 35, "trials": 10 ** 4},
        parts=(PartSpec("cover", "trials", _t_pg_cover),),
        reporter=_report_e9),
    "E10": Preset(
        defaults={"n": 10, "q": 2, "trials": 2000, "crt_max_steps": 60,
                  "noskip_trials": 10 ** 3, "noskip_n": 8, "noskip_horizon": 24},
        parts=(PartSpec("noskip", "noskip_trials", _t_chi_noskip),
               PartSpec("tau1", "trials", _t_tau_1crt)),
        reporter=_report_e10),
    "E11": Preset(
        defaults={"n": 4, "q": 2, "m": 3, "trials": 10 ** 5},
        parts=(PartSpec("m2", "trials", _t_m2_rank),
               PartSpec("m1s", "trials", _t_m1_simple_rank),
               PartSpec("m3", "trials", _t_m3_conditioned_rank)),
        reporter=_report_e11, check=_check_e11),
}


# ---- orchestration ---------------------------------------------------------


def _run_chunk(preset: str, res: dict, part_idx: int, start: int, stop: int) -> dict:
    spec = PRESETS[preset].parts[part_idx]
    if spec.overrides:
        res = {**res, **dict(spec.overrides)}
    counters: dict = {}
    if stop > start:  # a trial that raises fails the whole chunk, so all count
        counters[f"{spec.name}.trials"] = Counter({1: stop - start})
    hists: dict = {}  # observable -> its Counter in counters
    # one generator, rekeyed to process_rng(seed, key)'s stream before each trial
    rng = np.random.Generator(np.random.Philox(key=0))
    for t in range(start, stop):
        try:
            obs = spec.fn(res, proc._rekey(rng, res["seed"], part_idx * _PART_STRIDE + t))
        except BudgetExceeded as e:
            raise BudgetExceeded(f"part {spec.name}, trial {t}: {e}") from None
        for key, val in obs.items():
            hist = hists.get(key)
            if hist is None:
                hist = hists[key] = counters[f"{spec.name}.{key}"] = Counter()
            hist[int(val)] += 1
    return counters


def _plan_chunks(preset: str, res: dict) -> list:
    jobs = []
    for idx, spec in enumerate(PRESETS[preset].parts):
        total = res[spec.trials_key]
        for start in range(0, total, _CHUNK):
            jobs.append((idx, start, min(start + _CHUNK, total)))
    return jobs


def run_experiment(config: ExperimentConfig):
    """Run a preset; returns (Aggregate, ComparisonReport).

    Deterministic given the master seed: counters are pure integer
    counts merged commutatively, so worker count cannot change any
    reported number.
    """
    res = config.resolved()
    preset = config.preset
    t0 = time.perf_counter()
    agg = Aggregate(preset=preset)
    jobs = _plan_chunks(preset, res)
    if config.workers == 1:
        for idx, start, stop in jobs:
            agg.merge_in(_run_chunk(preset, res, idx, start, stop))
    else:
        from concurrent.futures import ProcessPoolExecutor  # costs every start-up
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_run_chunk, preset, res, idx, start, stop)
                       for idx, start, stop in jobs]
            for fut in futures:
                agg.merge_in(fut.result())
    agg.validate({spec.name: res[spec.trials_key]
                  for spec in PRESETS[preset].parts})
    wall = time.perf_counter() - t0
    body = PRESETS[preset].reporter(res, agg)
    insufficient = any(res[spec.trials_key] < 2
                       for spec in PRESETS[preset].parts)
    report = ComparisonReport(
        preset=preset, seed=res["seed"], schema_version=SCHEMA_VERSION,
        config=res, predictors=body["predictors"], empirical=body["empirical"],
        distances=body["distances"], checks=body["checks"],
        insufficient=insufficient,
        runtime={"wall_seconds": wall, "workers": config.workers})
    if config.out:
        emit(bundle(agg, report), config.fmt, config.out)
    return agg, report


# ---- emission --------------------------------------------------------------


def bundle(agg: Aggregate, report: ComparisonReport) -> dict:
    """The emitted object: config + aggregate + comparison + schema tag."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": report.seed,
        "config": _jsonable(report.config),
        "aggregate": agg.to_jsonable(),
        "comparison": report.to_jsonable(include_runtime=False),
        "runtime": report.runtime,
    }


def emit(obj: dict, fmt: str, path: str) -> None:
    if fmt == "json":
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(obj)
    else:
        raise ConfigError(f"format must be json or csv, not {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(str(e)) from None


def _to_csv(obj: dict) -> str:
    """Flat four-column layout: section, name, key, value."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["section", "name", "key", "value"])
    w.writerow(["meta", "schema_version", "", obj["schema_version"]])
    w.writerow(["meta", "seed", "", obj["seed"]])
    for key, val in sorted(obj["config"].items()):
        w.writerow(["config", key, "", val])
    for cname, cnt in sorted(obj["aggregate"].items()):
        for support, count in sorted(cnt.items(), key=lambda kv: int(kv[0])):
            w.writerow(["aggregate", cname, support, count])
    comp = obj["comparison"]
    for section in ("predictors", "empirical", "distances"):
        for key, val in sorted(comp[section].items()):
            w.writerow([section, key, "", val])
    for chk in comp["checks"]:
        w.writerow(["check", chk["name"], "passed", chk["passed"]])
    for key, val in sorted(obj["runtime"].items()):
        w.writerow(["runtime", key, "", val])
    return buf.getvalue()

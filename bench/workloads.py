"""Workload definitions shared by the benchmark driver and its child processes.

Every workload is one preset of `fqmatroid.montecarlo`, run through the
public `run_experiment` with `workers=1`.  The per-call trial counts are
the preset's default trial mix scaled by one factor, so the share of
time each layer takes matches what the preset does at full scale.
See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass

# the seed the acceptance suite pins; reference digests exist for it and
# for one hold-out seed that was not used while tuning the benchmark
DEFAULT_SEED = 20260814
HOLDOUT_SEED = 314159

SEED_LIMIT = 1 << 63


@dataclass(frozen=True)
class Workload:
    preset: str
    trials: dict  # trial-count key -> trials per timed call
    warmup: dict  # trial-count key -> trials of the warm-up reference call
    # (n, k) pairs of the gf2 critical tracker's lazy subspace tables that
    # the timed trials can reach; filled during set-up
    subspace_tables: tuple = ()
    # report checks that hold exactly on every seed (not statistical)
    exact_checks: tuple = ()


# timed-call trial counts: each preset's default trial mix times one
# factor (E3 1/50, E5 1/100, E10 1/50, E8 1/20; 1/20 is the smallest
# factor that keeps every E8 part whole)
WORKLOADS = {
    "e3_gf2_process": Workload(
        preset="E3",
        trials={"trials": 200},
        warmup={"trials": 5}),
    "e5_first_circuit": Workload(
        preset="E5",
        trials={"trials": 100},
        warmup={"trials": 5}),
    "e10_critical": Workload(
        preset="E10",
        trials={"trials": 40, "noskip_trials": 20},
        warmup={"trials": 2, "noskip_trials": 2},
        # tau1 stops at chi = 2 (n = 10); noskip reaches level 3 in about
        # 0.4% of trials at n = 8 and level 4 in none of 4000 probed
        subspace_tables=((10, 1), (10, 2), (8, 1), (8, 2), (8, 3)),
        exact_checks=("chi_pg_equals_dimension", "chi_skip_count",
                      "inequality_holds_except_q2_k1")),
    "e8_connectivity": Workload(
        preset="E8",
        trials={"identity_trials": 50, "trials": 500, "monitor_trials": 3},
        warmup={"identity_trials": 10, "trials": 100, "monitor_trials": 1},
        exact_checks=("kappa_pg12_infinite", "girth_identity_mismatches")),
}


def call_seed(seed: int, k: int) -> int:
    """Seed of the k-th timed call of a run: the run seed itself, then
    seeds derived from it, so the calls of one run cover distinct trials."""
    if k == 0:
        return seed
    h = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(h[:8], "little") % SEED_LIMIT


def total_trials(counts: dict) -> int:
    return sum(counts.values())


def experiment_config(montecarlo, preset: str, seed: int, counts: dict):
    params = {k: v for k, v in counts.items() if k != "trials"}
    return montecarlo.ExperimentConfig(preset=preset, seed=seed,
                                       trials=counts.get("trials"),
                                       params=params, workers=1)


def digest(agg, report) -> str:
    """sha256 of the aggregate and the report without its runtime section."""
    body = {"aggregate": agg.to_jsonable(),
            "report": report.to_jsonable(include_runtime=False)}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def failed_exact_checks(wl: Workload, report) -> list:
    """Names of the workload's exact report checks that did not pass.

    run_experiment itself already refuses an aggregate whose per-part
    trial totals differ from the configuration.
    """
    passed = {c["name"]: c.get("passed") for c in report.checks}
    return [name for name in wl.exact_checks if passed.get(name) is not True]


# the speed_probe() time that defines the reference CPU speed; on the
# 2-CPU Xeon this benchmark was tuned on it read 0.045-0.09 s
PROBE_REF_S = 0.05


def speed_probe(rounds: int = 5, steps: int = 4_000) -> float:
    """Seconds a fixed pure-Python elimination loop takes right now.

    The loop does what the engines do most (big-int XOR against a dict of
    pivot rows) and touches no fqmatroid code, so a change to the program
    cannot change it.  It tracks how fast the shared CPU currently runs.
    The result is rounds times the median round, so one round that an
    interrupt or a page fault hits does not count.
    """
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        rows: dict = {}
        v = 0x9E3779B97F4A7C15
        for _ in range(steps):
            v = (v * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            w = v >> 8
            while w:
                b = w.bit_length() - 1
                r = rows.get(b)
                if r is None:
                    if len(rows) < 48:
                        rows[b] = w
                    break
                w ^= r
        times.append(time.perf_counter() - t0)
    return rounds * statistics.median(times)

"""fqmatroid benchmark: one preset workload, end-to-end or layer-traced.

    python3 bench/run.py --workload e3_gf2_process --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 the run starts CHILDREN fresh interpreters one after the
other; each sets up (import plus warm-up) and then makes timed
`run_experiment` calls for its share of --seconds.  It reports trials per
second over all timed calls and the median set-up time, both scaled to a
reference CPU speed (see ref_seconds), and the median peak RSS.  With
--trace 1 it makes one untraced child (three calls on the run seed) and
one traced child (two calls on the run seed, with every layer wrapped,
see bench/tracing.py) and reports per-layer counts and self times.
Every call's output digest is checked against bench/digests.json where
a reference exists, and in trace mode against the other calls on the
same seed.  Results and spans are written under .bench_out/.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as W  # noqa: E402

CHILDREN = 3
RUN_LIMIT_S = 170  # the whole run, children included
UNTRACED_REPEATS = 3
TRACED_CALLS = 2
MAX_CALLS = 10_000  # per child; the share of --seconds stops it first


def machine_record() -> dict:
    from importlib.metadata import version

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "loadavg_start": list(os.getloadavg())}


def spawn(job: dict, deadline: float) -> dict:
    """Run one child to completion; its result, or an error record."""
    remaining = deadline - time.perf_counter()
    if remaining < 1:
        return {"error": "run time limit reached before the child started"}
    probe = W.speed_probe()
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(job)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"error": f"child exceeded the run time limit ({remaining:.0f} s)"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    res = json.loads(lines[-1])
    res["setup_wall_s"] = res["setup_end"] - t_spawn
    res["setup_s"] = ref_seconds(res["setup_wall_s"], [probe, res["setup_probe_s"]])
    return res


def ref_seconds(wall: float, probes: list) -> float:
    """A wall time scaled towards a CPU on which speed_probe() takes PROBE_REF_S.

    The machine is shared and its speed drifts by tens of percent within
    seconds; probes taken on either side of the timed span measure the
    speed the span ran at.  The probe is pure Python, which the drift
    slows far more than NumPy-bound code, so the full probe ratio
    over-corrects the NumPy-bound workloads; its square root gave the
    smallest worst-case run-to-run spread over the four workloads (see
    bench/README.md).
    """
    return wall * (W.PROBE_REF_S / statistics.mean(probes)) ** 0.5


class Ledger:
    """Trials attempted and failed, plus every problem found."""

    def __init__(self, workload: str):
        self.workload = workload
        self.refs = json.loads((BENCH / "digests.json").read_text()).get(workload, {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, rec: dict, ref_key: str | None = None, same_as: str | None = None) -> None:
        """Book one call; it fails if it raised, broke an exact check, or
        its digest differs from the stored reference or from `same_as`."""
        self.attempted += rec["trials"]
        why = []
        if "error" in rec:
            why.append(rec["error"].strip().splitlines()[-1])
        else:
            why += [f"check {c} failed" for c in rec["failed_checks"]]
            ref = self.refs.get(ref_key if ref_key is not None else str(rec["seed"]))
            if ref is not None and rec["digest"] != ref:
                why.append("digest differs from the stored reference")
            if same_as is not None and rec["digest"] != same_as:
                why.append("digest differs from the other calls on this seed")
        if why:
            self.failed += rec["trials"]
            self.problems.append(f"seed {rec['seed']}: " + "; ".join(why))

    def child(self, res: dict) -> bool:
        """Book a child's warm-up and problems; False if it produced nothing."""
        if "error" in res:
            # the trials it was to run are unknown; count one call as failed
            trials = W.total_trials(W.WORKLOADS[self.workload].trials)
            self.attempted += trials
            self.failed += trials
            self.problems.append(res["error"])
            return False
        self.call(res["warmup"], ref_key="warmup")
        self.problems += [f"hygiene: {p}" for p in res.get("hygiene", [])]
        return True


def run_untraced(args, ledger: Ledger, deadline: float) -> tuple[dict, dict]:
    share = args.seconds / CHILDREN
    children, calls = [], []
    for c in range(CHILDREN):
        res = spawn({"workload": args.workload, "mode": "untraced", "seed": args.seed,
                     "first": c, "stride": CHILDREN, "max_calls": MAX_CALLS,
                     "share_s": share}, deadline)
        children.append(res)
        if not ledger.child(res):
            continue
        for rec in res["calls"]:
            ledger.call(rec)
            if "error" not in rec:
                calls.append(rec)
    ok = [r for r in children if "error" not in r]
    if not calls or not ok:
        return {}, {"children": children}
    # trials over the summed wall of all timed calls: each call covers other
    # trials, so pooling averages out how much work the inputs happen to need
    trials = sum(r["trials"] for r in calls)
    ref_wall = sum(ref_seconds(r["wall_s"], r["probe_s"]) for r in calls)
    metrics = {"trials_per_s": (trials / ref_wall, "trials/s"),
               "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
               "peak_rss_mb": (statistics.median(r["rss_mb"] for r in ok), "MB")}
    by_wall = (trials / sum(r["wall_s"] for r in calls),
               statistics.median(r["setup_wall_s"] for r in ok))
    detail = {"children": children, "notes": {
        "trials_per_s": f"{trials} trials in {len(calls)} timed calls, at reference "
                        f"speed; {by_wall[0]:.6g} by wall",
        "setup_s": f"median of {len(ok)} set-ups, at reference speed; "
                   f"{by_wall[1]:.6g} by wall",
        "peak_rss_mb": f"median of {len(ok)} processes"}}
    return metrics, detail


def run_traced(args, ledger: Ledger, deadline: float) -> tuple[dict, dict]:
    base = {"workload": args.workload, "seed": args.seed, "first": 0, "stride": 0,
            "share_s": None}
    plain = spawn({**base, "mode": "untraced", "max_calls": UNTRACED_REPEATS}, deadline)
    spans_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
    traced = spawn({**base, "mode": "traced", "max_calls": TRACED_CALLS,
                    "spans_out": str(spans_out)}, deadline)
    detail = {"untraced_child": plain, "traced_child": traced}
    if not (ledger.child(plain) and ledger.child(traced)):
        return {}, detail
    good = [r for r in plain["calls"] if "error" not in r]
    reference = good[0]["digest"] if good else None
    for rec in plain["calls"] + traced["calls"]:
        ledger.call(rec, same_as=reference)
    if not good or any("error" in r for r in traced["calls"]):
        return {}, detail
    layers = traced["layers"]
    for key in layers[0]:
        if key.endswith((".calls", ".handles", "report_calls")) and \
                len({layer[key] for layer in layers}) != 1:
            ledger.problems.append(
                f"{key} differs between traced calls on one seed: "
                f"{[layer[key] for layer in layers]}")
    if layers[0]["fqlinalg.enumerate_subspaces.calls"]:
        ledger.problems.append("subspace enumeration inside timed trials: "
                               "the warm-up missed a lazy table")
    untraced_wall = statistics.median(ref_seconds(r["wall_s"], r["probe_s"]) for r in good)
    traced_wall = statistics.median(ref_seconds(r["wall_s"], r["probe_s"])
                                    for r in traced["calls"])
    values = dict(layers[0])
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}
    detail["spans"] = str(spans_out.relative_to(ROOT))
    return metrics, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < W.SEED_LIMIT:
        ap.error(f"--seed must lie in [0, 2**63), got {args.seed}")
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must lie in (0, 120]")
    if not (ROOT / "src" / "fqmatroid" / "__init__.py").is_file():
        print(f"no fqmatroid sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    machine = machine_record()
    ledger = Ledger(args.workload)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    runner = run_traced if args.trace else run_untraced
    metrics, detail = runner(args, ledger, deadline)
    machine["loadavg_end"] = list(os.getloadavg())
    print("machine " + json.dumps(machine))
    if not metrics:
        ledger.problems.append("no measurement completed")
    for p in ledger.problems:
        print(f"problem: {p}")
    for name, (value, unit) in metrics.items():
        note = detail.get("notes", {}).get(name, "")
        print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    failed_frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"failed_frac {failed_frac:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} trials)")
    correct = not ledger.problems
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "machine": machine, "correct": correct,
                    "attempted": ledger.attempted, "failed": ledger.failed,
                    "failed_frac": failed_frac, "problems": ledger.problems,
                    "metrics": {k: v for k, (v, _) in metrics.items()},
                    "detail": detail}, indent=1, default=str) + "\n")
    if not metrics:
        return 1
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

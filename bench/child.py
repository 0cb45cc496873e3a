"""One fresh interpreter of a benchmark run: set up, then timed or traced calls.

bench/run.py starts this script with one JSON job argument and reads the
JSON object on the last line of its standard output.  Set-up is the
fqmatroid import plus a warm-up: one small reference call of the
workload's preset at the default seed, and the lazy subspace tables the
timed trials can reach.  The timed calls follow; each is one
`run_experiment` call with `workers=1`.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402


def run_call(montecarlo, wl, seed: int, counts: dict) -> dict:
    """One run_experiment call; any exception is recorded, not raised."""
    config = W.experiment_config(montecarlo, wl.preset, seed, counts)
    rec = {"seed": seed, "trials": W.total_trials(counts)}
    t0 = time.perf_counter()
    try:
        agg, report = montecarlo.run_experiment(config)
    except Exception:  # noqa: BLE001 - a failed call is data for failed_frac
        rec["wall_s"] = time.perf_counter() - t0
        rec["error"] = traceback.format_exc(limit=3)
        return rec
    rec["wall_s"] = time.perf_counter() - t0
    rec["digest"] = W.digest(agg, report)
    rec["failed_checks"] = W.failed_exact_checks(wl, report)
    return rec


def warm_up(montecarlo, process, wl) -> dict:
    rec = run_call(montecarlo, wl, W.DEFAULT_SEED, wl.warmup)
    # the gf2 critical tracker builds its subspace tables on first use;
    # filling them here keeps that cost out of the timed calls
    fill = getattr(process, "_dual_normal_bases", None)
    if fill is not None:
        for n, k in wl.subspace_tables:
            fill(n, k)
    return rec


def call_seeds(job: dict):
    for j in range(job["max_calls"]):
        yield W.call_seed(job["seed"], job["first"] + j * job["stride"])


def main() -> None:
    job = json.loads(sys.argv[1])
    wl = W.WORKLOADS[job["workload"]]
    import fqmatroid
    from fqmatroid import montecarlo, process

    here = Path(fqmatroid.__file__).resolve().parent
    if here != ROOT / "src" / "fqmatroid":
        raise SystemExit(f"fqmatroid was imported from {here}, not from this checkout")
    import tracing

    out = {"t_start": T_START, "t_import": time.perf_counter()}
    traced = job["mode"] == "traced"
    if traced:
        recorder = tracing.install()
    else:
        out["hygiene"] = tracing.untraced_problems()
    out["warmup"] = warm_up(montecarlo, process, wl)
    out["setup_end"] = time.perf_counter()
    # machine speed at the end of set-up, then on either side of each call
    probe = out["setup_probe_s"] = W.speed_probe()
    out["timed_start"] = time.perf_counter()
    if traced:
        spans = {"names": recorder.names}
        snap = recorder.snapshot()
        spans.update({f"setup_{k}": v for k, v in snap.items()})
        setup = tracing.setup_metrics(recorder, snap)
        out["layers"] = []
    calls = []
    for j, seed in enumerate(call_seeds(job)):
        if traced:
            recorder.reset()
        rec = run_call(montecarlo, wl, seed, wl.trials)
        rec["probe_s"] = [probe, W.speed_probe()]
        probe = rec["probe_s"][1]
        calls.append(rec)
        if traced:
            snap = recorder.snapshot()
            spans.update({f"call{j}_{k}": v for k, v in snap.items()})
            out["layers"].append({**tracing.layer_metrics(recorder, snap), **setup})
        share = job["share_s"]
        if share is not None and time.perf_counter() - out["timed_start"] >= share:
            break
    if traced:
        import numpy as np

        Path(job["spans_out"]).parent.mkdir(parents=True, exist_ok=True)
        np.savez(job["spans_out"], **{k: np.asarray(v) for k, v in spans.items()})
    else:
        out["hygiene"] += tracing.untraced_problems()
    out["calls"] = calls
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()

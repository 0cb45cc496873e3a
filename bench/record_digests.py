"""Record the reference output digests in bench/digests.json.

    python3 bench/record_digests.py

For every workload: the warm-up call at the default seed, and one timed
call at the default seed and at the hold-out seed.  Re-record only when
a change is meant to alter the program's output, and say so.
"""

import json
import sys

from child import BENCH, run_call
import workloads as W


def main() -> int:
    from fqmatroid import montecarlo

    out = {}
    for name, wl in W.WORKLOADS.items():
        calls = {"warmup": run_call(montecarlo, wl, W.DEFAULT_SEED, wl.warmup)}
        for seed in (W.DEFAULT_SEED, W.HOLDOUT_SEED):
            calls[str(seed)] = run_call(montecarlo, wl, seed, wl.trials)
        for key, rec in calls.items():
            if "error" in rec or rec["failed_checks"]:
                print(f"{name} {key}: {rec.get('error') or rec['failed_checks']}",
                      file=sys.stderr)
                return 1
        out[name] = {key: rec["digest"] for key, rec in calls.items()}
        print(name, {key: round(rec["wall_s"], 3) for key, rec in calls.items()})
    (BENCH / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: predictors, experiment presets, figure data, oracles.

Exit codes: 0 ok, 1 selfcheck/comparison failure, 2 usage, 3 budget
exhaustion, 4 I/O.  Statistical verdicts never change the exit code of
`simulate`; they are data in the emitted report.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import operator
import os
import secrets
import sys
from collections import Counter
from fractions import Fraction

from . import montecarlo, theory
from .errors import (BudgetExceeded, ConfigError, FqError, InvalidParam,
                     IoError, NotPrimePower, TooLarge)
from .fqlinalg import FqMatrix, enumerate_subspaces, make_field, random_uniform_matrix
from .matroid import INFINITY, RepMatroid

_BUDGET_ENV = "FQMATROID_BUDGET"
_CORRUPT_ENV = "FQMATROID_SELFCHECK_CORRUPT"  # test hook: q whose tables to corrupt


# ---- predict ---------------------------------------------------------------

# what -> (required flags, callable(args) -> {name: value})
def _p_bofa(a):
    return {"bofa": theory.b_of_a(a.q, a.a)}


def _p_bprime(a):
    return {"bprime": theory.b_prime(a.q, a.a)}


def _p_gbinom(a):
    return {"gbinom": theory.gaussian_binomial(a.n, a.k, a.q)}


def _p_qint(a):
    return {"qint": theory.q_int(a.n, a.q)}


def _p_cck(a):
    return {"cck": theory.limit_Cck(a.q, a.c, a.k)}


def _p_gamma(a):
    return {"gamma": theory.gamma_qc(a.q, a.c)}


def _p_rankfull(a):
    return {"rankfull": float(theory.rank_full_prob(a.n, a.m, a.q))}


def _p_mu(a):
    return {"mu": theory.mu_k(a.m, a.k, a.q, a.n)}


def _p_nocirc(a):
    return {"nocirc": theory.no_kcircuit_prob_approx(a.m, a.k, a.q, a.n)}


def _p_tauconn(a):
    return {"tauconn": theory.tau_conn_asymptotic(a.q, a.k, a.n)}


def _p_koalpha(a):
    return {"koalpha": theory.ko_alpha_bound(a.q)}


def _p_connlimit(a):
    return {"connlimit": theory.conn_limit_prob(a.q, a.k, a.a)}


def _p_crt(a):
    tau, ex, pi = theory.crt_predictors(a.q, a.k, a.n, a.m)
    out = {"crt_tau": tau, "crt_ex": ex}
    for h, v in enumerate(pi):
        out[f"crt_pi_{h}"] = v
    return out


_PREDICTORS = {
    "bofa": (("q", "a"), _p_bofa),
    "bprime": (("q", "a"), _p_bprime),
    "gbinom": (("n", "k", "q"), _p_gbinom),
    "qint": (("n", "q"), _p_qint),
    "cck": (("q", "c", "k"), _p_cck),
    "gamma": (("q", "c"), _p_gamma),
    "rankfull": (("n", "m", "q"), _p_rankfull),
    "mu": (("m", "k", "q", "n"), _p_mu),
    "nocirc": (("m", "k", "q", "n"), _p_nocirc),
    "tauconn": (("q", "k", "n"), _p_tauconn),
    "koalpha": (("q",), _p_koalpha),
    "connlimit": (("q", "k", "a"), _p_connlimit),
    "crt": (("q", "k", "n", "m"), _p_crt),
}


def _cmd_predict(args) -> int:
    need, fn = _PREDICTORS[args.what]
    missing = [f"--{f}" for f in need if getattr(args, f, None) is None]
    if missing:
        print(f"predict --what {args.what} requires {' '.join(missing)}",
              file=sys.stderr)
        return 2
    values = fn(args)
    if args.format == "json":
        payload = {"schema_version": montecarlo.SCHEMA_VERSION,
                   "flags": _flag_dict(args), "values": values}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(f"{k}={v}\n" for k, v in values.items())
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


# ---- simulate --------------------------------------------------------------


def _parse_param(item: str):
    if "=" not in item:
        raise ConfigError(f"--param expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        val = int(raw)
    except ValueError:
        try:
            val = float(raw)
        except ValueError:
            val = raw
    return key, val


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else secrets.randbits(32)
    params = dict(_parse_param(p) for p in args.param or [])
    budget = args.budget
    if budget is None and os.environ.get(_BUDGET_ENV):
        budget = int(os.environ[_BUDGET_ENV])
    if budget is not None:
        for key in montecarlo.PRESETS.get(args.preset, montecarlo.Preset({}, (), None)).defaults:
            if key.endswith("budget"):
                params.setdefault(key, budget)
    out = args.out or f"fqmatroid_{args.preset}_{seed}.{args.format}"
    cfg = montecarlo.ExperimentConfig(
        preset=args.preset, seed=seed, trials=args.trials, n=args.n, q=args.q,
        params=params, workers=args.workers, out=out, fmt=args.format)
    agg, rep = montecarlo.run_experiment(cfg)
    print(f"seed={seed}")
    print(f"out={out}")
    for chk in rep.checks:
        state = {True: "PASS", False: "FAIL", None: "NA"}[chk.get("passed")]
        print(f"check {chk['name']}: {state}")
    if rep.insufficient:
        print("note: insufficient for tolerance check")
    return 0


# ---- compare ---------------------------------------------------------------


def _cmd_compare(args) -> int:
    try:
        with open(getattr(args, "in"), encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as e:
        raise IoError(str(e)) from None
    except json.JSONDecodeError as e:
        print(f"not a json artifact: {e}", file=sys.stderr)
        return 2
    version = obj.get("schema_version") if isinstance(obj, dict) else None
    if version != montecarlo.SCHEMA_VERSION:
        print(f"schema_version {version!r} != {montecarlo.SCHEMA_VERSION!r}", file=sys.stderr)
        return 2
    res = obj.get("config")
    preset = res.get("preset") if isinstance(res, dict) else None
    if preset not in montecarlo.PRESETS:
        print(f"unknown preset {preset!r} in artifact config", file=sys.stderr)
        return 2
    missing = sorted(({"seed"} | set(montecarlo.PRESETS[preset].defaults)) - set(res))
    if missing:
        print(f"artifact config lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    montecarlo._validate_resolved(res)
    agg = montecarlo.Aggregate(preset=preset)
    try:
        agg.counters = {key: Counter({int(k): operator.index(v) for k, v in cnt.items()})
                        for key, cnt in obj["aggregate"].items()}
        stored = {c["name"]: c.get("passed") for c in obj["comparison"]["checks"]}
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        print(f"malformed artifact aggregate or checks: {e!r}", file=sys.stderr)
        return 2
    body = montecarlo.PRESETS[preset].reporter(res, agg)
    ok = True
    print(f"seed={res['seed']}")
    for chk in body["checks"]:
        fresh = chk.get("passed")
        was = stored.get(chk["name"], "<absent>")
        match = fresh == was
        ok = ok and match
        state = {True: "PASS", False: "FAIL", None: "NA"}.get(fresh, "?")
        print(f"check {chk['name']}: {state}"
              + ("" if match else f"  (stored: {was} -- MISMATCH)"))
    return 0 if ok else 1


# ---- table -----------------------------------------------------------------


def _meta_lines(args, seed=None) -> str:
    flags = _flag_dict(args)
    parts = [f"# schema_version={montecarlo.SCHEMA_VERSION}"]
    if seed is not None:
        parts.append(f"# seed={seed}")
    parts.append("# flags=" + json.dumps(flags, sort_keys=True))
    return "\n".join(parts) + "\n"


def _cmd_table(args) -> int:
    buf = io.StringIO()
    if args.what == "bofa":
        if args.steps < 1:
            print("empty grid: --steps must be >= 1", file=sys.stderr)
            return 2
        if not 0 < args.a_min <= args.a_max <= 1:
            print("grid must satisfy 0 < a-min <= a-max <= 1", file=sys.stderr)
            return 2
        buf.write("a,b,bprime\n")
        for i in range(args.steps):
            a = args.a_min + (args.a_max - args.a_min) * i / max(args.steps - 1, 1)
            buf.write(f"{a:.6f},{theory.b_of_a(args.q, a):.10g},"
                      f"{theory.b_prime(args.q, a):.10g}\n")
    elif args.what == "bounds":
        if args.steps < 1:
            print("empty grid: --steps must be >= 1", file=sys.stderr)
            return 2
        ko = theory.ko_alpha_bound(args.q)
        buf.write("t,lb_alpha,ko_upper\n")
        for i in range(args.steps):
            t = 0.05 + 0.90 * i / max(args.steps - 1, 1)
            buf.write(f"{t:.6f},{theory.lb_alpha(args.q, t):.9f},{ko:.9f}\n")
    elif args.what == "cck":
        if args.c is None:
            print("table --what cck requires --c", file=sys.stderr)
            return 2
        buf.write("k,cck\n")
        for k in range(-20, args.c + 1):
            buf.write(f"{k},{theory.limit_Cck(args.q, args.c, k):.12g}\n")
    else:  # pragma: no cover - argparse choices guard this
        return 2
    text = _meta_lines(args) + buf.getvalue()
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---- selfcheck -------------------------------------------------------------


class _CorruptField:
    """Delegating wrapper whose multiplication table has one wrong entry."""

    def __init__(self, inner):
        self._inner = inner
        self.q = inner.q

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def mul(self, a, b):
        if a == 1 and b == 1:
            return 0
        return self._inner.mul(a, b)


def _check_field_axioms() -> tuple[bool, str]:
    import itertools

    corrupt_q = int(os.environ.get(_CORRUPT_ENV, "0") or "0")
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = make_field(q)
        if q == corrupt_q:
            f = _CorruptField(f)
        els = list(f.elements())
        for a, b in itertools.product(els, els):
            if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
                return False, f"commutativity fails in F_{q}"
        for a, b, c in itertools.product(els, els, els):
            if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)):
                return False, f"additive associativity fails in F_{q}"
            if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
                return False, f"multiplicative associativity fails in F_{q}"
            if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                return False, f"distributivity fails in F_{q}"
        for a in els:
            if f.add(a, 0) != a or f.mul(a, 1) != a:
                return False, f"identity fails in F_{q}"
            if f.add(a, f.neg(a)) != 0:
                return False, f"additive inverse fails in F_{q}"
            if a and f.mul(a, f.inv(a)) != 1:
                return False, f"multiplicative inverse fails in F_{q}"
    return True, "q in {2,3,4,5,7,8,9} exhaustive"


def _check_subspace_counts() -> tuple[bool, str]:
    for q in (2, 3):
        f = make_field(q)
        for n in range(1, 5):
            for k in range(0, n + 1):
                got = sum(1 for _ in enumerate_subspaces(f, n, k))
                want = theory.gaussian_binomial(n, k, q)
                if got != want:
                    return False, f"(n,k,q)=({n},{k},{q}): {got} != {want}"
    return True, "n <= 4, q in {2,3}"


def _check_rank_law() -> tuple[bool, str]:
    import itertools

    for n, m, q in ((2, 2, 2), (2, 3, 2), (3, 3, 2), (2, 2, 3)):
        f = make_field(q)
        counts = Counter()
        for flat in itertools.product(range(q), repeat=n * m):
            cols = [tuple(flat[i * n:(i + 1) * n]) for i in range(m)]
            counts[FqMatrix(f, cols, n=n).rank] += 1
        total = q ** (n * m)
        pmf = theory.corank_pmf(n, q, m, exact=True)
        for c, p in enumerate(pmf):
            if Fraction(counts.get(m - c, 0), total) != p:
                return False, f"(n,m,q)=({n},{m},{q}) corank {c}"
    return True, "exhaustive at (2,2,2),(2,3,2),(3,3,2),(2,2,3)"


def _check_connectivity_identities() -> tuple[bool, str]:
    from .process import process_rng

    rng = process_rng(20240817, 0)
    checked = 0
    for _ in range(120):
        q = 2 if rng.integers(0, 2) == 0 else 3
        f = make_field(q)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 8))
        M = RepMatroid(random_uniform_matrix(f, n, m, rng))
        if M.is_vertically_2_connected() != M.is_vertically_k_connected(2):
            return False, f"2-connectivity mismatch at q={q} n={n} m={m}"
        uni = M.is_uniform()
        if uni is not None and uni[1] >= 2 * uni[0] - 1:
            continue
        t, _ = M.tutte_connectivity()  # internal dual-route cross-check
        if t != min(M.vertical_connectivity()[0], M.girth()):
            return False, f"girth identity fails at q={q} n={n} m={m}"
        checked += 1
    return True, f"{checked} random instances"


def _check_dp_vs_limit() -> tuple[bool, str]:
    n, q = 60, 2
    worst = 0.0
    for c in (1, 2):
        dp = {m - n: float(p) for m, p in theory.tau_crk_exact_pmf(n, q, c).items()}
        lim = {k: theory.limit_Cck(q, c, k) for k in range(-45, c + 1)}
        for k in set(dp) | set(lim):
            worst = max(worst, abs(dp.get(k, 0.0) - lim.get(k, 0.0)))
    return worst <= 0.01, f"sup distance {worst:.2e}"


_SELFCHECKS = (
    ("field_axioms", _check_field_axioms),
    ("subspace_counts", _check_subspace_counts),
    ("rank_law_enumeration", _check_rank_law),
    ("connectivity_identities", _check_connectivity_identities),
    ("dp_vs_limit", _check_dp_vs_limit),
)


def _cmd_selfcheck(args) -> int:
    all_ok = True
    for name, fn in _SELFCHECKS:
        ok, detail = fn()
        all_ok = all_ok and ok
        print(f"{name}: {'pass' if ok else 'FAIL'} ({detail})")
    print("selfcheck:", "pass" if all_ok else "FAIL")
    return 0 if all_ok else 1


# ---- plumbing --------------------------------------------------------------


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(str(e)) from None


def _flag_dict(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fqmatroid",
        description="Random matrices over F_q: predictors, simulations, oracles.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pr = sub.add_parser("predict", help="evaluate a closed-form predictor")
    pr.add_argument("--what", required=True, choices=sorted(_PREDICTORS))
    pr.add_argument("--q", type=int)
    pr.add_argument("--n", type=int)
    pr.add_argument("--m", type=int)
    pr.add_argument("--k", type=int)
    pr.add_argument("--c", type=int)
    pr.add_argument("--r", type=int)
    pr.add_argument("--a", type=float)
    pr.add_argument("--out")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pr.set_defaults(func=_cmd_predict)

    si = sub.add_parser("simulate", help="run an experiment preset")
    si.add_argument("--preset", required=True)
    si.add_argument("--q", type=int)
    si.add_argument("--n", type=int)
    si.add_argument("--trials", type=int)
    si.add_argument("--seed", type=int)
    si.add_argument("--workers", type=int, default=1)
    si.add_argument("--budget", type=int)
    si.add_argument("--param", action="append", metavar="KEY=VALUE")
    si.add_argument("--out")
    si.add_argument("--format", choices=("json", "csv"), default="json")
    si.set_defaults(func=_cmd_simulate)

    co = sub.add_parser("compare", help="recheck a stored json artifact")
    co.add_argument("--in", required=True, help="artifact path (json)")
    co.set_defaults(func=_cmd_compare)

    ta = sub.add_parser("table", help="emit figure data as csv")
    ta.add_argument("--what", required=True, choices=("bofa", "bounds", "cck"))
    ta.add_argument("--q", type=int, default=2)
    ta.add_argument("--c", type=int)
    ta.add_argument("--steps", type=int, default=100)
    ta.add_argument("--a-min", dest="a_min", type=float, default=0.01)
    ta.add_argument("--a-max", dest="a_max", type=float, default=1.0)
    ta.add_argument("--out")
    ta.set_defaults(func=_cmd_table)

    se = sub.add_parser("selfcheck", help="run the brute-force oracle suites")
    se.set_defaults(func=_cmd_selfcheck)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except (InvalidParam, ConfigError, NotPrimePower, TooLarge) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return 3
    except IoError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 4
    except FqError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

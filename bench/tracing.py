"""Layer spans recorded from outside the package.

`install()` wraps fqmatroid's public entry points by rebinding module and
class attributes, in every fqmatroid module that binds the name, so no
file under src/ changes.  Each wrapped call records one span: name,
parent span, trial id, start and end (ns), and self time, which is the
span's duration minus the time its child spans cover.  Spans stay in
compact arrays in memory; `snapshot()` hands them out for writing at the
end of a run.

Field `mul`/`inv` are not wrapped: they are sub-microsecond calls, and a
wrapper would measure itself.  Their cost shows in the self time of the
engine `push` and of the matroid queries that call them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

MARK = "_bench_traced"

TRACKERS = ("track_first_circuit", "track_critical", "critical_trajectory",
            "kappa_trajectory")
CONNECTIVITY = ("vertical_connectivity", "vertical_separation_below",
                "is_vertically_k_connected", "cyclic_connectivity",
                "tutte_connectivity", "basis_complement_bound", "components",
                "is_vertically_2_connected")
FQMATRIX = ("__init__", "rank_of", "kernel_basis", "contract")
ENGINES = ("gf2", "prime", "generic")
PARTS = ("tau23", "fc2", "fc3", "noskip", "tau1", "identity", "twoconn",
         "monitor")

# every per-layer metric, in the order they are printed, with its unit
LAYER_METRICS = (
    [("fqlinalg.push.calls", "count"), ("fqlinalg.push.self_s", "s"),
     ("fqlinalg.push.us_p50", "us"), ("fqlinalg.push.us_p99", "us")]
    + [(f"fqlinalg.push.{e}.{k}", u) for e in ENGINES
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("fqlinalg.draw.calls", "count"), ("fqlinalg.draw.self_s", "s"),
       ("fqlinalg.enumerate_subspaces.calls", "count"),
       ("fqlinalg.enumerate_subspaces.handles", "count"),
       ("fqlinalg.enumerate_subspaces.self_s", "s"),
       ("fqlinalg.enumerate_subspaces.report_calls", "count"),
       ("setup.fqlinalg.enumerate_subspaces.calls", "count"),
       ("setup.fqlinalg.enumerate_subspaces.handles", "count"),
       ("setup.fqlinalg.enumerate_subspaces.self_s", "s"),
       ("fqlinalg.fqmatrix.calls", "count"), ("fqlinalg.fqmatrix.self_s", "s"),
       ("process.rng.calls", "count"), ("process.rng.self_s", "s"),
       ("process.step.calls", "count"), ("process.step.self_s", "s")]
    + [(f"process.{t}.{k}", u) for t in TRACKERS
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("matroid.connectivity.calls", "count"),
       ("matroid.connectivity.self_s", "s"),
       ("matroid.connectivity.ms_p50", "ms"),
       ("matroid.connectivity.ms_p99", "ms"),
       ("matroid.other.calls", "count"), ("matroid.other.self_s", "s"),
       ("theory.calls", "count"), ("theory.self_s", "s")]
    + [(f"montecarlo.trial.{p}.{k}", "ms") for p in PARTS
       for k in ("ms_p50", "ms_p99")]
    + [("montecarlo.report.self_s", "s"),
       ("montecarlo.orchestration.self_s", "s"),
       ("trace.overhead_frac", "ratio")])


class Recorder:
    """Open-span stack plus the finished spans of the current phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.self_ns = array("q")
        self.items = array("q")  # handles yielded, for generator spans
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.trial_id = -1
        self.trial_counters: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.trial.append(self.trial_id)
        self.t1.append(0)
        self.self_ns.append(0)
        self.items.append(0)
        self.stack.append([sid, 0])
        self.t0.append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        t = perf_counter_ns()
        covered = self.stack.pop()[1]
        dur = t - self.t0[sid]
        self.t1[sid] = t
        self.self_ns[sid] += dur - covered
        if self.stack:
            self.stack[-1][1] += dur

    def charge(self, sid: int, dur: int) -> None:
        """Add time spent outside the span's own call (lazy iteration)."""
        self.self_ns[sid] += dur
        if self.stack:
            self.stack[-1][1] += dur

    def snapshot(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.intc).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
                "trial": np.frombuffer(self.trial, dtype=np.int64).copy(),
                "t0_ns": np.frombuffer(self.t0, dtype=np.int64).copy(),
                "t1_ns": np.frombuffer(self.t1, dtype=np.int64).copy(),
                "self_ns": np.frombuffer(self.self_ns, dtype=np.int64).copy(),
                "items": np.frombuffer(self.items, dtype=np.int64).copy()}


class _TracedIter:
    """Charges each next() of a lazy result to the span that created it."""

    __slots__ = ("it", "rec", "sid")

    def __init__(self, it, rec: Recorder, sid: int):
        self.it, self.rec, self.sid = it, rec, sid

    def __iter__(self):
        return self

    def __next__(self):
        t = perf_counter_ns()
        try:
            item = next(self.it)
        finally:
            self.rec.charge(self.sid, perf_counter_ns() - t)
        self.rec.items[self.sid] += 1
        return item


def _wrap(rec: Recorder, name: str, fn, lazy: bool = False):
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        return _TracedIter(out, rec, sid) if lazy else out

    setattr(traced, MARK, True)
    return traced


def _wrap_push(rec: Recorder, fn):
    ids = {e: rec.name_id(f"fqlinalg.push.{e}:RrefState.push") for e in ENGINES}

    @functools.wraps(fn)
    def traced(self, column):
        sid = rec.open(ids[self.engine])
        try:
            return fn(self, column)
        finally:
            rec.close(sid)

    setattr(traced, MARK, True)
    return traced


def _wrap_trial(rec: Recorder, part_idx: int, name: str, fn):
    nid = rec.name_id(f"montecarlo.trial.{name}:{fn.__name__}")

    @functools.wraps(fn)
    def traced(res, rng):
        t = rec.trial_counters.get(part_idx, 0)
        rec.trial_counters[part_idx] = t + 1
        rec.trial_id = (part_idx << 32) | t
        sid = rec.open(nid)
        try:
            return fn(res, rng)
        finally:
            rec.close(sid)
            rec.trial_id = -1

    setattr(traced, MARK, True)
    return traced


def _wrap_run(rec: Recorder, fn):
    nid = rec.name_id("montecarlo.orchestration:run_experiment")

    @functools.wraps(fn)
    def traced(config):
        rec.trial_counters.clear()  # trial ids restart with every call
        sid = rec.open(nid)
        try:
            return fn(config)
        finally:
            rec.close(sid)

    setattr(traced, MARK, True)
    return traced


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fqmatroid" or name.startswith("fqmatroid."))]


def _targets():
    """(span name, original function) and (span name, class, attribute)."""
    from fqmatroid import matroid, montecarlo, process, theory
    from fqmatroid.fqlinalg import matrix, subspaces

    funcs = [("fqlinalg.draw", matrix.draw_native_column),
             ("fqlinalg.enumerate_subspaces", subspaces.enumerate_subspaces),
             ("process.rng", process.process_rng),
             ("matroid.other", matroid.pg_matrix),
             ("matroid.other", matroid.uniform_matroid_matrix)]
    funcs += [(f"process.{t}", getattr(process, t)) for t in TRACKERS]
    funcs += [("theory", obj) for name, obj in sorted(vars(theory).items())
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == theory.__name__
              and not isinstance(obj, type)]
    funcs.append(("montecarlo.orchestration", montecarlo.run_experiment))
    methods = [("fqlinalg.push", matrix.RrefState, "push"),
               ("process.step", process.ProcessState, "step")]
    methods += [("fqlinalg.fqmatrix", matrix.FqMatrix, a) for a in FQMATRIX]
    methods += [("matroid.connectivity", matroid.RepMatroid, a) for a in CONNECTIVITY]
    methods += [("matroid.other", matroid.RepMatroid, a)
                for a, obj in sorted(vars(matroid.RepMatroid).items())
                if not a.startswith("_") and callable(obj) and a not in CONNECTIVITY]
    return funcs, methods


def install() -> Recorder:
    """Wrap every target; returns the recorder the wrappers write to."""
    from fqmatroid import montecarlo

    rec = Recorder()
    funcs, methods = _targets()
    modules = _package_modules()
    for group, fn in funcs:
        name = f"{group}:{fn.__name__}"
        if fn is montecarlo.run_experiment:
            traced = _wrap_run(rec, fn)
        else:
            traced = _wrap(rec, name, fn,
                           lazy=group == "fqlinalg.enumerate_subspaces")
        for module in modules:
            for attr, val in list(vars(module).items()):
                if val is fn:
                    setattr(module, attr, traced)
    for group, cls, attr in methods:
        fn = vars(cls)[attr]
        if group == "fqlinalg.push":
            traced = _wrap_push(rec, fn)
        else:
            traced = _wrap(rec, f"{group}:{cls.__name__}.{attr}", fn)
        setattr(cls, attr, traced)
    for key, preset in list(montecarlo.PRESETS.items()):
        parts = tuple(dataclasses.replace(spec, fn=_wrap_trial(rec, i, spec.name, spec.fn))
                      for i, spec in enumerate(preset.parts))
        reporter = _wrap(rec, f"montecarlo.report:{preset.reporter.__name__}",
                         preset.reporter)
        montecarlo.PRESETS[key] = dataclasses.replace(preset, parts=parts,
                                                      reporter=reporter)
    return rec


def untraced_problems() -> list:
    """Every attribute install() would wrap, where it is not the original.

    In an untraced process each binding of a wrapped function must be the
    object its defining module holds, and none may carry the wrapper mark.
    """
    from fqmatroid import montecarlo

    problems = []
    funcs, methods = _targets()
    modules = _package_modules()
    for _, fn in funcs:
        for module in modules:
            val = vars(module).get(fn.__name__)
            # functools.wraps copies the qualified name, so a wrapper of
            # fn matches here and then fails the identity test
            same_name = (getattr(val, "__qualname__", None) == fn.__qualname__
                         and getattr(val, "__module__", None) == fn.__module__)
            if getattr(val, MARK, False) or (same_name and val is not fn):
                problems.append(f"{module.__name__}.{fn.__name__} is not the original")
    for _, cls, attr in methods:
        fn = vars(cls)[attr]
        if getattr(fn, MARK, False) or hasattr(fn, "__wrapped__"):
            problems.append(f"{cls.__name__}.{attr} is wrapped")
    for key, preset in montecarlo.PRESETS.items():
        for fn in [spec.fn for spec in preset.parts] + [preset.reporter]:
            if getattr(fn, MARK, False) or getattr(montecarlo, fn.__name__, None) is not fn:
                problems.append(f"preset {key}: {fn.__name__} is not the original")
    return problems


# ---- metrics from spans ----------------------------------------------------


def _groups(rec: Recorder, snap: dict) -> np.ndarray:
    table = np.array([n.split(":")[0] for n in rec.names] or [""], dtype=object)
    return table[snap["name"]] if len(snap["name"]) else np.array([], dtype=object)


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(rec: Recorder, snap: dict) -> dict:
    """Per-layer counts, self times and latency percentiles of one phase."""
    group = _groups(rec, snap)
    self_s = snap["self_ns"] / 1e9
    dur = (snap["t1_ns"] - snap["t0_ns"]).astype(np.float64)
    in_trial = snap["trial"] >= 0
    out: dict = {}

    def count_and_self(prefix: str, mask) -> None:
        out[f"{prefix}.calls"] = int(mask.sum())
        out[f"{prefix}.self_s"] = float(self_s[mask].sum())

    push = np.array([g.startswith("fqlinalg.push") for g in group], dtype=bool)
    count_and_self("fqlinalg.push", push)
    out["fqlinalg.push.us_p50"] = _pct(dur[push] / 1e3, 50)
    out["fqlinalg.push.us_p99"] = _pct(dur[push] / 1e3, 99)
    for e in ENGINES:
        count_and_self(f"fqlinalg.push.{e}", group == f"fqlinalg.push.{e}")
    count_and_self("fqlinalg.draw", group == "fqlinalg.draw")
    enum = group == "fqlinalg.enumerate_subspaces"
    count_and_self("fqlinalg.enumerate_subspaces", enum & in_trial)
    out["fqlinalg.enumerate_subspaces.handles"] = int(snap["items"][enum & in_trial].sum())
    out["fqlinalg.enumerate_subspaces.report_calls"] = int((enum & ~in_trial).sum())
    for prefix in ["fqlinalg.fqmatrix", "process.rng", "process.step",
                   "matroid.connectivity", "matroid.other", "theory"] + \
            [f"process.{t}" for t in TRACKERS]:
        count_and_self(prefix, group == prefix)
    conn = group == "matroid.connectivity"
    parent = snap["parent"]
    parent_conn = np.zeros(len(group), dtype=bool)
    has_parent = parent >= 0
    parent_conn[has_parent] = conn[parent[has_parent]]
    outer = conn & ~parent_conn  # one query as its caller sees it
    out["matroid.connectivity.ms_p50"] = _pct(dur[outer] / 1e6, 50)
    out["matroid.connectivity.ms_p99"] = _pct(dur[outer] / 1e6, 99)
    for p in PARTS:
        mask = group == f"montecarlo.trial.{p}"
        out[f"montecarlo.trial.{p}.ms_p50"] = _pct(dur[mask] / 1e6, 50)
        out[f"montecarlo.trial.{p}.ms_p99"] = _pct(dur[mask] / 1e6, 99)
        out[f"montecarlo.trial.{p}.n"] = int(mask.sum())
    out["montecarlo.report.self_s"] = float(self_s[group == "montecarlo.report"].sum())
    out["montecarlo.orchestration.self_s"] = float(
        self_s[group == "montecarlo.orchestration"].sum())
    return out


def setup_metrics(rec: Recorder, snap: dict) -> dict:
    group = _groups(rec, snap)
    enum = group == "fqlinalg.enumerate_subspaces"
    return {"setup.fqlinalg.enumerate_subspaces.calls": int(enum.sum()),
            "setup.fqlinalg.enumerate_subspaces.handles": int(snap["items"][enum].sum()),
            "setup.fqlinalg.enumerate_subspaces.self_s": float(
                snap["self_ns"][enum].sum() / 1e9)}

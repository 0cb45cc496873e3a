"""Orchestration determinism, aggregation arithmetic, and emission formats."""

import csv
import hashlib
import io
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fqmatroid import montecarlo as MC
from fqmatroid import theory as T
from fqmatroid.errors import BudgetExceeded, ConfigError, IoError
from fqmatroid.fqlinalg import make_field
from fqmatroid.matroid import RepMatroid
from fqmatroid.process import process_rng

GOLDEN = Path(__file__).parent / "data" / "golden_e1_tiny.json"
# sha256 of Aggregate.to_jsonable() for trial paths outside the benchmark's
# digests: E2's packed and fallback samplers, E3 off q = 2, E4 and E9's
# point draws (packed, gf2 past 62 rows, prime and extension fields),
# E6's Hamilton tracker, including its n <= 2 repeated-point branch, the
# whole-matrix samplers random_uniform_matrix and sample_pg_model through
# E8 and E11 at q = 2 and 3, and E10's critical-number trackers at q = 2
# (small n), 3 and 4, where tau_1crt often outruns track_critical's first
# window
AGGREGATE_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "aggregate_digests.json").read_text(encoding="utf-8"))


def tiny(preset, seed, trials, **kw):
    cfg = MC.ExperimentConfig(preset=preset, seed=seed, trials=trials, **kw)
    return MC.run_experiment(cfg)


# ---- determinism -------------------------------------------------------------


def test_e1_tiny_matches_golden_bytes():
    agg, report = tiny("E1", 777, 40)
    obj = MC.bundle(agg, report)
    obj.pop("runtime")
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert text == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(AGGREGATE_DIGESTS))
def test_aggregate_matches_pinned_digest(case):
    pin = AGGREGATE_DIGESTS[case]
    agg, _ = MC.run_experiment(MC.ExperimentConfig(**pin["config"]))
    text = json.dumps(agg.to_jsonable(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == pin["sha256"]


def test_rerun_identical_except_runtime():
    a = tiny("E9", 5150, 100)
    b = tiny("E9", 5150, 100)
    assert a[0].to_jsonable() == b[0].to_jsonable()
    assert a[1].to_jsonable(include_runtime=False) == b[1].to_jsonable(
        include_runtime=False)
    assert a[1].runtime["wall_seconds"] != 0.0
    c = tiny("E9", 5151, 100)
    assert c[0].to_jsonable() != a[0].to_jsonable()


def test_worker_count_does_not_change_results():
    serial_agg, serial_rep = tiny("E9", 4242, 1200)
    par_agg, par_rep = tiny("E9", 4242, 1200, workers=3)
    assert par_agg.to_jsonable() == serial_agg.to_jsonable()
    assert par_rep.to_jsonable(include_runtime=False) == serial_rep.to_jsonable(
        include_runtime=False)
    assert par_rep.runtime["workers"] == 3


@pytest.mark.parametrize("preset", sorted(MC.PRESETS))
def test_chunk_rekeys_one_generator_to_each_trials_stream(preset):
    # _run_chunk reuses one generator, rekeyed before each trial: the counters
    # equal those of a fresh process_rng per trial, so no trial reads a draw
    # an earlier one left buffered or drew ahead
    res = MC.ExperimentConfig(preset=preset, seed=2026).resolved()
    for idx, spec in enumerate(MC.PRESETS[preset].parts):
        part_res = {**res, **dict(spec.overrides)}
        want: dict = {}
        for t in range(3, 8):
            obs = spec.fn(part_res, process_rng(2026, idx * MC._PART_STRIDE + t))
            want.setdefault(f"{spec.name}.trials", Counter())[1] += 1
            for key, val in obs.items():
                want.setdefault(f"{spec.name}.{key}", Counter())[int(val)] += 1
        got = MC._run_chunk(preset, res, idx, 3, 8)
        assert list(got.items()) == list(want.items())


def test_part_override_streams_are_disjoint():
    # E5's two parts share trial indices but must draw distinct streams
    agg, _ = tiny("E5", 99, 2, n=12)
    assert agg.total("fc2.trials") == 2
    assert agg.total("fc3.trials") == 2
    assert set(agg.counters) >= {"fc2.tau", "fc2.length", "fc3.tau", "fc3.length"}


# ---- configuration ------------------------------------------------------------


def test_config_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="unknown preset"):
        MC.ExperimentConfig(preset="e99", seed=1).resolved()
    with pytest.raises(ConfigError, match="no parameter"):
        MC.ExperimentConfig(preset="E1", seed=1, params={"bogus": 3}).resolved()
    with pytest.raises(ConfigError, match="q=6"):
        MC.ExperimentConfig(preset="E1", seed=1, q=6).resolved()
    with pytest.raises(ConfigError, match="desk scale"):
        MC.ExperimentConfig(preset="E1", seed=1, n=1000).resolved()
    with pytest.raises(ConfigError, match="desk scale"):
        MC.ExperimentConfig(preset="E1", seed=1, trials=10 ** 8).resolved()
    with pytest.raises(ConfigError, match="positive integer"):
        MC.ExperimentConfig(preset="E1", seed=1, trials=0).resolved()
    with pytest.raises(ConfigError, match="workers"):
        MC.ExperimentConfig(preset="E1", seed=1, workers=0).resolved()
    with pytest.raises(ConfigError, match="format"):
        MC.ExperimentConfig(preset="E1", seed=1, fmt="yaml").resolved()
    with pytest.raises(ConfigError, match="budget"):
        MC.ExperimentConfig(preset="E6", seed=1,
                            params={"kernel_budget": 0}).resolved()
    for bad in ("abc", 2.5, True):
        with pytest.raises(ConfigError, match="must be of type int"):
            MC.ExperimentConfig(preset="E10", seed=1,
                                params={"crt_max_steps": bad}).resolved()
    for field in ("trials", "n", "q"):
        with pytest.raises(ConfigError, match="positive integer"):
            MC.ExperimentConfig(preset="E1", seed=1, **{field: True}).resolved()
    # keys ending in _n or _m are sizes too, and horizons and step caps
    for preset, key in (("E4", "count_n"), ("E4", "count_m"), ("E4", "prob_n"),
                        ("E4", "prob_m"), ("E8", "monitor_n"), ("E10", "noskip_n"),
                        ("E8", "monitor_horizon"), ("E10", "noskip_horizon"),
                        ("E10", "crt_max_steps"), ("E6", "max_steps")):
        for bad in (0, -3):
            with pytest.raises(ConfigError, match=f"{key} must be a positive integer"):
                MC.ExperimentConfig(preset=preset, seed=1, params={key: bad}).resolved()
    for bad in (True, -5, 1 << 64, 18446744073709551621, 2.0, "7"):
        with pytest.raises(ConfigError, match="seed"):
            MC.ExperimentConfig(preset="E1", seed=bad).resolved()
    for ok in (0, (1 << 64) - 1):
        assert MC.ExperimentConfig(preset="E1", seed=ok).resolved()["seed"] == ok


# every size parameter of a preset, by its desk-scale cap: row counts at
# 512, column counts (columns, horizons, step caps) at 10^5, trials at 10^7
SIZE_CAPS = {512: ("n", "r", "count_n", "prob_n", "monitor_n", "noskip_n"),
             10 ** 5: ("m", "b", "count_m", "prob_m", "monitor_horizon",
                       "noskip_horizon", "max_steps", "crt_max_steps"),
             10 ** 7: ("trials", "identity_trials", "monitor_trials", "noskip_trials")}


@pytest.mark.parametrize("preset", sorted(MC.PRESETS))
def test_every_size_parameter_is_capped(preset):
    caps = {key: cap for cap, keys in SIZE_CAPS.items() for key in keys}
    defaults = MC.PRESETS[preset].defaults
    sizes = [key for key, val in defaults.items() if type(val) is int
             and key not in ("q", "k") and not key.endswith("budget")]
    assert set(sizes) <= set(caps)  # a new size parameter needs its cap here
    assert sizes and all(1 <= defaults[key] <= caps[key] for key in sizes)
    for key in sizes:
        for bad in (0, -2, caps[key] + 1):
            with pytest.raises(ConfigError, match=f"^{key} "):
                MC.ExperimentConfig(preset=preset, seed=1, params={key: bad}).resolved()
    # every size at its cap at once, since a cap alone may break a preset's
    # own check (E11's m = 10^5 distinct points need n >= 17 at q = 2); E1's
    # m <= n holds its columns to the row cap
    top = {key: caps[key] for key in sizes}
    if preset == "E1":
        top["m"] = caps["n"]
    res = MC.ExperimentConfig(preset=preset, seed=1, params=top).resolved()
    assert all(res[key] == top[key] for key in sizes)


@pytest.mark.parametrize("kw,match", [
    ({"preset": "E3", "n": 1}, "n >= 2"),
    ({"preset": "E11", "n": 2, "params": {"m": 4}}, "m = 4 exceeds the 3 points"),
    ({"preset": "E11", "n": 1, "q": 3}, "m = 3 exceeds the 1 points"),
    ({"preset": "E4", "n": 5}, "no parameter 'n'"),
    ({"preset": "E9", "n": 5}, "no parameter 'n'"),
    ({"preset": "E9", "params": {"n": 5}}, "no parameter 'n'"),
    ({"preset": "E11", "n": 4, "params": {"m": 15}}, "more than 1000 draws"),
    ({"preset": "E11", "n": 5, "params": {"m": 31}}, "more than 1000 draws"),
    ({"preset": "E1", "n": 5}, "m <= n"),
], ids=["E3-n1", "E11-m4", "E11-n1", "E4-n", "E9-n", "E9-param-n",
        "E11-redraws-n4", "E11-redraws-n5", "E1-m-above-n"])
def test_config_refuses_sizes_no_trial_can_run(kw, match, monkeypatch):
    # E3's U_{2,3} minor needs two rows, E11 draws m distinct points of
    # PG(n-1, q) and its m1s part redraws until they are, and E1's full-rank
    # law needs m <= n; E4 and E9 read no n.  Each is refused before any trial.
    monkeypatch.setattr(MC, "_run_chunk", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(ConfigError, match=match):
        MC.run_experiment(MC.ExperimentConfig(seed=1, trials=2, **kw))


def test_config_takes_the_smallest_sizes_a_trial_can_run():
    assert MC.ExperimentConfig(preset="E3", seed=1, n=2).resolved()["n"] == 2
    res = MC.ExperimentConfig(preset="E11", seed=1, n=2, params={"m": 3}).resolved()
    assert (res["n"], res["m"]) == (2, 3)
    assert MC.ExperimentConfig(preset="E1", seed=1, n=16).resolved()["m"] == 16


def test_e11_redraw_rule_sits_at_its_bound():
    # 1/P, P = prod_{i<m} (q^n - 1 - i(q-1)) / q^n, the expected draws of an
    # m1s trial, computed exactly: the largest m it allows has 1/P <= 1000
    def draws(n, m, q):
        chance = Fraction(1)
        for i in range(m):
            chance *= Fraction(q ** n - 1 - i * (q - 1), q ** n)
        return 1 / chance

    for n, q in ((3, 2), (4, 2), (5, 2), (3, 3), (2, 5)):
        allowed = [m for m in range(1, T.q_int(n, q) + 1) if draws(n, m, q) <= 1000]
        top = max(allowed)
        MC.ExperimentConfig(preset="E11", seed=1, n=n, q=q, params={"m": top}).resolved()
        if top < T.q_int(n, q):
            with pytest.raises(ConfigError, match="more than 1000 draws"):
                MC.ExperimentConfig(preset="E11", seed=1, n=n, q=q,
                                    params={"m": top + 1}).resolved()


def test_e1_reports_the_frequency_of_rank_m():
    # at m < n the full-rank clause compares the frequency of rank m with
    # rank_full_prob(n, m, q), the chance of rank m
    agg, report = tiny("E1", 31, 200, n=6, params={"m": 4})
    assert report.empirical["full_rank_freq"] == agg.freq("rank.rank", 4) > 0


class ReadKeys(dict):
    """A config that records the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# (preset, key) of the defaults that nothing reads, each with its reason
UNREAD_DEFAULTS = {
    # both of E5's parts override q; bench/digests.json pins E5's report
    # config, so dropping it needs a benchmark change of its own
    ("E5", "q"),
}


@pytest.mark.parametrize("preset", sorted(MC.PRESETS))
def test_every_preset_default_is_read(preset):
    # read by the reporter, by _plan_chunks as a part's trials_key, or by a
    # part that does not override it; a default that nothing reads is a
    # setting that --param and --n accept and ignore
    spec = MC.PRESETS[preset]
    trials = {part.trials_key: 2 for part in spec.parts}
    config = MC.ExperimentConfig(preset=preset, seed=5, params=trials)
    res = config.resolved()
    read = set(trials)
    for idx, part in enumerate(spec.parts):
        view = ReadKeys({**res, **dict(part.overrides)})
        part.fn(view, process_rng(5, idx))
        read |= view.read - {key for key, _ in part.overrides}
    agg, _ = MC.run_experiment(config)
    view = ReadKeys(res)
    spec.reporter(view, agg)
    read |= view.read
    assert set(spec.defaults) - read == {key for p, key in UNREAD_DEFAULTS if p == preset}


def test_resolved_layers_overrides():
    res = MC.ExperimentConfig(preset="E1", seed=9, trials=7, n=20).resolved()
    assert (res["trials"], res["n"], res["m"], res["q"]) == (7, 20, 16, 2)
    assert res["preset"] == "E1" and res["seed"] == 9


def test_all_presets_resolve_with_tiny_trials():
    for name in MC.PRESETS:
        res = MC.ExperimentConfig(preset=name, seed=3, trials=2).resolved()
        for spec in MC.PRESETS[name].parts:
            assert spec.trials_key in res


def test_budget_error_carries_part_and_trial():
    with pytest.raises(BudgetExceeded, match=r"part ham, trial \d+"):
        tiny("E6", 88, 3, params={"kernel_budget": 1})


def test_e8_two_connectivity_probe_is_live(monkeypatch):
    # E8's answer comes from the union-find; one trial in 64 must still
    # cross-check it against the bipartition search
    search = RepMatroid.is_vertically_k_connected
    monkeypatch.setattr(RepMatroid, "is_vertically_k_connected",
                        lambda M, k: not search(M, k))
    res = MC.ExperimentConfig(preset="E8", seed=3).resolved()
    with pytest.raises(AssertionError, match="disagrees"):
        for t in range(2000):
            MC._t_two_connected(res, process_rng(3, t))


def test_single_trial_marks_insufficient():
    _, report = tiny("E9", 6, 1)
    assert report.insufficient
    # None verdicts are not failures
    assert all(c["passed"] is not False for c in report.checks)


# ---- aggregation arithmetic ------------------------------------------------------


def make_agg():
    agg = MC.Aggregate(preset="X")
    agg.merge_in({"p.x": Counter({1: 3}), "p.trials": Counter({1: 3})})
    agg.merge_in({"p.x": Counter({3: 1}), "p.trials": Counter({1: 1})})
    return agg


def test_aggregate_statistics():
    agg = make_agg()
    assert agg.total("p.x") == 4
    assert agg.pmf("p.x") == {1: 0.75, 3: 0.25}
    assert agg.mean("p.x") == 1.5
    assert agg.variance("p.x") == 1.0  # (3*(0.5)^2 + (1.5)^2) / 3
    assert MC._median(agg.counters["p.x"]) == 1.0
    assert agg.freq("p.x", 1) == 0.75
    agg.validate({"p": 4})
    with pytest.raises(ConfigError, match="trials aggregated"):
        agg.validate({"p": 5})


def test_aggregate_empty_keys():
    agg = MC.Aggregate(preset="X")
    assert agg.total("nope") == 0
    assert agg.pmf("nope") == {}
    assert math.isnan(agg.mean("nope"))
    assert math.isnan(agg.variance("nope"))
    assert math.isnan(MC._median(Counter()))


def test_check_helpers():
    chk = MC._freq_check("f", 0.52, 0.5, 0.05, 1000)
    assert chk["passed"] and abs(chk["z"]) < 2
    assert MC._freq_check("f", 0.0, 0.5, 0.01, 1)["passed"] is None
    assert not MC._bound_check("b", 1.2, hi=1.0)["passed"]
    assert MC._bound_check("b", 1.2, lo=1.0, hi=1.3)["passed"]
    assert MC._exact_check("e", 3, 3)["passed"]
    assert not MC._exact_check("e", 3, 4)["passed"]


def test_chi2_pooling():
    same = Counter({1: 500, 2: 500})
    assert MC._chi2_counters(same, Counter(same)) == 1.0
    assert MC._chi2_counters(Counter({1: 1000}), Counter({2: 1000})) < 1e-6
    # single pooled cell -> no test possible, neutral verdict
    assert MC._chi2_counters(Counter({5: 3}), Counter({5: 4})) == 1.0


# ---- emission -----------------------------------------------------------------


def test_emit_json_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    cfg = MC.ExperimentConfig(preset="E9", seed=21, trials=60,
                              out=str(out), fmt="json")
    agg, report = MC.run_experiment(cfg)
    obj = json.loads(out.read_text(encoding="utf-8"))
    assert obj["schema_version"] == MC.SCHEMA_VERSION
    assert obj["seed"] == 21
    assert obj["aggregate"] == agg.to_jsonable()
    assert obj["comparison"]["preset"] == "E9"
    assert "wall_seconds" in obj["runtime"]


def test_emit_csv_roundtrip(tmp_path):
    out = tmp_path / "r.csv"
    cfg = MC.ExperimentConfig(preset="E9", seed=21, trials=60,
                              out=str(out), fmt="csv")
    agg, _ = MC.run_experiment(cfg)
    text = out.read_text(encoding="utf-8")
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["section", "name", "key", "value"]
    seeds = [r for r in rows if r[:2] == ["meta", "seed"]]
    assert seeds == [["meta", "seed", "", "21"]]
    counts = {(r[1], r[2]): int(r[3]) for r in rows if r[0] == "aggregate"}
    assert counts[("cover.trials", "1")] == 60
    assert sum(v for (name, _), v in counts.items() if name == "cover.covered") == 60
    check_rows = [r for r in rows if r[0] == "check"]
    assert {r[1] for r in check_rows} == {"cover_freq",
                                          "miss_rate_within_poisson_bound"}


def test_emit_unwritable_path_raises_io():
    with pytest.raises(IoError):
        MC.emit({"schema_version": "1"}, "json", "/no-such-dir/x.json")


# ---- trial functions ----------------------------------------------------------


# the packed gf2 draw, prime and extension fields; n = 1 and 2 draw zero
# columns and many repeated points
@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_two_circuit_count_equals_the_pair_loop(q, n):
    zeros = 0
    for trial in range(25):
        res = {"q": q, "count_n": n, "count_m": 30}
        drawn = MC._uniform_points(make_field(q), n, 30, process_rng(68, trial))
        pts = [p for p in drawn if p is not None]
        pairs = sum(pts[i] == pts[j] for i in range(len(pts)) for j in range(i + 1, len(pts)))
        assert MC._t_two_circuit_count(res, process_rng(68, trial)) == {"two_circuits": pairs}
        zeros += len(drawn) - len(pts)
    assert zeros


def test_jsonable_handles_exact_and_infinite_values():
    from fractions import Fraction

    out = MC._jsonable({"a": Fraction(3, 8), "b": math.inf,
                        "c": [-math.inf, (1, 2)]})
    assert out == {"a": 0.375, "b": "inf", "c": ["-inf", [1, 2]]}

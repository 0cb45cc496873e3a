"""Orchestration determinism, aggregation arithmetic, and emission formats."""

import json
import math
from collections import Counter
from pathlib import Path

import pytest

from fqmatroid import montecarlo as MC
from fqmatroid.errors import BudgetExceeded, ConfigError, IoError

GOLDEN = Path(__file__).parent / "data" / "golden_e1_tiny.json"


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
    for bad in (True, -5, 1 << 64, 18446744073709551621, 2.0, "7"):
        with pytest.raises(ConfigError, match="seed"):
            MC.ExperimentConfig(preset="E1", seed=bad).resolved()
    for ok in (0, (1 << 64) - 1):
        assert MC.ExperimentConfig(preset="E1", seed=ok).resolved()["seed"] == ok


def test_resolved_layers_overrides():
    res = MC.ExperimentConfig(preset="E1", seed=9, trials=7, n=5).resolved()
    assert (res["trials"], res["n"], res["m"], res["q"]) == (7, 5, 16, 2)
    assert res["preset"] == "E1" and res["seed"] == 9


def test_all_presets_resolve_with_tiny_trials():
    for name in MC.PRESETS:
        res = MC.ExperimentConfig(preset=name, seed=3, trials=2).resolved()
        for spec in MC.PRESETS[name].parts:
            assert spec.trials_key in res


def test_budget_error_carries_part_and_trial():
    with pytest.raises(BudgetExceeded, match=r"part ham, trial \d+"):
        tiny("E6", 88, 3, params={"kernel_budget": 1})


def test_single_trial_marks_insufficient():
    _, report = tiny("E9", 6, 1)
    assert report.insufficient
    assert report.passed() is True  # None verdicts are not failures


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
    assert agg.median("p.x") == 1.0
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
    assert math.isnan(agg.median("nope"))


def test_compare_pmf_counter_and_float_inputs():
    out = MC.compare_pmf(Counter({0: 5, 1: 5}), {0: 0.5, 1: 0.5}, 0.01)
    assert out["passed"] and out["sup_distance"] == 0.0
    out = MC.compare_pmf({0: 1.0}, {1: 1.0}, 0.5)
    assert not out["passed"] and out["sup_distance"] == 1.0
    assert MC.compare_pmf(Counter(), {}, 0.1)["passed"]


def test_check_helpers():
    chk = MC._freq_check("f", 0.52, 0.5, 0.05, 1000)
    assert chk["passed"] and abs(chk["z"]) < 2
    assert MC._freq_check("f", 0.0, 0.5, 0.01, 1)["passed"] is None
    assert not MC._bound_check("b", 1.2, hi=1.0)["passed"]
    assert MC._bound_check("b", 1.2, lo=1.0, hi=1.3)["passed"]
    assert MC._exact_check("e", 3, 3)["passed"]
    assert not MC._exact_check("e", 3, 4)["passed"]


def test_report_passed_ignores_none():
    _, report = tiny("E9", 12, 50)
    report.checks = [{"passed": True}, {"passed": None}]
    assert report.passed()
    report.checks.append({"passed": False})
    assert not report.passed()


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
    rows = MC.parse_emitted_csv(text)
    seeds = [r for r in rows if r[:2] == ["meta", "seed"]]
    assert seeds == [["meta", "seed", "", "21"]]
    counts = {(r[1], r[2]): int(r[3]) for r in rows if r[0] == "aggregate"}
    assert counts[("cover.trials", "1")] == 60
    assert sum(v for (name, _), v in counts.items() if name == "cover.covered") == 60
    check_rows = [r for r in rows if r[0] == "check"]
    assert {r[1] for r in check_rows} == {"cover_freq",
                                          "miss_rate_within_poisson_bound"}


def test_parse_csv_rejects_wrong_header():
    with pytest.raises(IoError, match="header"):
        MC.parse_emitted_csv("a,b\n1,2\n")


def test_emit_unwritable_path_raises_io():
    with pytest.raises(IoError):
        MC.emit({"schema_version": "1"}, "json", "/no-such-dir/x.json")


def test_jsonable_handles_exact_and_infinite_values():
    from fractions import Fraction

    out = MC._jsonable({"a": Fraction(3, 8), "b": math.inf,
                        "c": [-math.inf, (1, 2)]})
    assert out == {"a": 0.375, "b": "inf", "c": ["-inf", [1, 2]]}

"""Exit codes, output formats, and artifact round-trips of the console tool."""

import json
import math

import pytest

from fqmatroid import theory
from fqmatroid.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def values_of(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines())


# ---- predict ----------------------------------------------------------------


def test_predict_bofa_at_the_minimum(capsys):
    rc, out, _ = run(capsys, "predict", "--what", "bofa", "--q", "2", "--a", "0.5")
    assert rc == 0
    assert abs(float(values_of(out)["bofa"]) - 1.0) < 1e-9


def test_predict_gbinom_text(capsys):
    rc, out, _ = run(capsys, "predict", "--what", "gbinom",
                     "--n", "4", "--k", "2", "--q", "2")
    assert rc == 0
    assert values_of(out) == {"gbinom": "35"}


def test_predict_cck(capsys):
    rc, out, _ = run(capsys, "predict", "--what", "cck",
                     "--q", "2", "--c", "1", "--k", "1")
    assert rc == 0
    assert abs(float(values_of(out)["cck"]) - 0.2887880950866024) < 1e-12


def test_predict_missing_flag_is_usage_error(capsys):
    rc, _, err = run(capsys, "predict", "--what", "bofa", "--q", "2")
    assert rc == 2
    assert "--a" in err


def test_predict_domain_error_is_usage_error(capsys):
    rc, _, err = run(capsys, "predict", "--what", "bofa", "--q", "2", "--a", "0.0")
    assert rc == 2
    assert "usage error" in err


def test_predict_json_payload(capsys, tmp_path):
    out_file = tmp_path / "p.json"
    rc, out, _ = run(capsys, "predict", "--what", "crt", "--q", "2", "--k", "1",
                     "--n", "10", "--m", "9", "--format", "json",
                     "--out", str(out_file))
    assert rc == 0
    payload = json.loads(out)
    assert payload == json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["schema_version"] == "1"
    assert payload["flags"]["what"] == "crt"
    assert abs(payload["values"]["crt_tau"] - 9.0) < 1e-9
    assert set(payload["values"]) == {"crt_tau", "crt_ex", "crt_pi_0", "crt_pi_1"}


def test_unknown_subcommand_and_choice(capsys):
    assert main(["bogus"]) == 2
    assert main([]) == 2
    assert main(["predict", "--what", "nonsense"]) == 2
    capsys.readouterr()


# ---- simulate ----------------------------------------------------------------


def test_simulate_writes_artifact_and_echoes_seed(capsys, tmp_path):
    art = tmp_path / "e9.json"
    rc, out, _ = run(capsys, "simulate", "--preset", "E9", "--trials", "50",
                     "--seed", "99", "--out", str(art))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "seed=99"
    assert lines[1] == f"out={art}"
    states = {ln.split()[1].rstrip(":"): ln.split()[-1]
              for ln in lines if ln.startswith("check ")}
    assert set(states) == {"cover_freq", "miss_rate_within_poisson_bound"}
    assert set(states.values()) <= {"PASS", "FAIL"}
    obj = json.loads(art.read_text(encoding="utf-8"))
    assert obj["seed"] == 99 and obj["config"]["b"] == 35


def test_simulate_default_artifact_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, "simulate", "--preset", "E9", "--trials", "20",
                     "--seed", "7", "--format", "csv")
    assert rc == 0
    assert (tmp_path / "fqmatroid_E9_7.csv").exists()
    assert "out=fqmatroid_E9_7.csv" in out


def test_simulate_param_override(capsys, tmp_path):
    art = tmp_path / "e9b.json"
    rc, _, _ = run(capsys, "simulate", "--preset", "E9", "--trials", "20",
                   "--seed", "7", "--param", "b=20", "--out", str(art))
    assert rc == 0
    assert json.loads(art.read_text(encoding="utf-8"))["config"]["b"] == 20


def test_simulate_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "simulate", "--preset", "E9", "--trials", "0",
                     "--seed", "1", "--out", str(tmp_path / "x.json"))
    assert rc == 2 and "trials" in err
    rc, _, err = run(capsys, "simulate", "--preset", "Z9", "--seed", "1")
    assert rc == 2 and "unknown preset" in err
    rc, _, err = run(capsys, "simulate", "--preset", "E9", "--trials", "5",
                     "--seed", "1", "--param", "oops",
                     "--out", str(tmp_path / "y.json"))
    assert rc == 2 and "key=value" in err


def test_simulate_seed_outside_domain_is_usage_error(capsys, tmp_path):
    for seed in ("18446744073709551621", "18446744073709551616", "-5"):
        out = tmp_path / "s.json"
        rc, _, err = run(capsys, "simulate", "--preset", "E9", "--trials", "2",
                         "--seed", seed, "--out", str(out))
        assert rc == 2
        assert "seed" in err and "Traceback" not in err
        assert not out.exists()


def test_simulate_param_of_wrong_type_is_usage_error(capsys, tmp_path):
    rc, _, err = run(capsys, "simulate", "--preset", "E10", "--trials", "2",
                     "--seed", "1", "--param", "crt_max_steps=abc",
                     "--out", str(tmp_path / "z.json"))
    assert rc == 2
    assert "crt_max_steps" in err and "Traceback" not in err
    assert not (tmp_path / "z.json").exists()


def test_simulate_budget_env_gives_exit_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("FQMATROID_BUDGET", "1")
    rc, _, err = run(capsys, "simulate", "--preset", "E6", "--trials", "2",
                     "--seed", "5", "--out", str(tmp_path / "b.json"))
    assert rc == 3
    assert "budget exhausted" in err and "part ham" in err


def test_simulate_unwritable_out_gives_exit_4(capsys):
    rc, _, err = run(capsys, "simulate", "--preset", "E9", "--trials", "5",
                     "--seed", "5", "--out", "/no-such-dir/a.json")
    assert rc == 4
    assert "io error" in err


# ---- compare -------------------------------------------------------------------


def make_artifact(capsys, tmp_path, seed=31):
    art = tmp_path / "art.json"
    rc, _, _ = run(capsys, "simulate", "--preset", "E9", "--trials", "80",
                   "--seed", str(seed), "--out", str(art))
    assert rc == 0
    return art


def test_compare_reproduces_stored_verdicts(capsys, tmp_path):
    art = make_artifact(capsys, tmp_path)
    rc, out, _ = run(capsys, "compare", "--in", str(art))
    assert rc == 0
    assert "seed=31" in out
    assert "MISMATCH" not in out


def test_compare_flags_tampered_artifact(capsys, tmp_path):
    art = make_artifact(capsys, tmp_path)
    obj = json.loads(art.read_text(encoding="utf-8"))
    obj["comparison"]["checks"][0]["passed"] = (
        not obj["comparison"]["checks"][0]["passed"])
    art.write_text(json.dumps(obj), encoding="utf-8")
    rc, out, _ = run(capsys, "compare", "--in", str(art))
    assert rc == 1
    assert "MISMATCH" in out


def test_compare_input_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "compare", "--in", str(tmp_path / "absent.json"))
    assert rc == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc, _, err = run(capsys, "compare", "--in", str(bad))
    assert rc == 2 and "not a json artifact" in err
    art = make_artifact(capsys, tmp_path)
    obj = json.loads(art.read_text(encoding="utf-8"))
    obj["schema_version"] = "999"
    art.write_text(json.dumps(obj), encoding="utf-8")
    rc, _, err = run(capsys, "compare", "--in", str(art))
    assert rc == 2 and "schema_version" in err


def test_compare_malformed_artifact_is_usage_error(capsys, tmp_path):
    art = tmp_path / "partial.json"
    good = json.loads(make_artifact(capsys, tmp_path).read_text(encoding="utf-8"))
    no_n = json.loads(json.dumps(good))
    del no_n["config"]["n"]
    no_agg = {k: v for k, v in good.items() if k != "aggregate"}
    bad_count = json.loads(json.dumps(good))
    bad_count["aggregate"]["cover.covered"] = {"one": 3}
    bad_check = json.loads(json.dumps(good))
    bad_check["comparison"]["checks"] = [1]
    for obj, msg in (({"schema_version": "1", "preset": "E1"}, "config"),
                     ([1, 2], "schema_version"),
                     (no_n, "lacks n"),
                     (no_agg, "aggregate"),
                     (bad_count, "aggregate"),
                     (bad_check, "checks")):
        art.write_text(json.dumps(obj), encoding="utf-8")
        rc, _, err = run(capsys, "compare", "--in", str(art))
        assert rc == 2 and msg in err and "Traceback" not in err


# ---- table ----------------------------------------------------------------------


def table_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header, rows = lines[0], lines[1:]
    return header.split(","), [ln.split(",") for ln in rows]


def test_table_bofa_grid(capsys):
    rc, out, _ = run(capsys, "table", "--what", "bofa", "--q", "2",
                     "--steps", "9", "--a-min", "0.1", "--a-max", "0.9")
    assert rc == 0
    assert out.startswith("# schema_version=1\n")
    header, rows = table_rows(out)
    assert header == ["a", "b", "bprime"] and len(rows) == 9
    bs = [float(r[1]) for r in rows]
    assert bs[4] == min(bs)  # the grid midpoint is a* = 1/2
    assert abs(bs[4] - 1.0) < 1e-9
    assert abs(float(rows[4][2])) < 1e-4  # derivative vanishes there


def test_table_bounds_pointwise_order(capsys):
    rc, out, _ = run(capsys, "table", "--what", "bounds", "--q", "3",
                     "--steps", "7")
    assert rc == 0
    header, rows = table_rows(out)
    assert header == ["t", "lb_alpha", "ko_upper"] and len(rows) == 7
    for r in rows:
        assert float(r[1]) <= float(r[2]) == pytest.approx(theory.ko_alpha_bound(3))


def test_table_cck_column(capsys):
    rc, out, _ = run(capsys, "table", "--what", "cck", "--q", "2", "--c", "2")
    assert rc == 0
    header, rows = table_rows(out)
    assert header == ["k", "cck"]
    assert [int(r[0]) for r in rows] == list(range(-20, 3))
    got = {int(r[0]): float(r[1]) for r in rows}
    assert math.isclose(got[2], theory.gamma_qc(2, 2), rel_tol=1e-9)
    assert sum(got.values()) == pytest.approx(1.0, abs=1e-6)


def test_table_usage_errors(capsys):
    rc, _, err = run(capsys, "table", "--what", "bofa", "--steps", "0")
    assert rc == 2 and "empty grid" in err
    rc, _, err = run(capsys, "table", "--what", "bofa", "--a-min", "0.0")
    assert rc == 2 and "grid" in err
    rc, _, err = run(capsys, "table", "--what", "cck")
    assert rc == 2 and "--c" in err


def test_table_out_io_error(capsys):
    rc, _, err = run(capsys, "table", "--what", "cck", "--c", "1",
                     "--out", "/no-such-dir/t.csv")
    assert rc == 4 and "io error" in err


# ---- selfcheck --------------------------------------------------------------------


def test_selfcheck_passes_clean(capsys):
    rc, out, _ = run(capsys, "selfcheck")
    assert rc == 0
    assert "selfcheck: pass" in out
    for name in ("field_axioms", "subspace_counts", "rank_law_enumeration",
                 "connectivity_identities", "dp_vs_limit"):
        assert f"{name}: pass" in out


def test_selfcheck_detects_seeded_corruption(capsys, monkeypatch):
    monkeypatch.setenv("FQMATROID_SELFCHECK_CORRUPT", "4")
    rc, out, _ = run(capsys, "selfcheck")
    assert rc == 1
    assert "field_axioms: FAIL" in out
    assert "selfcheck: FAIL" in out

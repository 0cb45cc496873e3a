"""Exit codes, output formats, and artifact round-trips of the console tool."""

import contextlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fqmatroid import cli, montecarlo, theory
from fqmatroid.cli import _PREDICTORS, main


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def values_of(out):
    return dict(line.split("=", 1) for line in out.strip().splitlines())


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in a call that runs past `seconds`, so a slow
    input fails its test instead of stalling the run."""
    def out_of_time(signum, frame):
        raise TimeoutError(f"the call ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def test_predict_kcirc(capsys):
    rc, out, _ = run(capsys, "predict", "--what", "kcirc",
                     "--m", "4", "--k", "2", "--q", "2", "--n", "3")
    assert rc == 0
    assert abs(float(values_of(out)["kcirc"]) - 21 / 32) < 1e-12


def test_predict_missing_flag_is_usage_error(capsys):
    rc, _, err = run(capsys, "predict", "--what", "bofa", "--q", "2")
    assert rc == 2
    assert "--a" in err


def test_predict_domain_error_is_usage_error(capsys):
    rc, _, err = run(capsys, "predict", "--what", "bofa", "--q", "2", "--a", "0.0")
    assert rc == 2
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ("--what", "gbinom", "--n", "300", "--k", "150", "--q", "2"),
    ("--what", "qint", "--n", "20000", "--q", "2"),
    ("--what", "qint", "--n", "14285", "--q", "2"),  # 2^14285 - 1: 4301 digits
    ("--what", "gbinom", "--n", "100000", "--k", "50000", "--q", "65536"),
    # values past the float range, and cck past its size bound
    ("--what", "bofa", "--q", "3", "--a", "0.001"),
    ("--what", "bprime", "--q", "2", "--a", "0.0009"),
    ("--what", "mu", "--q", "2", "--n", "0", "--m", "1032", "--k", "486"),
    ("--what", "kcirc", "--q", "2", "--n", "5000", "--m", "10000", "--k", "5000"),
    ("--what", "crt", "--q", "4", "--n", "539", "--m", "0", "--k", "538"),
    ("--what", "crt", "--q", "2", "--n", "66", "--m", "0", "--k", "25"),
    ("--what", "cck", "--q", "9973", "--c", "10000", "--k", "-5"),
])
def test_predict_refuses_values_past_the_digit_limit(capsys, argv):
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "predict", *argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert "usage error" in err and "Traceback" not in err


def test_predict_prints_values_up_to_the_digit_limit(capsys):
    rc, out, _ = run(capsys, "predict", "--what", "qint", "--n", "14284", "--q", "2")
    assert rc == 0
    assert values_of(out)["qint"] == str(2 ** 14284 - 1)


@pytest.mark.parametrize("n, k, q, want", [
    (10000, 10000, 9973, "1"),
    (10000, 0, 9973, "1"),
    (1000, 999, 2, str(2 ** 1000 - 1)),
])
def test_predict_gbinom_at_the_edges_of_k_is_fast(capsys, n, k, q, want):
    # k(n - k) is small, so the digit limit passes these; the product of
    # k factors at k = n took minutes before it cancelled to 1
    t0 = time.perf_counter()
    with time_limit(1.0):
        rc, out, _ = run(capsys, "predict", "--what", "gbinom",
                         "--n", str(n), "--k", str(k), "--q", str(q))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    assert values_of(out) == {"gbinom": want}


def test_predict_rankfull_at_a_billion_columns(capsys):
    # the float product skips its leading factors, so m = 10^9 takes
    # about 70 of them; the value is prod_{i>=1} (1 - 2^-i)
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "predict", "--what", "rankfull",
                     "--n", "1000000000", "--m", "1000000000", "--q", "2")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    assert abs(float(values_of(out)["rankfull"]) - 0.28878809508660242) < 1e-15


@pytest.mark.parametrize("argv", [
    ("predict", "--what", "gamma", "--q", "1", "--c", "1"),
    ("predict", "--what", "cck", "--q", "1", "--c", "1", "--k", "0"),
    ("table", "--what", "cck", "--q", "1", "--c", "1"),
    ("predict", "--what", "gbinom", "--n", "4", "--k", "2", "--q", "1"),
    ("predict", "--what", "bofa", "--q", "1", "--a", "0.5"),
    ("table", "--what", "bofa", "--q", "1"),
    ("table", "--what", "bounds", "--q", "1"),
    ("table", "--what", "bounds", "--q", "0"),
    ("predict", "--what", "gbinom", "--n", "4", "--k", "2", "--q", "6"),
    ("predict", "--what", "qint", "--n", "3", "--q", "131071"),
    ("predict", "--what", "qint", "--n", "-3", "--q", "2"),
    ("predict", "--what", "gbinom", "--n", "4", "--k", "-1", "--q", "2"),
    ("predict", "--what", "rankfull", "--n", "3", "--m", "-1", "--q", "2"),
    ("predict", "--what", "nocirc", "--m", "5", "--k", "-1", "--q", "2", "--n", "3"),
])
def test_predict_and_table_refuse_bad_q_and_negative_sizes(capsys, argv):
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert "usage error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("predict", "--what", "nocirc", "--m", "0", "--k", "1", "--q", "2", "--n", "3"),
    ("predict", "--what", "nocirc", "--m", "5", "--k", "0", "--q", "2", "--n", "3"),
    ("predict", "--what", "nocirc", "--m", "3", "--k", "4", "--q", "2", "--n", "3"),
    ("simulate", "--preset", "E4", "--param", "prob_m=0", "--seed", "1"),
    ("simulate", "--preset", "E4", "--param", "count_n=-2", "--seed", "1"),
    ("simulate", "--preset", "E4", "--param", "k=0", "--trials", "20000", "--seed", "1"),
    ("simulate", "--preset", "E4", "--param", "k=41", "--trials", "20000", "--seed", "1"),
    ("simulate", "--preset", "E8", "--param", "monitor_n=0", "--seed", "1"),
    ("simulate", "--preset", "E10", "--param", "noskip_n=0", "--seed", "1"),
    ("simulate", "--preset", "E8", "--param", "monitor_horizon=-3", "--seed", "1"),
    ("simulate", "--preset", "E10", "--param", "noskip_horizon=-2", "--seed", "1"),
    ("simulate", "--preset", "E10", "--param", "crt_max_steps=0", "--seed", "1"),
    ("simulate", "--preset", "E6", "--param", "max_steps=-4", "--seed", "1"),
    # E9's row count r and column count b
    ("simulate", "--preset", "E9", "--trials", "1", "--seed", "1", "--param", "b=1000000000000"),
    ("simulate", "--preset", "E9", "--trials", "1", "--seed", "1", "--param", "b=-5"),
    ("simulate", "--preset", "E9", "--trials", "1", "--seed", "1", "--param", "r=-2"),
    ("simulate", "--preset", "E9", "--trials", "1", "--seed", "1", "--param", "r=100000"),
    # E4 and E9 have no n, and E11 draws m distinct points of PG(1, 2), which has 3
    ("simulate", "--preset", "E4", "--n", "5", "--seed", "1"),
    ("simulate", "--preset", "E9", "--n", "3", "--seed", "1"),
    ("simulate", "--preset", "E11", "--n", "2", "--param", "m=4", "--seed", "1"),
    # E11's m1s part would redraw about 880,000 times per trial, and E1's
    # full-rank law needs m <= n
    ("simulate", "--preset", "E11", "--n", "4", "--param", "m=15", "--seed", "1"),
    ("simulate", "--preset", "E1", "--n", "5", "--seed", "1"),
])
def test_sizes_outside_their_domain_are_usage_errors(capsys, argv):
    # simulate refuses in configuration, before any trial runs
    t0 = time.perf_counter()
    with time_limit(2.0):
        rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert "usage error" in err and "Traceback" not in err


def test_e9_bins_past_the_float_range_are_a_usage_error(capsys, tmp_path):
    # [512]_5 passes the float range, so the reporter's Poisson bound refuses
    rc, out, err = run(capsys, "simulate", "--preset", "E9", "--q", "5", "--trials", "1",
                       "--seed", "1", "--param", "r=512", "--out", str(tmp_path / "e9.json"))
    assert rc == 2 and out == ""
    assert "usage error" in err and "float range" in err and "Traceback" not in err


def test_predict_rejects_the_unread_r_option(capsys):
    rc, out, err = run(capsys, "predict", "--what", "qint", "--n", "3", "--q", "2", "--r", "5")
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --r 5" in err and "Traceback" not in err


# per --what: its flags, the keys it prints, and the direct theory values
PREDICT_CASES = {
    "bofa": ({"q": 3, "a": 0.5}, lambda: {"bofa": theory.b_of_a(3, 0.5)}),
    "bprime": ({"q": 2, "a": 0.3}, lambda: {"bprime": theory.b_prime(2, 0.3)}),
    "gbinom": ({"n": 6, "k": 3, "q": 4},
               lambda: {"gbinom": theory.gaussian_binomial(6, 3, 4)}),
    "qint": ({"n": 7, "q": 3}, lambda: {"qint": theory.q_int(7, 3)}),
    "cck": ({"q": 2, "c": 1, "k": -2}, lambda: {"cck": theory.limit_Cck(2, 1, -2)}),
    "gamma": ({"q": 3, "c": 2}, lambda: {"gamma": theory.gamma_qc(3, 2)}),
    "rankfull": ({"n": 12, "m": 10, "q": 2},
                 lambda: {"rankfull": float(theory.rank_full_prob(12, 10, 2))}),
    "mu": ({"m": 40, "k": 3, "q": 2, "n": 20}, lambda: {"mu": theory.mu_k(40, 3, 2, 20)}),
    "kcirc": ({"m": 40, "k": 3, "q": 2, "n": 20},
              lambda: {"kcirc": theory.expected_k_circuits(40, 3, 2, 20)}),
    "nocirc": ({"m": 40, "k": 2, "q": 3, "n": 10},
               lambda: {"nocirc": theory.no_kcircuit_prob_approx(40, 2, 3, 10)}),
    "tauconn": ({"q": 2, "k": 3, "n": 50},
                lambda: {"tauconn": theory.tau_conn_asymptotic(2, 3, 50)}),
    "koalpha": ({"q": 5}, lambda: {"koalpha": theory.ko_alpha_bound(5)}),
    "connlimit": ({"q": 2, "k": 2, "a": 0.7},
                  lambda: {"connlimit": theory.conn_limit_prob(2, 2, 0.7)}),
    "crt": ({"q": 2, "k": 2, "n": 10, "m": 30}, lambda: _crt_values(2, 2, 10, 30)),
}


def _crt_values(q, k, n, m):
    tau, ex, pi = theory.crt_predictors(q, k, n, m)
    assert len(pi) == k + 1  # pi_h for h = 0..k
    return {"crt_tau": tau, "crt_ex": ex, **{f"crt_pi_{h}": pi[h] for h in range(k + 1)}}


@pytest.mark.parametrize("what", sorted(_PREDICTORS))
def test_predict_prints_the_theory_values(capsys, what):
    flags, direct = PREDICT_CASES[what]
    want = direct()
    argv = ["predict", "--what", what] + [x for f, v in flags.items() for x in (f"--{f}", str(v))]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and list(values_of(out)) == list(want)
    assert values_of(out) == {k: str(v) for k, v in want.items()}
    rc, out, _ = run(capsys, *argv, "--format", "json")
    assert rc == 0 and json.loads(out)["values"] == want


def test_predict_cck_accepts_a_negative_offset(capsys):
    rc, out, _ = run(capsys, "predict", "--what", "cck", "--q", "2", "--c", "1", "--k", "-3")
    assert rc == 0
    assert float(values_of(out)["cck"]) == theory.limit_Cck(2, 1, -3)


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


def test_simulate_tuple_param(capsys, tmp_path):
    art = tmp_path / "e5.json"
    rc, _, _ = run(capsys, "simulate", "--preset", "E5", "--trials", "10", "--n", "20",
                   "--seed", "1", "--param", "band2=0.4,0.6", "--out", str(art))
    assert rc == 0
    assert json.loads(art.read_text(encoding="utf-8"))["config"]["band2"] == [0.4, 0.6]


@pytest.mark.parametrize("value", ["0.4", "a,b", "0.4,0.5,0.6"])
def test_simulate_tuple_param_of_wrong_shape_is_usage_error(capsys, tmp_path, value):
    art = tmp_path / "e5.json"
    rc, _, err = run(capsys, "simulate", "--preset", "E5", "--trials", "10", "--n", "20",
                     "--seed", "1", "--param", f"band2={value}", "--out", str(art))
    assert rc == 2
    assert "band2" in err and "Traceback" not in err
    assert not art.exists()


@pytest.mark.parametrize("key, value", [("seed", "7"), ("preset", "E1")])
def test_simulate_param_cannot_replace_seed_or_preset(capsys, tmp_path, key, value):
    # --seed and --preset set these; a --param of either would run or
    # label another experiment than the one the command printed
    art = tmp_path / "e9.json"
    rc, out, err = run(capsys, "simulate", "--preset", "E9", "--seed", "5",
                       "--trials", "50", "--param", f"{key}={value}", "--out", str(art))
    assert rc == 2
    assert repr(key) in err and "Traceback" not in err
    assert out == "" and not art.exists()


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


def test_simulate_e10_past_the_level_2_budget(capsys, tmp_path):
    # at n = 12 level 2 holds 2,794,155 spaces; tau_1crt reads only level 1
    out = tmp_path / "e10.json"
    rc, _, err = run(capsys, "simulate", "--preset", "E10", "--n", "12", "--trials", "5",
                     "--param", "noskip_trials=3", "--seed", "7", "--out", str(out))
    assert rc == 0, err
    hist = json.loads(out.read_text())["aggregate"]["tau1.tau1crt"]
    assert sum(hist.values()) == 5


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


@pytest.mark.parametrize("seed", [1, 2])
def test_simulate_e8_past_the_partition_budget_refuses_at_trial_0(capsys, tmp_path, seed):
    # the twoconn probe's bipartition search is budgeted, so m = 30 must
    # refuse before the first trial draws, whatever the seed
    rc, _, err = run(capsys, "simulate", "--preset", "E8", "--trials", "40",
                     "--param", "m=30", "--param", "identity_trials=5",
                     "--param", "monitor_trials=1", "--seed", str(seed),
                     "--out", str(tmp_path / "e8.json"))
    assert rc == 3
    assert "budget exhausted: part twoconn, trial 0:" in err
    assert "partition budget 22" in err
    assert not (tmp_path / "e8.json").exists()


def test_simulate_e8_monitor_past_its_horizon_budget_refuses_at_trial_0(capsys, tmp_path):
    # the monitor's last search splits monitor_horizon columns, so a
    # horizon above the default 24 must refuse before its first draw
    t0 = time.perf_counter()
    rc, _, err = run(capsys, "simulate", "--preset", "E8", "--trials", "2",
                     "--param", "monitor_horizon=40", "--param", "identity_trials=2",
                     "--param", "monitor_trials=1", "--seed", "1",
                     "--out", str(tmp_path / "e8.json"))
    assert time.perf_counter() - t0 < 5.0
    assert rc == 3
    assert "budget exhausted: part monitor, trial 0:" in err
    assert "horizon 40 exceeds partition budget 24" in err
    assert not (tmp_path / "e8.json").exists()


def test_simulate_e11_past_the_point_budget_refuses_before_listing(capsys, tmp_path):
    # [24]_2 = 16,777,215 projective points would be listed per trial
    t0 = time.perf_counter()
    rc, _, err = run(capsys, "simulate", "--preset", "E11", "--n", "24",
                     "--trials", "2", "--seed", "1", "--out", str(tmp_path / "e11.json"))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3
    assert "budget exhausted: part m2, trial 0:" in err
    assert "16777215 projective points exceed budget 1000000" in err
    assert "Traceback" not in err
    assert not (tmp_path / "e11.json").exists()


def run_in_process_group(argv, timeout):
    """(exit code, stderr) of the console tool in a process of its own,
    whose whole group, pool workers included, is killed past `timeout`."""
    code = "import sys; from fqmatroid.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    child = subprocess.Popen([sys.executable, "-c", code, *argv], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             start_new_session=True)
    try:
        _, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail(f"{argv} ran past {timeout} s")
    return child.returncode, err


def test_simulate_e11_past_its_points_refuses_with_workers(tmp_path):
    # m = 4 distinct points of PG(1, 2), which has 3, is refused before the
    # pool starts; a worker would look for them forever
    out = tmp_path / "e11.json"
    rc, err = run_in_process_group(
        ["simulate", "--preset", "E11", "--n", "2", "--param", "m=4", "--trials", "2",
         "--seed", "1", "--workers", "2", "--out", str(out)], timeout=60)
    assert rc == 2 and "m = 4 exceeds the 3 points" in err
    assert "Traceback" not in err and not out.exists()


def test_simulate_unwritable_out_gives_exit_4(capsys):
    rc, _, err = run(capsys, "simulate", "--preset", "E9", "--trials", "5",
                     "--seed", "5", "--out", "/no-such-dir/a.json")
    assert rc == 4
    assert "io error" in err


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_simulate_budget_env_that_is_no_integer_is_usage_error(capsys, tmp_path,
                                                               monkeypatch, value):
    monkeypatch.setenv("FQMATROID_BUDGET", value)
    rc, _, err = run(capsys, "simulate", "--preset", "E6", "--trials", "3",
                     "--seed", "1", "--out", str(tmp_path / "e6.json"))
    assert rc == 2
    assert "FQMATROID_BUDGET" in err and "Traceback" not in err
    assert not (tmp_path / "e6.json").exists()


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
    no_b = json.loads(json.dumps(good))
    del no_b["config"]["b"]
    # a key the preset does not have
    with_n = json.loads(json.dumps(good))
    with_n["config"]["n"] = 3
    no_agg = {k: v for k, v in good.items() if k != "aggregate"}
    bad_count = json.loads(json.dumps(good))
    bad_count["aggregate"]["cover.covered"] = {"one": 3}
    bad_check = json.loads(json.dumps(good))
    bad_check["comparison"]["checks"] = [1]
    for obj, msg in (({"schema_version": "1", "preset": "E1"}, "config"),
                     ([1, 2], "schema_version"),
                     (no_b, "lacks b"),
                     (with_n, "no parameter 'n'"),
                     (no_agg, "aggregate"),
                     (bad_count, "aggregate"),
                     (bad_check, "checks")):
        art.write_text(json.dumps(obj), encoding="utf-8")
        rc, _, err = run(capsys, "compare", "--in", str(art))
        assert rc == 2 and msg in err and "Traceback" not in err


def test_compare_stored_config_of_the_wrong_type_is_usage_error(capsys, tmp_path):
    arts = {}
    for preset in ("E4", "E5"):
        arts[preset] = tmp_path / f"{preset}.json"
        rc, _, _ = run(capsys, "simulate", "--preset", preset, "--trials", "20",
                       "--seed", "3", "--out", str(arts[preset]))
        assert rc == 0
    rc, out, _ = run(capsys, "compare", "--in", str(arts["E5"]))
    assert rc == 0 and "MISMATCH" not in out
    good = {p: json.loads(a.read_text(encoding="utf-8")) for p, a in arts.items()}
    for preset, key, value in (("E4", "k", "x"), ("E5", "band2", "ab"),
                               ("E5", "band2", [0.45])):
        obj = json.loads(json.dumps(good[preset]))
        obj["config"][key] = value
        art = tmp_path / "bad.json"
        art.write_text(json.dumps(obj), encoding="utf-8")
        rc, _, err = run(capsys, "compare", "--in", str(art))
        assert rc == 2 and repr(key) in err and "Traceback" not in err


# ---- table ----------------------------------------------------------------------


def table_rows(out):
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    header, rows = lines[0], lines[1:]
    return header.split(","), [ln.split(",") for ln in rows]


def test_table_bofa_default_grid_at_q3(capsys):
    # its first root, b(3, 0.01) ~ 9.5e44, cancelled to a ZeroDivisionError
    rc, out, _ = run(capsys, "table", "--what", "bofa", "--q", "3")
    assert rc == 0
    header, rows = table_rows(out)
    assert len(rows) == 100
    assert abs(float(rows[0][1]) / 9.4798397159607664e44 - 1) < 1e-9


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


class _CorruptField:
    """A field whose multiplication table has one wrong entry, 1 * 1 = 0."""

    def __init__(self, inner):
        self._inner = inner
        self.q = inner.q

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def mul(self, a, b):
        return 0 if a == b == 1 else self._inner.mul(a, b)


def test_selfcheck_detects_seeded_corruption(capsys, monkeypatch):
    make_field = cli.make_field
    monkeypatch.setattr(cli, "make_field",
                        lambda q: _CorruptField(make_field(q)) if q == 4 else make_field(q))
    rc, out, _ = run(capsys, "selfcheck")
    assert rc == 1
    assert "field_axioms: FAIL" in out
    assert "selfcheck: FAIL" in out


# ---- fuzz -------------------------------------------------------------------

_INTS = st.integers(-5, 10 ** 4)
# valid field orders are rare among the integers, so draw them often too
_QS = _INTS | st.sampled_from((2, 3, 4, 5, 9973))
_FLOATS = st.floats(-2, 2) | st.just(math.nan)


def _flags(**strategies):
    """argv fragments: each flag absent or given a drawn value."""
    return st.tuples(*(st.none() | s.map(lambda v, f=f: [f"--{f}", str(v)])
                       for f, s in strategies.items())).map(
        lambda parts: [x for p in parts if p for x in p])


def _run_bounded(argv):
    """Exit code of one in-process call, which must end documented and fast."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with time_limit(2.0), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert time.perf_counter() - t0 < 2.0, argv
    assert rc in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
    return rc


@given(st.sampled_from(sorted(_PREDICTORS)),
       _flags(q=_QS, n=_INTS, m=_INTS, k=_INTS, c=_INTS, a=_FLOATS,
              format=st.sampled_from(("text", "json"))))
@settings(max_examples=150, deadline=None)
def test_predict_fuzz_ends_in_a_documented_exit_code(what, flags):
    _run_bounded(["predict", "--what", what, *flags])


@given(st.sampled_from(("bofa", "bounds", "cck")),
       _flags(q=_QS, c=_INTS, steps=_INTS, **{"a-min": _FLOATS, "a-max": _FLOATS}))
@settings(max_examples=100, deadline=None)
def test_table_fuzz_ends_in_a_documented_exit_code(what, flags):
    _run_bounded(["table", "--what", what, *flags])


def smallest_sizes(preset, n=1):
    """simulate argv for a preset at n rows (--n where the preset has n),
    every other row count at 1 and every *trials key at 2."""
    argv = ["simulate", "--preset", preset, "--seed", "1"]
    for key in montecarlo.PRESETS[preset].defaults:
        if key == "n":
            argv += ["--n", str(n)]
        elif key.endswith("trials"):
            argv += ["--param", f"{key}=2"]
        elif key.endswith("_n") or key == "r":
            argv += ["--param", f"{key}=1"]
    return argv


# exit 2 where a size is refused: E3 needs n >= 2, E11's m = 3 points do not
# fit in PG(0, q), and E1's full-rank law needs m = 16 <= n
_SMALLEST_REFUSED = {("E1", 1), ("E3", 1), ("E11", 1)}


@pytest.mark.parametrize("preset,n", [(p, 1) for p in sorted(montecarlo.PRESETS)]
                         + [("E3", 2)])
def test_simulate_fuzz_at_the_smallest_sizes(tmp_path, preset, n):
    rc = _run_bounded(smallest_sizes(preset, n) + ["--out", str(tmp_path / "x.json")])
    assert rc == (2 if (preset, n) in _SMALLEST_REFUSED else 0)


def random_sizes(preset, seed):
    """simulate argv for a preset at sizes drawn from a stream keyed by
    (preset, seed): q from {2, 3, 4, 5}, each row count from [1, 6] (E8's
    monitor included: at q = 4 and n = 12 one monitor trial takes
    seconds), each column count, horizon, step cap and k from [1, 16], and
    every *trials key at 2; budgets and bands keep their defaults."""
    draw = random.Random(f"{preset}:{seed}")
    argv = ["simulate", "--preset", preset, "--seed", str(seed)]
    for key in montecarlo.PRESETS[preset].defaults:
        if key == "q":
            argv += ["--q", str(draw.choice((2, 3, 4, 5)))]
        elif key.endswith("trials"):
            argv += ["--param", f"{key}=2"]
        elif key in ("n", "r") or key.endswith("_n"):
            argv += ["--param", f"{key}={draw.randint(1, 6)}"]
        elif key in ("m", "b", "k") or key.endswith(("_m", "_horizon", "max_steps")):
            argv += ["--param", f"{key}={draw.randint(1, 16)}"]
    return argv


@pytest.mark.parametrize("preset", sorted(montecarlo.PRESETS))
def test_simulate_fuzz_at_random_small_sizes(tmp_path, preset):
    for seed in range(3):
        argv = random_sizes(preset, seed)
        # exit 2 is a size the preset refuses (E1 m > n, E3 n = 1, E4
        # k > prob_m, E11 m past what PG(n - 1, q) allows)
        assert _run_bounded(argv + ["--out", str(tmp_path / "x.json")]) in (0, 1, 2), argv

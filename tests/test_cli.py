import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gradleak.bounds as bnd
import gradleak.cli as cli
import gradleak.defenses as dfs
import gradleak.harness as hz
from gradleak import network
from gradleak.activations import Activation
from gradleak.bounds import dp_delta, estimate_sensitivity
from gradleak.cli import main
from gradleak.harness import ExperimentConfig, run_trial
from gradleak.network import sample_params
from gradleak.seeding import derive_seed
from conftest import LAPACK_PRINTING, REPEATING_SEED_GRID, RecordingPool, whole_calls
from oracles import sequential_run_trial


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dp_calc_forward_and_inverse(capsys):
    code, out = run_cli(
        capsys, "dp-calc", "--epsilon", "1.0", "--sigma2", "20.0", "--sensitivity", "2.0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == pytest.approx(1.097e-2, rel=1e-3)

    code, out = run_cli(
        capsys, "dp-calc", "--epsilon", "1.0", "--delta", "1e-5", "--sensitivity", "2.0"
    )
    payload = json.loads(out)
    assert payload["sigma2"] > 0
    assert payload["lambda_star"] >= 1.0


def test_dp_calc_samples_the_sensitivity_at_a_width(capsys):
    code, out = run_cli(capsys, "dp-calc", "--epsilon", "1", "--sigma2", "20", "--m", "64",
                        "--d", "4", "--trials", "5", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    params = sample_params(4, 64, derive_seed(3, 0xD9), Activation("softplus"))
    assert payload["sensitivity"] == estimate_sensitivity(params, 5, 3)
    assert payload["sensitivity_sampled_from"] == {"d": 4, "m": 64, "trials": 5}
    assert payload["delta"] == dp_delta(1.0, 20.0, payload["sensitivity"])


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("flag, name, given", [
    ("--epsilon", "epsilon", ["--sigma2", "20", "--sensitivity", "2"]),
    ("--epsilon", "epsilon", ["--delta", "1e-5", "--sensitivity", "2"]),
    ("--sigma2", "sigma_sq", ["--epsilon", "1", "--sensitivity", "2"]),
    ("--sensitivity", "sensitivity", ["--epsilon", "1", "--sigma2", "20"]),
    ("--sensitivity", "sensitivity", ["--epsilon", "1", "--delta", "1e-5"]),
])
def test_dp_calc_rejects_a_non_finite_value(capsys, flag, name, given, bad):
    # a config error: nothing on stdout, one line on stderr and exit 2
    assert main(["dp-calc", *given, flag, bad]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {name} must be a finite number > 0, got {bad}\n"


@pytest.mark.parametrize("given, message", [
    (["--sensitivity", "2"], "one of the arguments --sigma2 --delta is required"),
    (["--sigma2", "20"], "one of the arguments --sensitivity --m is required"),
    (["--sigma2", "20", "--delta", "1e-5", "--sensitivity", "2"],
     "argument --delta: not allowed with argument --sigma2"),
    (["--sigma2", "20", "--sensitivity", "2", "--m", "64"],
     "argument --m: not allowed with argument --sensitivity"),
], ids=["no-noise", "no-sensitivity", "sigma2-and-delta", "sensitivity-and-m"])
def test_dp_calc_takes_exactly_one_of_each_pair(capsys, given, message):
    # argparse's usage error: exit 2, nothing on stdout, no value silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["dp-calc", "--epsilon", "1", *given])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize("command", ["attack", "bound", "sweep"])
def test_the_config_is_the_only_seed(capsys, command):
    # only dp-calc, which reads no config, takes --seed; a trial's seed is the
    # config's base_seed, so a config alone reruns or resumes it
    argv = [command, "--config", "exp.json", "--seed", "3"] + (
        ["--out", "run"] if command == "sweep" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


BASE = {"d": 4, "m": 8, "B": 1}


@pytest.mark.parametrize("command, content, error", [
    pytest.param(command, content, None, id=f"{command}-{name}")
    for command in ("attack", "bound", "sweep", "report")
    for name, content in (("missing", None), ("not-utf8", b"\xff\xfe"), ("bad-json", b'{"d": 4,'),
                          ("not-results", b"a,b\n1,2\n"))
    if (command, name) != ("report", "bad-json")  # any text reads as a CSV
] + [
    # JSON that is not a sweep spec
    pytest.param("sweep", json.dumps(spec).encode(), error, id=f"sweep-{name}")
    for name, spec, error in (
        ("not-an-object", [1, 2], "a sweep config must be a JSON object, got [1, 2]"),
        ("axis-not-a-list", {"base": BASE, "grid": {"sigma": 0.1}},
         "grid axis 'sigma' must be a nonempty list, got 0.1"),
        ("empty-axis", {"base": BASE, "grid": {"sigma": []}},
         "grid axis 'sigma' must be a nonempty list, got []"),
        ("base-not-an-object", {"base": [1]}, "a sweep's base must be a JSON object, got [1]"),
        ("grid-not-an-object", {"base": BASE, "grid": [["m", 8]]},
         "a sweep's grid must be a JSON object, got [['m', 8]]"),
        ("unknown-key", {"base": BASE, "grdi": {"m": [16]}},
         "unknown sweep config keys ['grdi']: a sweep config holds \"base\" and \"grid\""),
    )
])
def test_an_input_that_does_not_read_exits_2_with_one_line(
        tmp_path, capsys, command, content, error):
    path = tmp_path / ("results.csv" if command == "report" else "exp.json")
    if content is not None:
        path.write_bytes(content)
    argv = [command, "--csv" if command == "report" else "--config", str(path)]
    assert main(argv + (["--out", str(tmp_path / "run")] if command == "sweep" else [])) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {error or f'cannot read {path}: '}")
    assert out.err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("row, problem", [
    ("ab,1,x,8,2,none,,tensor,0.5,,,,1.0", "invalid literal for int() with base 10: 'x'"),
    ("ab,1,4,8,2,none,,tensor,zz,,,,1.0", "could not convert string to float: 'zz'"),
    ("ab,1,4", "13 fields expected"),
], ids=["d-not-an-integer", "rmse-not-a-float", "short-row"])
def test_a_results_row_that_does_not_read_exits_2_with_one_line(tmp_path, capsys, row, problem):
    path = tmp_path / "results.csv"
    path.write_text(",".join(hz.CSV_FIELDS) + "\nab,0,4,8,2,none,,tensor,0.5,,,,1.0\n" + row + "\n")
    assert main(["report", "--csv", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: cannot read {path}: line 3 is not a results row ({problem})\n"


def test_a_sweep_that_would_repeat_a_trial_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "run"
    cfg_path.write_text(json.dumps(REPEATING_SEED_GRID))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid points with base_seed 10 and 11") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3", "two", "1.5"])
def test_sweep_workers_not_an_integer_at_least_1_is_a_usage_error(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", "sweep.json", "--out", "run", "--workers", workers])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --workers: must be an integer >= 1, got {workers}" in out.err


def test_a_sweep_into_a_file_exits_2_with_one_line(tmp_path, capsys):
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({"base": BASE}))
    out.write_text("")
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot make output dir {out}: ") and err.count("\n") == 1


def test_sweep_prints_its_counts_as_numbers_and_a_rerun_runs_nothing(tmp_path, capsys):
    cfg_path, out = tmp_path / "sweep.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({"base": {**BASE, "compute_bounds": False}}))
    argv = ["sweep", "--config", str(cfg_path), "--out", str(out)]
    code, printed = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(printed) == {"csv": str(out / "results.csv"),
                                   "json": str(out / "results.json"),
                                   "manifest": str(out / "manifest.json"),
                                   "rows": 1, "new_records": 1}
    code, printed = run_cli(capsys, *argv)
    assert code == 0 and json.loads(printed)["new_records"] == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_report_refuses_a_utility_tolerance_that_is_not_finite_and_at_least_0(
        tmp_path, capsys, tol):
    path = tmp_path / "results.csv"
    path.write_text(",".join(hz.CSV_FIELDS) + "\n")
    assert main(["report", "--csv", str(path), "--utility-tol", tol]) == 2
    err = capsys.readouterr().err
    assert err == f"error: utility_tol must be a finite number >= 0, got {float(tol)!r}\n"

def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # a record of about 250 KB, more than a pipe holds: the CLI is still
    # writing it when the reader closes the pipe after one line
    spec = {"d": 3000, "m": 8, "B": 2, "activation": {"kind": "exp"}, "compute_bounds": False,
            "attacks": {"gradmatch": {"optimizer": {"max_iters": 1}}}}
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(spec))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "gradleak.cli", "attack", "--config", str(cfg_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b"" and proc.returncode == 1


def test_attack_and_report_round_trip(tmp_path, capsys):
    exp = {
        "d": 5, "m": 128, "B": 2,
        "activation": {"kind": "exp"},
        "attacks": {"tensor": {"subspace_iters": 40, "restarts": 3, "power_iters": 30}},
        "sigma": 0.1, "trials": 1, "base_seed": 2,
        "defenses": [],
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(exp))
    code, out = run_cli(capsys, "attack", "--config", str(cfg_path))
    assert code == 0
    rec = json.loads(out)
    assert "tensor" in rec["attacks"]

    code, out = run_cli(capsys, "bound", "--config", str(cfg_path))
    assert code == 0
    assert json.loads(out)["rl_exact"] > 0

    sweep_cfg = {"base": exp, "grid": {"m": [128, 256]}}
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_cfg))
    code, _ = run_cli(capsys, "sweep", "--config", str(sweep_path), "--out", str(tmp_path / "run"))
    assert code == 0
    code, out = run_cli(capsys, "report", "--csv", str(tmp_path / "run" / "results.csv"))
    assert code == 0
    assert json.loads(out)["defenses"]


def test_attack_prints_the_record_hash_of_run_trial(tmp_path, capsys):
    # the CLI keeps each attack's samples and signs; they must not move the hash
    spec = {"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp"},
            "attacks": {"tensor": {}, "gradmatch": {"optimizer": {"max_iters": 20}}},
            "defenses": [{"variant": "clip", "threshold": 1.0},
                         {"variant": "prune_ratio", "ratio": 0.5},
                         {"variant": "noise", "sigma0": 0.01}]}
    cfg_path = tmp_path / "attack.json"
    cfg_path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "attack", "--config", str(cfg_path))
    assert code == 0
    rec = json.loads(out)
    assert "samples" in rec["attacks"]["tensor"] and "samples" in rec["attacks"]["gradmatch"]
    assert rec["record_hash"] == run_trial(ExperimentConfig.from_dict(spec), 0).record_hash()


def test_cli_error_exit_code(tmp_path, capsys):
    bad_specs = [
        {"d": 0, "m": 4, "B": 1},
        {"d": 4, "m": 8, "B": 1, "bogus": 1},
        {"d": 4, "m": 8, "B": 1, "attacks": {"tensor": {"bogus": 1}}},
        {"d": 4, "m": 8, "B": 1, "attacks": {"gradmatch": {"bogus": 1}}},
        {"d": 4, "m": 8, "B": 1, "attacks": {"gradmatch": {"optimizer": {"bogus": 1}}}},
        {"d": "4", "m": 8, "B": 1},
        {"d": 4, "m": 8.0, "B": 1},
        {"d": 4, "m": 8, "B": True},
        {"d": 4, "m": 8, "B": 1, "trials": None},
        {"d": 4, "m": 8, "B": 1, "sigma": "0.1"},
        {"d": 4, "m": 8, "B": 1, "base_seed": [0]},
        {"d": 4, "m": 8, "B": 1, "activation": "exp"},
        {"d": 4, "m": 8, "B": 1, "activation": {"kind": "exp", "bogus": 1}},
        {"d": 4, "m": 8, "B": 1, "defenses": [3]},
        {"d": 4, "m": 8, "B": 1, "defenses": "dropout"},
        {"d": 4, "m": 8, "B": 1, "utility": "x"},
        {"d": 4, "m": 8, "B": 1, "utility": {"steps": "x"}},
        {"d": 4, "m": 8, "B": 1, "utility": {"steps": 2.0}},
        {"d": 4, "m": 8, "B": 1, "utility": {"steps": True}},
        {"d": 4, "m": 8, "B": 1, "utility": {"bogus": 1}},
        {"d": 4, "m": 8, "B": 1, "utility": {"eta_a": "y"}},
        {"d": 4, "m": 8, "B": 1, "utility": {"eta_a": 0.0}},
        {"d": 4, "m": 8, "B": 1, "utility": {"eta_w": float("nan")}},
        {"d": 4, "m": 8, "B": 1, "utility": {"eta_w": float("inf")}},
        {"d": 4, "m": 8, "B": 1, "utility": {"eta_w": -1.0}},
        {"d": 4, "m": 8, "B": 1, "compute_bounds": "false"},
        {"d": 4, "m": 8, "B": 1, "sigma": float("nan")},
        {"d": 4, "m": 8, "B": 1, "sigma": float("inf")},
        {"d": 4, "m": 8, "B": 1, "sigma": 10**400},  # an integer no float can hold
        {"d": 4, "m": 8, "B": 1, "attacks": {"tensor": {"probe": [10**400, 0, 0, 0]}}},
        {"d": 4, "m": 8, "B": 1, "defenses": [{"variant": "noise", "sigma0": "0.1"}]},
        {"d": 4, "m": 8, "B": 1, "defenses": [{"variant": "prune_threshold", "cutoff": float("nan")}]},
        {"d": 4, "m": 8, "B": 1, "attacks": {"tensor": {"restarts": 0}}},
        {"d": 4, "m": 8, "B": 1, "attacks": {"gradmatch": {"distance": "l1"}}},
        {"d": 4, "m": 8, "B": 1, "attacks": {"tensor": {"seed": 1}}},
        {"d": 4, "m": 8, "B": 1, "attacks": {"gradmatch": {
            "feature_mode": "cosine2", "alpha_feature": 0.1, "feature_source": "tensor"}}},
        {"d": 4, "m": 8, "B": 1, "attacks": {"tensor": {}, "gradmatch": {
            "feature_mode": "cosine2", "alpha_feature": 0.1}}},
        {"d": 4, "m": 8, "B": 2, "defenses": [{"variant": "secure_aggregation", "batch_sizes": [1]}]},
        [{"d": 4, "m": 8, "B": 1}],
    ]
    bad = tmp_path / "bad.json"
    for spec in bad_specs:
        bad.write_text(json.dumps(spec))
        assert main(["attack", "--config", str(bad)]) == 2, spec
        assert capsys.readouterr().err.startswith("error: "), spec


def test_bound_runs_no_attack(tmp_path, capsys, monkeypatch):
    exp = {
        "d": 6, "m": 256, "B": 2, "activation": {"kind": "exp"}, "base_seed": 4,
        "defenses": [{"variant": "dropout", "rate": 0.5}, {"variant": "noise", "sigma0": 0.01}],
        "attacks": {"tensor": {"restarts": 2},
                    "gradmatch": {"optimizer": {"max_iters": 20}, "feature_source": "tensor",
                                  "feature_mode": "cosine2", "alpha_feature": 0.1}},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(exp))
    expected = run_trial(ExperimentConfig.from_dict(exp), 1).bound
    attacked, draws_on_main, drawing = [], [], threading.Event()
    real_draw, real_sample = dfs.draw_chain, hz.sample_params

    def no_attack(*args, **kwargs):
        attacked.append(True)
        raise AssertionError("gradleak bound ran an attack")

    def draw(*args):
        draws_on_main.append(threading.current_thread() is threading.main_thread())
        drawing.set()
        return real_draw(*args)

    def sample_params(*args):
        # sampling waits until the helper has started the draws, so they are
        # never taken back to this thread
        assert drawing.wait(10)
        return real_sample(*args)

    monkeypatch.setattr(hz, "grad_match_attack", no_attack)
    monkeypatch.setattr(hz, "tensor_attack", no_attack)
    monkeypatch.setattr(dfs, "draw_chain", draw)
    monkeypatch.setattr(hz, "sample_params", sample_params)
    code, out = run_cli(capsys, "bound", "--config", str(cfg_path), "--trial", "1")
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(expected))
    assert attacked == [] and draws_on_main == [False]  # the draws ran on a helper


def test_bound_lends_its_helper_kernel_halves(tmp_path, capsys, monkeypatch):
    # every kernel call that can split does, its upper half on the helper that
    # made the draws; the report is the one whole calls on one thread give
    monkeypatch.setattr(network, "_SPLIT_MIN", 0)
    spec = {"d": 7, "m": 301, "B": 3, "activation": {"kind": "softplus"}, "sigma": 0.1,
            "defenses": [{"variant": "clip", "threshold": 1.0},
                         {"variant": "noise", "sigma0": 0.01}]}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(spec))
    pools = []

    def make(*args, **kwargs):
        pools.append(RecordingPool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(cli, "ThreadPoolExecutor", make)
    code, out = run_cli(capsys, "bound", "--config", str(cfg_path), "--trial", "1")
    assert code == 0
    with whole_calls():
        expected = sequential_run_trial(ExperimentConfig.from_dict(spec), 1).bound
    assert json.loads(out) == json.loads(json.dumps(expected))
    # the draws, gradient's W @ X and the bound's W @ X
    (pool,) = pools
    assert pool.names == ["_inputs.<locals>.<lambda>"] + ["_halves.<locals>.<lambda>"] * 2


@pytest.mark.parametrize("attacks", [{"tensor": {}},
                                     {"tensor": {}, "gradmatch": {"optimizer": {"max_iters": 20}}}],
                         ids=["tensor-only", "gradmatch"])
def test_bound_holds_the_observation_block_a_trial_holds(tmp_path, capsys, monkeypatch, attacks):
    # the bound receives what run_trial's bound receives: the a-block alone
    # unless gradient matching reads the W-block
    spec = {"d": 6, "m": 256, "B": 2, "activation": {"kind": "exp"}, "base_seed": 4,
            "defenses": [{"variant": "clip", "threshold": 1e-3},
                         {"variant": "noise", "sigma0": 0.01}], "attacks": attacks}
    config = ExperimentConfig.from_dict(spec)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(spec))
    layouts, real_bound = [], bnd.bound_for_observation

    def bound(params, truth, sigma, obs):
        layouts.append((obs.m, obs.d))
        return real_bound(params, truth, sigma, obs)

    monkeypatch.setattr(bnd, "bound_for_observation", bound)
    code, out = run_cli(capsys, "bound", "--config", str(cfg_path), "--trial", "1")
    assert code == 0
    assert layouts == [(config.m, config.d if "gradmatch" in attacks else 0)]
    assert json.loads(out) == json.loads(json.dumps(sequential_run_trial(config, 1).bound))


def test_bound_on_a_config_without_bounds_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "nobounds.json"
    cfg_path.write_text(json.dumps({"d": 4, "m": 64, "B": 2, "compute_bounds": False}))
    assert main(["bound", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "bounds disabled in this config\n"


def test_a_failing_trial_is_printed_and_exits_1(tmp_path, capsys):
    # the exp activation at scale 1e307 overflows the gradient: the inputs
    # stage fails, and gradleak bound, which has no record to print, says why
    # in one line, as for any failed stage
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(
        {"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp", "scale": 1e307}}))
    code, out = run_cli(capsys, "attack", "--config", str(cfg_path))
    assert code == 1
    assert json.loads(out)["attacks"]["tensor"]["error"] == (
        "DegenerateObservationError: the inputs stage made a non-finite observation")
    assert main(["bound", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "error: DegenerateObservationError: the inputs stage made a non-finite observation\n")


def test_a_non_finite_moment_matrix_leaves_stdout_one_json_record(tmp_path, capfd):
    # the tensor attack refuses the matrix before LAPACK, whose error handler
    # would write to the process's stdout ahead of the record
    cfg_path = tmp_path / "lapack.json"
    cfg_path.write_text(json.dumps(LAPACK_PRINTING))
    assert main(["attack", "--config", str(cfg_path)]) == 1
    out, err = capfd.readouterr()
    assert err == ""
    assert json.loads(out)["attacks"]["tensor"]["error"] == (
        "attack stage 'subspace' failed: the moment matrix is not finite")


def test_a_crashing_inputs_stage_fails_the_bound_with_one_line(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise ValueError("boom")

    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp"}}))
    monkeypatch.setattr(hz, "sample_params", boom)
    assert main(["bound", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr()
    assert out.err == "error: ValueError: boom\n" and out.out == ""


def test_a_failing_bound_is_printed_and_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp"}}))
    monkeypatch.setattr(bnd, "bound_for_observation", fail)
    assert main(["bound", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr()
    assert out.err == "error: LinAlgError: Eigenvalues did not converge\n" and out.out == ""

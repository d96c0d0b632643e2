import dataclasses
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import gradleak
import gradleak.defenses as dfs
import gradleak.harness as hz
from gradleak import network
from gradleak.activations import Activation
from gradleak.bounds import bound_for_observation
from gradleak.defenses import (
    ClipDefense,
    DropoutDefense,
    NoiseDefense,
    PruneRatioDefense,
    PruneThresholdDefense,
)
from gradleak.errors import ConfigError, DegenerateObservationError, DivergenceError
from gradleak.harness import (
    CSV_FIELDS,
    ExperimentConfig,
    read_results_csv,
    run_trial,
    sweep,
    utility_loss,
    aggregate_rows,
)
from gradleak.network import sample_batch, sample_params
from gradleak.seeding import DEFENSE_STREAM, derive_seed
from gradleak.tensor_attack import ReconstructionResult
from conftest import REPEATING_SEED_GRID, RecordingPool, whole_calls
from oracles import (
    argsort_prune_ratio,
    dense_bound_for_observation,
    full_layout_run_trial,
    input_jacobian,
    interleaved_compose,
    sequential_run_trial,
    utility_loss_reference,
)

SP = Activation("softplus")

FAST_ATTACKS = {"tensor": {"subspace_iters": 60, "restarts": 4, "power_iters": 40}}


def small_config(**over):
    spec = {
        "d": 6,
        "m": 256,
        "B": 2,
        "activation": {"kind": "exp"},
        "defenses": [],
        "attacks": FAST_ATTACKS,
        "sigma": 0.1,
        "trials": 1,
        "base_seed": 17,
    }
    spec.update(over)
    return ExperimentConfig.from_dict(spec)


def test_trial_is_reproducible():
    cfg = small_config()
    r1 = run_trial(cfg, 0)
    r2 = run_trial(cfg, 0)
    assert r1.record_hash() == r2.record_hash()
    assert r1.attacks["tensor"]["rmse"] == r2.attacks["tensor"]["rmse"]


def test_trials_differ_across_indices():
    cfg = small_config()
    assert run_trial(cfg, 0).record_hash() != run_trial(cfg, 1).record_hash()


def test_no_defense_means_empty_provenance_and_bound_base():
    cfg = small_config()
    rec = run_trial(cfg, 0)
    assert rec.defense == "none"
    assert rec.bound["adjustments"] == {}


def test_defended_trial_records_bound_adjustments():
    cfg = small_config(defenses=[{"variant": "clip", "threshold": 1e-3}])
    rec = run_trial(cfg, 0)
    assert "clip_factor" in rec.bound["adjustments"]
    assert rec.bound["adjustments"]["sigma_effective"] > 0.1


def test_secure_aggregation_trial():
    cfg = small_config(
        B=4, defenses=[{"variant": "secure_aggregation", "batch_sizes": [2, 2]}]
    )
    rec = run_trial(cfg, 0)
    assert rec.attacks["tensor"]["rmse"] is not None


def test_local_aggregation_trial_with_fresh_batches():
    cfg = small_config(
        m=512,
        defenses=[{"variant": "local_aggregation", "steps": 2, "fresh_batches": True}],
    )
    rec = run_trial(cfg, 0)
    # two fresh batches of size B make it a 2B-sample problem
    assert len(rec.attacks["tensor"]["assignment"]) == 4


def test_gradmatch_in_trial():
    cfg = small_config(
        attacks={
            "tensor": FAST_ATTACKS["tensor"],
            "gradmatch": {"optimizer": {"max_iters": 150}, "feature_source": "tensor",
                          "feature_mode": "cosine2", "alpha_feature": 0.1},
        }
    )
    rec = run_trial(cfg, 0)
    assert set(rec.attacks) == {"tensor", "gradmatch"}
    assert rec.attacks["gradmatch"]["error"] is None


def test_aggregation_defense_must_lead_the_chain():
    with pytest.raises(ConfigError):
        small_config(
            defenses=[
                {"variant": "noise", "sigma0": 0.1},
                {"variant": "local_aggregation", "steps": 2},
            ]
        )


# --- two-thread trials against the sequential oracle ---------------------------

BOTH_ATTACKS = {
    "tensor": FAST_ATTACKS["tensor"],
    "gradmatch": {"optimizer": {"max_iters": 40}, "feature_source": "tensor",
                  "feature_mode": "cosine2", "alpha_feature": 0.1},
}
NOISE = {"variant": "noise", "sigma0": 0.01}
OVERLAP_CHAINS = {
    "noise-sigma0-zero": ({}, [{"variant": "noise", "sigma0": 0.0}]),
    "clip-noise": ({}, [{"variant": "clip", "threshold": 1e-3}, NOISE]),
    "dropout-node": ({}, [{"variant": "dropout", "rate": 0.5}, NOISE]),
    "dropout-coord": ({}, [{"variant": "dropout", "rate": 0.5, "node_level": False}]),
    "prune_threshold": ({}, [{"variant": "prune_threshold", "cutoff": 1e-4}, NOISE]),
    "prune_ratio": ({}, [{"variant": "prune_ratio", "ratio": 0.9}, NOISE]),
    "local_aggregation": ({}, [{"variant": "local_aggregation", "steps": 2,
                                "fresh_batches": True}, NOISE]),
    "secure_aggregation": ({"B": 3}, [{"variant": "secure_aggregation",
                                       "batch_sizes": [2, 1]}, NOISE]),
    "both-attacks": ({"attacks": BOTH_ATTACKS}, [{"variant": "dropout", "rate": 0.3}, NOISE]),
}


@pytest.mark.parametrize("chain", sorted(OVERLAP_CHAINS))
def test_two_thread_trial_matches_the_sequential_oracle(chain):
    over, defenses = OVERLAP_CHAINS[chain]
    cfg = small_config(defenses=defenses, utility={"steps": 5}, **over)
    for t in (0, 1):
        # the inputs stage draws the chain on the helper, then applies it: the
        # bytes of drawing each step just before it applies
        with ThreadPoolExecutor(max_workers=1) as helper, network._spare_thread(helper):
            obs = hz._inputs(cfg, t)[3]
        aggregator = cfg.defenses[:len(cfg.defenses) - len(cfg.transforms)]
        undefended = dataclasses.replace(cfg, defenses=aggregator)
        seed, *_, release, _ = hz._inputs(undefended, t)
        ref_obs = interleaved_compose(cfg.transforms, release, derive_seed(seed, DEFENSE_STREAM))
        assert obs.flat.tobytes() == ref_obs.flat.tobytes()
        rec, ref = run_trial(cfg, t), sequential_run_trial(cfg, t)
        assert rec.bound is not None and rec.utility_loss is not None
        assert rec.record_hash() == ref.record_hash()
        assert rec.bound == ref.bound
        assert rec.utility_loss == ref.utility_loss
        assert rec.attacks == ref.attacks


def test_concurrent_trials_match_the_oracle_under_fast_thread_switching():
    # three trials at once, each with its own helper: six threads on fewer cores
    cfg = small_config(defenses=OVERLAP_CHAINS["both-attacks"][1], utility={"steps": 5},
                       trials=6)
    expected = [sequential_run_trial(cfg, t).record_hash() for t in range(cfg.trials)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(run_trial, cfg, t) for t in range(cfg.trials)]
            got = [f.result(timeout=120).record_hash() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


# --- kernel halves on the trial's helper -----------------------------------------

def trial_helper_calls(monkeypatch, cfg, t, prefix="_halves."):
    """``run_trial(cfg, t)`` and the names of the calls its helper received
    that start with ``prefix``; by default one per kernel call split in
    halves, besides the draws and the attacks."""
    pools = []

    def make(*args, **kwargs):
        pools.append(RecordingPool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(hz, "ThreadPoolExecutor", make)
    rec = run_trial(cfg, t)
    monkeypatch.setattr(hz, "ThreadPoolExecutor", ThreadPoolExecutor)
    (pool,) = pools
    return rec, [n for n in pool.names if n.startswith(prefix)]


@pytest.mark.parametrize("bounds", [False, True], ids=["bounds-off", "bounds-on"])
@pytest.mark.parametrize("kind", ["exp", "softplus"])
def test_split_trial_matches_the_sequential_oracle(monkeypatch, bounds, kind):
    # every kernel call that can split does; with bounds on the attacks run on the
    # helper, which lends nothing, so they never wait on themselves; the record is
    # the one whole calls on one thread give
    monkeypatch.setattr(network, "_SPLIT_MIN", 0)
    cfg = small_config(d=7, m=301, B=3, activation={"kind": kind}, attacks=BOTH_ATTACKS,
                       defenses=OVERLAP_CHAINS["both-attacks"][1], compute_bounds=bounds)
    for t in (0, 1):
        rec, halves = trial_helper_calls(monkeypatch, cfg, t)
        with whole_calls():
            ref = sequential_run_trial(cfg, t)
        # gradient's W @ X, then the moment matrix (one split: each half fills and
        # multiplies its operand rows) and the projected tensor's W @ V (its
        # contraction at B = 3 runs whole); with bounds on, the helper runs the
        # attacks and the bound lends it nothing, so only gradient's W @ X
        assert len(halves) == (1 if bounds else 3)
        assert rec.record_hash() == ref.record_hash()
        assert rec.bound == ref.bound
        for name, res in ref.attacks.items():
            assert rec.attacks[name]["rmse"] == res["rmse"]
            assert rec.attacks[name]["assignment"] == res["assignment"]


def test_the_bound_lends_the_busy_helper_nothing_at_the_split_floor(monkeypatch):
    # W at the real floor, bounds on: the helper gets the draws, gradient's upper
    # W @ X half and the attacks, and no half of the bound's kernels, which would
    # wait for the whole attack stage
    cfg = small_config(d=64, m=32768, B=2, sigma=0.01, defenses=[NOISE])
    rec, names = trial_helper_calls(monkeypatch, cfg, 0, prefix="")
    assert names == ["_inputs.<locals>.<lambda>", "_halves.<locals>.<lambda>",
                     "_trial.<locals>.<lambda>"]
    assert rec.bound is not None
    assert rec.record_hash() == sequential_run_trial(cfg, 0).record_hash()


@pytest.mark.parametrize("bounds", [False, True], ids=["bounds-off", "bounds-on"])
def test_utility_training_lends_the_helper(monkeypatch, bounds):
    # utility training splits its kernels like every other stage on the trial's
    # thread, bit for bit: each of its 4 steps hands the helper one half of
    # gradient's W @ X, and its final loss one of W @ X
    monkeypatch.setattr(network, "_SPLIT_MIN", 0)
    spec = dict(d=7, m=301, B=3, activation={"kind": "softplus"}, attacks=BOTH_ATTACKS,
                defenses=OVERLAP_CHAINS["clip-noise"][1], compute_bounds=bounds)
    cfg, untrained = small_config(utility={"steps": 4}, **spec), small_config(**spec)
    for t in (0, 1):
        rec, halves = trial_helper_calls(monkeypatch, cfg, t)
        with whole_calls():
            ref = sequential_run_trial(cfg, t)
        assert len(halves) == len(trial_helper_calls(monkeypatch, untrained, t)[1]) + 4 * 1 + 1
        assert rec.record_hash() == ref.record_hash()
        assert rec.utility_loss == ref.utility_loss and rec.utility_loss is not None


def test_a_threaded_blas_trial_gives_the_sequential_oracles_records():
    # with 2 BLAS threads a row half of the moment matrix can differ from the whole
    # call at these shapes, so a partition that followed the lent helper gave 5 other
    # records; the thread count is set before the child imports numpy
    code = (
        "from gradleak.harness import ExperimentConfig, run_trial\n"
        "from oracles import sequential_run_trial\n"
        "for m, d, trials in ((20972, 100, (0, 1, 2)), (40000, 60, (1, 3))):\n"
        "    cfg = ExperimentConfig.from_dict({'d': d, 'm': m, 'B': 4, 'base_seed': 1,\n"
        "        'activation': {'kind': 'exp'}, 'compute_bounds': False})\n"
        "    for t in trials:\n"
        "        print(run_trial(cfg, t).record_hash(), sequential_run_trial(cfg, t).record_hash())\n"
    )
    paths = [str(Path(gradleak.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(paths)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120).stdout
    pairs = [line.split() for line in out.splitlines()]
    assert len(pairs) == 5 and all(a == b for a, b in pairs), out


# perfbench's four workloads at their sizes; attacks and training cut short, which
# leaves every kernel call's size as it is
WORKLOAD_SIZES = {
    "bound-d32": dict(d=32, m=16384, B=4, sigma=0.01, defenses=[
        {"variant": "dropout", "rate": 0.5}, {"variant": "clip", "threshold": 1.0},
        {"variant": "noise", "sigma0": 0.01}]),
    "gradmatch-d16": dict(d=16, m=16384, B=2, compute_bounds=False,
                          defenses=[{"variant": "noise", "sigma0": 0.1}],
                          attacks={**FAST_ATTACKS, "gradmatch": {"optimizer": {"max_iters": 5}}}),
    "attack-d64": dict(d=64, m=65536, B=8, sigma=0.01, compute_bounds=False,
                       defenses=[{"variant": "noise", "sigma0": 0.01}]),
    "sweep-utility": dict(d=16, m=4096, B=2, activation={"kind": "softplus"},
                          compute_bounds=False, utility={"steps": 2},
                          defenses=[{"variant": "clip", "threshold": 1.0},
                                    {"variant": "noise", "sigma0": 0.01}]),
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_SIZES))
def test_only_attack_d64_splits_its_kernels(monkeypatch, workload):
    # attack-d64 reads only grad_a, so it builds no W-block: W @ X, then the
    # moment matrix (one split) and the projected tensor (W @ V, contraction)
    _, halves = trial_helper_calls(monkeypatch, small_config(**WORKLOAD_SIZES[workload]), 0)
    assert len(halves) == (4 if workload == "attack-d64" else 0)


def _singular(*args):
    raise np.linalg.LinAlgError("Singular matrix")


def _crash(*args, **kwargs):
    raise RuntimeError("attack crashed")


def recorded_as_in_a_sequential_trial(cfg, t=0):
    """``run_trial(cfg, t)``, checked against the sequential oracle and for
    leaving no thread behind."""
    before = threading.active_count()
    rec = run_trial(cfg, t)
    assert threading.active_count() == before
    ref = sequential_run_trial(cfg, t)
    assert rec.record_hash() == ref.record_hash()
    assert json.dumps(rec.attacks) == json.dumps(ref.attacks)  # NaN rmse included
    assert (rec.bound, rec.errors) == (ref.bound, ref.errors)
    return rec


def same_entry(a, b):
    return (a["rmse"], a["assignment"], a["error"]) == (b["rmse"], b["assignment"], b["error"])


def test_a_failing_bound_is_recorded_as_in_a_sequential_trial(monkeypatch):
    # the bound fails on the trial's thread while both attacks run on the helper
    cfg = small_config(defenses=[NOISE], attacks=BOTH_ATTACKS, utility={"steps": 5})
    clean = run_trial(cfg, 0)
    monkeypatch.setattr(hz, "bound_for_observation", _singular)
    rec = recorded_as_in_a_sequential_trial(cfg)
    assert rec.bound is None and rec.errors == {"bound": "LinAlgError: Singular matrix"}
    assert rec.utility_loss == clean.utility_loss
    for name, res in clean.attacks.items():
        assert res["error"] is None and same_entry(rec.attacks[name], res)


def test_a_crashing_attack_and_a_failing_bound_each_keep_their_own_error(monkeypatch):
    # gradmatch takes no feature targets here, so the tensor attack's crash leaves it as it was
    attacks = {"tensor": FAST_ATTACKS["tensor"], "gradmatch": {"optimizer": {"max_iters": 40}}}
    cfg = small_config(defenses=[NOISE], attacks=attacks)
    clean = run_trial(cfg, 0)
    monkeypatch.setattr(hz, "tensor_attack", _crash)
    monkeypatch.setattr(hz, "bound_for_observation", _singular)
    rec = recorded_as_in_a_sequential_trial(cfg)
    tensor = rec.attacks["tensor"]
    assert math.isnan(tensor["rmse"]) and tensor["assignment"] is None
    assert tensor["error"] == "RuntimeError: attack crashed"
    assert same_entry(rec.attacks["gradmatch"], clean.attacks["gradmatch"])
    assert rec.bound is None and rec.errors == {"bound": "LinAlgError: Singular matrix"}


@pytest.mark.parametrize("bounds", [False, True], ids=["bounds-off", "bounds-on"])
def test_a_gradmatch_crash_leaves_the_tensor_entry_intact(monkeypatch, bounds):
    cfg = small_config(defenses=[NOISE], attacks=BOTH_ATTACKS, compute_bounds=bounds)
    clean = run_trial(cfg, 0)
    monkeypatch.setattr(hz, "grad_match_attack", _crash)
    rec = recorded_as_in_a_sequential_trial(cfg)
    assert same_entry(rec.attacks["tensor"], clean.attacks["tensor"])
    assert rec.attacks["gradmatch"]["error"] == "RuntimeError: attack crashed"
    assert (rec.bound, rec.errors) == (clean.bound, {})


def test_a_failing_utility_is_recorded_as_in_a_sequential_trial(monkeypatch):
    cfg = small_config(defenses=[NOISE], utility={"steps": 5})
    clean = run_trial(cfg, 0)
    monkeypatch.setattr(hz, "utility_loss", _crash)
    rec = recorded_as_in_a_sequential_trial(cfg)
    assert rec.utility_loss is None and rec.errors == {"utility": "RuntimeError: attack crashed"}
    assert (rec.attacks, rec.bound) == (clean.attacks, clean.bound)


def test_a_sampling_error_is_recorded_while_the_draw_runs(monkeypatch):
    # the inputs stage fails every attack with its error; nothing else runs
    def broken(*args):
        raise RuntimeError("sampler broke")

    monkeypatch.setattr(hz, "sample_params", broken)
    monkeypatch.setattr(hz, "bound_for_observation", _crash)
    cfg = small_config(defenses=[NOISE], attacks=BOTH_ATTACKS, utility={"steps": 5})
    rec = recorded_as_in_a_sequential_trial(cfg)
    for res in rec.attacks.values():
        assert res["error"] == "RuntimeError: sampler broke" and res["assignment"] is None
    assert (rec.bound, rec.utility_loss, rec.errors) == (None, None, {})


def test_a_draw_error_is_recorded_as_in_a_sequential_trial():
    # a 0.9 dropout of a one-unit network drops the unit for some trial
    cfg = small_config(m=1, defenses=[{"variant": "dropout", "rate": 0.9}], trials=20)
    failed = []
    for t in range(cfg.trials):
        error = recorded_as_in_a_sequential_trial(cfg, t).attacks["tensor"]["error"] or ""
        if error.startswith("DegenerateObservationError: "):
            assert "every hidden unit" in error
            failed.append(t)
    assert failed


# the exp activation at scale 1e307 overflows the gradient of trial 0
OVERFLOWING = {"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp", "scale": 1e307}}
# noise at sigma0 1e308 overflows its own draw, made on the trial's helper
NOISE_OVERFLOWING = {"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp"},
                     "defenses": [{"variant": "noise", "sigma0": 1e308}]}


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("bounds", [False, True], ids=["bounds-off", "bounds-on"])
def test_a_non_finite_observation_gives_one_record_whatever_the_warnings_filter(
        request, capsys, bounds, split):
    if split:  # every kernel call splits, its upper half on the helper
        request.getfixturevalue("split_halves")
    for spec in (OVERFLOWING, NOISE_OVERFLOWING):
        cfg = ExperimentConfig.from_dict({**spec, "compute_bounds": bounds})
        texts = set()
        for action in ("error", "ignore", "default"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                rec = run_trial(cfg, 0)
            texts.add(json.dumps({k: v for k, v in rec.to_dict().items() if k != "wall_ms"},
                                 sort_keys=True))
        assert len(texts) == 1
        assert rec.attacks["tensor"]["error"] == (
            "DegenerateObservationError: the inputs stage made a non-finite observation")
        assert (rec.bound, rec.utility_loss, rec.errors) == (None, None, {})
    # the noise trial's record, the one the "ignore" filter always gave
    assert rec.record_hash() == ("237700c2088d7810" if bounds else "b5b178b161c1e060")
    assert capsys.readouterr().err == ""


# at scale 1e100 the observation of trial 0 is finite, but the attacks,
# the bound and utility training overflow
OVERFLOWING_LATER = {"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp", "scale": 1e100},
                     "attacks": {"tensor": {}, "gradmatch": {"optimizer": {"max_iters": 20}}},
                     "sigma": 0.1, "utility": {"steps": 5}}


@pytest.mark.parametrize("bounds", [False, True], ids=["bounds-off", "bounds-on"])
def test_stages_after_the_inputs_give_one_record_whatever_the_warnings_filter(capsys, bounds):
    cfg = ExperimentConfig.from_dict({**OVERFLOWING_LATER, "compute_bounds": bounds})
    hashes = set()
    for action in ("error", "ignore", "default"):
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter(action)
            rec = run_trial(cfg, 0)
        hashes.add(rec.record_hash())
        assert shown == [], action
    assert len(hashes) == 1
    assert rec.attacks["tensor"]["error"] is not None  # its own check, not a warning
    assert "Warning" not in json.dumps(rec.to_dict())
    assert capsys.readouterr().err == ""


def test_trials_leave_no_thread_behind(tmp_path):
    before = threading.active_count()
    run_trial(small_config(defenses=[NOISE]), 0)
    assert threading.active_count() == before
    sweep(sweep_config(trials=2), tmp_path / "out", workers=2)
    assert threading.active_count() == before


# --- trials that read only grad_a: the a-block inputs ---------------------------

# chains of steps that act on a coordinate alone, each drawing its a-block first
A_BLOCK_CHAINS = {
    "none": [],
    "noise": [NOISE],
    "dropout-node-noise": [{"variant": "dropout", "rate": 0.5}, NOISE],
    "prune_threshold-noise": [{"variant": "prune_threshold", "cutoff": 1e-4}, NOISE],
    "noise-noise": [NOISE, {"variant": "noise", "sigma0": 0.02, "clip_scale": 0.5}],
}
# trials whose left-out W-block the inputs stage cannot prove finite
UNPROVEN = {
    # trial 0's one a-block coordinate stays finite while its W-block overflows
    "noise-1e308-wide": ({"d": 3000, "m": 1, "base_seed": 0},
                         [{"variant": "noise", "sigma0": 1e308}]),
    # a finite observation beyond the proof's reach: built whole, and attacked
    "noise-1e295": ({}, [{"variant": "noise", "sigma0": 1e295}]),
    # sigma0 * clip_scale overflows to inf
    "noise-scale-inf": ({}, [{"variant": "noise", "sigma0": 1e200, "clip_scale": 1e200}]),
    "exp-scale-1e307": ({"activation": {"kind": "exp", "scale": 1e307}}, []),
}


def a_block_cases():
    for chain in sorted(A_BLOCK_CHAINS):
        for kind in ("exp", "softplus", "cubic"):
            yield pytest.param({"activation": {"kind": kind}}, A_BLOCK_CHAINS[chain],
                               id=f"{chain}-{kind}")
    for name in sorted(UNPROVEN):
        yield pytest.param(*UNPROVEN[name], id=name)


@pytest.mark.parametrize("over,defenses", a_block_cases())
def test_a_trial_that_reads_only_grad_a_records_what_the_full_observation_gives(over, defenses):
    cfg = small_config(compute_bounds=False, defenses=defenses, utility={"steps": 3}, **over)
    assert hz._reads_only_grad_a(cfg)
    for t in (0, 1):
        rec, ref = run_trial(cfg, t, keep_samples=True), full_layout_run_trial(cfg, t, True)
        # record_hash, NaN rmse, errors and the kept samples included
        assert json.dumps({**rec.to_dict(), "wall_ms": 0}, sort_keys=True) == json.dumps(
            {**ref.to_dict(), "wall_ms": 0}, sort_keys=True)


def test_the_wide_overflow_case_has_a_finite_a_block(monkeypatch):
    # with the proof switched off the a-block of trial 0 passes the check alone
    monkeypatch.setattr(hz, "_PROVEN", math.inf)
    over, defenses = UNPROVEN["noise-1e308-wide"]
    obs = hz._inputs(small_config(compute_bounds=False, defenses=defenses, **over), 0)[3]
    assert (obs.m, obs.d) == (1, 0) and math.isfinite(obs.grad_a[0])


@pytest.mark.parametrize("bounds", [False, True], ids=["bounds-off", "bounds-on"])
@pytest.mark.parametrize("chain", sorted(OVERLAP_CHAINS))
def test_only_a_trial_that_reads_no_w_block_leaves_it_out(monkeypatch, chain, bounds):
    # clip, prune_ratio, coordinate-level dropout, aggregators, gradmatch and
    # bounds each read the whole observation
    over, defenses = OVERLAP_CHAINS[chain]
    cfg = small_config(defenses=defenses, compute_bounds=bounds, **over)
    a_only = not bounds and chain in ("noise-sigma0-zero", "dropout-node", "prune_threshold")
    assert hz._reads_only_grad_a(cfg) == a_only
    obs = hz._inputs(cfg, 0)[3]
    assert (obs.m, obs.d) == (cfg.m, 0 if a_only else cfg.d)
    monkeypatch.setattr(hz, "_reads_only_grad_a", lambda config: False)
    assert obs.grad_a.tobytes() == hz._inputs(cfg, 0)[3].grad_a.tobytes()


# --- bound fold: closed-form Gram against the dense-Jacobian oracle -------------

BOUND_CHAINS = {
    "dropout+clip+noise": [
        {"variant": "dropout", "rate": 0.5},
        {"variant": "clip", "threshold": 1e-3},
        {"variant": "noise", "sigma0": 0.01},
    ],
    "prune_ratio": [{"variant": "prune_ratio", "ratio": 0.9}],
    "prune_threshold": [{"variant": "prune_threshold", "cutoff": 1e-4}],
    "secure_aggregation": [{"variant": "secure_aggregation", "batch_sizes": [1, 1]}],
    "local_aggregation_fresh": [
        {"variant": "local_aggregation", "steps": 2, "fresh_batches": True}
    ],
    "mask-everything": [{"variant": "prune_threshold", "cutoff": 1e9}],
}


def _bound_and_dense_oracle(defenses):
    """The trial's bound next to the dense-Jacobian fold of the same chain."""
    cfg = small_config(defenses=defenses)
    _, params, _, obs, full = hz._inputs(cfg, 0)
    fast = bound_for_observation(params, full, cfg.sigma, obs)
    assert fast.to_dict() == run_trial(cfg, 0).bound
    dense = dense_bound_for_observation(input_jacobian(params, full), cfg.sigma, full.B, obs)
    return fast, dense, full.B


@pytest.mark.parametrize("chain", sorted(BOUND_CHAINS))
def test_bound_for_observation_matches_dense_fold(chain):
    fast, dense, B_eff = _bound_and_dense_oracle(BOUND_CHAINS[chain])
    if chain == "local_aggregation_fresh":
        assert B_eff == 4  # two fresh batches of B = 2
    for key in ("rl_exact", "rl_loose"):
        a, b = getattr(fast, key), getattr(dense, key)
        if math.isinf(b):
            assert a == b
        else:
            assert a == pytest.approx(b, rel=1e-12, abs=0)
    assert fast.rank == dense.rank
    assert fast.n_obs_coords == dense.n_obs_coords
    assert fast.flags == dense.flags
    assert fast.adjustments.keys() == dense.adjustments.keys()
    if "mass_fraction_destroyed" in dense.adjustments:
        assert fast.adjustments["mass_fraction_destroyed"] == pytest.approx(
            dense.adjustments["mass_fraction_destroyed"], abs=1e-12
        )
    if chain == "mask-everything":
        assert fast.flags == ["no-information"]
        assert fast.adjustments["mass_fraction_destroyed"] == 1.0


def test_trial_bound_never_builds_the_dense_jacobian():
    # the dense Jacobian and its bound routines are test oracles only
    import gradleak
    import gradleak.bounds
    import gradleak.network

    for mod in (gradleak, gradleak.network, gradleak.bounds):
        for name in ("input_jacobian", "bound_under_defense", "cramer_rao"):
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    rec = run_trial(small_config(defenses=BOUND_CHAINS["dropout+clip+noise"]), 0)
    assert rec.bound is not None and math.isfinite(rec.bound["rl_exact"])


# --- defense scoring ----------------------------------------------------------

def score_rows(rmses: dict, defense="noise", param="0.1", utility="", m="64") -> list[dict]:
    """CSV rows of one trial: one row per attack, as results.csv holds them."""
    return [
        {"d": "4", "m": m, "B": "2", "defense": defense, "defense_param": param, "attack": k,
         "rmse": repr(v), "utility_loss": utility}
        for k, v in rmses.items()
    ]


def test_aggregate_rows_single_attack_modes_agree():
    rows = score_rows({"tensor": 0.3})
    lo = aggregate_rows(rows, "strongest-attack-min")["defenses"][0]["score"]
    hi = aggregate_rows(rows, "paper-eq3-max")["defenses"][0]["score"]
    assert lo == hi == 0.3


def test_aggregate_rows_min_and_max():
    rows = score_rows({"tensor": 0.2, "gradmatch": 0.5})
    assert aggregate_rows(rows, "strongest-attack-min")["defenses"][0]["score"] == 0.2
    assert aggregate_rows(rows, "paper-eq3-max")["defenses"][0]["score"] == 0.5
    with pytest.raises(ConfigError):
        aggregate_rows(rows, "median")


def test_aggregate_rows_ignores_failed_attacks():
    rows = score_rows({"tensor": float("nan"), "gradmatch": 0.4})
    (entry,) = aggregate_rows(rows)["defenses"]
    assert entry["score"] == 0.4 and entry["per_attack_median"] == {"gradmatch": 0.4}
    assert entry["failed"] == 1


def test_aggregate_rows_keeps_a_defense_whose_every_attack_failed():
    rows = (score_rows({"tensor": 0.3}, defense="none", param="", utility="0.5")
            + score_rows({"tensor": float("nan")}, utility="0.5"))
    agg = aggregate_rows(rows, utility_tol=1.0)
    failed = [t for t in agg["defenses"] if t["defense"] == "noise"]
    assert failed == [{"d": 4, "m": 64, "B": 2, "defense": "noise", "defense_param": "0.1",
                       "score": None, "per_attack_median": {}, "utility_median": 0.5,
                       "failed": 1}]
    # only scored defenses are compared at equal utility
    assert agg["utility_bins"] == [
        {"d": 4, "m": 64, "B": 2, "utility_range": [0.5, 0.5], "defenses": ["none()"],
         "best_defense": "none()"}
    ]


def test_aggregate_rows_compares_defenses_within_one_setting():
    # equal utility at two widths: two bins, one per setting, and the
    # setting sorts before the label
    rows = (score_rows({"tensor": 0.3}, param="0.5", utility="0.5", m="128")
            + score_rows({"tensor": 0.6}, param="0.1", utility="0.5", m="128")
            + score_rows({"tensor": 0.9}, param="0.1", utility="0.5"))
    agg = aggregate_rows(rows, utility_tol=1.0)
    assert [(t["m"], t["defense_param"], t["score"]) for t in agg["defenses"]] == [
        (64, "0.1", 0.9), (128, "0.1", 0.6), (128, "0.5", 0.3)]
    assert [(b["m"], b["defenses"], b["best_defense"]) for b in agg["utility_bins"]] == [
        (64, ["noise(0.1)"], "noise(0.1)"), (128, ["noise(0.1)", "noise(0.5)"], "noise(0.1)")]



def test_a_utility_bin_names_its_best_defense_by_its_label():
    # two strengths of one defense in one bin: the name alone is ambiguous
    rows = (score_rows({"tensor": 0.3}, param="0.1", utility="0.5")
            + score_rows({"tensor": 0.6}, param="0.5", utility="0.6"))
    (b,) = aggregate_rows(rows, utility_tol=0.2)["utility_bins"]
    assert b["defenses"] == ["noise(0.1)", "noise(0.5)"] and b["best_defense"] == "noise(0.5)"


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.1, "0.5", True])
def test_a_utility_tolerance_must_be_a_finite_number_at_least_0(tol):
    with pytest.raises(ConfigError, match="utility_tol must be a finite number >= 0"):
        aggregate_rows(score_rows({"tensor": 0.3}, utility="0.5"), utility_tol=tol)

# --- utility -------------------------------------------------------------------

def test_utility_baseline_halves_loss():
    from gradleak.network import loss

    finals, initials = [], []
    for seed in range(5):
        p = sample_params(8, 256, seed=seed, activation=SP)
        b = sample_batch(8, 4, seed=100 + seed)
        initials.append(loss(p, b))
        finals.append(utility_loss(p, [], b, steps=200))
    assert np.median(finals) < 0.5 * np.median(initials)


def test_an_aggregator_is_priced_at_the_utility_of_its_transforms():
    # utility training applies only the chain's transforms, so a leading
    # aggregator adds no utility cost of its own (README, Conventions)
    base = {"d": 4, "m": 64, "B": 2, "activation": {"kind": "exp"},
            "utility": {"steps": 20}, "compute_bounds": False}
    local = {"variant": "local_aggregation", "steps": 2, "fresh_batches": True}
    secure = {"variant": "secure_aggregation", "batch_sizes": [1, 1]}
    noise = {"variant": "noise", "sigma0": 0.01}

    def util(*chain):
        return run_trial(ExperimentConfig.from_dict(dict(base, defenses=list(chain))),
                         0).utility_loss

    assert util() == util(local) == util(secure)
    assert util(noise) == util(local, noise) == util(secure, noise) != util()


def test_utility_noise_hurts_and_prune_mild():
    # enough steps for the undefended run to converge below the noise floor
    clean, noisy, pruned = [], [], []
    for seed in range(10):
        p = sample_params(8, 256, seed=seed, activation=SP)
        b = sample_batch(8, 4, seed=100 + seed)
        clean.append(utility_loss(p, [], b, steps=600, seed=seed))
        noisy.append(
            utility_loss(p, [NoiseDefense(sigma0=0.1)], b, steps=600, seed=seed)
        )
        pruned.append(
            utility_loss(p, [PruneRatioDefense(ratio=0.3)], b, steps=600, seed=seed)
        )
    assert np.median(noisy) >= np.median(clean)
    assert np.median(pruned) <= 1.5 * np.median(clean)


def test_prune_chain_matches_argsort_oracle(monkeypatch):
    chain = [ClipDefense(threshold=1.0), PruneRatioDefense(ratio=0.9)]
    p = sample_params(8, 256, seed=3, activation=SP)
    b = sample_batch(8, 4, seed=103)
    cfg = small_config(
        defenses=[{"variant": "prune_ratio", "ratio": 0.9}], utility={"steps": 50}
    )

    def run():
        rec = run_trial(cfg, 0).to_dict()
        del rec["wall_ms"]
        return utility_loss(p, chain, b, steps=100, seed=3), rec

    fast = run()
    # apply_draw is where every chain applies a step, in the trial and in utility training
    monkeypatch.setattr(
        dfs.PruneRatioDefense,
        "apply_draw",
        lambda cfg, obs, draw: argsort_prune_ratio(obs, cfg.ratio),
    )
    assert run() == fast


def test_utility_divergence_returns_inf():
    p = sample_params(4, 16, seed=0, activation=SP)
    b = sample_batch(4, 2, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        val = utility_loss(p, [], b, steps=5, eta_a=1e280, eta_w=1e280)
    assert math.isinf(val)


@pytest.mark.parametrize("action", ["error", "ignore", "default"])
def test_non_finite_descent_has_one_result_whatever_the_warnings_filter(action, capsys):
    # an exp network's gradient overflows: the rollout diverges at step 2
    # and training returns +inf, silently, under any warnings filter
    p = sample_params(4, 64, seed=0, activation=Activation("exp"))
    b = sample_batch(4, 2, seed=1)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(action)
        with pytest.raises(DivergenceError) as diverged:
            dfs.local_aggregation(p, [b], 1e200, 1e200, 50)
        val = utility_loss(p, [], b, steps=50, eta_a=1e6, eta_w=1e6)
    assert diverged.value.step == 2 and val == math.inf
    assert shown == [] and capsys.readouterr().err == ""


UTILITY_CHAINS = {
    # the four sweep-utility chains
    "clip_noise": [ClipDefense(threshold=1.0), NoiseDefense(sigma0=0.01)],
    "dropout": [DropoutDefense(rate=0.5)],
    "prune_ratio": [PruneRatioDefense(ratio=0.9)],
    "noise": [NoiseDefense(sigma0=0.05)],
    "coord_dropout": [DropoutDefense(rate=0.5, node_level=False)],
    "prune_threshold": [PruneThresholdDefense(cutoff=1e-3)],
    "none": [],
}


@pytest.mark.parametrize("m", [256, 300, 333])  # W starts 8m bytes in: 300, 333 are off 64 and 16
@pytest.mark.parametrize("chain", sorted(UTILITY_CHAINS))
def test_utility_loss_matches_out_of_place_reference(chain, m):
    p = sample_params(16, m, seed=m, activation=SP)
    b = sample_batch(16, 2, seed=m + 1)
    args = (p, UTILITY_CHAINS[chain], b)
    fast = utility_loss(*args, steps=40, seed=7)
    assert fast.hex() == utility_loss_reference(*args, steps=40, seed=7).hex()
    assert math.isfinite(fast)


@pytest.mark.parametrize("chain", ["clip_noise", "dropout", "none"])
def test_utility_loss_matches_reference_when_diverging(chain):
    p = sample_params(16, 300, seed=4, activation=SP)
    b = sample_batch(16, 2, seed=5)
    args = (p, UTILITY_CHAINS[chain], b)
    kw = dict(steps=5, eta_a=1e280, eta_w=1e280, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        fast = utility_loss(*args, **kw)
        ref = utility_loss_reference(*args, **kw)
    assert fast.hex() == ref.hex() == "inf"


def test_a_training_step_whose_dropout_leaves_nothing_sends_nothing():
    # a 0.9 dropout of 4 units drops every one on some training step of each
    # trial: that step updates nothing, and training goes on; in trial 1 it also
    # drops every unit of the observation, which fails the inputs stage
    cfg = small_config(d=4, m=4, base_seed=0, trials=3, compute_bounds=False,
                       defenses=[{"variant": "dropout", "rate": 0.9}], utility={"steps": 5})
    (dropout,) = cfg.transforms
    emptied = set()
    for t in range(cfg.trials):
        rec = run_trial(cfg, t)
        trial_seed, params, batch, _, _ = hz._inputs(dataclasses.replace(cfg, defenses=()), t)
        seed = derive_seed(trial_seed, DEFENSE_STREAM, 1)
        for step in range(5):
            try:
                dropout.draw(derive_seed(derive_seed(seed, step), 0), cfg.m, cfg.d)
            except DegenerateObservationError:
                emptied.add(t)
        ref = utility_loss_reference(params, [dropout], batch, steps=5, seed=seed)
        if t == 1:
            assert rec.attacks["tensor"]["error"] == (
                "DegenerateObservationError: dropout removed every hidden unit; "
                "nothing observable remains")
            assert rec.utility_loss is None
        else:
            assert rec.errors == {} and rec.utility_loss.hex() == ref.hex()
        assert utility_loss(params, [dropout], batch, steps=5, seed=seed).hex() == ref.hex()
    assert emptied == {0, 1, 2}


# --- sweep ----------------------------------------------------------------------

def sweep_config(trials=1, ms=(128,)):
    return {
        "base": {
            "d": 5,
            "B": 2,
            "activation": {"kind": "exp"},
            "attacks": FAST_ATTACKS,
            "sigma": 0.1,
            "trials": trials,
            "base_seed": 5,
            "defenses": [],
        },
        "grid": {"m": list(ms)},
    }


def strip_wall(csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_sweep_single_point(tmp_path):
    res = sweep(sweep_config(), tmp_path / "out")
    rows = read_results_csv(res["csv"])
    assert len(rows) == 1
    assert list(rows[0].keys()) == CSV_FIELDS
    assert (tmp_path / "out" / "manifest.json").exists()
    # floats round-trip at 17 significant digits
    rec = run_trial(_first_point(sweep_config()), 0)
    assert float(rows[0]["rmse"]) == rec.attacks["tensor"]["rmse"]


@pytest.mark.parametrize("value, text", [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"), (-0.0, "-0"),
    (1e308, "1e+308"), (np.float64("nan"), "nan"), (0.1, "0.10000000000000001"), (7, "7"),
    (np.int64(-3), "-3"), (None, ""), ("noise", "noise"),
])
def test_csv_floats_print_at_17_significant_digits(value, text):
    assert hz._fmt(value) == text


def _first_point(cfg):
    return hz._grid_points(cfg)[0]


def test_sweep_bytes_deterministic(tmp_path):
    cfg = sweep_config(trials=2, ms=(128, 256))
    r1 = sweep(cfg, tmp_path / "a")
    r2 = sweep(cfg, tmp_path / "b")
    a = strip_wall((tmp_path / "a" / "results.csv").read_text())
    b = strip_wall((tmp_path / "b" / "results.csv").read_text())
    assert a == b
    assert r1["rows"] == r2["rows"] == 4


def test_sweep_is_worker_count_invariant(tmp_path):
    cfg = sweep_config(trials=3, ms=(128,))
    sweep(cfg, tmp_path / "w1", workers=1)
    sweep(cfg, tmp_path / "w3", workers=3)
    a = strip_wall((tmp_path / "w1" / "results.csv").read_text())
    b = strip_wall((tmp_path / "w3" / "results.csv").read_text())
    assert a == b


def test_one_worker_sweep_runs_its_trials_on_the_pool(tmp_path, monkeypatch):
    # one execution path: a one-worker sweep keeps its trials off the main
    # thread too, like any other worker count
    real = hz.run_trial
    on_main = []

    def spy(point, trial):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(point, trial)

    monkeypatch.setattr(hz, "run_trial", spy)
    sweep(sweep_config(trials=2), tmp_path / "out", workers=1)
    assert on_main == [False, False]


def test_sweep_bounds_trials_in_flight(tmp_path, monkeypatch):
    # trial 0 stalls until a 9th trial has started, so the other worker must
    # go on past the slow trial.  Each trial is journaled as it ends, so none
    # starts more than 8 ahead of the journal, and the CSV is in grid order.
    cfg = sweep_config(trials=20)
    csv_path, journal = tmp_path / "out" / "results.csv", tmp_path / "out" / "results.jsonl"
    real = hz.run_trial
    lock = threading.Lock()
    started = {n: threading.Event() for n in (8, 9)}
    ahead = []

    def tracked(point, trial):
        with lock:
            emitted = journal.read_text().count("\n")  # one line per emitted trial
            ahead.append(len(ahead) + 1 - emitted)
            if len(ahead) in started:
                started[len(ahead)].set()
        if trial == 0:
            assert started[8].wait(timeout=10)
            assert started[9].wait(timeout=10)
        return real(point, trial)

    monkeypatch.setattr(hz, "run_trial", tracked)
    res = sweep(cfg, tmp_path / "out", workers=2)
    assert res["rows"] == 20
    assert max(ahead) <= 8
    assert [int(r["trial"]) for r in read_results_csv(csv_path)] == list(range(20))


def test_interrupted_sweep_runs_no_trial_it_has_not_started(tmp_path, monkeypatch):
    # one worker, trial 1 interrupted: trials 3, 4 and 5, submitted and not
    # yet started, are cancelled; trial 0 was journaled before the
    # interruption.  Trial 2 runs until its pool is shut down, so trial 3
    # cannot start first.
    real, ran, pools = hz.run_trial, [], []

    class SignallingPool(ThreadPoolExecutor):
        """Sets ``stopping`` once a shutdown has cancelled what it cancels."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.stopping = threading.Event()
            pools.append(self)

        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            self.stopping.set()
            super().shutdown(wait=wait)

    def interrupted(point, trial):
        ran.append(trial)
        if trial == 1:
            raise KeyboardInterrupt("simulated kill")
        if trial == 2:
            pools[0].stopping.wait(10)  # pools[0] is the sweep's, made before any trial
        return real(point, trial)

    monkeypatch.setattr(hz, "ThreadPoolExecutor", SignallingPool)
    monkeypatch.setattr(hz, "run_trial", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sweep(sweep_config(trials=6), tmp_path / "out", workers=1)
    assert ran[:2] == [0, 1] and set(ran) <= {0, 1, 2}
    lines = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
    assert [json.loads(line)["trial"] for line in lines] == [0]


def test_sweep_resume_without_duplicates(tmp_path, monkeypatch):
    cfg = sweep_config(trials=3)
    calls = {"n": 0}
    real = hz.run_trial

    def dying(point, trial):
        calls["n"] += 1
        if calls["n"] > 1:
            raise KeyboardInterrupt("simulated kill")
        return real(point, trial)

    monkeypatch.setattr(hz, "run_trial", dying)
    with pytest.raises(KeyboardInterrupt):
        sweep(cfg, tmp_path / "out")
    monkeypatch.setattr(hz, "run_trial", real)
    assert len(read_results_csv(tmp_path / "out" / "results.csv")) == 1

    res = sweep(cfg, tmp_path / "out")  # resume
    rows = read_results_csv(res["csv"])
    assert len(rows) == 3
    assert len({(r["config_hash"], r["trial"]) for r in rows}) == 3
    # a finished sweep runs no trial again without force
    assert sweep(cfg, tmp_path / "out")["new_records"] == 0
    res2 = sweep(cfg, tmp_path / "out", force=True)
    assert res2["rows"] == 3


# 12 trials of about 50 ms each (utility training), half of them noised
KILLED_SWEEP = {"base": {"d": 5, "m": 2048, "B": 2, "activation": {"kind": "exp"},
                         "attacks": FAST_ATTACKS, "compute_bounds": False, "trials": 6,
                         "utility": {"steps": 500}},
                "grid": {"defenses": [[], [NOISE]]}}


def outputs_without_wall_ms(out):
    """results.csv without its last column, wall_ms, and results.json's
    records without theirs."""
    csv_lines = [line.rsplit(",", 1)[0] for line in (out / "results.csv").read_text().splitlines()]
    records = json.loads((out / "results.json").read_text())["records"]
    return csv_lines, [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]


@pytest.mark.parametrize("seed", [0, 1])
def test_a_sweep_killed_at_any_instant_resumes_to_the_uninterrupted_outputs(tmp_path, seed):
    # a real SIGKILL skips every finally: no CSV or JSON is written, and the
    # journal is left as the kill found it
    sweep(KILLED_SWEEP, tmp_path / "whole")
    spec, out, err = tmp_path / "sweep.json", tmp_path / "killed", tmp_path / "stderr"
    spec.write_text(json.dumps(KILLED_SWEEP))
    cmd = [sys.executable, "-m", "gradleak.cli", "sweep", "--config", str(spec), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(hz.__file__).resolve().parents[1])}

    def journaled():
        path = out / "results.jsonl"
        return path.read_bytes().count(b"\n") if path.exists() else 0

    # the journal lines each run waits for before it is killed: none (it is
    # still starting, before the manifest), two seeded counts, all 12
    between = sorted(random.Random(seed).sample(range(1, 12), 2))
    for wanted in (None, *between, 12):
        with open(err, "wb") as stderr, subprocess.Popen(
                cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr) as child:
            try:
                deadline = time.monotonic() + 30
                while (wanted is not None and journaled() < wanted and child.poll() is None
                       and time.monotonic() < deadline):
                    time.sleep(0.001)
            finally:
                child.kill()  # SIGKILL, to this child alone
        assert child.returncode in (0, -9), err.read_text()
        if wanted is None:
            assert not (out / "manifest.json").exists()
        else:
            assert wanted <= journaled() <= 12 and (wanted == 12 or journaled() < 12)
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["new_records"] == 0
    assert outputs_without_wall_ms(out) == outputs_without_wall_ms(tmp_path / "whole")


def test_sweep_resume_keeps_manifest_timestamp(tmp_path):
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    journal, manifest_path = out / "results.jsonl", out / "manifest.json"
    journal.write_text(journal.read_text().splitlines(keepends=True)[0])
    (out / "results.csv").unlink()  # an output only: the resume rewrites it
    manifest = json.loads(manifest_path.read_text())
    manifest["created_utc"] = "1970-01-01T00:00:00Z"
    manifest_path.write_text(json.dumps(manifest))
    res = sweep(cfg, out)  # resume: one trial left
    assert res["rows"] == 2 and res["new_records"] == 1
    assert json.loads(manifest_path.read_text())["created_utc"] == "1970-01-01T00:00:00Z"


@pytest.mark.parametrize(
    "tear",
    [
        lambda line: line[:line.index('"config_hash"') + 20],   # inside config_hash
        lambda line: line.split(', "utility_loss"')[0],          # after the trial value
    ],
    ids=["inside-config-hash", "after-trial-column"],
)
def test_sweep_resume_drops_torn_csv_tail(tmp_path, tear):
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    csv_path, journal = out / "results.csv", out / "results.jsonl"
    clean = csv_path.read_text()
    first, second = journal.read_text().splitlines(keepends=True)
    journal.write_text(first + tear(second))  # killed mid-write
    res = sweep(cfg, out)  # resume reruns the torn trial
    assert res["rows"] == 2 and res["new_records"] == 1
    assert strip_wall(csv_path.read_text()) == strip_wall(clean)


def test_sweep_killed_before_its_journal_existed_reruns_every_trial(tmp_path):
    # the manifest is written before the journal is opened; a kill between the
    # two leaves no journal, and the resume runs every trial
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    clean = (out / "results.csv").read_text()
    for name in ("results.jsonl", "results.csv", "results.json"):
        (out / name).unlink()
    res = sweep(cfg, out)
    assert res["rows"] == 2 and res["new_records"] == 2
    assert strip_wall((out / "results.csv").read_text()) == strip_wall(clean)


def test_sweep_resume_reruns_a_trial_missing_an_attack_row(tmp_path):
    # a trial with both attacks spans two CSV rows but one journal line;
    # without that line the trial is not done, and the resume reruns it whole
    cfg = sweep_config(trials=2)
    cfg["base"]["attacks"] = {**FAST_ATTACKS, "gradmatch": {"optimizer": {"max_iters": 20}}}
    sweep(cfg, tmp_path / "clean")
    out = tmp_path / "out"
    sweep(cfg, out)
    csv_path, journal = out / "results.csv", out / "results.jsonl"
    assert len(csv_path.read_bytes().splitlines()) == 5
    lines = journal.read_bytes().splitlines(keepends=True)
    assert len(lines) == 2
    journal.write_bytes(lines[0])
    res = sweep(cfg, out)
    assert res["rows"] == 4 and res["new_records"] == 1
    clean = (tmp_path / "clean" / "results.csv").read_text()
    assert strip_wall(csv_path.read_text()) == strip_wall(clean)


def test_sweep_records_a_failing_trial_and_goes_on(tmp_path):
    # the second point's rollout diverges: its trial becomes an error record
    cfg = sweep_config()
    cfg["base"]["m"] = 128
    cfg["grid"] = {"defenses": [[], [{"variant": "local_aggregation", "steps": 50,
                                      "eta_a": 1e200, "eta_w": 1e200}]]}
    res = sweep(cfg, tmp_path / "out")
    rows = read_results_csv(res["csv"])
    assert res["rows"] == 2 and rows[1]["rmse"] == "nan" and rows[0]["rmse"] != "nan"
    failed = json.loads(res["json"].read_text())["records"][1]
    assert failed["attacks"]["tensor"]["error"].startswith("DivergenceError: ")
    assert (failed["bound"], failed["utility_loss"]) == (None, None)


def test_resumed_sweep_json_holds_every_record(tmp_path, monkeypatch):
    cfg = sweep_config(trials=3)
    clean = json.loads(sweep(cfg, tmp_path / "clean")["json"].read_text())
    real = hz.run_trial

    def dying(point, trial):
        if trial == 1:
            raise KeyboardInterrupt("simulated kill")
        return real(point, trial)

    monkeypatch.setattr(hz, "run_trial", dying)
    with pytest.raises(KeyboardInterrupt):
        sweep(cfg, tmp_path / "out")
    monkeypatch.setattr(hz, "run_trial", real)
    res = sweep(cfg, tmp_path / "out")
    assert res["new_records"] == 2
    data = json.loads(res["json"].read_text())
    assert len(data["rows"]) == len(data["records"]) == 3
    assert ([r["record_hash"] for r in data["records"]]
            == [r["record_hash"] for r in clean["records"]])


def test_a_journal_line_without_errors_still_resumes(tmp_path):
    # a line written before records had an errors field: the resume reads it
    # as a record without errors and keeps its record_hash
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    clean = json.loads(sweep(cfg, out)["json"].read_text())["records"]
    journal = out / "results.jsonl"
    first = json.loads(journal.read_text().splitlines()[0])
    del first["errors"]
    journal.write_text(json.dumps(first, sort_keys=True) + "\n")
    res = sweep(cfg, out)
    assert res["new_records"] == 1
    records = json.loads(res["json"].read_text())["records"]
    assert [r["record_hash"] for r in records] == [r["record_hash"] for r in clean]
    assert [r["errors"] for r in records] == [{}, {}]


def _tampered(line: str) -> str:
    rec = json.loads(line)
    rec["attacks"]["tensor"]["rmse"] = 0.0
    return json.dumps(rec, sort_keys=True)


@pytest.mark.parametrize(
    "corrupt, problem",
    [(lambda first, line: line.replace(":", "=", 1), "does not parse"),
     (lambda first, line: line.replace('"wall_ms"', '"wall_s"'), "does not parse"),
     (lambda first, line: _tampered(line), "fails its record_hash"),
     (lambda first, line: first, "repeats a trial")],
    ids=["not-json", "unknown-field", "tampered", "repeated"],
)
def test_sweep_rejects_a_corrupt_journal_line(tmp_path, corrupt, problem):
    # a complete middle line that is not a record of this sweep's trial
    cfg = sweep_config(trials=3)
    out = tmp_path / "out"
    sweep(cfg, out)
    journal = out / "results.jsonl"
    first, second, third = journal.read_text().splitlines()
    journal.write_text(f"{first}\n{corrupt(first, second)}\n{third}\n")
    with pytest.raises(ConfigError, match=f"results.jsonl line 2 {problem}"):
        sweep(cfg, out)


def test_sweep_rejects_a_journal_line_of_another_sweep(tmp_path):
    cfg = sweep_config(trials=2)
    sweep(cfg, tmp_path / "out")
    sweep(sweep_config(trials=2, ms=(256,)), tmp_path / "other")
    journal = tmp_path / "out" / "results.jsonl"
    first = journal.read_text().splitlines(keepends=True)[0]
    journal.write_text(first + (tmp_path / "other" / "results.jsonl").read_text())
    with pytest.raises(ConfigError, match="line 2 is not a trial of this sweep"):
        sweep(cfg, tmp_path / "out")


def test_sweep_force_starts_from_an_empty_journal(tmp_path):
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    journal = out / "results.jsonl"
    journal.write_text(journal.read_text() + "not a record\n")
    res = sweep(cfg, out, force=True)
    assert res["new_records"] == 2
    assert len(journal.read_text().splitlines()) == 2
    assert len(json.loads(res["json"].read_text())["records"]) == 2



def test_sweep_force_deletes_all_four_files_first(tmp_path, monkeypatch):
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    # another sweep's manifest, refused without force
    (out / "manifest.json").write_text(json.dumps({"sweep_hash": "another"}))
    real, seen = hz._read_journal, []

    def spy(path, expected):
        seen.append(sorted(os.listdir(out)))
        return real(path, expected)

    monkeypatch.setattr(hz, "_read_journal", spy)
    res = sweep(cfg, out, force=True)
    assert seen == [[".lock"]] and res["new_records"] == 2
    assert json.loads((out / "manifest.json").read_text())["sweep_hash"] == hz._digest(cfg)


def test_a_sweep_refuses_a_directory_another_run_holds(tmp_path):
    # flock conflicts across open file descriptions, so this test's own hold
    # stands for another run's; force deletes nothing while it is held
    fcntl = pytest.importorskip("fcntl")
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    with open(out / ".lock", "a") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(ConfigError, match=f"^output dir {re.escape(str(out))} is in use by another sweep$"):
            sweep(cfg, out, force=True)
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    res = sweep(cfg, out, force=True)
    assert res["new_records"] == 2
    assert strip_wall(res["csv"].read_text()) == strip_wall(before["results.csv"].decode())


@pytest.mark.parametrize("damage, problem", [
    (None, None),
    (lambda text: text[:50], "cannot read .*manifest.json: "),
    (lambda text: "[1]", "manifest.json must be a JSON object, got \\[1\\]"),
], ids=["missing", "torn", "not-an-object"])
def test_a_sweep_without_a_readable_manifest_reruns_only_what_its_journal_lacks(
        tmp_path, damage, problem):
    # a damaged manifest is one config error and changes nothing; deleted,
    # it is written afresh and the journal's trials stay done
    cfg = sweep_config(trials=3)
    out = tmp_path / "out"
    sweep(cfg, out)
    clean = (out / "results.csv").read_text()
    journal, manifest = out / "results.jsonl", out / "manifest.json"
    kept = "".join(journal.read_text().splitlines(keepends=True)[:2])
    journal.write_text(kept)
    if damage is not None:
        manifest.write_text(damage(manifest.read_text()))
        with pytest.raises(ConfigError, match=problem):
            sweep(cfg, out)
        assert journal.read_text() == kept
    manifest.unlink()
    res = sweep(cfg, out)
    assert res["rows"] == 3 and res["new_records"] == 1
    assert journal.read_text().startswith(kept)
    assert strip_wall((out / "results.csv").read_text()) == strip_wall(clean)
    assert json.loads(manifest.read_text())["sweep_hash"] == hz._digest(cfg)


def test_a_finished_sweep_runs_nothing_and_rewrites_its_outputs(tmp_path, monkeypatch):
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    names = ("results.csv", "results.json", "manifest.json", "results.jsonl")
    first = {name: (out / name).read_bytes() for name in names}
    (out / "results.csv").write_bytes(first["results.csv"][:100])  # cut short
    (out / "results.json").unlink()

    def no_trial(point, trial):
        raise AssertionError("a finished sweep ran a trial")

    monkeypatch.setattr(hz, "run_trial", no_trial)
    res = sweep(cfg, out)
    assert res["rows"] == 2 and res["new_records"] == 0
    assert {name: (out / name).read_bytes() for name in names} == first


def test_a_resume_keeps_the_manifest_bytes(tmp_path):
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    journal, manifest = out / "results.jsonl", out / "manifest.json"
    journal.write_text(journal.read_text().splitlines(keepends=True)[0])
    # the same manifest spelled another way: a resume must not rewrite it
    compact = json.dumps(json.loads(manifest.read_text())).encode()
    manifest.write_bytes(compact)
    assert sweep(cfg, out)["new_records"] == 1
    assert manifest.read_bytes() == compact


def test_the_manifest_records_the_environment_and_nothing_else_moves(tmp_path, monkeypatch):
    # what a split product's bytes depend on goes to the manifest only: two sweeps
    # that saw other BLAS thread variables write the same hash, CSV and records
    cfg = sweep_config(trials=2)
    environments, outputs = [], []
    for n, threads in enumerate(("1", None)):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        out = tmp_path / str(n)
        sweep(cfg, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sweep_hash"] == hz._digest(cfg)
        environments.append(manifest["environment"])
        outputs.append(outputs_without_wall_ms(out))
    first, second = environments
    assert set(first) == {"gradleak", "python", "numpy", "simd_found", "blas",
                          "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
    assert (first["gradleak"], first["python"], first["numpy"]) == (
        gradleak.__version__, platform.python_version(), np.__version__)
    assert first["simd_found"] is None or all(isinstance(x, str) for x in first["simd_found"])
    assert first["blas"] is None or set(first["blas"]) == {"name", "version"}
    assert (first["OPENBLAS_NUM_THREADS"], second["OPENBLAS_NUM_THREADS"]) == ("1", None)
    assert first["OMP_NUM_THREADS"] == second["OMP_NUM_THREADS"] == "3"
    assert outputs[0] == outputs[1]
    points = [ExperimentConfig.from_dict(p) for p in manifest["points"]]
    assert [r["record_hash"] for r in outputs[0][1]] == [
        run_trial(p, t).record_hash() for p in points for t in range(p.trials)]


def test_a_sweep_killed_while_writing_its_manifest_leaves_none(tmp_path, monkeypatch):
    # the manifest is written to a temporary file and renamed into place
    cfg = sweep_config()
    out = tmp_path / "out"

    def killed(src, dst):
        raise KeyboardInterrupt("simulated kill")

    with monkeypatch.context() as m:
        m.setattr(hz.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            sweep(cfg, out)
    assert not (out / "manifest.json").exists()
    assert sweep(cfg, out)["new_records"] == 1
    assert json.loads((out / "manifest.json").read_text())["sweep_hash"] == hz._digest(cfg)


@pytest.mark.parametrize("workers", [0, -3, 2.0, True])
def test_a_sweep_needs_at_least_one_worker(tmp_path, workers):
    with pytest.raises(ConfigError, match=f"workers must be an integer >= 1, got {workers}"):
        sweep(sweep_config(), tmp_path / "out", workers=workers)
    assert not (tmp_path / "out").exists()


def test_a_sweep_into_a_file_is_a_config_error(tmp_path):
    (tmp_path / "out").write_text("")
    with pytest.raises(ConfigError, match="cannot make output dir"):
        sweep(sweep_config(), tmp_path / "out")


def test_grid_points_run_the_first_axis_outermost():
    points = hz._grid_points({"base": {"d": 2, "B": 1},
                              "grid": {"sigma": [0.1, 0.2], "m": [8, 16]}})
    assert [(p.m, p.sigma) for p in points] == [(8, 0.1), (8, 0.2), (16, 0.1), (16, 0.2)]

def test_sweep_rejects_mismatched_directory(tmp_path):
    sweep(sweep_config(), tmp_path / "out")
    with pytest.raises(ConfigError):
        sweep(sweep_config(ms=(256,)), tmp_path / "out")


def test_a_base_seed_grid_that_repeats_a_trial_is_refused(tmp_path):
    with pytest.raises(ConfigError, match="base_seed 10 and 11 run the same trial: "
                                          "trial 1 of base_seed 10 is trial 0 of base_seed 11"):
        sweep(REPEATING_SEED_GRID, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, trials, refused", [
    pytest.param({"base_seed": [0, 1024]}, 1024, False, id="far-apart"),
    # trial 1024 of base seed 0 is trial 0 of base seed 1024
    pytest.param({"base_seed": [0, 1024]}, 1025, True, id="one-trial-too-many"),
    pytest.param({"base_seed": [7, 7]}, 1, True, id="one-point-twice"),
    # points that differ in other fields share trial seeds on purpose
    pytest.param({"m": [8, 16], "sigma": [0.1, 0.2]}, 2, False, id="other-fields"),
])
def test_only_points_equal_apart_from_base_seed_must_not_share_a_trial(grid, trials, refused):
    points = hz._grid_points({"base": {"d": 2, "m": 8, "B": 1, "trials": trials}, "grid": grid})
    if refused:
        with pytest.raises(ConfigError, match="run the same trial"):
            hz._check_distinct_trials(points)
    else:
        hz._check_distinct_trials(points)


def test_aggregate_rows_scores(tmp_path):
    cfg = {
        "base": {
            "d": 5, "B": 2, "m": 128,
            "activation": {"kind": "exp"},
            "attacks": FAST_ATTACKS,
            "sigma": 0.1, "trials": 2, "base_seed": 5,
            "utility": {"steps": 30},
        },
        "grid": {"defenses": [[], [{"variant": "noise", "sigma0": 0.5}]]},
    }
    res = sweep(cfg, tmp_path / "out")
    rows = read_results_csv(res["csv"])
    agg = aggregate_rows(rows, mode="strongest-attack-min", utility_tol=100.0)
    names = {t["defense"] for t in agg["defenses"]}
    assert names == {"none", "noise"}
    assert len(agg["utility_bins"]) >= 1


def test_report_scores_each_width_of_an_m_grid_on_its_own(tmp_path):
    # one entry per setting: pooled, the two widths' six rmse gave one
    # score, 0.40315133480930065, that describes neither
    cfg = {"base": {"d": 4, "B": 2, "activation": {"kind": "exp"}, "trials": 3,
                    "compute_bounds": False}, "grid": {"m": [64, 4096]}}
    res = sweep(cfg, tmp_path / "out")
    agg = aggregate_rows(read_results_csv(res["csv"]))
    assert [(t["d"], t["m"], t["B"], t["defense"], t["score"]) for t in agg["defenses"]] == [
        (4, 64, 2, "none", 0.99570184670403428), (4, 4096, 2, "none", 0.14154725954321487)]


def test_config_round_trip_and_hash_stability():
    cfg = small_config(defenses=[{"variant": "dropout", "rate": 0.3}])
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.config_hash() == cfg.config_hash()
    assert json.dumps(cfg.to_dict(), sort_keys=True)  # serializable


PINNED_BASE = {
    "d": 6, "m": 64, "B": 3, "activation": {"kind": "exp"}, "sigma": 0.1, "base_seed": 7,
}
# config_hash of PINNED_BASE with each defense chain; any change to the JSON
# form of a config (field names, defaults, list/tuple handling) moves these
PINNED_HASHES = {
    "none": ([], "04d9ff934223"),
    "noise": ([{"variant": "noise", "sigma0": 0.05}], "5cd99d5f9ec1"),
    "noise-clip-scale": (
        [{"variant": "noise", "sigma0": 0.05, "clip_scale": 2.0}], "7920faaa93e3"
    ),
    "clip": ([{"variant": "clip", "threshold": 1.5}], "206fc95fd014"),
    "prune-ratio": ([{"variant": "prune_ratio", "ratio": 0.9}], "fc8e8745fb36"),
    "prune-threshold": ([{"variant": "prune_threshold", "cutoff": 1e-3}], "fdea3995b72b"),
    "node-dropout": ([{"variant": "dropout", "rate": 0.5}], "624082c32978"),
    "coord-dropout": (
        [{"variant": "dropout", "rate": 0.3, "node_level": False}], "51f363094ba0"
    ),
    "local-aggregation-fresh": (
        [{"variant": "local_aggregation", "steps": 3, "fresh_batches": True}], "f7bba6ae95a0"
    ),
    "local-aggregation-rates": (
        [{"variant": "local_aggregation", "steps": 2, "eta_a": 1e-4, "eta_w": 0.01}],
        "a94230bffd44",
    ),
    "secure-aggregation": (
        [{"variant": "secure_aggregation", "batch_sizes": [1, 2]}], "9c79c6740ce4"
    ),
    "clip+noise": (
        [{"variant": "clip", "threshold": 1.0}, {"variant": "noise", "sigma0": 0.01}],
        "035cf63b660b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_config_hash_is_pinned(name):
    chain, expected = PINNED_HASHES[name]
    cfg = ExperimentConfig.from_dict({**PINNED_BASE, "defenses": chain})
    assert cfg.config_hash() == expected
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()
    assert again.config_hash() == expected


# config_hash of {"d": 4, "m": 64, "B": 2} with each activation; an explicit
# default scale or kind hashes like an omitted one
PINNED_ACTIVATION_HASHES = [
    (None, "1ecb280ed1bb"),
    ({"kind": "softplus"}, "1ecb280ed1bb"),
    ({"kind": "softplus", "scale": 1.0}, "1ecb280ed1bb"),
    ({"kind": "exp"}, "613da8ba08b6"),
    ({"kind": "cubic", "scale": 0.5}, "8d950ef4ed1b"),
]


@pytest.mark.parametrize("activation, expected", PINNED_ACTIVATION_HASHES,
                         ids=["omitted", "softplus", "softplus-1.0", "exp", "cubic-0.5"])
def test_activation_config_hash_is_pinned(activation, expected):
    spec = {"d": 4, "m": 64, "B": 2}
    if activation is not None:
        spec["activation"] = activation
    cfg = ExperimentConfig.from_dict(spec)
    assert cfg.activation == Activation(**(activation or {"kind": "softplus"}))
    assert cfg.config_hash() == expected


def test_attack_failure_still_emits_partial_record():
    # B above d breaks the subspace stage; the trial records the error and
    # a NaN error value instead of dying
    cfg = small_config(d=2, B=3, m=64)
    rec = run_trial(cfg, 0)
    assert rec.attacks["tensor"]["error"] is not None
    assert math.isnan(rec.attacks["tensor"]["rmse"])


def test_nan_reconstruction_is_recorded_not_raised(monkeypatch):
    # a non-finite reconstruction fails scoring inside the attack's try, so
    # the trial records the solver's message instead of aborting the sweep
    def nan_attack(obs, params, B, cfg):
        return ReconstructionResult(samples=np.full((params.d, B), np.nan))

    monkeypatch.setattr(hz, "tensor_attack", nan_attack)
    rec = run_trial(small_config(), 0)
    assert rec.attacks["tensor"]["error"] == "matrix contains invalid numeric entries"
    assert math.isnan(rec.attacks["tensor"]["rmse"])
    assert rec.attacks["tensor"]["assignment"] is None


# --- config errors ------------------------------------------------------------

@pytest.mark.parametrize("utility", [
    {"steps": 0}, {"steps": "x"}, {"steps": 2.0}, {"steps": True}, {"bogus": 1},
    {"eta_a": "y"}, {"eta_a": 0.0}, {"eta_w": float("nan")}, {"eta_w": float("inf")},
])
def test_bad_utility_is_a_config_error(utility):
    # rejected when the config is read, not when a sweep reaches the trial
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"d": 4, "m": 8, "B": 1, "utility": utility})


def test_utility_accepts_null_and_positive_rates():
    cfg = ExperimentConfig.from_dict(
        {"d": 4, "m": 8, "B": 1, "utility": {"steps": 3, "eta_a": None, "eta_w": 0.01}}
    )
    assert run_trial(cfg, 0).utility_loss >= 0.0


@pytest.mark.parametrize("attacks", [
    {"tensor": {"restarts": 0}}, {"tensor": {"tol": float("nan")}}, {"tensor": {"probe": "x"}},
    {"tensor": {"probe": [1.0, 0.0]}},
    {"gradmatch": {"distance": "l1"}}, {"gradmatch": {"optimizer": {"max_iters": 0}}},
    {"gradmatch": {"feature_source": "gradmatch"}}, {"tensor": None}, {},
    # each trial derives the attack seeds; a seed in the spec would only move the hash
    {"tensor": {"seed": 1}}, {"gradmatch": {"seed": 2}},
    # the feature pull needs the tensor attack's output as its targets
    {"tensor": {}, "gradmatch": {"feature_mode": "cosine2", "alpha_feature": 0.1}},
    {"gradmatch": {"feature_mode": "subspace", "alpha_feature": 0.1, "feature_source": "tensor"}},
])
def test_bad_attack_value_is_a_config_error(attacks):
    # checked once, when the config is read, not as an error record per trial
    with pytest.raises(ConfigError):
        small_config(attacks=attacks)


def test_empty_utility_is_not_null():
    on = small_config(utility={})
    off = small_config(utility=None)
    assert on.config_hash() != off.config_hash()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(on.to_dict())))
    assert again == on and again.utility == hz.UtilityConfig()
    assert run_trial(again, 0).utility_loss is not None
    assert run_trial(off, 0).utility_loss is None


@pytest.mark.parametrize("spec, explicit", [
    ({"attacks": {"tensor": {}}}, {"attacks": {"tensor": {"restarts": 10, "tol": 1e-10}}}),
    ({"activation": {"kind": "exp"}}, {"activation": {"kind": "exp", "scale": 1.0}}),
    ({"attacks": {"gradmatch": {}}}, {"attacks": {"gradmatch": {"optimizer": {}}}}),
    ({"utility": {}}, {"utility": {"steps": 200, "eta_a": None}}),
])
def test_an_explicit_default_hashes_like_an_omitted_one(spec, explicit):
    base = {"d": 4, "m": 8, "B": 1}
    short = ExperimentConfig.from_dict({**base, **spec})
    assert ExperimentConfig.from_dict({**base, **explicit}) == short
    assert ExperimentConfig.from_dict({**base, **explicit}).config_hash() == short.config_hash()


# every float-typed config field: an integral value it accepts, and the spec
# that sets it (the tensor probe holds floats too)
FLOAT_FIELDS = {
    "ExperimentConfig.sigma": (2, lambda v: {"sigma": v}),
    "Activation.scale": (2, lambda v: {"activation": {"kind": "exp", "scale": v}}),
    "NoiseDefense.sigma0": (2, lambda v: {"defenses": [{"variant": "noise", "sigma0": v}]}),
    "NoiseDefense.clip_scale": (2, lambda v: {"defenses": [
        {"variant": "noise", "sigma0": 0.1, "clip_scale": v}]}),
    "ClipDefense.threshold": (2, lambda v: {"defenses": [{"variant": "clip", "threshold": v}]}),
    "PruneRatioDefense.ratio": (0, lambda v: {"defenses": [
        {"variant": "prune_ratio", "ratio": v}]}),
    "PruneThresholdDefense.cutoff": (2, lambda v: {"defenses": [
        {"variant": "prune_threshold", "cutoff": v}]}),
    "DropoutDefense.rate": (0, lambda v: {"defenses": [{"variant": "dropout", "rate": v}]}),
    "LocalAggregationDefense.eta_a": (2, lambda v: {"defenses": [
        {"variant": "local_aggregation", "steps": 2, "eta_a": v}]}),
    "LocalAggregationDefense.eta_w": (2, lambda v: {"defenses": [
        {"variant": "local_aggregation", "steps": 2, "eta_w": v}]}),
    "TensorAttackConfig.tol": (2, lambda v: {"attacks": {"tensor": {"tol": v}}}),
    "TensorAttackConfig.probe": (2, lambda v: {"attacks": {"tensor": {"probe": [v, 0, 0, v]}}}),
    "GradMatchConfig.alpha_feature": (2, lambda v: {"attacks": {"gradmatch": {
        "alpha_feature": v}}}),
    **{f"OptimizerConfig.{name}": (value, lambda v, name=name: {"attacks": {"gradmatch": {
        "optimizer": {name: v}}}})
       for name, value in (("step_size", 2), ("beta1", 0), ("beta2", 0), ("eps", 2),
                           ("grad_tol", 2))},
    "UtilityConfig.eta_a": (2, lambda v: {"utility": {"eta_a": v}}),
    "UtilityConfig.eta_w": (2, lambda v: {"utility": {"eta_w": v}}),
}


@pytest.mark.parametrize("name", sorted(FLOAT_FIELDS))
def test_a_float_field_hashes_alike_spelled_as_an_int_or_a_float(name):
    value, spec = FLOAT_FIELDS[name]
    base = {"d": 4, "m": 8, "B": 1}
    as_int = ExperimentConfig.from_dict({**base, **spec(value)})
    as_float = ExperimentConfig.from_dict({**base, **spec(float(value))})
    assert json.dumps(as_int.to_dict()) == json.dumps(as_float.to_dict())
    assert as_int.config_hash() == as_float.config_hash()


def test_every_float_field_is_respelled_above():
    from gradleak.gradmatch import GradMatchConfig, OptimizerConfig
    from gradleak.tensor_attack import TensorAttackConfig

    classes = (ExperimentConfig, hz.UtilityConfig, Activation, TensorAttackConfig,
               GradMatchConfig, OptimizerConfig, *dfs._BY_VARIANT.values())
    floats = {f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)
              if f.type in ("float", "float | None")}
    assert floats == FLOAT_FIELDS.keys() - {"TensorAttackConfig.probe"}


def test_config_is_immutable_and_round_trips():
    cfg = small_config(attacks={"tensor": {"restarts": 3, "probe": [1, 0, 0, 0, 0, 0]},
                                "gradmatch": {"optimizer": {"max_iters": 5}}})
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tensor.restarts = 4
    assert cfg.tensor.probe == (1, 0, 0, 0, 0, 0)
    spec = json.loads(json.dumps(cfg.to_dict()))
    assert spec["attacks"] == {"tensor": {"restarts": 3, "probe": [1, 0, 0, 0, 0, 0]},
                               "gradmatch": {"optimizer": {"max_iters": 5}}}
    assert ExperimentConfig.from_dict(spec) == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig(d=4, m=8, B=1, activation={"kind": "exp"})

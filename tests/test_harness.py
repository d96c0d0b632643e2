import json
import math
import threading

import numpy as np
import pytest

import gradleak.defenses as dfs
import gradleak.harness as hz
from gradleak.activations import make_activation
from gradleak.defenses import ClipDefense, NoiseDefense, PruneRatioDefense
from gradleak.errors import ConfigError
from gradleak.harness import (
    CSV_FIELDS,
    ExperimentConfig,
    defense_score,
    read_results_csv,
    run_trial,
    sweep,
    utility_loss,
    aggregate_rows,
)
from gradleak.network import DataBatch, input_jacobian, sample_batch, sample_params
from gradleak.seeding import DATA_STREAM, PARAMS_STREAM, derive_seed
from oracles import argsort_prune_ratio, dense_bound_for_observation

SP = make_activation("softplus")

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
    trial_seed = derive_seed(cfg.base_seed, 0)
    params = sample_params(
        cfg.d, cfg.m, derive_seed(trial_seed, PARAMS_STREAM), make_activation(**cfg.activation)
    )
    batch = sample_batch(cfg.d, cfg.B, derive_seed(trial_seed, DATA_STREAM))
    obs, truth, truth_y = hz._observation_for_trial(cfg, params, batch, trial_seed)
    full = DataBatch(X=truth, y=truth_y)
    fast = hz.bound_for_observation(params, full, cfg.sigma, obs)
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


def test_trial_bound_never_builds_the_dense_jacobian(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("dense input Jacobian built")

    import gradleak
    import gradleak.network

    monkeypatch.setattr(gradleak.network, "input_jacobian", boom)
    monkeypatch.setattr(gradleak, "input_jacobian", boom)
    monkeypatch.setattr(hz, "input_jacobian", boom, raising=False)
    rec = run_trial(small_config(defenses=BOUND_CHAINS["dropout+clip+noise"]), 0)
    assert rec.bound is not None and math.isfinite(rec.bound["rl_exact"])


# --- defense scoring ----------------------------------------------------------

def fake_record(rmses: dict) -> hz.TrialRecord:
    return hz.TrialRecord(
        config_hash="x", trial=0, d=4, m=8, B=1, defense="noise", defense_param="0.1",
        attacks={k: {"rmse": v, "assignment": None, "error": None} for k, v in rmses.items()},
        bound=None, utility_loss=None, wall_ms=0.0,
    )


def test_defense_score_single_attack_modes_agree():
    recs = [fake_record({"tensor": 0.3})]
    lo, _ = defense_score(recs, "strongest-attack-min")
    hi, _ = defense_score(recs, "paper-eq3-max")
    assert lo == hi == 0.3


def test_defense_score_min_and_max():
    recs = [fake_record({"tensor": 0.2, "gradmatch": 0.5})]
    assert defense_score(recs, "strongest-attack-min")[0] == 0.2
    assert defense_score(recs, "paper-eq3-max")[0] == 0.5


def test_defense_score_ignores_failed_attacks():
    recs = [fake_record({"tensor": float("nan"), "gradmatch": 0.4})]
    assert defense_score(recs)[0] == 0.4
    with pytest.raises(ConfigError):
        defense_score([fake_record({"tensor": float("nan")})])


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
    monkeypatch.setattr(dfs, "apply_prune_ratio", argsort_prune_ratio)
    assert run() == fast


def test_utility_divergence_returns_inf():
    p = sample_params(4, 16, seed=0, activation=SP)
    b = sample_batch(4, 2, seed=1)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        val = utility_loss(p, [], b, steps=5, eta_a=1e280, eta_w=1e280)
    assert math.isinf(val)


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


def test_sweep_bounds_trials_in_flight(tmp_path, monkeypatch):
    # trial 0 stalls until 8 trials have started and then a little longer,
    # so an unbounded pool runs a 9th trial before any row is emitted
    cfg = sweep_config(trials=20)
    csv_path = tmp_path / "out" / "results.csv"
    real = hz.run_trial
    lock = threading.Lock()
    started = {n: threading.Event() for n in (8, 9)}
    ahead = []

    def tracked(point, trial):
        with lock:
            emitted = csv_path.read_text().count("\n") - 1  # minus the header
            ahead.append(len(ahead) + 1 - emitted)
            if len(ahead) in started:
                started[len(ahead)].set()
        if trial == 0:
            assert started[8].wait(timeout=10)
            started[9].wait(timeout=0.25)
        return real(point, trial)

    monkeypatch.setattr(hz, "run_trial", tracked)
    res = sweep(cfg, tmp_path / "out", workers=2)
    assert res["rows"] == 20
    assert max(ahead) <= 8
    assert [int(r["trial"]) for r in read_results_csv(csv_path)] == list(range(20))


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
    # completed runs refuse to re-run without force
    with pytest.raises(ConfigError):
        sweep(cfg, tmp_path / "out")
    res2 = sweep(cfg, tmp_path / "out", force=True)
    assert res2["rows"] == 3


def test_sweep_resume_keeps_manifest_timestamp(tmp_path):
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    csv_path, manifest_path = out / "results.csv", out / "manifest.json"
    header, first = csv_path.read_text().splitlines()[:2]
    csv_path.write_text(header + "\n" + first + "\n")
    manifest = json.loads(manifest_path.read_text())
    manifest["created_utc"] = "1970-01-01T00:00:00Z"
    manifest_path.write_text(json.dumps(manifest))
    res = sweep(cfg, out)  # resume: one trial left
    assert res["rows"] == 2 and res["new_records"] == 1
    assert json.loads(manifest_path.read_text())["created_utc"] == "1970-01-01T00:00:00Z"


@pytest.mark.parametrize(
    "tear",
    [
        lambda row: row[:5],                             # inside config_hash
        lambda row: ",".join(row.split(",")[:3]),        # after the trial column
    ],
    ids=["inside-config-hash", "after-trial-column"],
)
def test_sweep_resume_drops_torn_csv_tail(tmp_path, tear):
    cfg = sweep_config(trials=2)
    out = tmp_path / "out"
    sweep(cfg, out)
    csv_path = out / "results.csv"
    clean = csv_path.read_text()
    header, first, second = clean.splitlines()
    csv_path.write_text(header + "\n" + first + "\n" + tear(second))  # killed mid-write
    res = sweep(cfg, out)  # resume reruns the torn trial
    assert res["rows"] == 2 and res["new_records"] == 1
    assert strip_wall(csv_path.read_text()) == strip_wall(clean)


def test_sweep_rejects_mismatched_directory(tmp_path):
    sweep(sweep_config(), tmp_path / "out")
    with pytest.raises(ConfigError):
        sweep(sweep_config(ms=(256,)), tmp_path / "out")


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


def test_config_round_trip_and_hash_stability():
    cfg = small_config(defenses=[{"variant": "dropout", "rate": 0.3}])
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.config_hash() == cfg.config_hash()
    assert json.dumps(cfg.to_dict(), sort_keys=True)  # serializable


def test_attack_failure_still_emits_partial_record():
    # B above d breaks the subspace stage; the trial records the error and
    # a NaN error value instead of dying
    cfg = small_config(d=2, B=3, m=64)
    rec = run_trial(cfg, 0)
    assert rec.attacks["tensor"]["error"] is not None
    assert math.isnan(rec.attacks["tensor"]["rmse"])

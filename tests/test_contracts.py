"""The trial contract, probed on seeded random configs.

Every stage's Exception becomes part of the record; the record is the
same under any warnings filter and equal to the sequential oracle's; the
trial prints nothing; the record survives the sweep's journal and
``aggregate_rows`` takes its rows.  A config that is not valid is a
ConfigError and nothing else.  The configs are drawn from one seeded
generator over small networks (d <= 5, m <= 33, B <= 3), every activation
at scales 1e-200 to 1e100, chains of up to three defenses (aggregators
included) with parameters from 0 to 1e300, and each attack, the bound and
utility training on or off.  Two fixed configs ride along: one whose moment
matrix once made LAPACK print, and one with W at the split floor, whose
weight draw splits and joins.

Tier-1 checks the first 25 valid configs; the test-only environment
variable ``GRADLEAK_PROBE_CONFIGS`` sets another count (CI runs 1000).
"""
import json
import os
import random
import warnings

import pytest

import gradleak.harness as hz
from gradleak import network
from gradleak.errors import ConfigError
from gradleak.harness import CSV_FIELDS, ExperimentConfig, aggregate_rows, run_trial
from conftest import LAPACK_PRINTING
from oracles import sequential_run_trial

SEED = 6
VALID = int(os.environ.get("GRADLEAK_PROBE_CONFIGS", "25"))


def _param(rng: random.Random) -> float:
    """0, a moderate value or a huge one, up to 1e300."""
    u = rng.random()
    if u < 0.1:
        return 0.0
    return 10.0 ** (rng.uniform(-3.0, 3.0) if u < 0.7 else rng.uniform(3.0, 300.0))


def _defense(rng: random.Random, B: int) -> dict:
    kind = rng.choice(["noise", "clip", "prune_ratio", "prune_threshold", "dropout",
                       "local_aggregation", "secure_aggregation"])
    if kind == "noise":
        spec = {"sigma0": _param(rng)}
        if rng.random() < 0.3:
            spec["clip_scale"] = _param(rng)
    elif kind == "clip":
        spec = {"threshold": _param(rng)}
    elif kind == "prune_ratio":
        spec = {"ratio": rng.uniform(0.0, 1.1)}
    elif kind == "prune_threshold":
        spec = {"cutoff": _param(rng)}
    elif kind == "dropout":
        spec = {"rate": rng.uniform(0.0, 1.1), "node_level": rng.random() < 0.6}
    elif kind == "local_aggregation":
        spec = {"steps": rng.randint(1, 3), "fresh_batches": rng.random() < 0.5}
        if rng.random() < 0.5:
            spec["eta_a"], spec["eta_w"] = _param(rng), _param(rng)
    else:  # client batch sizes that may or may not sum to B
        spec = {"batch_sizes": [rng.randint(1, 2) for _ in range(rng.randint(1, B))]}
    return {"variant": kind, **spec}


def _draw(rng: random.Random) -> dict:
    d, m, B = rng.randint(1, 5), rng.randint(1, 33), rng.randint(1, 3)
    attacks = {}
    if rng.random() < 0.8:
        attacks["tensor"] = {}
    if rng.random() < 0.4:
        attacks["gradmatch"] = {"optimizer": {"max_iters": rng.randint(1, 20)}}
    spec = {
        "d": d, "m": m, "B": B, "base_seed": rng.randrange(1000),
        "activation": {"kind": rng.choice(["softplus", "exp", "cubic"]),
                       "scale": 10.0 ** (rng.uniform(-2.0, 2.0) if rng.random() < 0.5
                                         else rng.uniform(-200.0, 100.0))},
        "defenses": [_defense(rng, B) for _ in range(rng.randint(0, 3))],
        "attacks": attacks,
        "compute_bounds": rng.random() < 0.5,
    }
    if rng.random() < 0.4:
        spec["utility"] = {"steps": rng.randint(1, 5)}
    return spec


def _draw_cases(seed: int, valid: int):
    """The first ``valid`` valid configs of the seeded stream, with every
    invalid one drawn on the way."""
    rng, good, bad = random.Random(seed), [], []
    while len(good) < valid:
        spec = _draw(rng)
        try:
            good.append(ExperimentConfig.from_dict(spec))
        except Exception as e:  # the invalid-config test says which kind it must be
            bad.append((spec, e))
    return good, bad


VALID_CONFIGS, INVALID_DRAWS = _draw_cases(SEED, VALID)
# a trial that reads only grad_a with W at the split floor (2^21 elements): its
# weight draw splits, and its lead-in is long enough to reach the join
SPLIT_FLOOR = ExperimentConfig.from_dict({
    "d": 32, "m": 65536, "B": 2, "activation": {"kind": "exp"}, "compute_bounds": False,
    "defenses": [{"variant": "noise", "sigma0": 0.01}]})
FIXED = {"lapack": ExperimentConfig.from_dict(LAPACK_PRINTING), "split-floor": SPLIT_FLOOR}


def _without_wall_ms(rec) -> str:
    return json.dumps({k: v for k, v in rec.to_dict().items() if k != "wall_ms"}, sort_keys=True)


def _one_record(cfg, capfd):
    """The trial's record, the same under either warnings filter and equal
    to the sequential oracle's, with nothing printed."""
    records = []
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            records.append(run_trial(cfg, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # a warning that leaked would be printed
        records.append(sequential_run_trial(cfg, 0))
    assert len({_without_wall_ms(r) for r in records}) == 1  # record_hash included
    assert capfd.readouterr() == ("", "")
    return records[0]


CASES = dict(argvalues=VALID_CONFIGS + list(FIXED.values()),
             ids=[f"draw{i}" for i in range(len(VALID_CONFIGS))] + list(FIXED))


@pytest.mark.parametrize("cfg", **CASES)
def test_a_trial_keeps_its_contract(cfg, capfd, tmp_path):
    rec = _one_record(cfg, capfd)
    journal = tmp_path / "results.jsonl"
    journal.write_text(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    (back,) = hz._read_journal(journal, {(rec.config_hash, rec.trial): 0})
    assert json.dumps(back.to_dict(), sort_keys=True) == json.dumps(rec.to_dict(), sort_keys=True)

    rows = [{k: hz._fmt(row[k]) for k in CSV_FIELDS} for row in back.to_rows()]
    (entry,) = aggregate_rows(rows, utility_tol=0.1)["defenses"]
    assert (entry["defense"], entry["defense_param"]) == (cfg.defense_name, cfg.defense_param)
    assert entry["failed"] == sum(r["rmse"] == "nan" for r in rows)


def test_an_invalid_config_is_a_config_error_and_nothing_else():
    assert len(INVALID_DRAWS) >= 10  # the stream draws plenty of them
    for spec, e in INVALID_DRAWS:
        assert type(e) is ConfigError, (spec, e)


@pytest.mark.parametrize("cfg", **CASES)
def test_a_trial_that_splits_everything_keeps_its_contract(cfg, capfd, monkeypatch):
    # with the split floor at 0 every kernel call and weight draw that can split
    # does: a trial at layout (m, 0) splits its weight draw; at the drawn sizes
    # the lead-in ends before the join, so the draw falls back, and at the
    # split floor it joins
    monkeypatch.setattr(network, "_SPLIT_MIN", 0)
    offsets, real_join = [], network._join

    def join(*args):
        offsets.append(real_join(*args))
        return offsets[-1]

    monkeypatch.setattr(network, "_join", join)
    _one_record(cfg, capfd)
    if cfg is SPLIT_FLOOR:
        assert offsets and all(o is not None for o in offsets)

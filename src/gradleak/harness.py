"""Experiment orchestration: trials, defense scoring, utility, sweeps.

A trial is a pure function of (config, trial index): the trial seed is a
SplitMix-style hash of the base seed and the index, so adding grid points
or trials never perturbs existing ones.  Sweeps emit ``results.csv`` (fixed
schema below), ``results.json`` and a ``manifest.json``; every value except
the wall-time measurement is bit-reproducible, and wall time is the last
CSV column so determinism checks can strip it.

CSV schema:
    config_hash, trial, d, m, B, defense, defense_param, attack, rmse,
    rl_exact, rl_loose, utility_loss, wall_ms
with floats printed to 17 significant digits for exact round-tripping.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import defenses as dfs
from .activations import make_activation
from .bounds import bound_for_observation
from .errors import ConfigError, GradleakError
from .gradmatch import GradMatchConfig, OptimizerConfig, grad_match_attack
from .network import (
    DataBatch,
    NetworkParams,
    gradient,
    loss,
    sample_batch,
    sample_params,
)
from .seeding import (
    DATA_STREAM,
    DEFENSE_STREAM,
    GRADMATCH_STREAM,
    PARAMS_STREAM,
    TENSOR_STREAM,
    derive_seed,
)
from .tensor_attack import TensorAttackConfig, score_reconstruction, tensor_attack

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "run_trial",
    "defense_score",
    "utility_loss",
    "sweep",
    "aggregate_rows",
    "read_results_csv",
    "CSV_FIELDS",
]

CSV_FIELDS = [
    "config_hash",
    "trial",
    "d",
    "m",
    "B",
    "defense",
    "defense_param",
    "attack",
    "rmse",
    "rl_exact",
    "rl_loose",
    "utility_loss",
    "wall_ms",
]

WORKERS_ENV = "GRADLEAK_WORKERS"


def _fmt(x) -> str:
    """17-significant-digit float formatting; exact CSV round-trip."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experimental point; see from_dict for the JSON schema."""

    d: int
    m: int
    B: int
    activation: dict = field(default_factory=lambda: {"kind": "softplus"})
    defenses: tuple = ()
    attacks: dict = field(default_factory=lambda: {"tensor": {}})
    sigma: float = 0.1
    trials: int = 1
    base_seed: int = 0
    compute_bounds: bool = True
    utility: dict | None = None

    def validate(self):
        for name in ("d", "m", "B", "trials", "base_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.sigma, bool) or not isinstance(self.sigma, numbers.Real):
            raise ConfigError(f"sigma must be a number, got {self.sigma!r}")
        if self.d < 1 or self.m < 1 or self.B < 1:
            raise ConfigError("d, m and B must be positive")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be a finite number > 0, got {self.sigma!r}")
        if not isinstance(self.compute_bounds, bool):
            raise ConfigError(f"compute_bounds must be true or false, got {self.compute_bounds!r}")
        util = {} if self.utility is None else self.utility
        if not isinstance(util, dict) or set(util) - {"steps", "eta_a", "eta_w"}:
            raise ConfigError(f"utility must be null or an object of steps, eta_a, eta_w, got {util!r}")
        dfs._check("utility steps must be an integer >= 1", util.get("steps", 1),
                   lambda x: x >= 1, numbers.Integral)
        for key in ("eta_a", "eta_w"):
            if util.get(key) is not None:
                dfs._check(f"utility {key} must be null or a finite number > 0", util[key],
                           lambda x: 0 < x < math.inf)
        if not self.attacks:
            raise ConfigError("configure at least one attack")
        unknown = set(self.attacks) - {"tensor", "gradmatch"}
        if unknown:
            raise ConfigError(f"unknown attacks {sorted(unknown)}")
        # key names only: value checks stay inside each attack's error record
        try:
            if "tensor" in self.attacks:
                _tensor_config(self.attacks["tensor"], 0)
            if "gradmatch" in self.attacks:
                _gradmatch_config(self.attacks["gradmatch"], 0)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad attack parameters: {e}") from e
        for k, cfg in enumerate(self.defenses):
            if isinstance(cfg, dfs.AGGREGATORS) and k != 0:
                raise ConfigError("aggregation defenses must come first in the chain")
        if not isinstance(self.activation, dict):
            raise ConfigError(f"activation must be an object, got {self.activation!r}")
        try:
            make_activation(**self.activation)  # raises ConfigError on a bad kind/scale
        except TypeError as e:
            raise ConfigError(f"bad activation parameters: {e}") from e

    @classmethod
    def from_dict(cls, spec: dict) -> "ExperimentConfig":
        if not isinstance(spec, dict):
            raise ConfigError(f"an experiment config is a JSON object, got {spec!r}")
        spec = dict(spec)
        specs = spec.pop("defenses", [])
        if not isinstance(specs, (list, tuple)):
            raise ConfigError(f"defenses must be a list of defense objects, got {specs!r}")
        defenses = tuple(dfs.defense_from_dict(s) for s in specs)
        try:
            cfg = cls(defenses=defenses, **spec)
        except TypeError as e:
            raise ConfigError(f"bad experiment config: {e}") from e
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "B": self.B,
            "activation": dict(self.activation),
            "defenses": [dfs.defense_to_dict(c) for c in self.defenses],
            "attacks": {k: dict(v) for k, v in self.attacks.items()},
            "sigma": self.sigma,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "compute_bounds": self.compute_bounds,
            "utility": dict(self.utility) if self.utility else None,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    @property
    def defense_name(self) -> str:
        return "+".join(c.variant for c in self.defenses) or "none"

    @property
    def defense_param(self) -> str:
        return "+".join(_fmt(c.main_param) for c in self.defenses)


@dataclass
class TrialRecord:
    config_hash: str
    trial: int
    d: int
    m: int
    B: int
    defense: str
    defense_param: str
    attacks: dict                      # name -> {"rmse", "assignment", "error"}
    bound: dict | None
    utility_loss: float | None
    wall_ms: float

    def record_hash(self) -> str:
        """Hash of the deterministic content (wall time excluded)."""
        payload = {
            "config_hash": self.config_hash,
            "trial": self.trial,
            "attacks": {
                k: {kk: vv for kk, vv in v.items()} for k, v in self.attacks.items()
            },
            "bound": self.bound,
            "utility_loss": self.utility_loss,
        }
        blob = json.dumps(payload, sort_keys=True, default=_fmt)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_rows(self) -> list[dict]:
        """One CSV row per configured attack (the schema has one attack
        column, so a trial with both attacks spans two rows)."""
        rows = []
        for name, res in sorted(self.attacks.items()):
            rows.append(
                {
                    "config_hash": self.config_hash,
                    "trial": self.trial,
                    "d": self.d,
                    "m": self.m,
                    "B": self.B,
                    "defense": self.defense,
                    "defense_param": self.defense_param,
                    "attack": name,
                    "rmse": res.get("rmse"),
                    "rl_exact": None if self.bound is None else self.bound["rl_exact"],
                    "rl_loose": None if self.bound is None else self.bound["rl_loose"],
                    "utility_loss": self.utility_loss,
                    "wall_ms": self.wall_ms,
                }
            )
        return rows

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "trial": self.trial,
            "d": self.d,
            "m": self.m,
            "B": self.B,
            "defense": self.defense,
            "defense_param": self.defense_param,
            "attacks": self.attacks,
            "bound": self.bound,
            "utility_loss": self.utility_loss,
            "wall_ms": self.wall_ms,
            "record_hash": self.record_hash(),
        }


def _tensor_config(spec: dict, seed: int) -> TensorAttackConfig:
    spec = dict(spec)
    spec.pop("seed", None)
    return TensorAttackConfig(seed=seed, **spec)


def _gradmatch_config(spec: dict, seed: int) -> GradMatchConfig:
    """The gradmatch attack config; ``feature_source`` is read by run_trial."""
    spec = dict(spec)
    spec.pop("seed", None)
    spec.pop("feature_source", None)
    opt_spec = spec.pop("optimizer", {})
    return GradMatchConfig(seed=seed, optimizer=OptimizerConfig(**opt_spec), **spec)


def _observation_for_trial(config, params, batch, trial_seed):
    """Base observation plus defended variant; returns (obs, truth_X, truth_y)."""
    transforms = list(config.defenses)
    truth, truth_y = batch.X, batch.y
    if transforms and isinstance(transforms[0], dfs.AGGREGATORS):
        agg = transforms.pop(0)
        if isinstance(agg, dfs.LocalAggregationDefense):
            if agg.fresh_batches and agg.steps > 1:
                batches = [batch] + [
                    sample_batch(config.d, config.B, derive_seed(trial_seed, DATA_STREAM, k))
                    for k in range(1, agg.steps)
                ]
                truth = np.concatenate([b.X for b in batches], axis=1)
                truth_y = np.concatenate([b.y for b in batches])
            else:
                batches = [batch]
            obs = dfs.local_aggregation(params, batches, agg.eta_a, agg.eta_w, agg.steps)
        else:
            sizes = list(agg.batch_sizes)
            if sum(sizes) != config.B:
                raise ConfigError(
                    "secure aggregation client batch sizes must sum to B"
                )
            parts = []
            start = 0
            for b in sizes:
                sub = DataBatch(X=batch.X[:, start:start + b], y=batch.y[start:start + b])
                parts.append((gradient(params, sub), b))
                start += b
            obs = dfs.secure_aggregate(parts)
    else:
        obs = gradient(params, batch)
    if transforms:
        obs = dfs.compose(transforms, obs, derive_seed(trial_seed, DEFENSE_STREAM))
    return obs, truth, truth_y


def run_trial(
    config: ExperimentConfig, trial_idx: int, keep_samples: bool = False
) -> TrialRecord:
    """Sample, defend, attack, score and bound one trial.

    ``keep_samples`` additionally stores each attack's recovered sample
    columns in the record (omitted by default to keep sweep artifacts
    small)."""
    config.validate()
    t0 = time.perf_counter()
    trial_seed = derive_seed(config.base_seed, trial_idx)
    activation = make_activation(**config.activation)
    params = sample_params(
        config.d, config.m, derive_seed(trial_seed, PARAMS_STREAM), activation
    )
    batch = sample_batch(config.d, config.B, derive_seed(trial_seed, DATA_STREAM))
    obs, truth, truth_y = _observation_for_trial(config, params, batch, trial_seed)
    B_eff = truth.shape[1]

    attack_out = {}
    tensor_result = None
    if "tensor" in config.attacks:
        cfg = _tensor_config(config.attacks["tensor"], derive_seed(trial_seed, TENSOR_STREAM))
        try:
            tensor_result = score_reconstruction(
                tensor_attack(obs, params, B_eff, cfg), truth, sign_resolve=True
            )
            attack_out["tensor"] = {
                "rmse": tensor_result.rmse,
                "assignment": tensor_result.assignment.tolist(),
                "error": None,
            }
            if keep_samples:
                attack_out["tensor"]["samples"] = tensor_result.samples.tolist()
                attack_out["tensor"]["signs"] = tensor_result.signs.tolist()
        except GradleakError as e:
            attack_out["tensor"] = {"rmse": float("nan"), "assignment": None, "error": str(e)}
    if "gradmatch" in config.attacks:
        spec = config.attacks["gradmatch"]
        cfg = _gradmatch_config(spec, derive_seed(trial_seed, GRADMATCH_STREAM))
        targets = None
        if spec.get("feature_source") == "tensor" and tensor_result is not None:
            targets = tensor_result.samples
        try:
            res = grad_match_attack(obs, params, truth_y, cfg, feature_targets=targets)
            res = score_reconstruction(res, truth, sign_resolve=cfg.sign_resolve)
            attack_out["gradmatch"] = {
                "rmse": res.rmse,
                "assignment": res.assignment.tolist(),
                "error": None,
            }
            if keep_samples:
                attack_out["gradmatch"]["samples"] = res.samples.tolist()
        except GradleakError as e:
            attack_out["gradmatch"] = {"rmse": float("nan"), "assignment": None, "error": str(e)}

    bound = None
    if config.compute_bounds:
        bound = bound_for_observation(
            params, DataBatch(X=truth, y=truth_y), config.sigma, obs
        ).to_dict()

    util = None
    if config.utility is not None:
        transforms = [c for c in config.defenses if not isinstance(c, dfs.AGGREGATORS)]
        util = utility_loss(
            params,
            transforms,
            batch,
            steps=int(config.utility.get("steps", 200)),
            eta_a=config.utility.get("eta_a"),
            eta_w=config.utility.get("eta_w"),
            seed=derive_seed(trial_seed, DEFENSE_STREAM, 1),
        )

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        config_hash=config.config_hash(),
        trial=trial_idx,
        d=config.d,
        m=config.m,
        B=config.B,
        defense=config.defense_name,
        defense_param=config.defense_param,
        attacks=attack_out,
        bound=bound,
        utility_loss=util,
        wall_ms=wall_ms,
    )


def defense_score(records: list[TrialRecord], mode: str = "strongest-attack-min"):
    """Score one defense group from its trial records.

    ``strongest-attack-min``: the strongest attack is the one with the
    smallest median error, and its error is the score (how evaluations are
    actually run).  ``paper-eq3-max``: the literal worst-attack maximum.
    Failed attacks (NaN) are ignored; a group with no successful attack
    raises.
    """
    if mode not in ("strongest-attack-min", "paper-eq3-max"):
        raise ConfigError(f"unknown scoring mode '{mode}'")
    if not records:
        raise ConfigError("empty record group")
    per_attack: dict[str, list[float]] = {}
    for rec in records:
        for name, res in rec.attacks.items():
            rm = res.get("rmse")
            if rm is not None and not math.isnan(rm):
                per_attack.setdefault(name, []).append(rm)
    if not per_attack:
        raise ConfigError("no successful attack in the record group")
    medians = {k: float(np.median(v)) for k, v in per_attack.items()}
    pick = min if mode == "strongest-attack-min" else max
    return pick(medians.values()), {"mode": mode, "per_attack_median": medians}


def utility_loss(
    params: NetworkParams,
    defense_transforms: list,
    batch: DataBatch,
    steps: int = 200,
    eta_a: float | None = None,
    eta_w: float | None = None,
    seed: int = 0,
) -> float:
    """Final training loss after defended gradient descent on a fixed task.

    The defense chain transforms each step's gradient before the update,
    exactly as a defending client would.  Divergence returns +inf.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    m = params.m
    if eta_a is None:
        eta_a = 0.05 / m
    if eta_w is None:
        eta_w = 0.5 / math.sqrt(m)
    a, W = params.a.copy(), params.W.copy()
    for step in range(steps):
        cur = NetworkParams(a=a, W=W, activation=params.activation)
        g = gradient(cur, batch)
        if defense_transforms:
            g = dfs.compose(defense_transforms, g, derive_seed(seed, step))
        a = a - eta_a * g.grad_a
        W = W - eta_w * g.grad_W
        if not (np.isfinite(a).all() and np.isfinite(W).all()):
            return float("inf")
    return loss(NetworkParams(a=a, W=W, activation=params.activation), batch)


# ---------------------------------------------------------------------------
# sweep: grid execution with manifest, resume and deterministic output
# ---------------------------------------------------------------------------


def _grid_points(sweep_cfg: dict) -> list[ExperimentConfig]:
    base = dict(sweep_cfg.get("base", {}))
    grid = sweep_cfg.get("grid", {})
    if not isinstance(grid, dict) or (grid and not all(grid.values())):
        raise ConfigError("grid must map config fields to nonempty value lists")
    axes = sorted(grid)
    points = [{}]
    for ax in axes:
        points = [dict(p, **{ax: v}) for p in points for v in grid[ax]]
    return [ExperimentConfig.from_dict({**base, **p}) for p in points]


def _sweep_hash(sweep_cfg: dict) -> str:
    blob = json.dumps(sweep_cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_csv_row(writer, row: dict):
    writer.writerow({k: _fmt(row[k]) for k in CSV_FIELDS})


def _drop_torn_tail(path: Path):
    """Cut the file back to its last newline: a kill mid-write leaves a
    partial last row, which would otherwise count as a finished trial or
    fail to parse, and the next append would continue it."""
    with open(path, "rb+") as fh:
        fh.truncate(fh.read().rfind(b"\n") + 1)


def read_results_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep(
    sweep_cfg: dict,
    out_dir: str | Path,
    force: bool = False,
    workers: int | None = None,
) -> dict:
    """Run the cross-product of the grid axes; one record per (point, trial).

    Emits results.csv (appended after every trial, so an interrupted sweep
    resumes without duplicating completed trials; a torn last row is cut
    off and its trial rerun), results.json and
    manifest.json.  Output is a pure function of (sweep config, base seed)
    apart from the wall-time column and the manifest timestamp, which a
    resume keeps.  Refuses to touch an existing complete run unless
    ``force`` is set.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    json_path = out / "results.json"
    manifest_path = out / "manifest.json"
    points = _grid_points(sweep_cfg)
    shash = _sweep_hash(sweep_cfg)
    expected = {
        (p.config_hash(), t) for p in points for t in range(p.trials)
    }

    done: set[tuple[str, int]] = set()
    created_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if manifest_path.exists() and not force:
        manifest = json.loads(manifest_path.read_text())
        created_utc = manifest.get("created_utc", created_utc)  # a resume keeps it
        if manifest.get("sweep_hash") != shash:
            raise ConfigError(
                f"output dir {out} holds a different sweep (use force to overwrite)"
            )
        if csv_path.exists():
            _drop_torn_tail(csv_path)
            for row in read_results_csv(csv_path):
                done.add((row["config_hash"], int(row["trial"])))
        if done >= expected:
            raise ConfigError(f"sweep already complete in {out} (use force to redo)")
    else:
        for p in (csv_path, json_path, manifest_path):
            if p.exists():
                p.unlink()

    manifest = {
        "sweep_hash": shash,
        "config": sweep_cfg,
        "points": [p.to_dict() for p in points],
        "point_hashes": [p.config_hash() for p in points],
        "created_utc": created_utc,
        "package": "gradleak 0.1.0",
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    todo = [
        (pi, t)
        for pi, p in enumerate(points)
        for t in range(p.trials)
        if (p.config_hash(), t) not in done
    ]

    new_file = not csv_path.exists() or csv_path.stat().st_size == 0
    records: list[TrialRecord] = []
    with open(csv_path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if new_file:
            writer.writeheader()
            fh.flush()

        def emit(rec: TrialRecord):
            for row in rec.to_rows():
                _write_csv_row(writer, row)
            fh.flush()
            records.append(rec)

        if workers <= 1:
            for pi, t in todo:
                emit(run_trial(points[pi], t))
        else:
            # at most 4*workers trials submitted and not yet emitted; emitted
            # in the original order, not completion order
            with ThreadPoolExecutor(max_workers=workers) as pool:
                pending = deque()
                for pi, t in todo:
                    if len(pending) == 4 * workers:
                        emit(pending.popleft().result())
                    pending.append(pool.submit(run_trial, points[pi], t))
                while pending:
                    emit(pending.popleft().result())

    all_rows = read_results_csv(csv_path)
    json_path.write_text(
        json.dumps(
            {
                "sweep_hash": shash,
                "rows": all_rows,
                "records": [r.to_dict() for r in records],
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    return {
        "csv": csv_path,
        "json": json_path,
        "manifest": manifest_path,
        "rows": len(all_rows),
        "new_records": len(records),
    }


def aggregate_rows(
    rows: list[dict],
    mode: str = "strongest-attack-min",
    utility_tol: float | None = None,
) -> dict:
    """Per-defense scores and utility medians from CSV rows.

    With ``utility_tol`` the defenses are additionally grouped into bins of
    comparable utility loss (a bin grows while consecutive sorted utilities
    stay within the tolerance) and the best defense per bin is marked --
    the comparable-utility comparison needs an explicit tolerance because
    no canonical binning exists.
    """
    if mode not in ("strongest-attack-min", "paper-eq3-max"):
        raise ConfigError(f"unknown scoring mode '{mode}'")
    groups: dict[tuple[str, str], dict] = {}
    for row in rows:
        key = (row["defense"], row["defense_param"])
        g = groups.setdefault(key, {"per_attack": {}, "utility": []})
        rm = row["rmse"]
        if rm not in ("", "nan", None):
            g["per_attack"].setdefault(row["attack"], []).append(float(rm))
        ut = row.get("utility_loss")
        if ut not in ("", None):
            g["utility"].append(float(ut))
    table = []
    for (name, param), g in sorted(groups.items()):
        medians = {k: float(np.median(v)) for k, v in g["per_attack"].items()}
        if not medians:
            continue
        pick = min if mode == "strongest-attack-min" else max
        table.append(
            {
                "defense": name,
                "defense_param": param,
                "score": pick(medians.values()),
                "per_attack_median": medians,
                "utility_median": float(np.median(g["utility"])) if g["utility"] else None,
            }
        )
    out = {"mode": mode, "defenses": table}
    if utility_tol is not None:
        with_util = [t for t in table if t["utility_median"] is not None]
        with_util.sort(key=lambda t: t["utility_median"])
        bins = []
        for t in with_util:
            if bins and t["utility_median"] - bins[-1][0]["utility_median"] <= utility_tol:
                bins[-1].append(t)
            else:
                bins.append([t])
        out["utility_bins"] = [
            {
                "utility_range": [b[0]["utility_median"], b[-1]["utility_median"]],
                "defenses": [f"{t['defense']}({t['defense_param']})" for t in b],
                "best_defense": max(b, key=lambda t: t["score"])["defense"],
            }
            for b in bins
        ]
    return out

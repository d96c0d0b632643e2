"""Experiment orchestration: trials, defense scoring, utility, sweeps.

A trial is a pure function of (config, trial index): the trial seed is a
SplitMix-style hash of the base seed and the index, so adding grid points
or trials never perturbs existing ones.  A sweep's state is its journal,
``results.jsonl``, one record per finished trial; ``results.csv`` (fixed
schema below) and ``results.json`` are written from it, next to a
``manifest.json``.  Every value except the wall-time measurement is
bit-reproducible, and wall time is the last CSV column so determinism
checks can strip it.

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
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import defenses as dfs
from .activations import Activation
from .bounds import bound_for_observation
from .errors import (ConfigError, DegenerateObservationError, GradleakError, _build, _check,
                     _check_flag, _floats)
from .gradmatch import GradMatchConfig, OptimizerConfig, grad_match_attack
from .network import (
    DataBatch,
    NetworkParams,
    _beside,
    _quiet,
    _spare_thread,
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
    "UtilityConfig",
    "TrialRecord",
    "run_trial",
    "utility_loss",
    "sweep",
    "aggregate_rows",
    "read_results_csv",
    "CSV_FIELDS",
    "SCORING_MODES",
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

# how aggregate_rows picks a defense's score from its per-attack median errors
SCORING_MODES = ("strongest-attack-min", "paper-eq3-max")


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


def _spec(cfg) -> dict:
    """JSON form of a sub-config: its required fields and every field that
    differs from its default, so an explicit default hashes like an omitted one."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value != (f.default if f.default_factory is MISSING else f.default_factory()):
            out[f.name] = _spec(value) if is_dataclass(value) else value
    return out


@dataclass(frozen=True)
class UtilityConfig:
    """Defended training measured by ``utility_loss``; a null rate takes its default."""

    steps: int = 200
    eta_a: float | None = None
    eta_w: float | None = None

    def __post_init__(self):
        _floats(self)
        _check("utility steps must be an integer >= 1", self.steps, lambda n: n >= 1,
               numbers.Integral)
        for name in ("eta_a", "eta_w"):
            if getattr(self, name) is not None:
                _check(f"utility {name} must be null or a finite number > 0",
                       getattr(self, name), lambda x: 0 < x < math.inf)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experimental point, checked on construction; ``from_dict`` reads
    its JSON form and ``to_dict`` writes it.  ``run_trial`` gives each
    attack the seed of its trial, so an attack config here keeps seed 0."""

    d: int
    m: int
    B: int
    activation: Activation = Activation("softplus")
    defenses: tuple = ()
    tensor: TensorAttackConfig | None = TensorAttackConfig()
    gradmatch: GradMatchConfig | None = None
    sigma: float = 0.1
    trials: int = 1
    base_seed: int = 0
    compute_bounds: bool = True
    utility: UtilityConfig | None = None

    def __post_init__(self):
        _floats(self)
        for name in ("d", "m", "B", "trials"):
            _check(f"{name} must be an integer >= 1", getattr(self, name), lambda n: n >= 1,
                   numbers.Integral)
        _check("base_seed must be an integer", self.base_seed, lambda n: True, numbers.Integral)
        _check("sigma must be a finite number > 0", self.sigma, lambda x: 0 < x < math.inf)
        _check_flag("compute_bounds", self.compute_bounds)
        for name, kind in (("activation", Activation), ("tensor", TensorAttackConfig),
                           ("gradmatch", GradMatchConfig), ("utility", UtilityConfig)):
            value = getattr(self, name)
            if not isinstance(value, kind) and (value is not None or name == "activation"):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        attacks = [a for a in (self.tensor, self.gradmatch) if a is not None]
        if not attacks:
            raise ConfigError("configure at least one attack")
        if any(a.seed != 0 for a in attacks):
            raise ConfigError("an attack spec takes no seed: each trial derives its own")
        probe = None if self.tensor is None else self.tensor.probe
        if probe is not None and len(probe) != self.d:
            raise ConfigError(f"the tensor probe needs d = {self.d} entries, got {len(probe)}")
        gm = self.gradmatch
        if (gm is not None and gm.feature_mode != "off" and gm.alpha_feature > 0
                and (gm.feature_source != "tensor" or self.tensor is None)):
            raise ConfigError("gradmatch feature regularization needs feature_source "
                              "'tensor' and a tensor attack")
        for k, cfg in enumerate(self.defenses):
            if isinstance(cfg, dfs.AGGREGATORS) and k != 0:
                raise ConfigError("aggregation defenses must come first in the chain")
            if isinstance(cfg, dfs.SecureAggregationDefense) and sum(cfg.batch_sizes) != self.B:
                raise ConfigError("secure aggregation client batch sizes must sum to B")

    @classmethod
    def from_dict(cls, spec: dict) -> "ExperimentConfig":
        """The config a JSON object describes, in ``to_dict``'s schema.  This
        is the only place JSON becomes typed configs; every value is checked
        here, so a bad one is a ConfigError before any trial runs."""
        spec = _build(dict, spec, "an experiment config")
        defenses = spec.pop("defenses", [])
        if not isinstance(defenses, (list, tuple)):
            raise ConfigError(f"defenses must be a list of defense objects, got {defenses!r}")
        attacks = _build(dict, spec.pop("attacks", {"tensor": {}}), "attacks")
        if attacks.keys() - {"tensor", "gradmatch"}:
            raise ConfigError(f"unknown attacks {sorted(attacks.keys() - {'tensor', 'gradmatch'})}")
        tensor = gradmatch = None
        if "tensor" in attacks:
            tensor = _build(TensorAttackConfig, attacks["tensor"], "tensor attack spec")
        if "gradmatch" in attacks:
            gm = _build(dict, attacks["gradmatch"], "gradmatch attack spec")
            opt = _build(OptimizerConfig, gm.pop("optimizer", {}), "gradmatch optimizer")
            gradmatch = _build(GradMatchConfig, gm, "gradmatch attack spec", optimizer=opt)
        activation = _build(Activation, spec.pop("activation", {"kind": "softplus"}),
                            "activation")
        utility = spec.pop("utility", None)
        if utility is not None:
            utility = _build(UtilityConfig, utility, "utility")
        return _build(cls, spec, "experiment config", activation=activation,
                      defenses=tuple(dfs.defense_from_dict(s) for s in defenses),
                      tensor=tensor, gradmatch=gradmatch, utility=utility)

    def to_dict(self) -> dict:
        attacks = {"tensor": self.tensor, "gradmatch": self.gradmatch}
        return {
            **{f.name: getattr(self, f.name) for f in fields(self) if f.name not in attacks},
            "activation": _spec(self.activation),
            "defenses": [dfs.defense_to_dict(c) for c in self.defenses],
            "attacks": {k: _spec(v) for k, v in attacks.items() if v is not None},
            "utility": None if self.utility is None else _spec(self.utility),
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    @property
    def transforms(self) -> tuple:
        """The chain's observation transforms: every defense after a leading aggregator."""
        if self.defenses and isinstance(self.defenses[0], dfs.AGGREGATORS):
            return self.defenses[1:]
        return self.defenses

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
    errors: dict = field(default_factory=dict)  # "bound"/"utility" -> why it is None

    def record_hash(self) -> str:
        """Hash of the deterministic content: no wall time, no kept samples,
        and ``errors`` only when non-empty, so error-free records keep the
        hashes that journals already store."""
        payload = {
            "config_hash": self.config_hash,
            "trial": self.trial,
            "attacks": {name: {k: res[k] for k in ("rmse", "assignment", "error")}
                        for name, res in self.attacks.items()},
            "bound": self.bound,
            "utility_loss": self.utility_loss,
            **({"errors": self.errors} if self.errors else {}),
        }
        blob = json.dumps(payload, sort_keys=True, default=_fmt)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_rows(self) -> list[dict]:
        """One CSV row per configured attack (the schema has one attack
        column, so a trial with both attacks spans two rows)."""
        common = {k: getattr(self, k) for k in CSV_FIELDS if hasattr(self, k)}
        bound = self.bound or {}
        return [
            {**common, "attack": name, "rmse": res.get("rmse"),
             "rl_exact": bound.get("rl_exact"), "rl_loose": bound.get("rl_loose")}
            for name, res in sorted(self.attacks.items())
        ]

    def to_dict(self) -> dict:
        return {**asdict(self), "record_hash": self.record_hash()}


def _error(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def _stage(fn, *args):
    """Run one stage: ``(fn(*args), None)``, or ``(None, e)`` for any Exception
    e.  numpy's floating-point errors are ignored (``network._quiet``): the
    stage decides by its own checks, the same under any warnings filter."""
    try:
        with _quiet():
            return fn(*args), None
    except Exception as e:
        return None, e


def _inputs(config: ExperimentConfig, trial_idx: int):
    """The inputs stage: ``(trial_seed, params, batch, obs, truth)``.  ``obs``
    is the gradient on ``batch`` or the leading aggregator's release,
    defended by the chain's transforms, whose draws are made beside the
    sampling and the observation (``network._beside``; their own seed
    stream makes the bytes those of drawing them afterwards); ``truth`` is
    every sample behind it.  Overflow is judged once, at the end: run by
    ``_stage``, the draws included, a non-finite observation is a
    DegenerateObservationError under any warnings filter."""
    trial_seed = derive_seed(config.base_seed, trial_idx)
    transforms, agg = config.transforms, (config.defenses or (None,))[0]

    def observe():
        params = sample_params(config.d, config.m, derive_seed(trial_seed, PARAMS_STREAM),
                               config.activation)
        batch = truth = sample_batch(config.d, config.B, derive_seed(trial_seed, DATA_STREAM))
        if isinstance(agg, dfs.LocalAggregationDefense):
            batches = [batch] + [
                sample_batch(config.d, config.B, derive_seed(trial_seed, DATA_STREAM, k))
                for k in range(1, agg.steps if agg.fresh_batches else 1)
            ]
            if len(batches) > 1:
                truth = DataBatch(X=np.concatenate([b.X for b in batches], axis=1),
                                  y=np.concatenate([b.y for b in batches]))
            obs = dfs.local_aggregation(params, batches, agg.eta_a, agg.eta_w, agg.steps)
        elif isinstance(agg, dfs.SecureAggregationDefense):
            ends = np.cumsum(agg.batch_sizes)
            obs = dfs.secure_aggregate([
                (gradient(params, DataBatch(X=batch.X[:, e - b:e], y=batch.y[e - b:e])), b)
                for b, e in zip(agg.batch_sizes, ends)
            ])
        else:
            obs = gradient(params, batch)
        return params, batch, obs, truth

    draws, (params, batch, obs, truth) = _beside(lambda: transforms and dfs.draw_chain(
        transforms, derive_seed(trial_seed, DEFENSE_STREAM), config.m, config.d), observe)
    obs = dfs.compose_drawn(transforms, obs, draws)
    flat = obs.flat  # min and max: no temporary of the observation's size
    if not (math.isfinite(flat.min()) and math.isfinite(flat.max())):
        raise DegenerateObservationError("the inputs stage made a non-finite observation")
    return trial_seed, params, batch, obs, truth


def _attacks(config: ExperimentConfig, trial_seed: int, params: NetworkParams,
             obs, truth: DataBatch, keep_samples: bool) -> dict:
    """The attack stages: each configured attack's scored entry, gradmatch
    after the tensor attack whose samples it may take as feature targets.
    A failing attack gets a NaN rmse and its error (a GradleakError's
    message, else ``"<Type>: <msg>"``); the other attack's entry stands."""
    out = {}

    def stage(name, attack, *kept):
        res, e = _stage(attack)
        if e is None:
            out[name] = {"rmse": res.rmse, "assignment": res.assignment.tolist(), "error": None,
                         **{k: getattr(res, k).tolist() for k in kept if keep_samples}}
        else:
            out[name] = {"rmse": float("nan"), "assignment": None,
                         "error": str(e) if isinstance(e, GradleakError) else _error(e)}
        return res

    tensor = None
    if config.tensor is not None:
        tc = replace(config.tensor, seed=derive_seed(trial_seed, TENSOR_STREAM))
        tensor = stage("tensor", lambda: score_reconstruction(
            tensor_attack(obs, params, truth.B, tc), truth.X, sign_resolve=True),
            "samples", "signs")
    if config.gradmatch is not None:
        gm = replace(config.gradmatch, seed=derive_seed(trial_seed, GRADMATCH_STREAM))
        targets = None if tensor is None or gm.feature_source != "tensor" else tensor.samples
        stage("gradmatch", lambda: score_reconstruction(
            grad_match_attack(obs, params, truth.y, gm, feature_targets=targets), truth.X,
            sign_resolve=gm.sign_resolve), "samples")
    return out


def _trial(config: ExperimentConfig, trial_idx: int, keep_samples: bool = False) -> TrialRecord:
    """The trial's stages in order: inputs, the attacks, the bound, utility.

    With bounds on, the attacks run beside the bound (``network._beside``),
    so on a lent helper while this thread computes the bound (its large
    working set stays in this thread's allocator arena).  Work handed to the
    helper runs under the errstate of the thread that handed it.  Each stage
    runs through ``_stage`` and records its own failure: a failed inputs
    stage is every attack's error and leaves no bound or utility, an
    attack's stays in its entry, and a failed bound or utility is None with
    its ``"<Type>: <msg>"`` in ``errors``.  So the record is the same, and
    nothing is printed, under any warnings filter."""
    t0 = time.perf_counter()
    bound = util = None
    errors = {}

    def stage(name, fn):
        value, e = _stage(fn)
        if e is not None:
            errors[name] = _error(e)
        return value

    inputs, e = _stage(_inputs, config, trial_idx)
    if e is not None:
        failed = {"rmse": float("nan"), "assignment": None, "error": _error(e)}
        attacks = {n: dict(failed) for n in ("tensor", "gradmatch")
                   if getattr(config, n) is not None}
    else:
        trial_seed, params, batch, obs, truth = inputs
        args = (config, trial_seed, params, obs, truth, keep_samples)
        if config.compute_bounds:
            attacks, bound = _beside(
                lambda: _attacks(*args),
                lambda: stage("bound", lambda: bound_for_observation(
                    params, truth, config.sigma, obs).to_dict()))
        else:
            attacks = _attacks(*args)
        if config.utility is not None:
            u = config.utility
            util = stage("utility", lambda: utility_loss(
                params, config.transforms, batch, steps=u.steps, eta_a=u.eta_a,
                eta_w=u.eta_w, seed=derive_seed(trial_seed, DEFENSE_STREAM, 1)))
    return TrialRecord(config.config_hash(), trial_idx, config.d, config.m, config.B,
                       config.defense_name, config.defense_param, attacks, bound, util,
                       wall_ms=(time.perf_counter() - t0) * 1000.0, errors=errors)


def run_trial(
    config: ExperimentConfig, trial_idx: int, keep_samples: bool = False
) -> TrialRecord:
    """Sample, defend, attack, score and bound one trial: ``_trial``'s
    stages, each run by ``_stage``, so any Exception is recorded in the
    record it returns (only KeyboardInterrupt and SystemExit propagate).
    ``keep_samples`` also stores each attack's recovered sample columns
    (omitted by default to keep sweep artifacts small).

    The trial lends a one-thread helper of its own to every stage
    (``network._spare_thread``); work handed to it runs under the errstate
    of the thread that handed it.  Each kernel's output element gets the
    whole call's operations and the stages share only read-only inputs, so
    the record is byte for byte the one a run with no helper gives.
    Utility training applies only the chain's transforms, so a leading
    aggregator is priced at the undefended utility."""
    with ThreadPoolExecutor(max_workers=1) as helper, _spare_thread(helper):
        return _trial(config, trial_idx, keep_samples)


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

    The defense transforms (no aggregator: ``run_trial`` passes
    ``ExperimentConfig.transforms``) change each step's gradient before
    the update, exactly as a defending client would.  Divergence returns
    +inf.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    m = params.m
    if eta_a is None:
        eta_a = 0.05 / m
    if eta_w is None:
        eta_w = 0.5 / math.sqrt(m)
    cur, diverged = dfs._descend(params, [batch], eta_a, eta_w, steps, defense_transforms, seed)
    return float("inf") if diverged is not None else loss(cur, batch)


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


def _check_distinct_trials(points: list[ExperimentConfig]):
    """Refuse a grid that would count a trial twice: two points equal apart
    from ``base_seed`` that share a trial seed (``derive_seed`` mixes
    ``base_seed ^ trial``) are a ConfigError naming both base seeds and one
    shared pair of trials.  Points that differ in anything else share trial
    seeds on purpose: that is how defenses are compared on the same data."""
    seen = {}  # (point without its base seed, trial seed) -> (point index, trial)
    for i, p in enumerate(points):
        rest = replace(p, base_seed=0).config_hash()
        for t in range(p.trials):
            j, u = seen.setdefault((rest, derive_seed(p.base_seed, t)), (i, t))
            if j != i:
                a, b = points[j].base_seed, p.base_seed
                raise ConfigError(
                    f"grid points with base_seed {a} and {b} run the same trial: trial {u} of "
                    f"base_seed {a} is trial {t} of base_seed {b} (base seeds that differ by "
                    f"the trial count rounded up to a power of two or more share none)")


def _sweep_hash(sweep_cfg: dict) -> str:
    blob = json.dumps(sweep_cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _drop_torn_tail(path: Path):
    """Cut the file back to its last newline: a kill mid-write leaves a
    partial last line, which would otherwise fail to parse, and the next
    append would continue it."""
    with open(path, "rb+") as fh:
        fh.truncate(fh.read().rfind(b"\n") + 1)


def read_results_csv(path: Path) -> list[dict]:
    """The rows of a results.csv; a header other than ``CSV_FIELDS`` is a ConfigError."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_FIELDS:
            raise ConfigError(f"header {reader.fieldnames} is not results.csv's {CSV_FIELDS}")
        return list(reader)


def _read_journal(path: Path, expected: dict[tuple[str, int], int]) -> list[TrialRecord]:
    """The records of a sweep's journal, one JSON line per finished trial.
    A torn last line is cut; a complete line that does not parse, is not a
    trial of this sweep, repeats one or fails its stored ``record_hash`` is
    a ConfigError naming the line."""
    if not path.exists():
        return []
    _drop_torn_tail(path)
    records, done = [], set()
    for n, line in enumerate(path.read_text().splitlines(), 1):
        try:
            spec = json.loads(line)
            stored = spec.pop("record_hash", None)
            rec = TrialRecord(**spec)
            key = (rec.config_hash, rec.trial)
            problem = ("is not a trial of this sweep" if key not in expected
                       else "repeats a trial" if key in done
                       else "fails its record_hash" if rec.record_hash() != stored else None)
        except (ValueError, TypeError, AttributeError, KeyError) as e:
            problem = f"does not parse as a trial record ({e!r})"
        if problem:
            raise ConfigError(f"{path} line {n} {problem}")
        records.append(rec)
        done.add(key)
    return records


def sweep(
    sweep_cfg: dict,
    out_dir: str | Path,
    force: bool = False,
    workers: int = 1,
) -> dict:
    """Run the cross-product of the grid axes; one record per (point, trial).

    The sweep's state is its journal, results.jsonl: one line per finished
    trial, appended as the trial ends, so in the order trials end.  A
    resume cuts a torn last line, checks every other line and reruns only
    the trials the journal lacks.  results.csv and results.json are written
    from the journal's records in grid order when the sweep ends,
    interrupted or not, and manifest.json describes the grid.  A failing
    stage is recorded in its trial's record.  Output is a pure function of
    the sweep config apart from the wall-time column, the journal's line
    order and the manifest timestamp, which a resume keeps.  Points equal
    apart from ``base_seed`` must share no trial seed (ConfigError, before
    anything is written).  Refuses to touch an existing complete run
    unless ``force`` is set, which starts from an empty journal.
    """
    points = _grid_points(sweep_cfg)
    _check_distinct_trials(points)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / "results.csv", out / "results.json"
    journal_path, manifest_path = out / "results.jsonl", out / "manifest.json"
    shash = _sweep_hash(sweep_cfg)
    expected = {key: n for n, key in enumerate(  # (config_hash, trial) -> grid position
        (p.config_hash(), t) for p in points for t in range(p.trials))}

    records: list[TrialRecord] = []
    created_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if manifest_path.exists() and not force:
        manifest = json.loads(manifest_path.read_text())
        created_utc = manifest.get("created_utc", created_utc)  # a resume keeps it
        if manifest.get("sweep_hash") != shash:
            raise ConfigError(
                f"output dir {out} holds a different sweep (use force to overwrite)"
            )
        records = _read_journal(journal_path, expected)
        if len(records) == len(expected):
            raise ConfigError(f"sweep already complete in {out} (use force to redo)")
    else:
        for p in (csv_path, json_path, journal_path, manifest_path):
            p.unlink(missing_ok=True)

    manifest = {
        "sweep_hash": shash,
        "config": sweep_cfg,
        "points": [p.to_dict() for p in points],
        "point_hashes": [p.config_hash() for p in points],
        "created_utc": created_utc,
        "package": "gradleak 0.1.0",
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    done = {(r.config_hash, r.trial) for r in records}
    todo = [(p, t) for p in points for t in range(p.trials) if (p.config_hash(), t) not in done]
    resumed = len(records)
    try:
        # every trial runs on the pool, one worker included, so a trial takes
        # one execution path whatever the worker count; every trial is queued
        # at once, so no worker idles behind a slow one, and each record is
        # journaled as its trial ends
        with open(journal_path, "a") as journal, ThreadPoolExecutor(max(workers, 1)) as pool:
            try:
                for future in as_completed([pool.submit(run_trial, p, t) for p, t in todo]):
                    rec = future.result()
                    journal.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
                    journal.flush()
                    records.append(rec)
            finally:
                # an interrupted sweep runs no trial it has not started
                pool.shutdown(cancel_futures=True)
    finally:
        records.sort(key=lambda r: expected[(r.config_hash, r.trial)])
        rows = [{k: _fmt(row[k]) for k in CSV_FIELDS} for r in records for row in r.to_rows()]
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        json_path.write_text(json.dumps(
            {"sweep_hash": shash, "rows": rows, "records": [r.to_dict() for r in records]},
            sort_keys=True, indent=2) + "\n")
    return {
        "csv": csv_path,
        "json": json_path,
        "manifest": manifest_path,
        "rows": len(rows),
        "new_records": len(records) - resumed,
    }


def aggregate_rows(
    rows: list[dict],
    mode: str = "strongest-attack-min",
    utility_tol: float | None = None,
) -> dict:
    """Per-defense scores and utility medians from CSV rows.

    A defense's score comes from the median error of each attack over its
    trials, failed attacks (NaN) left out.  ``strongest-attack-min``: the
    strongest attack is the one with the smallest median error, and its
    error is the score (how evaluations are actually run).
    ``paper-eq3-max``: the literal worst-attack maximum.  ``failed`` counts
    a defense's rows without an rmse, and a defense whose every attack
    failed keeps its entry with ``score`` None.

    With ``utility_tol`` the scored defenses are additionally grouped into
    bins of comparable utility loss (a bin grows while consecutive sorted
    utilities stay within the tolerance) and the best defense per bin is
    marked -- the comparable-utility comparison needs an explicit tolerance
    because no canonical binning exists.
    """
    if mode not in SCORING_MODES:
        raise ConfigError(f"unknown scoring mode '{mode}'")
    pick = min if mode == "strongest-attack-min" else max
    groups: dict[tuple[str, str], dict] = {}
    for row in rows:
        key = (row["defense"], row["defense_param"])
        g = groups.setdefault(key, {"per_attack": {}, "utility": [], "failed": 0})
        rm = row["rmse"]
        if rm in ("", "nan", None):
            g["failed"] += 1
        else:
            g["per_attack"].setdefault(row["attack"], []).append(float(rm))
        ut = row.get("utility_loss")
        if ut not in ("", None):
            g["utility"].append(float(ut))
    table = []
    for (name, param), g in sorted(groups.items()):
        medians = {k: float(np.median(v)) for k, v in g["per_attack"].items()}
        table.append(
            {
                "defense": name,
                "defense_param": param,
                "score": pick(medians.values()) if medians else None,
                "per_attack_median": medians,
                "utility_median": float(np.median(g["utility"])) if g["utility"] else None,
                "failed": g["failed"],
            }
        )
    out = {"mode": mode, "defenses": table}
    if utility_tol is not None:
        with_util = [
            t for t in table if t["utility_median"] is not None and t["score"] is not None
        ]
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

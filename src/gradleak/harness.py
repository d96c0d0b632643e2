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
import itertools
import json
import math
import numbers
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import defenses as dfs
from .activations import Activation
from .bounds import bound_for_observation
from .errors import (ConfigError, DegenerateObservationError, GradleakError, _build, _check,
                     _check_flag, _floats)
from .gradmatch import GradMatchConfig, OptimizerConfig, grad_match_attack
from .network import (
    DataBatch,
    GradientObservation,
    NetworkParams,
    _batch_internals,
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

try:
    import fcntl
except ImportError:  # Windows has no fcntl: sweeps there take no lock
    fcntl = None

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
    return format(float(x), ".17g")  # "nan", "inf" and "-inf" for the non-finite


def _digest(spec) -> str:
    """12 hex digits of the sha256 of ``spec`` as canonical JSON."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


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
        return _digest(self.to_dict())

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


def _reads_only_grad_a(config: ExperimentConfig) -> bool:
    """Whether no stage of the trial reads the W-block: the tensor attack
    alone (it reads ``grad_a`` and ``params.W``), bounds off, and a chain of
    noise, node-level dropout and ``prune_threshold`` steps: each acts on a
    coordinate alone, and a draw's a-block comes first in it.  Utility
    training reads no observation."""
    return config.gradmatch is None and not config.compute_bounds and all(
        isinstance(c, (dfs.NoiseDefense, dfs.PruneThresholdDefense))
        or isinstance(c, dfs.DropoutDefense) and c.node_level for c in config.defenses)


# a W-block is proven finite when every value its gradient, its products on
# the way and its noise can take stays below this: after a normal draw's
# largest multiple (under 38.6) and any rounding it is still far from 1.8e308
_PROVEN = 1e290


def _inputs(config: ExperimentConfig, trial_idx: int):
    """The inputs stage: ``(trial_seed, params, batch, obs, truth)``.  ``obs``
    is the gradient on ``batch`` or the leading aggregator's release,
    defended by the chain's transforms, whose draws are made beside the
    sampling and the observation (``network._beside``; their own seed
    stream makes the bytes those of drawing them afterwards); ``truth`` is
    every sample behind it.  Overflow is judged once, at the end: run by
    ``_stage``, the draws included, a non-finite observation is a
    DegenerateObservationError under any warnings filter.

    A trial that reads only ``grad_a`` (``_reads_only_grad_a``) builds the
    observation at layout (m, 0): its a-block alone, ``S0 @ r``, with the
    chain drawn at that layout.  numpy fills a draw in order, so each draw
    is the a-block prefix of the full one, and the a-block is the full
    observation's bit for bit.  The finiteness rule is the full one: the
    a-block is checked, and the W-block it leaves out is proven finite from
    bounds on its factors and on the noise (``_PROVEN``); where that proof
    fails, the full observation is built and checked instead."""
    trial_seed = derive_seed(config.base_seed, trial_idx)
    transforms, agg = config.transforms, (config.defenses or (None,))[0]
    d = 0 if _reads_only_grad_a(config) else config.d  # the observation's layout is (m, d)

    def observe():
        params = sample_params(config.d, config.m, derive_seed(trial_seed, PARAMS_STREAM),
                               config.activation)
        batch = truth = sample_batch(config.d, config.B, derive_seed(trial_seed, DATA_STREAM))
        w_bounds = ()
        if d == 0:
            (S0, S1), _, r = _batch_internals(params, batch)
            obs = GradientObservation(S0 @ r, config.m, 0)
            # bounds on gradient's |S1 r|, |C| = |a S1 r| and |grad_W| = |C X^T|,
            # then on the chain's noise per unit of a normal draw
            sr = float(np.abs(S1).max()) * float(np.abs(r).sum())
            c = sr * float(np.abs(params.a).max())
            w_bounds = (sr, c, c * float(np.abs(batch.X).max()), sum(
                t.sigma0 * t.clip_scale for t in transforms if isinstance(t, dfs.NoiseDefense)))
        elif isinstance(agg, dfs.LocalAggregationDefense):
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
        return params, batch, obs, truth, w_bounds

    while True:
        draws, (params, batch, obs, truth, w_bounds) = _beside(
            lambda: transforms and dfs.draw_chain(
                transforms, derive_seed(trial_seed, DEFENSE_STREAM), config.m, d), observe)
        obs = dfs.compose_drawn(transforms, obs, draws)
        flat = obs.flat  # min and max: no temporary of the observation's size
        if not (math.isfinite(flat.min()) and math.isfinite(flat.max())):
            raise DegenerateObservationError("the inputs stage made a non-finite observation")
        if all(b <= _PROVEN for b in w_bounds):  # False for NaN
            return trial_seed, params, batch, obs, truth
        d = config.d  # the W-block left out is not proven finite: build and check it


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
    working set stays in this thread's allocator arena), lending the busy
    helper none of its kernel halves.  Work handed to the helper runs under
    the errstate of the thread that handed it.  Each stage runs through
    ``_stage`` and records its own failure: a failed inputs stage is every
    attack's error and leaves no bound or utility, an attack's stays in its
    entry, and a failed bound or utility is None with its
    ``"<Type>: <msg>"`` in ``errors``.  So the record is the same, and
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
        if config.compute_bounds:  # the bound lends the helper, busy with the attacks, nothing
            attacks, bound = _beside(lambda: _attacks(*args), _spare_thread(None)(
                lambda: stage("bound", lambda: bound_for_observation(
                    params, truth, config.sigma, obs).to_dict())))
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
    of the thread that handed it.  A kernel call's partition depends on its
    shape alone (``network._halves``) and the stages share only read-only
    inputs, so the record is byte for byte the one a run with no helper
    gives, under any BLAS thread count.
    Utility training applies only the chain's transforms, so a leading
    aggregator is priced at the undefended utility.  A trial whose stages
    read only ``grad_a`` observes at layout (m, 0), its a-block alone
    (``_inputs``); its record is the one the full observation gives."""
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
    """The grid's points in grid order: the cross-product of the ``grid``
    axes, sorted by name, the first axis outermost, each over ``base``.
    A sweep config with keys other than ``base`` and ``grid``, a ``base`` or
    ``grid`` that is not an object and an axis that is not a nonempty list
    are ConfigErrors."""
    spec = _build(dict, sweep_cfg, "a sweep config")
    unknown = sorted(spec.keys() - {"base", "grid"})
    if unknown:
        raise ConfigError(f"unknown sweep config keys {unknown}: a sweep config holds "
                          "\"base\" and \"grid\"")
    base = _build(dict, spec.get("base", {}), "a sweep's base")
    grid = _build(dict, spec.get("grid", {}), "a sweep's grid")
    for axis, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid axis {axis!r} must be a nonempty list, got {values!r}")
    axes = sorted(grid)
    return [ExperimentConfig.from_dict({**base, **dict(zip(axes, point))})
            for point in itertools.product(*(grid[axis] for axis in axes))]


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


def _drop_torn_tail(path: Path):
    """Cut the file back to its last newline: a kill mid-write leaves a
    partial last line, which would otherwise fail to parse, and the next
    append would continue it."""
    with open(path, "rb+") as fh:
        fh.truncate(fh.read().rfind(b"\n") + 1)


def _read(path, load):
    """``load(path)``; a file that cannot be opened or does not parse (an
    ``OSError`` or ``ValueError``) is a ConfigError naming the file."""
    try:
        return load(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def _read_json(path) -> object:
    """The JSON value in the file at ``path``, read by ``_read``."""
    return _read(path, lambda p: json.loads(Path(p).read_text()))


def read_results_csv(path: str | Path) -> list[dict]:
    """The rows of a results.csv, read by ``_read``.  A header other than
    ``CSV_FIELDS``, a missing field, a ``trial``, ``d``, ``m`` or ``B`` not an
    integer or a float column neither empty nor a float is a ConfigError."""
    def rows(path):
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_FIELDS:
                raise ValueError(f"header {reader.fieldnames} is not results.csv's {CSV_FIELDS}")
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError(f"{len(CSV_FIELDS)} fields expected")
                    for k in ("trial", "d", "m", "B"):
                        int(row[k])
                    for k in ("rmse", "rl_exact", "rl_loose", "utility_loss", "wall_ms"):
                        float(row[k] or 0)
                except ValueError as e:
                    raise ValueError(f"line {reader.line_num} is not a results row ({e})") from e
                yield row

    return _read(path, lambda p: list(rows(p)))


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


def _environment() -> dict:
    """What the manifest records of the process that ran a sweep: the
    package, Python and numpy versions, numpy's SIMD extensions found on
    this CPU, its BLAS, and the BLAS thread variables the process saw.  A
    split product's bytes depend on these (README, kernel splits).  numpy
    < 1.26 has no ``show_config(mode="dicts")``: its SIMD and BLAS are None."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas")
    return {
        "gradleak": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_found": config.get("SIMD Extensions", {}).get("found"),
        "blas": blas and {key: blas.get(key) for key in ("name", "version")},
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


@contextmanager
def _owned(out: Path):
    """Hold an exclusive ``flock`` on ``out/.lock`` while the block runs, so
    one run at a time owns the directory; another run's hold is a
    ConfigError naming it.  The lock file is never deleted, and the kernel
    drops the lock when the file closes or the process dies.  Without
    ``fcntl`` (Windows) the block runs unlocked."""
    with open(out / ".lock", "a") as fh:
        try:
            if fcntl is not None:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError as e:
            raise ConfigError(f"output dir {out} is in use by another sweep") from e
        yield


def sweep(
    sweep_cfg: dict,
    out_dir: str | Path,
    force: bool = False,
    workers: int = 1,
) -> dict:
    """Run the cross-product of the grid axes; one record per (point, trial).

    The sweep's state is its journal, results.jsonl: one line per finished
    trial, appended as the trial ends, so in the order trials end.  Every
    run resumes what ``out_dir`` holds: it cuts a torn last journal line,
    checks every other line and runs only the trials the journal lacks,
    none for a finished sweep.  results.csv and results.json are written
    from the journal's records in grid order when the run ends, interrupted
    or not.  manifest.json describes the grid.  It is written once, when
    absent, so a resume keeps its bytes; one that holds another sweep or is
    not a JSON object is a ConfigError.  A failing stage is recorded in its
    trial's record.  Output is a pure function of the sweep config apart
    from the wall-time column, the journal's line order and the manifest
    timestamp.  Points equal apart from ``base_seed`` must share no trial
    seed, and ``workers`` must be at least 1 (ConfigErrors, raised before
    anything is written).  Only ``force`` deletes: it removes the journal,
    the CSV, the JSON and the manifest first, so every trial runs again.
    One run at a time owns ``out_dir`` (``_owned``): while another holds
    it, the sweep is a ConfigError that touches no file.
    """
    points = _grid_points(sweep_cfg)
    _check_distinct_trials(points)
    _check("workers must be an integer >= 1", workers, lambda n: n >= 1, numbers.Integral)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file of that name, or a parent that is one
        raise ConfigError(f"cannot make output dir {out}: {e}") from e
    csv_path, json_path = out / "results.csv", out / "results.json"
    journal_path, manifest_path = out / "results.jsonl", out / "manifest.json"
    shash = _digest(sweep_cfg)
    expected = {key: n for n, key in enumerate(  # (config_hash, trial) -> grid position
        (p.config_hash(), t) for p in points for t in range(p.trials))}

    with _owned(out):
        if force:
            for p in (csv_path, json_path, journal_path, manifest_path):
                p.unlink(missing_ok=True)
        if manifest_path.exists():
            manifest = _build(dict, _read_json(manifest_path), str(manifest_path))
            if manifest.get("sweep_hash") != shash:
                raise ConfigError(
                    f"output dir {out} holds a different sweep (use force to overwrite)")
        records = _read_journal(journal_path, expected)
        if not manifest_path.exists():  # written once, so a resume keeps its bytes
            manifest = {
                "sweep_hash": shash,
                "config": sweep_cfg,
                "points": [p.to_dict() for p in points],
                "point_hashes": [p.config_hash() for p in points],
                "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "environment": _environment(),
            }
            tmp = manifest_path.with_name("manifest.json.tmp")  # renamed whole: never torn
            tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
            os.replace(tmp, manifest_path)

        done = {(r.config_hash, r.trial) for r in records}
        todo = [(p, t) for p in points for t in range(p.trials) if (p.config_hash(), t) not in done]
        resumed = len(records)
        try:
            # every trial runs on the pool, one worker included, so a trial takes
            # one execution path whatever the worker count; every trial is queued
            # at once, so no worker idles behind a slow one, and each record is
            # journaled as its trial ends
            with open(journal_path, "a") as journal, ThreadPoolExecutor(workers) as pool:
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
    """Per-defense scores and utility medians from CSV rows, per setting.

    A group is one setting, the row's ``(d, m, B)``, and one defense with
    its parameter; each entry carries its ``d``, ``m`` and ``B`` as
    integers, and entries sort by setting, then by defense and parameter.
    A CSV row holds no other setting column, so points that differ only in
    the activation, ``sigma`` or an attack's config share a group.

    A defense's score comes from the median error of each attack over its
    trials, failed attacks (NaN) left out.  ``strongest-attack-min``: the
    strongest attack is the one with the smallest median error, and its
    error is the score (how evaluations are actually run).
    ``paper-eq3-max``: the literal worst-attack maximum.  ``failed`` counts
    a defense's rows without an rmse, and a defense whose every attack
    failed keeps its entry with ``score`` None.

    With ``utility_tol``, a finite number >= 0, the scored defenses of each
    setting are additionally grouped into bins of comparable utility loss
    (sorted by utility, a bin starts at the lowest utility not yet binned
    and takes every defense within the tolerance of that lowest one) and
    the best defense per bin is named by its ``defense(param)`` label; each
    bin names its setting as the entries do.  The comparable-utility
    comparison needs an explicit tolerance because no canonical binning
    exists.
    """
    if mode not in SCORING_MODES:
        raise ConfigError(f"unknown scoring mode '{mode}'")
    if utility_tol is not None:
        _check("utility_tol must be a finite number >= 0", utility_tol, lambda t: 0 <= t < math.inf)
    pick = min if mode == "strongest-attack-min" else max
    groups: dict[tuple, dict] = {}  # (d, m, B, defense, defense_param) -> rows' values
    for row in rows:
        key = (*(int(row[k]) for k in ("d", "m", "B")), row["defense"], row["defense_param"])
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
    for (d, m, B, name, param), g in sorted(groups.items()):
        medians = {k: float(np.median(v)) for k, v in g["per_attack"].items()}
        table.append(
            {
                "d": d,
                "m": m,
                "B": B,
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
        def label(t):
            return f"{t['defense']}({t['defense_param']})"

        def setting(t):
            return {k: t[k] for k in ("d", "m", "B")}

        with_util = [
            t for t in table if t["utility_median"] is not None and t["score"] is not None
        ]
        with_util.sort(key=lambda t: (t["d"], t["m"], t["B"], t["utility_median"]))
        bins = []
        for t in with_util:
            if (bins and setting(t) == setting(bins[-1][0])
                    and t["utility_median"] - bins[-1][0]["utility_median"] <= utility_tol):
                bins[-1].append(t)
            else:
                bins.append([t])
        out["utility_bins"] = [
            {
                **setting(b[0]),
                "utility_range": [b[0]["utility_median"], b[-1]["utility_median"]],
                "defenses": [label(t) for t in b],
                "best_defense": label(max(b, key=lambda t: t["score"])),
            }
            for b in bins
        ]
    return out

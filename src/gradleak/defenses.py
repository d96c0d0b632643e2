"""Observation transforms and training-side defenses.

Observation transforms (noise, clipping, pruning, dropout) map one
GradientObservation to another and append a DefenseRecord describing
exactly what they did; the bounds module consumes those records.
Training-side defenses (local aggregation, secure aggregation) produce the
base observation instead of transforming one.

All stochastic defenses are deterministic functions of (input, config,
seed).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateObservationError,
    DivergenceError,
    LayoutMismatchError,
)
from .network import DataBatch, GradientObservation, NetworkParams, gradient
from .seeding import derive_seed, rng_from

__all__ = [
    "NoiseDefense",
    "ClipDefense",
    "PruneRatioDefense",
    "PruneThresholdDefense",
    "DropoutDefense",
    "LocalAggregationDefense",
    "SecureAggregationDefense",
    "DefenseRecord",
    "defense_from_dict",
    "defense_to_dict",
    "dp_sgd_preset",
    "apply_noise",
    "apply_clip",
    "apply_prune_ratio",
    "apply_prune_threshold",
    "apply_dropout",
    "local_aggregation",
    "secure_aggregate",
    "compose",
]


@dataclass(frozen=True)
class NoiseDefense:
    """Additive i.i.d. Gaussian noise on every flattened coordinate.

    ``clip_scale`` switches to the alternative parameterization where the
    std is sigma0 * clip_scale (pass the clipping threshold to scale noise
    with it); default keeps std = sigma0.
    """

    sigma0: float
    clip_scale: float = 1.0
    variant: str = "noise"

    def validate(self):
        if self.sigma0 < 0:
            raise ConfigError("noise sigma0 must be >= 0")
        if self.clip_scale <= 0:
            raise ConfigError("noise clip_scale must be > 0")

    @property
    def main_param(self) -> float:
        return self.sigma0


@dataclass(frozen=True)
class ClipDefense:
    threshold: float
    variant: str = "clip"

    def validate(self):
        if self.threshold <= 0:
            raise ConfigError("clip threshold must be > 0")

    @property
    def main_param(self) -> float:
        return self.threshold


@dataclass(frozen=True)
class PruneRatioDefense:
    """Zero the floor(ratio * len) smallest-magnitude coordinates."""

    ratio: float
    variant: str = "prune_ratio"

    def validate(self):
        if not 0 <= self.ratio < 1:
            raise ConfigError("prune ratio must be in [0, 1)")

    @property
    def main_param(self) -> float:
        return self.ratio


@dataclass(frozen=True)
class PruneThresholdDefense:
    """Zero coordinates with magnitude strictly below ``cutoff``."""

    cutoff: float
    variant: str = "prune_threshold"

    def validate(self):
        if self.cutoff < 0:
            raise ConfigError("prune cutoff must be >= 0")

    @property
    def main_param(self) -> float:
        return self.cutoff


@dataclass(frozen=True)
class DropoutDefense:
    """Drop whole hidden units with probability ``rate`` each.

    Node-level by default: a dropped unit zeroes its grad_a entry and its
    whole grad_W row, matching a network of smaller effective width.  The
    coordinate-level variant (independent Bernoulli per coordinate) is
    off by default.
    """

    rate: float
    node_level: bool = True
    variant: str = "dropout"

    def validate(self):
        if not 0 <= self.rate < 1:
            raise ConfigError("dropout rate must be in [0, 1)")

    @property
    def main_param(self) -> float:
        return self.rate


@dataclass(frozen=True)
class LocalAggregationDefense:
    """Release a multi-step parameter difference instead of one gradient.

    ``fresh_batches`` switches from reusing one batch every step to drawing
    a disjoint batch per step; the eavesdropper then faces a
    steps*B-sample problem.
    """

    steps: int
    eta_a: float | None = None  # default 1/m^2 at apply time
    eta_w: float | None = None  # default 0.1/sqrt(m)
    fresh_batches: bool = False
    variant: str = "local_aggregation"

    def validate(self):
        if self.steps < 1:
            raise ConfigError("local aggregation needs steps >= 1")
        for eta in (self.eta_a, self.eta_w):
            if eta is not None and eta <= 0:
                raise ConfigError("learning rates must be > 0")

    @property
    def main_param(self) -> float:
        return float(self.steps)


@dataclass(frozen=True)
class SecureAggregationDefense:
    """Clients sum their gradients; only the batch-size-weighted mean leaks."""

    batch_sizes: tuple[int, ...]
    variant: str = "secure_aggregation"

    def validate(self):
        if not self.batch_sizes or any(b < 1 for b in self.batch_sizes):
            raise ConfigError("secure aggregation needs positive client batch sizes")

    @property
    def main_param(self) -> float:
        return float(len(self.batch_sizes))


_DEFENSE_KINDS = {
    "noise": NoiseDefense,
    "clip": ClipDefense,
    "prune_ratio": PruneRatioDefense,
    "prune_threshold": PruneThresholdDefense,
    "dropout": DropoutDefense,
    "local_aggregation": LocalAggregationDefense,
    "secure_aggregation": SecureAggregationDefense,
}


def defense_from_dict(spec: dict):
    """Build a defense config from its JSON form {"variant": ..., params}."""
    spec = dict(spec)
    variant = spec.pop("variant", None)
    if variant not in _DEFENSE_KINDS:
        raise ConfigError(f"unknown defense variant '{variant}'")
    if variant == "secure_aggregation" and "batch_sizes" in spec:
        spec["batch_sizes"] = tuple(spec["batch_sizes"])
    try:
        cfg = _DEFENSE_KINDS[variant](**spec)
    except TypeError as e:
        raise ConfigError(f"bad parameters for defense '{variant}': {e}") from e
    cfg.validate()
    return cfg


def defense_to_dict(cfg) -> dict:
    out = {"variant": cfg.variant}
    for name in cfg.__dataclass_fields__:
        if name == "variant":
            continue
        val = getattr(cfg, name)
        if isinstance(val, tuple):
            val = list(val)
        out[name] = val
    return out


def dp_sgd_preset(threshold: float, sigma0: float, scale_noise_by_clip: bool = False):
    """Clip-then-noise, the standard private-update transform."""
    return [
        ClipDefense(threshold=threshold),
        NoiseDefense(sigma0=sigma0, clip_scale=threshold if scale_noise_by_clip else 1.0),
    ]


@dataclass
class DefenseRecord:
    """What a defense actually did to one observation."""

    variant: str
    params: dict = field(default_factory=dict)
    clip_factor: float | None = None      # realized min{1, C/||G||}
    mask: np.ndarray | None = None        # True where the coordinate was kept
    steps: int | None = None
    extra: dict = field(default_factory=dict)


def _on_flat(flat: np.ndarray, obs: GradientObservation) -> GradientObservation:
    """An observation whose blocks are views of ``flat`` (canonical layout)."""
    return GradientObservation(
        grad_a=flat[:obs.m],
        grad_W=flat[obs.m:].reshape(obs.m, obs.d),
        provenance=list(obs.provenance),
    )


def apply_noise(
    obs: GradientObservation, sigma0: float, seed: int, clip_scale: float = 1.0
) -> GradientObservation:
    """Add N(0, (sigma0*clip_scale)^2) to every flattened coordinate."""
    if sigma0 < 0:
        raise ConfigError("sigma0 must be >= 0")
    record = DefenseRecord(
        variant="noise", params={"sigma0": sigma0, "clip_scale": clip_scale}
    )
    if sigma0 == 0:
        out = obs.copy()
        out.provenance.append(record)
        return out
    rng = rng_from(seed)
    draw = rng.normal(0.0, sigma0 * clip_scale, size=obs.m * (1 + obs.d))
    out = _on_flat(draw, obs)
    out.grad_a += obs.grad_a  # the draw buffer becomes the output, no copies
    out.grad_W += obs.grad_W
    out.provenance.append(record)
    return out


def apply_clip(obs: GradientObservation, threshold: float) -> GradientObservation:
    """Scale the whole flattened vector by R = min{1, threshold/||G||}."""
    if threshold <= 0:
        raise ConfigError("clip threshold must be > 0")
    norm = obs.norm()
    factor = 1.0 if norm <= threshold else threshold / norm
    out = GradientObservation(
        grad_a=obs.grad_a * factor,
        grad_W=obs.grad_W * factor,
        provenance=list(obs.provenance),
    )
    out.provenance.append(
        DefenseRecord(
            variant="clip",
            params={"threshold": threshold, "observed_norm": norm},
            clip_factor=factor,
        )
    )
    return out


def _masked(obs: GradientObservation, keep: np.ndarray, record: DefenseRecord):
    record.mask = keep
    flat = obs.flatten()
    flat *= keep
    out = _on_flat(flat, obs)
    out.provenance.append(record)
    return out


def apply_prune_ratio(obs: GradientObservation, ratio: float) -> GradientObservation:
    """Zero the floor(ratio*len) smallest-|.| coordinates of the flattened
    vector (both blocks jointly); ties broken by ascending index."""
    if not 0 <= ratio < 1:
        raise ConfigError("prune ratio must be in [0, 1)")
    flat = obs.flatten()
    k = int(np.floor(ratio * flat.size))
    keep = np.ones(flat.size, dtype=bool)
    if k > 0:
        order = np.argsort(np.abs(flat), kind="stable")
        keep[order[:k]] = False
    return _masked(obs, keep, DefenseRecord(variant="prune_ratio", params={"ratio": ratio}))


def apply_prune_threshold(obs: GradientObservation, cutoff: float) -> GradientObservation:
    """Zero coordinates with |g| < cutoff (entries exactly at the cutoff
    survive)."""
    if cutoff < 0:
        raise ConfigError("prune cutoff must be >= 0")
    flat = obs.flatten()
    keep = np.abs(flat) >= cutoff
    return _masked(
        obs, keep, DefenseRecord(variant="prune_threshold", params={"cutoff": cutoff})
    )


def apply_dropout(
    obs: GradientObservation,
    rate: float,
    seed: int,
    node_level: bool = True,
) -> GradientObservation:
    """Drop hidden units (or single coordinates) with probability ``rate``."""
    if not 0 <= rate < 1:
        raise ConfigError("dropout rate must be in [0, 1)")
    rng = rng_from(seed)
    if node_level:
        dropped = rng.random(obs.m) < rate
        if dropped.all():
            raise DegenerateObservationError(
                "dropout removed every hidden unit; nothing observable remains"
            )
        keep = np.ones(obs.m * (1 + obs.d), dtype=bool)
        keep[:obs.m][dropped] = False
        keep[obs.m:] = np.repeat(~dropped, obs.d)
    else:
        keep = rng.random(obs.m * (1 + obs.d)) >= rate
        if not keep.any():
            raise DegenerateObservationError("dropout removed every coordinate")
    return _masked(
        obs,
        keep,
        DefenseRecord(variant="dropout", params={"rate": rate, "node_level": node_level}),
    )


def local_aggregation(
    params: NetworkParams,
    batches: list[DataBatch],
    eta_a: float | None,
    eta_w: float | None,
    steps: int,
) -> GradientObservation:
    """Run ``steps`` full-batch descent updates and release the parameter
    difference rescaled into gradient units.

    ``batches`` holds either a single batch reused every step or one batch
    per step.  The output is (theta_0 - theta_steps) / eta per layer, i.e.
    the sum of the per-step gradients; the eavesdropper knows the learning
    rates, so nothing is hidden by the rescaling.  Raw parameter
    differences and per-step snapshots are kept in the provenance record.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if len(batches) not in (1, steps):
        raise ConfigError("provide one batch (reused) or exactly one batch per step")
    m = params.m
    if eta_a is None:
        eta_a = 1.0 / m**2
    if eta_w is None:
        eta_w = 0.1 / np.sqrt(m)
    a, W = params.a.copy(), params.W.copy()
    snapshots = [(a.copy(), W.copy())]
    for step in range(steps):
        batch = batches[0] if len(batches) == 1 else batches[step]
        cur = NetworkParams(a=a, W=W, activation=params.activation)
        g = gradient(cur, batch)
        a = a - eta_a * g.grad_a
        W = W - eta_w * g.grad_W
        if not (np.isfinite(a).all() and np.isfinite(W).all()):
            raise DivergenceError(
                f"local aggregation rollout diverged at step {step + 1}", step=step + 1
            )
        snapshots.append((a.copy(), W.copy()))
    out = GradientObservation(
        grad_a=(params.a - a) / eta_a,
        grad_W=(params.W - W) / eta_w,
    )
    out.provenance.append(
        DefenseRecord(
            variant="local_aggregation",
            params={"eta_a": eta_a, "eta_w": eta_w},
            steps=steps,
            extra={
                "raw_delta_a": params.a - a,
                "raw_delta_W": params.W - W,
                "snapshots": snapshots,
            },
        )
    )
    return out


def secure_aggregate(
    gradients: list[tuple[GradientObservation, int]]
) -> GradientObservation:
    """Batch-size-weighted mean of client gradients.

    With unreduced per-sample-sum gradients each client's observation
    already scales with its batch size, so the release is
    (1/B) * sum_l G_l with B = sum_l B_l -- statistically one batch of
    size B over the union data, with client identity erased.
    """
    if not gradients:
        raise ConfigError("need at least one client gradient")
    first = gradients[0][0]
    total = sum(b for _, b in gradients)
    if any(b < 1 for _, b in gradients):
        raise ConfigError("client batch sizes must be positive")
    flat = np.zeros(first.m * (1 + first.d))
    for obs, _ in gradients:
        if not first.same_layout(obs):
            raise LayoutMismatchError("client gradients have different layouts")
        flat += obs.flatten()
    out = GradientObservation.from_flat(flat / total, first.m, first.d)
    out.provenance.append(
        DefenseRecord(
            variant="secure_aggregation",
            params={"batch_sizes": [b for _, b in gradients], "total": total},
        )
    )
    return out


_TRANSFORMS = ("noise", "clip", "prune_ratio", "prune_threshold", "dropout")


def compose(defenses: list, obs: GradientObservation, seed: int) -> GradientObservation:
    """Apply observation transforms left to right, accumulating provenance.

    Only pure observation transforms are composable here; aggregation
    defenses produce the base observation and are handled by the harness.
    Each stochastic transform gets its own derived seed.
    """
    if not defenses:
        raise ConfigError("compose needs a nonempty defense list")
    out = obs
    for k, cfg in enumerate(defenses):
        if cfg.variant not in _TRANSFORMS:
            raise ConfigError(
                f"defense '{cfg.variant}' is not an observation transform"
            )
        sub = derive_seed(seed, k)
        if cfg.variant == "noise":
            out = apply_noise(out, cfg.sigma0, sub, cfg.clip_scale)
        elif cfg.variant == "clip":
            out = apply_clip(out, cfg.threshold)
        elif cfg.variant == "prune_ratio":
            out = apply_prune_ratio(out, cfg.ratio)
        elif cfg.variant == "prune_threshold":
            out = apply_prune_threshold(out, cfg.cutoff)
        elif cfg.variant == "dropout":
            out = apply_dropout(out, cfg.rate, sub, cfg.node_level)
    return out

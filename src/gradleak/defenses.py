"""Defense configs that check their own parameters, and the defenses themselves.

Every defense is a frozen config that checks its fields on construction,
so an invalid config cannot exist.  Observation transforms (noise,
clipping, pruning, dropout) apply themselves: ``cfg.apply(obs, seed)``
maps one GradientObservation to another through its flat buffer and
appends a DefenseRecord describing exactly what it did; the bounds module
consumes those records.  ``apply`` is ``cfg.draw(seed, m, d)``, the random
draw, which depends only on the seed and the layout, followed by
``cfg.apply_draw(obs, draw)``.  A chain is applied one way: ``draw_chain``
makes every step's draw (one derived seed per step), which needs only the
layout, so it can happen before the observation exists, and
``compose_drawn`` applies them left to right; ``compose`` is the two
together.  Training-side defenses (``AGGREGATORS``: local and secure
aggregation) produce the base observation instead of transforming one,
through the functions ``local_aggregation`` and ``secure_aggregate``.

All stochastic defenses are deterministic functions of (input, config,
seed).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    ConfigError,
    DegenerateObservationError,
    DivergenceError,
    LayoutMismatchError,
    _build,
    _check,
    _check_flag,
    _floats,
)
from .network import DataBatch, GradientObservation, NetworkParams, _quiet, gradient
from .seeding import derive_seed, rng_from

__all__ = [
    "NoiseDefense",
    "ClipDefense",
    "PruneRatioDefense",
    "PruneThresholdDefense",
    "DropoutDefense",
    "LocalAggregationDefense",
    "SecureAggregationDefense",
    "AGGREGATORS",
    "DefenseRecord",
    "defense_from_dict",
    "defense_to_dict",
    "dp_sgd_preset",
    "local_aggregation",
    "secure_aggregate",
    "compose",
    "draw_chain",
    "compose_drawn",
]


@dataclass(frozen=True)
class DefenseRecord:
    """What a defense actually did to one observation."""

    variant: str
    params: dict = field(default_factory=dict)
    clip_factor: float | None = None      # realized min{1, C/||G||}
    mask: np.ndarray | None = None        # True where the coordinate was kept
    steps: int | None = None

    def __post_init__(self):
        if self.mask is not None:
            self.mask.flags.writeable = False


def _masked(cfg, obs: GradientObservation, keep: np.ndarray) -> GradientObservation:
    """The output of a masking transform, recorded with its mask: a dropped coordinate,
    inf and NaN included, becomes a zero of its sign (``x * keep`` for finite x).
    Bitwise: (``-keep`` | sign bit) & x keeps a kept x whole and a dropped x's sign."""
    record = DefenseRecord(variant=cfg.variant, params=asdict(cfg), mask=keep)
    bits = np.negative(keep, dtype=np.int64)  # all ones where kept, 0 where dropped
    bits |= np.iinfo(np.int64).min
    bits &= obs.flat.view(np.int64)
    return GradientObservation(bits.view(np.float64), obs.m, obs.d, (*obs.provenance, record))


class _Transform:
    """An observation transform: ``draw`` makes its random draw (None when it
    draws nothing) and ``apply_draw`` applies one; ``apply`` does both."""

    def draw(self, seed: int, m: int, d: int):
        return None

    def apply(self, obs: GradientObservation, seed: int) -> GradientObservation:
        return self.apply_draw(obs, self.draw(seed, obs.m, obs.d))


@dataclass(frozen=True)
class NoiseDefense(_Transform):
    """Additive i.i.d. Gaussian noise on every flattened coordinate.

    ``clip_scale`` switches to the alternative parameterization where the
    std is sigma0 * clip_scale (pass the clipping threshold to scale noise
    with it); default keeps std = sigma0.
    """

    variant: ClassVar[str] = "noise"
    sigma0: float
    clip_scale: float = 1.0

    def __post_init__(self):
        _floats(self)
        _check("noise sigma0 must be a number >= 0", self.sigma0, lambda x: x >= 0)
        _check("noise clip_scale must be a number > 0", self.clip_scale, lambda x: x > 0)

    @property
    def main_param(self) -> float:
        return self.sigma0

    def draw(self, seed: int, m: int, d: int) -> np.ndarray | None:
        """N(0, (sigma0*clip_scale)^2) for each of the m + m*d coordinates; None
        when sigma0 = 0.  ``rng.normal(0, s)`` is ``0.0 + s*z`` (a -0.0 product
        becomes +0.0), so z is scaled and shifted in place."""
        if self.sigma0 == 0:
            return None
        draw = rng_from(seed).standard_normal(m * (1 + d))
        draw *= self.sigma0 * self.clip_scale
        draw += 0.0
        return draw

    def apply_draw(self, obs: GradientObservation, draw) -> GradientObservation:
        """Add the drawn noise in place in ``draw``, which becomes the output's
        buffer; no draw shares the input's buffer."""
        provenance = (*obs.provenance, DefenseRecord(variant=self.variant, params=asdict(self)))
        if draw is None:
            return GradientObservation(obs.flat, obs.m, obs.d, provenance)
        np.add(draw, obs.flat, out=draw)
        return GradientObservation(draw, obs.m, obs.d, provenance)


@dataclass(frozen=True)
class ClipDefense(_Transform):
    variant: ClassVar[str] = "clip"
    threshold: float

    def __post_init__(self):
        _floats(self)
        _check("clip threshold must be a number > 0", self.threshold, lambda x: x > 0)

    @property
    def main_param(self) -> float:
        return self.threshold

    def apply_draw(self, obs: GradientObservation, draw) -> GradientObservation:
        """Scale the whole flattened vector by R = min{1, threshold/||G||}.
        A non-finite norm (±inf or NaN in G, or an overflow) gives R = NaN:
        the output is all NaN, with no floating-point warning."""
        with _quiet():
            norm = obs.norm()
        if not math.isfinite(norm):
            factor = math.nan
        else:
            factor = 1.0 if norm <= self.threshold else self.threshold / norm
        record = DefenseRecord(
            variant=self.variant,
            params={**asdict(self), "observed_norm": norm},
            clip_factor=factor,
        )
        return GradientObservation(obs.flat * factor, obs.m, obs.d, (*obs.provenance, record))


@dataclass(frozen=True)
class PruneRatioDefense(_Transform):
    """Zero the floor(ratio * len) smallest-magnitude coordinates.

    The kept set equals a stable argsort's: ties in magnitude go by
    ascending index and NaN sorts last.  ``apply`` finds it by linear-time
    selection, not by sorting.
    """

    variant: ClassVar[str] = "prune_ratio"
    ratio: float

    def __post_init__(self):
        _floats(self)
        _check("prune ratio must be a number in [0, 1)", self.ratio, lambda x: 0 <= x < 1)

    @property
    def main_param(self) -> float:
        return self.ratio

    def apply_draw(self, obs: GradientObservation, draw) -> GradientObservation:
        """Zero the k = floor(ratio*len) smallest-|.| coordinates of the
        flattened vector (both blocks as one).

        The kept set is exactly the one a stable argsort of the magnitudes
        gives: ties go by ascending index, and NaN sorts last, after +-inf.
        It is found in O(len) time: the k-th smallest magnitude t comes from
        a partition (introselect); every entry below t is dropped, then the
        entries equal to t, lowest index first, until k are dropped.  If t is
        NaN, fewer than k entries are numbers: all of them are dropped, then
        the lowest-index NaNs.
        """
        flat = obs.flat
        k = int(np.floor(self.ratio * flat.size))
        if k == 0:
            keep = np.ones(flat.size, dtype=bool)
        else:
            mag = np.abs(flat)
            mag.partition(k - 1)
            t = mag[k - 1]
            np.abs(flat, out=mag)  # in index order again: one scratch buffer, not two
            if np.isnan(t):
                keep = np.isnan(mag)
                ties = np.flatnonzero(keep)
            else:
                keep = ~(mag < t)  # not mag >= t: NaN compares False and must stay
                ties = np.flatnonzero(mag == t)
            del mag  # free the scratch before _masked allocates the output
            keep[ties[:k - (keep.size - np.count_nonzero(keep))]] = False
        return _masked(self, obs, keep)


@dataclass(frozen=True)
class PruneThresholdDefense(_Transform):
    """Zero coordinates with magnitude strictly below ``cutoff``."""

    variant: ClassVar[str] = "prune_threshold"
    cutoff: float

    def __post_init__(self):
        _floats(self)
        _check("prune cutoff must be a number >= 0", self.cutoff, lambda x: x >= 0)

    @property
    def main_param(self) -> float:
        return self.cutoff

    def apply_draw(self, obs: GradientObservation, draw) -> GradientObservation:
        """Zero coordinates with |g| < cutoff (entries exactly at the cutoff
        survive)."""
        return _masked(self, obs, np.abs(obs.flat) >= self.cutoff)


@dataclass(frozen=True)
class DropoutDefense(_Transform):
    """Drop whole hidden units with probability ``rate`` each.

    Node-level by default: a dropped unit zeroes its grad_a entry and its
    whole grad_W row, matching a network of smaller effective width.  The
    coordinate-level variant (independent Bernoulli per coordinate) is
    off by default.
    """

    variant: ClassVar[str] = "dropout"
    rate: float
    node_level: bool = True

    def __post_init__(self):
        _floats(self)
        _check("dropout rate must be a number in [0, 1)", self.rate, lambda x: 0 <= x < 1)
        _check_flag("dropout node_level", self.node_level)

    @property
    def main_param(self) -> float:
        return self.rate

    def draw(self, seed: int, m: int, d: int) -> np.ndarray:
        """The keep mask over the m + m*d coordinates: hidden units (or single
        coordinates) are dropped with probability ``rate``."""
        rng = rng_from(seed)
        if self.node_level:
            dropped = rng.random(m) < self.rate
            if dropped.all():
                raise DegenerateObservationError(
                    "dropout removed every hidden unit; nothing observable remains"
                )
            keep = np.ones(m * (1 + d), dtype=bool)
            keep[:m][dropped] = False
            keep[m:] = np.repeat(~dropped, d)
        else:
            keep = rng.random(m * (1 + d)) >= self.rate
            if not keep.any():
                raise DegenerateObservationError("dropout removed every coordinate")
        return keep

    def apply_draw(self, obs: GradientObservation, draw) -> GradientObservation:
        return _masked(self, obs, draw)


@dataclass(frozen=True)
class LocalAggregationDefense:
    """Release a multi-step parameter difference instead of one gradient.

    ``fresh_batches`` switches from reusing one batch every step to drawing
    a disjoint batch per step; the eavesdropper then faces a
    steps*B-sample problem.
    """

    variant: ClassVar[str] = "local_aggregation"
    steps: int
    eta_a: float | None = None  # default 1/m^2 at apply time
    eta_w: float | None = None  # default 0.1/sqrt(m)
    fresh_batches: bool = False

    def __post_init__(self):
        _floats(self)
        _check(
            "local aggregation steps must be an integer >= 1",
            self.steps, lambda n: n >= 1, numbers.Integral,
        )
        for eta in (self.eta_a, self.eta_w):
            if eta is not None:
                _check("learning rates must be numbers > 0", eta, lambda x: x > 0)
        _check_flag("local aggregation fresh_batches", self.fresh_batches)

    @property
    def main_param(self) -> float:
        return float(self.steps)


@dataclass(frozen=True)
class SecureAggregationDefense:
    """Clients sum their gradients; only the batch-size-weighted mean leaks."""

    variant: ClassVar[str] = "secure_aggregation"
    batch_sizes: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.batch_sizes, (list, tuple)) or not self.batch_sizes:
            raise ConfigError("secure aggregation needs a nonempty list of client batch sizes")
        object.__setattr__(self, "batch_sizes", tuple(self.batch_sizes))
        for b in self.batch_sizes:
            _check(
                "secure aggregation client batch sizes must be integers >= 1",
                b, lambda n: n >= 1, numbers.Integral,
            )

    @property
    def main_param(self) -> float:
        return float(len(self.batch_sizes))


AGGREGATORS = (LocalAggregationDefense, SecureAggregationDefense)

_BY_VARIANT = {
    cls.variant: cls
    for cls in (
        NoiseDefense,
        ClipDefense,
        PruneRatioDefense,
        PruneThresholdDefense,
        DropoutDefense,
        *AGGREGATORS,
    )
}


def defense_from_dict(spec: dict):
    """Build a defense config from its JSON form {"variant": ..., params}."""
    spec = _build(dict, spec, "a defense")
    variant = spec.pop("variant", None)
    if not isinstance(variant, str) or variant not in _BY_VARIANT:
        raise ConfigError(f"unknown defense variant '{variant}'")
    return _build(_BY_VARIANT[variant], spec, f"parameters for defense '{variant}'")


def defense_to_dict(cfg) -> dict:
    return {"variant": cfg.variant, **asdict(cfg)}


def dp_sgd_preset(threshold: float, sigma0: float, scale_noise_by_clip: bool = False):
    """Clip-then-noise, the standard private-update transform."""
    return [
        ClipDefense(threshold=threshold),
        NoiseDefense(sigma0=sigma0, clip_scale=threshold if scale_noise_by_clip else 1.0),
    ]


def _descend(params: NetworkParams, batches: list[DataBatch], eta_a: float, eta_w: float,
             steps: int, transforms=(), seed: int = 0) -> tuple[NetworkParams, int | None]:
    """Full-batch gradient descent from ``params`` on one flat copy, updated in
    place through views.  Step k descends the gradient on ``batches[k %
    len(batches)]``, defended by ``compose(transforms, g, derive_seed(seed, k))``.
    Returns the parameters reached and the 1-based step whose update first
    made one non-finite, where descent stops (None if none did)."""
    m = params.m
    theta = np.concatenate([params.a, params.W.ravel()])
    cur = NetworkParams(theta[:m], theta[m:].reshape(params.W.shape), params.activation)
    step_buf = np.empty_like(theta)
    # overflow is an expected outcome here, and the isfinite check decides it
    # the same way whatever the caller's warnings filter
    with _quiet():
        for step in range(steps):
            g = gradient(cur, batches[step % len(batches)])
            if transforms:
                try:
                    g = compose(transforms, g, derive_seed(seed, step))
                except DegenerateObservationError:  # dropout left nothing to send
                    continue
            np.multiply(eta_a, g.flat[:m], out=step_buf[:m])
            np.multiply(eta_w, g.flat[m:], out=step_buf[m:])
            theta -= step_buf
            if not np.isfinite(theta).all():
                return cur, step + 1
    return cur, None


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
    rates, so nothing is hidden by the rescaling.  A non-finite update
    raises DivergenceError naming its step.
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
    cur, diverged = _descend(params, batches, eta_a, eta_w, steps)
    if diverged is not None:
        raise DivergenceError(f"local aggregation rollout diverged at step {diverged}", step=diverged)
    record = DefenseRecord(variant=LocalAggregationDefense.variant,
                           params={"eta_a": eta_a, "eta_w": eta_w}, steps=steps)
    flat = np.concatenate([(params.a - cur.a) / eta_a, ((params.W - cur.W) / eta_w).ravel()])
    return GradientObservation(flat, m, params.d, (record,))


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
        flat += obs.flat
    record = DefenseRecord(
        variant=SecureAggregationDefense.variant,
        params={"batch_sizes": [b for _, b in gradients], "total": total},
    )
    return GradientObservation(flat / total, first.m, first.d, (record,))


def _check_chain(defenses: list):
    if not defenses:
        raise ConfigError("compose needs a nonempty defense list")
    for cfg in defenses:
        if isinstance(cfg, AGGREGATORS):
            raise ConfigError(f"defense '{cfg.variant}' is not an observation transform")


def compose(defenses: list, obs: GradientObservation, seed: int) -> GradientObservation:
    """Apply observation transforms left to right, accumulating provenance:
    ``compose_drawn`` on ``draw_chain``'s draws for ``seed``.

    Only pure observation transforms are composable here; aggregation
    defenses produce the base observation and are handled by the harness.
    """
    return compose_drawn(defenses, obs, draw_chain(defenses, seed, obs.m, obs.d))


def draw_chain(defenses: list, seed: int, m: int, d: int) -> list:
    """The draw each step of the chain makes on an observation of layout
    (m, d), step k from ``derive_seed(seed, k)``; None for a step that draws
    nothing.  A draw depends only on its seed and the layout, so it can be
    made before (or while) the observation is computed."""
    _check_chain(defenses)
    return [cfg.draw(derive_seed(seed, k), m, d) for k, cfg in enumerate(defenses)]


def compose_drawn(defenses: list, obs: GradientObservation, draws: list) -> GradientObservation:
    """Apply the chain left to right with the draws ``draw_chain`` made.  The
    draws are consumed (noise is added in place in its draw)."""
    out = obs
    for cfg, draw in zip(defenses, draws, strict=True):
        out = cfg.apply_draw(out, draw)
    return out

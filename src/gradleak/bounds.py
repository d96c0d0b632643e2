"""Information-theoretic reconstruction limits and the private-noise calculator.

With the observation modeled as the flattened gradient plus isotropic
Gaussian noise of std ``sigma``, no estimator of the batch can beat the
Cramer-Rao limit computed from the input Jacobian J (shape (B*d, m + m*d),
rows are input coordinates, columns are observation coordinates):

    exact:  R^2 >= (1/B) * tr((J J^T)^{-1}) * sigma^2
    loose:  R^2 >= (1/B) * (B*d)^2 * sigma^2 / tr(J J^T)

Both need only the (B*d, B*d) Gram matrix G = J J^T, so ``cramer_rao_gram``
is the one implementation, and ``bound_for_observation`` is the one way to
fold a defense chain into it: it takes G in closed form from
``network.input_gram`` and never builds J.

The loose form follows from the trace inequality tr(M) tr(M^{-1}) >= n^2 and
never exceeds the exact one.  Defense records adjust the computation:
clipping rescales the effective noise, masking defenses (pruning, dropout)
delete the observation coordinates they zeroed -- rank deficiency is then a
real loss of information and is reported, not hidden.

The same noise model drives the privacy calculator: a Gaussian mechanism on
a function with squared sensitivity ``sensitivity`` satisfies an
(epsilon, delta) guarantee with the closed-form failure probability

    delta = exp( -(sensitivity / (2 sigma^2)) * (sigma^2 eps / sensitivity - 1/2)^2 )

valid when the optimizing moment order is >= 1 (flagged otherwise), and its
inverse gives the noise variance required for a target (epsilon, delta).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, _check
from .network import DataBatch, GradientObservation, NetworkParams, _draw_batch, gradient, input_gram
from .seeding import rng_from

__all__ = [
    "BoundReport",
    "cramer_rao_gram",
    "bound_for_observation",
    "dp_delta",
    "dp_lambda_star",
    "required_sigma",
    "estimate_sensitivity",
]

# relative eigenvalue floor below which a mode of J J^T counts as lost
_RANK_FLOOR = 1e-12


@dataclass
class BoundReport:
    """Lower-bound values (squared and square-rooted) plus adjustments."""

    rl2_exact: float
    rl2_loose: float
    sigma: float
    batch_size: int
    rank: int
    n_input_coords: int
    n_obs_coords: int
    adjustments: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    @property
    def rl_exact(self) -> float:
        return math.sqrt(self.rl2_exact) if math.isfinite(self.rl2_exact) else math.inf

    @property
    def rl_loose(self) -> float:
        return math.sqrt(self.rl2_loose) if math.isfinite(self.rl2_loose) else math.inf

    def to_dict(self) -> dict:
        return {**asdict(self), "rl_exact": self.rl_exact, "rl_loose": self.rl_loose}


def cramer_rao_gram(G: np.ndarray, n_obs: int, sigma: float, B: int) -> BoundReport:
    """Exact and loosened lower bounds from the Gram matrix ``G = J J^T``.

    ``n_obs`` is the number of observation coordinates (columns of J) that
    went into G.  Rank-deficient G (legitimate under masking defenses)
    computes the exact trace-inverse on the numerical range only and flags
    the deficiency; with no observation coordinates at all both bounds are
    infinite.
    """
    if sigma <= 0:
        raise ConfigError("sigma must be > 0")
    if B < 1:
        raise ConfigError("B must be >= 1")
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DimensionError("G must be a square matrix")
    n_in = G.shape[0]
    flags: list[str] = []
    if n_obs == 0 or not np.any(G):
        rl2_exact = rl2_loose = math.inf
        rank = 0
        flags.append("no-information")
    else:
        evals = np.linalg.eigvalsh(G)
        floor = evals[-1] * _RANK_FLOOR
        kept = evals[evals > floor]
        rank = int(kept.size)
        if rank < n_in:
            flags.append(f"rank-deficient: rank {rank} of {n_in} input coordinates")
        rl2_exact = float(np.sum(1.0 / kept)) * sigma**2 / B
        # rank == n_in in the regular full-rank case; restricting the trace
        # inequality to the numerical range keeps loose <= exact always
        rl2_loose = (rank**2) * sigma**2 / float(np.sum(kept)) / B
    return BoundReport(
        rl2_exact=rl2_exact,
        rl2_loose=rl2_loose,
        sigma=sigma,
        batch_size=B,
        rank=rank,
        n_input_coords=n_in,
        n_obs_coords=n_obs,
        flags=flags,
    )


def bound_for_observation(
    params: NetworkParams, batch: DataBatch, sigma: float, obs: GradientObservation
) -> BoundReport:
    """Fold a whole defense chain into one bound report.

    ``batch`` holds every sample the observation depends on (B_eff columns
    under fresh-batch local aggregation).  Mask records intersect (a
    coordinate zeroed anywhere stays zeroed) and enter the closed-form Gram
    ``J[:, keep] J[:, keep]^T``, so the dense Jacobian is never built; clip
    factors multiply into the effective noise, and aggregation or noise
    records only annotate.
    """
    keep = np.ones(params.n_coords, dtype=bool)
    clip_factor = 1.0
    notes = {}
    flags = []
    for rec in obs.provenance:
        if rec.mask is not None:
            keep &= rec.mask
        if rec.clip_factor is not None:
            clip_factor *= rec.clip_factor
        if rec.variant == "noise":
            notes["defense_sigma0"] = rec.params.get("sigma0")
        if rec.variant == "local_aggregation":
            flags.append("local-aggregation: same-order single-step bound")
        if rec.variant == "secure_aggregation":
            notes["clients"] = rec.params.get("batch_sizes")
    G, total = input_gram(params, batch, keep)
    rep = cramer_rao_gram(G, int(keep.sum()), sigma / clip_factor, batch.B)
    if clip_factor != 1.0:
        rep.adjustments["clip_factor"] = clip_factor
        rep.adjustments["sigma_effective"] = sigma / clip_factor
    if not keep.all():
        rep.adjustments["mass_fraction_destroyed"] = (
            1.0 - float(np.trace(G)) / total if total > 0 else 0.0
        )
    rep.adjustments.update(notes)
    rep.flags.extend(flags)
    return rep


def _finite_positive(**values):
    """ConfigError unless each value is a finite number > 0 (NaN and inf fail)."""
    for name, value in values.items():
        _check(f"{name} must be a finite number > 0", value, lambda v: 0 < v < math.inf)


def dp_lambda_star(epsilon: float, sigma_sq: float, sensitivity: float) -> float:
    """Moment order minimizing the closed-form failure probability."""
    return sigma_sq * epsilon / sensitivity - 0.5


def dp_delta(epsilon: float, sigma_sq: float, sensitivity: float) -> float:
    """Closed-form failure probability of the Gaussian mechanism.

    delta = exp(-(sensitivity/(2 sigma^2)) (sigma^2 eps / sensitivity - 1/2)^2),
    clamped to [0, 1]; degenerate inputs (optimum at or below zero) clamp to
    the vacuous delta = 1.  The formula's derivation needs the optimizing
    order >= 1; use ``dp_lambda_star`` to check (``gradleak dp-calc`` flags it).
    """
    _finite_positive(epsilon=epsilon, sigma_sq=sigma_sq, sensitivity=sensitivity)
    t = dp_lambda_star(epsilon, sigma_sq, sensitivity)
    if t <= 0:
        return 1.0
    val = math.exp(-(sensitivity / (2.0 * sigma_sq)) * t * t)
    return min(max(val, 0.0), 1.0)


def required_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Smallest noise variance giving the target (epsilon, delta).

    Inverts ``dp_delta`` in closed form: with L = ln(1/delta) the optimal
    order is t = (L + sqrt(L^2 + eps L)) / eps and
    sigma^2 = sensitivity (t + 1/2) / eps, homogeneous of degree 1 in the
    sensitivity.  Round-trips through ``dp_delta`` to relative 1e-9.
    """
    _finite_positive(epsilon=epsilon, sensitivity=sensitivity)
    _check("delta must lie strictly between 0 and 1", delta, lambda v: 0 < v < 1)
    L = math.log(1.0 / delta)
    t = (L + math.sqrt(L * L + epsilon * L)) / epsilon
    return sensitivity * (t + 0.5) / epsilon


def estimate_sensitivity(params: NetworkParams, trials: int, seed: int) -> float:
    """Max over sampled adjacent pairs of || G(x,y) - G(x',y') ||^2.

    Pairs are drawn as ``sample_batch`` draws a batch of two; with the summed
    per-sample loss, swapping one sample changes the batch gradient by
    exactly the difference of the two single-sample gradients.  The true
    sensitivity is a supremum over all adjacent pairs, so this sampled max
    can only under-shoot it: the conservative direction for "at least this
    much noise is needed".
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = rng_from(seed)
    best = 0.0
    for _ in range(trials):
        pair = _draw_batch(rng, params.d, 2)
        g0 = gradient(params, DataBatch(X=pair.X[:, :1], y=pair.y[:1])).flat
        g1 = gradient(params, DataBatch(X=pair.X[:, 1:], y=pair.y[1:])).flat
        gap = float(np.sum((g0 - g1) ** 2))
        if gap > best:
            best = gap
    return best


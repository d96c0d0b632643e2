"""Scalar activations and their Gaussian Hermite moments.

The moment-based attack needs to know, for an activation ``s``, the smallest
orders ``k >= 2`` and ``k >= 3`` at which ``E[s^(k)(z)]`` (z standard normal)
is nonzero, together with those moment values.  By Stein's identity the
derivative moments equal ``E[s(z) He_k(z)]`` with probabilists' Hermite
polynomials, so everything is computed by Gauss-Hermite quadrature of the
activation itself; no derivatives beyond order 2 are ever required.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.hermite_e import hermeval

from .errors import ConfigError, NoInformativeOrderError, UnsupportedActivationError, _check

__all__ = [
    "Activation",
    "ActivationSpec",
    "HermiteMoments",
    "make_activation",
    "hermite_moments",
    "ZERO_MOMENT_THRESHOLD",
]

# A derivative moment below this is treated as exactly zero when the
# informative orders are detected.
ZERO_MOMENT_THRESHOLD = 1e-8


@dataclass(frozen=True)
class Activation:
    """Pointwise activation with analytic derivatives up to order 2.

    ``second_derivative`` may be None; the input-Jacobian of the gradient
    is then unavailable for this activation.
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    second_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    joint: Callable[[np.ndarray, int], tuple] | None = field(default=None, repr=False)

    def __call__(self, z):
        return self.value(z)

    def derivatives(self, z, order: int):
        """(s, s') or (s, s', s''), bit for bit as the separate callables; ``joint``
        computes them together when set (``exp`` returns one read-only array)."""
        if order == 2 and self.second_derivative is None:
            raise UnsupportedActivationError(
                f"activation '{self.name}' has no analytic second derivative"
            )
        if self.joint is not None:
            return self.joint(z, order)
        head = self.value(z), self.derivative(z)
        return head if order == 1 else (*head, self.second_derivative(z))


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def make_activation(kind: str, scale: float = 1.0) -> Activation:
    """Build one of the stock activations, optionally scaled by a constant.

    kind:
        ``softplus``  log(1 + e^z); informative orders 2 and 4.
        ``exp``       e^z; every derivative moment equals sqrt(e), so the
                      order-3 path is exercised.  Note e^z is not Lipschitz;
                      it is meant as a test activation.
        ``cubic``     z^3; the order-2 moment vanishes, exercising the
                      probe-contracted moment-matrix path.

    ``scale`` multiplies the output (and therefore every derivative and
    every Hermite moment); it tunes how strong additive observation noise
    is relative to the gradient signal without changing which orders are
    informative.
    """
    if scale <= 0 or not np.isfinite(scale):
        raise ConfigError(f"activation scale must be positive, got {scale}")
    c = float(scale)
    if kind == "softplus":
        def softplus_d2(z):
            s = _sigmoid(z)
            return c * s * (1.0 - s)

        def softplus_joint(z, order):
            sig = _sigmoid(z)
            out = (c * np.logaddexp(0.0, z), c * sig)
            return out if order == 1 else (*out, out[1] * (1.0 - sig))

        act = Activation(
            name="softplus" if c == 1.0 else f"softplus*{c:g}",
            value=lambda z: c * np.logaddexp(0.0, z),
            derivative=lambda z: c * _sigmoid(z),
            second_derivative=softplus_d2,
            joint=softplus_joint,
        )
    elif kind == "exp":
        def exp_joint(z, order):
            e = np.exp(z)
            e *= c  # c * exp(z) without a second temporary
            e.flags.writeable = False  # one array stands for every order
            return (e,) * (order + 1)
        act = Activation(
            name="exp" if c == 1.0 else f"exp*{c:g}",
            value=lambda z: c * np.exp(z),
            derivative=lambda z: c * np.exp(z),
            second_derivative=lambda z: c * np.exp(z),
            joint=exp_joint,
        )
    elif kind == "cubic":
        act = Activation(
            name="cubic" if c == 1.0 else f"cubic*{c:g}",
            value=lambda z: c * z**3,
            derivative=lambda z: 3.0 * c * z**2,
            second_derivative=lambda z: 6.0 * c * z,
        )
    else:
        raise ConfigError(f"unknown activation kind '{kind}'")
    return act


@dataclass(frozen=True)
class ActivationSpec:
    """The arguments of ``make_activation``, checked on construction."""

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("softplus", "exp", "cubic"):
            raise ConfigError(f"unknown activation kind {self.kind!r}")
        _check("activation scale must be a finite number > 0", self.scale,
               lambda x: 0 < x < np.inf)


@dataclass(frozen=True)
class HermiteMoments:
    """Gaussian derivative moments of an activation.

    matrix_order:  smallest k >= 2 with |E[s^(k)(z)]| above threshold (2 or 3)
    tensor_order:  smallest k >= 3 with the same property (3 or 4)
    matrix_weight: |E[s^(matrix_order)(z)]|
    tensor_weight: |E[s^(tensor_order)(z)]|
    raw:           E[s(z) He_k(z)] for k = 0..k_max, signed
    """

    matrix_order: int
    tensor_order: int
    matrix_weight: float
    tensor_weight: float
    raw: np.ndarray = field(repr=False)


def _hermite_eval(k: int, z: np.ndarray) -> np.ndarray:
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return hermeval(z, coeffs)


@functools.lru_cache(maxsize=8)
def _gauss_hermite_rule(quad_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only standard-normal nodes sqrt(2) x and weights w of hermgauss."""
    x, w = hermgauss(quad_nodes)
    z = np.sqrt(2.0) * x
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def gauss_hermite_expectation(f, quad_nodes: int = 128) -> float:
    """E[f(z)] for z ~ N(0, 1) by Gauss-Hermite quadrature."""
    z, w = _gauss_hermite_rule(quad_nodes)
    return float(np.sum(w * f(z)) / np.sqrt(np.pi))


def hermite_moments(
    activation: Activation, k_max: int = 4, quad_nodes: int = 128
) -> HermiteMoments:
    """Compute E[s(z) He_k(z)] for k = 0..k_max and detect informative orders.

    Raises NoInformativeOrderError when no k in {2, 3} (matrix) or {3, 4}
    (tensor) carries a moment above ZERO_MOMENT_THRESHOLD.
    """
    if k_max < 4:
        raise ConfigError("k_max must be at least 4")
    if quad_nodes < 64:
        raise ConfigError("quad_nodes must be at least 64")
    raw = np.array(
        [
            gauss_hermite_expectation(
                lambda z, k=k: activation(z) * _hermite_eval(k, z), quad_nodes
            )
            for k in range(k_max + 1)
        ]
    )
    matrix_order = next(
        (k for k in (2, 3) if abs(raw[k]) > ZERO_MOMENT_THRESHOLD), None
    )
    tensor_order = next(
        (k for k in (3, 4) if abs(raw[k]) > ZERO_MOMENT_THRESHOLD), None
    )
    if matrix_order is None or tensor_order is None:
        raise NoInformativeOrderError(
            f"activation '{activation.name}' has no usable derivative moment "
            f"(|E[s He_k]| <= {ZERO_MOMENT_THRESHOLD} for the searched orders)"
        )
    return HermiteMoments(
        matrix_order=matrix_order,
        tensor_order=tensor_order,
        matrix_weight=abs(float(raw[matrix_order])),
        tensor_weight=abs(float(raw[tensor_order])),
        raw=raw,
    )

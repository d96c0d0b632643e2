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

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.hermite_e import hermeval

from .errors import ConfigError, NoInformativeOrderError, _check, _floats

__all__ = ["Activation", "HermiteMoments", "hermite_moments", "ZERO_MOMENT_THRESHOLD"]

# A derivative moment below this is treated as exactly zero when the
# informative orders are detected.
ZERO_MOMENT_THRESHOLD = 1e-8

# Gauss-Hermite nodes of the moment quadrature, and the highest Hermite
# order it computes (the tensor statistic needs k <= 4)
_RULE_NODES = 128
_TOP_ORDER = 4


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class Activation:
    """A stock pointwise activation times a constant, checked on construction.

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

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        _floats(self)
        if self.kind not in ("softplus", "exp", "cubic"):
            raise ConfigError(f"unknown activation kind {self.kind!r}")
        _check("activation scale must be a finite number > 0", self.scale,
               lambda x: 0 < x < np.inf)

    @property
    def name(self) -> str:
        c = float(self.scale)
        return self.kind if c == 1.0 else f"{self.kind}*{c:g}"

    def __call__(self, z):
        return self.derivatives(z, 0)[0]

    def derivatives(self, z, order: int) -> tuple:
        """``(s, s', s'')[:order + 1]`` at ``z`` for order 0, 1 or 2; ``exp``
        returns one read-only array for every order.  Scale 1.0 skips the
        multiply by the scale: x * 1.0 is x bit for bit."""
        c = float(self.scale)

        def scaled(v):
            return v if c == 1.0 else c * v

        if self.kind == "exp":
            e = np.exp(z)
            if c != 1.0:
                e *= c  # c * exp(z) without a second temporary
            e.flags.writeable = False
            return (e,) * (order + 1)
        if self.kind == "softplus":
            out = (scaled(np.logaddexp(0.0, z)),)
            if order == 0:
                return out
            sig = _sigmoid(z)
            out += (scaled(sig),)
            return out if order == 1 else (*out, out[1] * (1.0 - sig))
        terms = (lambda: scaled(z**3), lambda: 3.0 * c * z**2, lambda: 6.0 * c * z)
        return tuple(t() for t in terms[:order + 1])


@dataclass(frozen=True)
class HermiteMoments:
    """Gaussian derivative moments of an activation.

    matrix_order:  smallest k >= 2 with |E[s^(k)(z)]| above threshold (2 or 3)
    tensor_order:  smallest k >= 3 with the same property (3 or 4)
    matrix_weight: |E[s^(matrix_order)(z)]|
    tensor_weight: |E[s^(tensor_order)(z)]|
    raw:           E[s(z) He_k(z)] for k = 0..4, signed
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


@functools.lru_cache(maxsize=1)
def _gauss_hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only standard-normal nodes sqrt(2) x and weights w of hermgauss."""
    x, w = hermgauss(_RULE_NODES)
    z = np.sqrt(2.0) * x
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def gauss_hermite_expectation(f) -> float:
    """E[f(z)] for z ~ N(0, 1) by 128-node Gauss-Hermite quadrature."""
    z, w = _gauss_hermite_rule()
    return float(np.sum(w * f(z)) / np.sqrt(np.pi))


def hermite_moments(activation: Activation) -> HermiteMoments:
    """Compute E[s(z) He_k(z)] for k = 0..4 and detect informative orders.

    Raises NoInformativeOrderError when no k in {2, 3} (matrix) or {3, 4}
    (tensor) carries a moment above ZERO_MOMENT_THRESHOLD.
    """
    raw = np.array([
        gauss_hermite_expectation(lambda z, k=k: activation(z) * _hermite_eval(k, z))
        for k in range(_TOP_ORDER + 1)
    ])
    matrix_order = next((k for k in (2, 3) if abs(raw[k]) > ZERO_MOMENT_THRESHOLD), None)
    tensor_order = next((k for k in (3, 4) if abs(raw[k]) > ZERO_MOMENT_THRESHOLD), None)
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

"""Optimization-based gradient matching with feature-direction regularization.

Candidates X (one unit-norm column per sample, labels known) are optimized
so their gradient matches the observed one under a configurable distance,
optionally pulled toward externally reconstructed directions (e.g. the
moment-based attack's output).  Because those directions carry a sign
ambiguity, the regularizer uses squared cosine similarity, which is exactly
invariant to flipping any target column.

The objective works from the rank-B factor of the candidate's W-block
gradient, g_W = C^T X^T with C = r * (a * s'(X^T W^T)) of shape (B, m), and
never forms the m x d g_W or the distance's cograd u_W = alpha t_W + beta g_W:

    ||g_W||^2 = sum(C C^T * X^T X),     <g_W, t_W> = <C, X^T t_W^T>,
    u_W x_i          = alpha t_W x_i + beta C^T (X^T x_i),
    u_W^T (a * s'_i) = alpha t_W^T (a * s'_i) + beta X C (a * s'_i).

Those two products are all that the input chain rule reads of u_W, so an
iteration makes a few GEMM passes over W and t_W plus O(m B) work.
"""
from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, _check, _check_flag, _floats
from .network import GradientObservation, NetworkParams, _quiet
from .seeding import rng_from
from .tensor_attack import ReconstructionResult

__all__ = [
    "OptimizerConfig",
    "GradMatchConfig",
    "grad_match_loss",
    "feature_regularizer",
    "grad_match_attack",
]

_DISTANCES = ("squared-l2", "negative-cosine")
_FEATURE_MODES = ("cosine2", "subspace", "off")


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam-style first-order optimizer with unit-sphere projection."""

    step_size: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_iters: int = 2000
    grad_tol: float = 1e-10
    halve_on_increase: bool = False
    max_halvings: int = 30

    def __post_init__(self):
        _floats(self)
        _check("optimizer step_size must be a finite number > 0", self.step_size,
               lambda x: 0 < x < np.inf)
        for name in ("beta1", "beta2"):
            _check(f"optimizer {name} must be in [0, 1)", getattr(self, name), lambda x: 0 <= x < 1)
        _check("optimizer eps must be a finite number > 0", self.eps, lambda x: 0 < x < np.inf)
        _check("optimizer grad_tol must be a number >= 0", self.grad_tol, lambda x: x >= 0)
        for name, low in (("max_iters", 1), ("max_halvings", 0)):
            _check(f"optimizer {name} must be an integer >= {low}", getattr(self, name),
                   lambda n: n >= low, numbers.Integral)
        _check_flag("optimizer halve_on_increase", self.halve_on_increase)


@dataclass(frozen=True)
class GradMatchConfig:
    distance: str = "squared-l2"
    group_reweighting: bool = False
    alpha_feature: float = 0.0
    feature_mode: str = "off"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    pairing_refresh: int = 100
    sign_resolve: bool = True
    seed: int = 0
    # where run_trial takes feature_targets from: "tensor" is the tensor attack's output
    feature_source: str | None = None

    def __post_init__(self):
        _floats(self)
        for name, allowed in (("distance", _DISTANCES), ("feature_mode", _FEATURE_MODES),
                              ("feature_source", (None, "tensor"))):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"gradmatch {name} must be one of {allowed}, "
                                  f"got {getattr(self, name)!r}")
        _check("gradmatch alpha_feature must be a finite number >= 0", self.alpha_feature,
               lambda x: 0 <= x < np.inf)
        _check("gradmatch pairing_refresh must be an integer >= 1", self.pairing_refresh,
               lambda n: n >= 1, numbers.Integral)
        _check_flag("gradmatch group_reweighting", self.group_reweighting)
        _check_flag("gradmatch sign_resolve", self.sign_resolve)


def _distance_groups(cfg: GradMatchConfig, target: GradientObservation):
    """Blocks (0: grad_a, 1: grad_W) of each distance group, with its weight.

    Without reweighting both blocks form one global vector; with it each is
    a group weighted by its share of nonzero target entries (defenses may
    zero some), so the distance stays O(1).
    """
    if not cfg.group_reweighting:
        return (((0, 1), 1.0),)
    na = int(np.count_nonzero(target.grad_a))
    nw = int(np.count_nonzero(target.grad_W))
    tot = max(na + nw, 1)
    return ((0,), na / tot), ((1,), nw / tot)


def _cosine_terms(gg: float, gt: float, tt: float):
    """(value, alpha, beta) of the negative cosine; its cograd is alpha t + beta g."""
    ng, nt = np.sqrt(gg), np.sqrt(tt)
    if ng < 1e-300 or nt < 1e-300:
        return 0.0, 0.0, 0.0
    return -gt / (ng * nt), -1.0 / (ng * nt), gt / (ng**3 * nt)


def _matching_objective(params: NetworkParams, target: GradientObservation, y, cfg):
    """``X -> (distance, d distance / d X)``: the rank-B objective of the
    module docstring, with what depends only on the target computed once.
    The squared-l2 value comes from the explicit difference, which does not
    cancel near a match."""
    W, a, act = params.W, params.a, params.activation
    t_a, t_W = target.grad_a, target.grad_W
    squared = cfg.distance == "squared-l2"
    groups = _distance_groups(cfg, target)
    tt = (float(t_a @ t_a), float(np.vdot(t_W, t_W)))

    def objective(X: np.ndarray):
        if X.shape[0] != params.d or y.shape != (X.shape[1],):
            raise DimensionError(f"candidate shape {X.shape} / labels {y.shape} "
                                 f"inconsistent with d={params.d}")
        Xt = X.T
        Z = (W @ X).T.copy()                   # (B, m), like every hidden-unit array
        S0, S1, S2 = act.derivatives(Z, 2)
        r = 2.0 * (S0 @ a - y)
        rc = r[:, None]
        aS1 = a * S1
        C = S1 * rc
        C *= a                                 # g_W = C^T X^T, rounded as in gradient()
        g_a = r @ S0
        XX = Xt @ X
        TX = (t_W @ X).T.copy()                # rows (t_W x_i)^T
        if squared:
            da, dW = g_a - t_a, C.T @ Xt
            dW -= t_W
            stats = ((float(da @ da),), (float(np.vdot(dW, dW)),))
        else:
            stats = ((float(g_a @ g_a), float(g_a @ t_a), tt[0]),
                     (float(np.sum((C @ C.T) * XX)), float(np.vdot(C, TX)), tt[1]))
        val, coef = 0.0, {}
        for blocks, w in groups:
            total = [sum(col) for col in zip(*(stats[k] for k in blocks))]
            v, alpha, beta = (total[0], -2.0, 2.0) if squared else _cosine_terms(*total)
            val += w * v
            coef.update((k, (w * alpha, w * beta)) for k in blocks)
        if not np.isfinite(val):
            raise DivergenceError("gradient-matching loss is non-finite for this candidate")
        (alpha_a, beta_a), (alpha_W, beta_W) = coef[0], coef[1]
        # The cograd pulled back, in place into arrays no longer read: every
        # product and sum keeps its operands, only swapped across * or +.
        u_a = alpha_a * t_a
        u_a += np.multiply(g_a, beta_a, out=g_a)
        c = XX @ C
        c *= beta_W
        c += np.multiply(TX, alpha_W, out=TX)  # rows (u_W x_i)^T
        uW_aS1 = alpha_W * (aS1 @ t_W) + beta_W * ((aS1 @ C.T) @ Xt)
        h = 2.0 * (S0 @ u_a + np.einsum("ij,ij->i", aS1, c))  # weight of h_i = W^T (a s'_i)
        F = S1 * u_a                           # F = r (u_a s' + a s'' c) + h (a s')
        c *= aS1 if S2 is S1 else a * S2
        F += c
        F *= rc
        F += np.multiply(aS1, h[:, None], out=aS1)
        G = F @ W
        G += np.multiply(uW_aS1, rc, out=uW_aS1)
        return val, G.T

    return objective


def grad_match_loss(
    X_cand: np.ndarray,
    y: np.ndarray,
    params: NetworkParams,
    target: GradientObservation,
    cfg: GradMatchConfig,
) -> tuple[float, np.ndarray]:
    """Distance between the candidate gradient and the target, with its
    analytic gradient with respect to X_cand (shape (d, B)).

    Labels are taken as known to the attacker.  Raises DivergenceError on a
    non-finite loss.
    """
    return _matching_objective(params, target, y, cfg)(X_cand)


def _greedy_pairing(X_cand: np.ndarray, Z_hat: np.ndarray) -> np.ndarray:
    """Pair each candidate with a target column by descending squared
    cosine, each target used at most once; deterministic tie-breaking."""
    B, K = X_cand.shape[1], Z_hat.shape[1]
    nx = np.sum(X_cand * X_cand, axis=0)
    nz = np.sum(Z_hat * Z_hat, axis=0)
    c2 = (X_cand.T @ Z_hat) ** 2 / np.maximum(np.outer(nx, nz), 1e-300)
    pairing = np.full(B, -1, dtype=int)
    used = np.zeros(K, dtype=bool)
    for _ in range(min(B, K)):
        masked = np.where(used[None, :] | (pairing[:, None] >= 0), -np.inf, c2)
        i, j = np.unravel_index(np.argmax(masked), masked.shape)
        pairing[i] = j
        used[j] = True
    return pairing


def feature_regularizer(
    X_cand: np.ndarray,
    Z_hat: np.ndarray,
    mode: str,
    pairing: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Penalty pulling candidates toward reconstructed directions.

    cosine2:  sum_i (1 - cos^2(x_i, z_{pair(i)})); sign-proof because the
              cosine enters squared.  Pairing is greedy by current squared
              cosine (pass ``pairing`` to reuse one).
    subspace: sum_i of the squared residual of projecting x_i onto
              span(Z_hat); preferable when individual directions are
              unreliable but their span is.

    Returns (value, gradient wrt X_cand, pairing or None).  A zero-norm
    candidate column gets the maximum penalty with a zero (capped)
    gradient instead of dividing by zero.
    """
    if mode == "off":
        return 0.0, np.zeros_like(X_cand), None
    if mode not in _FEATURE_MODES:
        raise ConfigError(f"unknown feature mode '{mode}'")
    d, B = X_cand.shape
    grad = np.zeros_like(X_cand)
    if mode == "subspace":
        Q = np.linalg.qr(Z_hat)[0]
        resid = X_cand - Q @ (Q.T @ X_cand)
        return float(np.sum(resid * resid)), 2.0 * resid, None
    if pairing is None:
        pairing = _greedy_pairing(X_cand, Z_hat)
    value = 0.0
    for i in range(B):
        x = X_cand[:, i]
        z = Z_hat[:, pairing[i]]
        nx2 = float(x @ x)
        nz2 = float(z @ z)
        if nx2 < 1e-24 or nz2 < 1e-24:
            value += 1.0
            continue
        c = float(x @ z)
        c2 = c * c / (nx2 * nz2)
        value += 1.0 - c2
        grad[:, i] = -2.0 * (c * z / (nx2 * nz2) - c2 * x / nx2)
    return value, grad, pairing


def _project_columns(X: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.add.reduce(X * X, axis=0))  # np.linalg.norm(X, axis=0)'s arithmetic
    return X / np.where(norms > 1e-300, norms, 1.0)


def grad_match_attack(
    obs: GradientObservation,
    params: NetworkParams,
    labels: np.ndarray,
    cfg: GradMatchConfig | None = None,
    feature_targets: np.ndarray | None = None,
    X0: np.ndarray | None = None,
) -> ReconstructionResult:
    """Reconstruct len(labels) samples by first-order optimization of the
    matching objective plus the optional feature penalty.

    Labels are an attacker input (known in this threat model).  Sample
    norms are known to be 1, so every step re-projects candidate columns
    onto the unit sphere.  With ``halve_on_increase`` the step is
    backtracked until the objective does not increase, making accepted
    steps monotone.  Deterministic given (config, seed).  If the loss turns
    non-finite the best iterate so far is returned with a ``diverged``
    flag instead of raising; floating-point errors are left to that check
    (``network._quiet``), so the result is the same, and silent, under any
    warnings filter.  The diagnostics keep the iterates'
    ``trajectory_hash`` and the per-iteration ``loss_history``: they are
    how the tests observe determinism, sign-flip invariance and the
    monotone steps.
    """
    cfg = cfg or GradMatchConfig()
    use_feature = cfg.feature_mode != "off" and cfg.alpha_feature > 0
    if use_feature and feature_targets is None:
        raise ConfigError("feature regularization requested but no targets given")
    opt = cfg.optimizer
    rng = rng_from(cfg.seed)
    B = labels.shape[0]
    d = params.d
    if X0 is not None:
        X = _project_columns(np.array(X0, dtype=float))
        if X.shape != (d, B):
            raise DimensionError(f"X0 has shape {X0.shape}, expected ({d}, {B})")
    else:
        X = _project_columns(rng.standard_normal((d, B)))

    mom = np.zeros((d, B))
    vel = np.zeros((d, B))
    pairing = None
    traj = hashlib.sha256()
    diverged = False
    best_loss, best_X = np.inf, X.copy()
    iterations = 0
    loss_history: list[float] = []

    with _quiet():
        match = _matching_objective(params, obs, labels, cfg)

        def objective(Xc, pairing_in):
            val, grad = match(Xc)
            if use_feature:
                fval, fgrad, pairing_out = feature_regularizer(
                    Xc, feature_targets, cfg.feature_mode, pairing_in
                )
                val += cfg.alpha_feature * fval
                grad = grad + cfg.alpha_feature * fgrad
            else:
                pairing_out = pairing_in
            return val, grad, pairing_out

        for t in range(1, opt.max_iters + 1):
            iterations = t
            if use_feature and cfg.feature_mode == "cosine2" and (t - 1) % cfg.pairing_refresh == 0:
                pairing = None  # recompute greedily from the current iterate
            try:
                cur_loss, grad, pairing = objective(X, pairing)
            except DivergenceError:
                diverged = True
                break
            loss_history.append(cur_loss)
            if cur_loss < best_loss:
                best_loss, best_X = cur_loss, X.copy()
            flat = grad.ravel(order="K")
            gnorm = math.sqrt(flat.dot(flat))  # np.linalg.norm(grad)'s arithmetic
            if gnorm < opt.grad_tol:
                break
            mom = opt.beta1 * mom + (1.0 - opt.beta1) * grad
            vel = opt.beta2 * vel + (1.0 - opt.beta2) * grad * grad
            step = (mom / (1.0 - opt.beta1**t)) / (
                np.sqrt(vel / (1.0 - opt.beta2**t)) + opt.eps
            )
            if opt.halve_on_increase:
                scale = 1.0
                accepted = X
                for _ in range(opt.max_halvings):
                    cand = _project_columns(X - opt.step_size * scale * step)
                    try:
                        cand_loss, _, _ = objective(cand, pairing)
                    except DivergenceError:
                        cand_loss = np.inf
                    if cand_loss <= cur_loss:
                        accepted = cand
                        break
                    scale *= 0.5
                X = accepted
            else:
                X = _project_columns(X - opt.step_size * step)
            traj.update(np.ascontiguousarray(X).tobytes())

        # final iterate may beat the stored best
        try:
            final_loss, _, _ = objective(X, pairing)
            if final_loss < best_loss:
                best_loss, best_X = final_loss, X.copy()
        except DivergenceError:
            diverged = True

        return ReconstructionResult(
            samples=_project_columns(best_X),
            diagnostics={
                "final_loss": float(best_loss),
                "iterations": iterations,
                "trajectory_hash": traj.hexdigest(),
                "diverged": diverged,
                "loss_history": loss_history,
            },
        )

"""Independent reference computations the tests check the library against.

Everything here is deliberately slow and obvious: finite differences for
derivatives, explicit enumeration for assignments, literal Hermite-tensor
algebra for the projected builders.  None of it shares code paths with the
implementations it validates.
"""
from __future__ import annotations

import itertools

import numpy as np

from gradleak.bounds import BoundReport, cramer_rao
from gradleak.network import DataBatch, GradientObservation, NetworkParams, gradient, loss


def fd_loss_gradient(params: NetworkParams, batch: DataBatch, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the summed square loss over every
    parameter; returns the flattened layout (a block, then W row-major)."""
    flat = np.concatenate([params.a, params.W.ravel()])
    m, d = params.W.shape
    out = np.empty_like(flat)
    for k in range(flat.size):
        for sign in (1.0, -1.0):
            pert = flat.copy()
            pert[k] += sign * step
            p = NetworkParams(
                a=pert[:m], W=pert[m:].reshape(m, d), activation=params.activation
            )
            if sign > 0:
                up = loss(p, batch)
            else:
                down = loss(p, batch)
        out[k] = (up - down) / (2.0 * step)
    return out


def fd_input_jacobian(params: NetworkParams, batch: DataBatch, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the flattened gradient over every input
    coordinate; returns shape (B*d, m + m*d)."""
    d, B = batch.X.shape
    J = np.empty((B * d, params.n_coords))
    for i in range(B):
        for s in range(d):
            for sign in (1.0, -1.0):
                X = batch.X.copy()
                X[s, i] += sign * step
                g = gradient(params, DataBatch(X=X, y=batch.y)).flatten()
                if sign > 0:
                    up = g
                else:
                    down = g
            J[i * d + s] = (up - down) / (2.0 * step)
    return J


def dense_bound_for_observation(
    J: np.ndarray, sigma: float, B: int, obs: GradientObservation
) -> BoundReport:
    """Fold a defense chain into a bound from the dense input Jacobian.

    The column-deleting reference for ``harness.bound_for_observation``:
    masks intersect and delete J's columns, clip factors multiply into the
    effective noise, aggregation and noise records only annotate.
    """
    n_obs = J.shape[1]
    keep = np.ones(n_obs, dtype=bool)
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
    rep = cramer_rao(J[:, keep], sigma / clip_factor, B)
    if clip_factor != 1.0:
        rep.adjustments["clip_factor"] = clip_factor
        rep.adjustments["sigma_effective"] = sigma / clip_factor
    if not keep.all():
        total = float(np.sum(J * J))
        rep.adjustments["mass_fraction_destroyed"] = (
            1.0 - float(np.sum(J[:, keep] ** 2)) / total if total > 0 else 0.0
        )
    rep.adjustments.update(notes)
    rep.flags.extend(flags)
    return rep


def brute_force_min_perm(S: np.ndarray, S_hat: np.ndarray, sign_resolve: bool = True):
    """Minimum matched error by explicit enumeration over permutations.

    Signs are enumerated literally (all 2^B patterns) for B <= 4 and by
    per-pair minimization above that; the two are equivalent because the
    sign choices of different pairs do not interact.
    """
    B = S.shape[1]
    best = np.inf
    for perm in itertools.permutations(range(B)):
        if sign_resolve and B <= 4:
            for signs in itertools.product((1.0, -1.0), repeat=B):
                tot = sum(
                    np.sum((S[:, i] - signs[i] * S_hat[:, perm[i]]) ** 2)
                    for i in range(B)
                )
                best = min(best, tot)
        else:
            tot = 0.0
            for i in range(B):
                plus = np.sum((S[:, i] - S_hat[:, perm[i]]) ** 2)
                if sign_resolve:
                    minus = np.sum((S[:, i] + S_hat[:, perm[i]]) ** 2)
                    tot += min(plus, minus)
                else:
                    tot += plus
            best = min(best, tot)
    return float(np.sqrt(best / B))


def hermite_tensor3(w: np.ndarray) -> np.ndarray:
    """Literal order-3 Hermite tensor: w^(x3) - (w_i d_jk + w_j d_ik + w_k d_ij)."""
    d = w.shape[0]
    T = np.einsum("i,j,k->ijk", w, w, w)
    eye = np.eye(d)
    T -= (
        np.einsum("i,jk->ijk", w, eye)
        + np.einsum("j,ik->ijk", w, eye)
        + np.einsum("k,ij->ijk", w, eye)
    )
    return T


def hermite_tensor4(w: np.ndarray) -> np.ndarray:
    """Literal order-4 Hermite tensor (pair deltas minus, double deltas plus)."""
    d = w.shape[0]
    eye = np.eye(d)
    T = np.einsum("i,j,k,l->ijkl", w, w, w, w)
    ww = np.outer(w, w)
    T -= (
        np.einsum("ij,kl->ijkl", ww, eye)
        + np.einsum("ik,jl->ijkl", ww, eye)
        + np.einsum("il,jk->ijkl", ww, eye)
        + np.einsum("jk,il->ijkl", ww, eye)
        + np.einsum("jl,ik->ijkl", ww, eye)
        + np.einsum("kl,ij->ijkl", ww, eye)
    )
    T += (
        np.einsum("ij,kl->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", eye, eye)
        + np.einsum("il,jk->ijkl", eye, eye)
    )
    return T


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))

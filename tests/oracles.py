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
from gradleak.defenses import DefenseRecord
from gradleak.errors import DivergenceError
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


def gradient_input_vjp(
    params: NetworkParams,
    batch: DataBatch,
    u_a: np.ndarray,
    u_W: np.ndarray,
) -> np.ndarray:
    """J @ u without materializing J, one sample at a time; returns (d, B).

    Column i is the gradient of <flattened gradient, u> with respect to
    x_i, with the cograd u given as dense (m,) and (m, d) blocks.
    """
    a, act = params.a, params.activation
    Z = params.W @ batch.X
    S0, S1, S2 = act(Z), act.d1(Z), act.d2(Z)
    r = 2.0 * (S0.T @ a - batch.y)
    H = params.W.T @ (a[:, None] * S1)  # column i: grad_x f(x_i)
    out = np.empty((params.d, batch.B))
    for i in range(batch.B):
        s0i, s1i, s2i = S0[:, i], S1[:, i], S2[:, i]
        ri, hi = r[i], H[:, i]
        c = u_W @ batch.X[:, i]  # (m,) inner products x_i . u_W[j]
        out[:, i] = (
            ri * (params.W.T @ (u_a * s1i))
            + 2.0 * float(u_a @ s0i) * hi
            + 2.0 * float(np.sum(a * s1i * c)) * hi
            + ri * (params.W.T @ (a * s2i * c))
            + ri * (u_W.T @ (a * s1i))
        )
    return out


def dense_grad_match_loss(X_cand, y, params: NetworkParams, target: GradientObservation, cfg):
    """Gradient-matching distance and its gradient over X_cand, built from
    the dense m x d candidate gradient and cograd.

    The reference for ``gradmatch.grad_match_loss``: forms the candidate
    gradient with ``network.gradient``, the distance's cograd coordinate by
    coordinate, and pulls it back with the per-sample ``gradient_input_vjp``.
    """
    weights = None
    if cfg.group_reweighting:
        na = int(np.count_nonzero(target.grad_a))
        nw = int(np.count_nonzero(target.grad_W))
        tot = max(na + nw, 1)
        weights = na / tot, nw / tot

    def one(g, t):
        if cfg.distance == "squared-l2":
            diff = g - t
            return float(np.sum(diff * diff)), 2.0 * diff
        ng, nt = float(np.linalg.norm(g)), float(np.linalg.norm(t))
        if ng < 1e-300 or nt < 1e-300:
            return 0.0, np.zeros_like(g)
        dot = float(np.sum(g * t))
        return -dot / (ng * nt), -(t / (ng * nt)) + (dot / (ng**3 * nt)) * g

    batch = DataBatch(X=X_cand, y=y)
    g = gradient(params, batch)
    m = params.m
    if weights is None:  # one global vector
        val, u = one(
            np.concatenate([g.grad_a, g.grad_W.ravel()]),
            np.concatenate([target.grad_a, target.grad_W.ravel()]),
        )
        u_a, u_W = u[:m], u[m:].reshape(m, params.d)
    else:
        la, ua = one(g.grad_a, target.grad_a)
        lw, uw = one(g.grad_W.ravel(), target.grad_W.ravel())
        val, u_a, u_W = weights[0] * la + weights[1] * lw, weights[0] * ua, weights[1] * uw
        u_W = u_W.reshape(m, params.d)
    if not np.isfinite(val):
        raise DivergenceError("gradient-matching loss is non-finite for this candidate")
    return val, gradient_input_vjp(params, batch, u_a, u_W)


def argsort_prune_mask(flat: np.ndarray, ratio: float) -> np.ndarray:
    """Keep-mask of a joint magnitude prune by a full stable argsort: the
    floor(ratio*len) smallest |.| are dropped, ties by ascending index and
    NaN last, as numpy sorts."""
    k = int(np.floor(ratio * flat.size))
    keep = np.ones(flat.size, dtype=bool)
    if k > 0:
        order = np.argsort(np.abs(flat), kind="stable")
        keep[order[:k]] = False
    return keep


def argsort_prune_ratio(obs: GradientObservation, ratio: float) -> GradientObservation:
    """``defenses.apply_prune_ratio`` with its mask taken from
    ``argsort_prune_mask`` and its output built by copying."""
    flat = obs.flatten()
    keep = argsort_prune_mask(flat, ratio)
    out = GradientObservation.from_flat(flat * keep, obs.m, obs.d, obs.provenance)
    out.provenance.append(
        DefenseRecord(variant="prune_ratio", params={"ratio": ratio}, mask=keep)
    )
    return out


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


def einsum_projected_tensor(grad_a, W, V, moments, probe=None) -> np.ndarray:
    """The projected tensor as one literal einsum per order-3 contraction.

    Bitwise reference for ``build_projected_tensor``: same formula, same
    term products and the einsum's own summation order.
    """
    m = W.shape[0]
    B = V.shape[1]
    eye = np.eye(B)

    def outer_identity(v):
        return (
            np.einsum("p,qr->pqr", v, eye)
            + np.einsum("q,pr->pqr", v, eye)
            + np.einsum("r,pq->pqr", v, eye)
        )

    vw = W @ V
    if moments.tensor_order == 3:
        T = np.einsum("j,jp,jq,jr->pqr", grad_a, vw, vw, vw) / m
        T -= outer_identity((grad_a @ vw) / m)
        return T
    if probe is None:
        probe = V[:, 0].copy()
    probe = probe / np.linalg.norm(probe)
    at = V.T @ probe
    gs = grad_a * (W @ probe)
    M = (vw.T * grad_a) @ vw / m
    T = np.einsum("j,jp,jq,jr->pqr", gs, vw, vw, vw) / m
    T -= outer_identity((gs @ vw) / m)
    T -= (
        np.einsum("pq,r->pqr", M, at)
        + np.einsum("pr,q->pqr", M, at)
        + np.einsum("qr,p->pqr", M, at)
    )
    T += float(np.mean(grad_a)) * outer_identity(at)
    return T


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))

"""Moment-based sample reconstruction from the second-layer gradient block.

The attacker observes grad_a[j] = sum_i r_i s(W[j] . x_i) for known random
rows W[j].  Averaging the observed values against Hermite tensors of the
rows turns them into data moment tensors: with H2(w) = w w^T - I,

    (1/m) sum_j grad_a[j] H2(W[j])  ->  sum_i r_i E[s''(z)] x_i x_i^T,

and the order-3 analogue yields sum_i c_i x_i^(x3).  The pipeline is

    moment matrix -> top-B subspace (squared orthogonal iteration)
                  -> projected order-3 tensor in R^B
                  -> rank-1 power iteration with deflation
                  -> samples V u_i, unit-normalized.

Activations whose first informative orders are 3 (matrix) or 4 (tensor)
use the next-higher Hermite tensor contracted with a unit probe vector;
the contraction is carried out entirely in the projected space, so no
d^3 object is ever materialized.

The order-3 contraction sum_j g_j v_j^(x3) is summed term by term: each
term is ((g_j v_jp) v_jq) v_jr and each entry adds the terms one at a time
in ascending j, exactly as ``np.einsum("j,jp,jq,jr->pqr", ...)`` does for
B >= 2 (at B = 1 the einsum itself is kept, see ``_cube_contraction``).
The terms are laid out [r, (p, q)] and may differ from the plain product
only in the sign of a zero, which the +0-started running total absorbs.  A
GEMM, a pairwise or a symmetry-folded sum agrees to about 1e-14 relative,
but the decomposition's restart selection is sensitive enough for that to
pick another restart and move the reported rmse, so the summation order is
part of the contract (tests/oracles.py holds the literal einsum), and two
output halves over p keep it.  ``W @ V`` and the moment matrix's GEMM run
by row halves, the latter in row blocks, each split chosen from the shape
alone (``network._halves``), so a lent helper never changes the bytes.

Recovered samples carry an inherent sign and ordering ambiguity; both are
resolved only at scoring time.  The whole pipeline is invariant to
positive rescaling of the observation, which is why norm clipping alone
cannot defend it.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .activations import HermiteMoments, hermite_moments
from .errors import (AttackStageError, ConfigError, DegenerateObservationError, DimensionError,
                     ProbeError, _check, _float, _floats)
from .metrics import min_perm_distance
from .network import GradientObservation, NetworkParams, _halves, _matmul_rows
from .seeding import rng_from

__all__ = [
    "ReconstructionResult",
    "TensorAttackConfig",
    "build_moment_matrix",
    "estimate_subspace",
    "build_projected_tensor",
    "decompose_tensor",
    "tensor_attack",
    "score_reconstruction",
]


@dataclass
class ReconstructionResult:
    """Recovered samples, the scoring fields filled in against the truth, and
    the attack's side information (README, Conventions, lists its keys)."""

    samples: np.ndarray                     # (d, B) unit-norm columns
    signs: np.ndarray | None = None         # per-sample sign, None until resolved
    rmse: float | None = None
    assignment: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TensorAttackConfig:
    subspace_iters: int = 200
    restarts: int = 10
    power_iters: int = 100
    tol: float = 1e-10
    seed: int = 0
    probe: tuple | None = None  # any sequence of d numbers, kept as a tuple of floats

    def __post_init__(self):
        _floats(self)
        for name in ("subspace_iters", "restarts", "power_iters"):
            _check(f"tensor {name} must be an integer >= 1", getattr(self, name),
                   lambda n: n >= 1, numbers.Integral)
        _check("tensor tol must be a finite number >= 0", self.tol, lambda x: 0 <= x < np.inf)
        if self.probe is not None:
            object.__setattr__(self, "probe", tuple(map(_float, self.probe)))
            for x in self.probe:
                _check("tensor probe must hold finite numbers", x, lambda v: abs(v) < np.inf)


def _sym_matrix_vector(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetrization of M (x) v over the three index placements; v (x~) I at M = I."""
    return (
        np.einsum("pq,r->pqr", M, v)
        + np.einsum("pr,q->pqr", M, v)
        + np.einsum("qr,p->pqr", M, v)
    )


# products per chunk of the order-3 contraction (or of one output half of
# it): 1 MiB of float64, so a chunk stays in L2.  Halving it to 512 KiB
# doubles the per-chunk Python work, which slows two halves running at once
# (m=65536, B=8: 42 ms against 37)
_CHUNK_TERMS = 1 << 17


def _cube_contraction(g: np.ndarray, vw: np.ndarray) -> np.ndarray:
    """sum_j g_j v_j^(x3), bit for bit as np.einsum("j,jp,jq,jr->pqr", g, vw, vw, vw).

    The entries T[p] for p in [lo, hi) are summed on their own, by output
    halves over p (``_halves``).  Row 0 of each chunk's buffer holds the
    running total and rows 1.. the chunk's terms ((g_j v_jp) v_jq) v_jr laid
    out [r, (p, q)], so the inner loops run over the half's B^2 (hi - lo)
    entries; np.add.reduce over the leading axis adds the rows strictly in
    order, so every entry adds its terms one at a time in ascending j
    whichever entries share the call.  An einsum that sums no index writes
    a*b into a zeroed output, so a term may be +0 where the product is -0;
    the running total starts at +0, is never -0 and sums either zero alike.
    At B = 1 the reduction would be pairwise and the einsum sums in
    8192-term buffer blocks, so the einsum is kept there (an O(m) dot
    product).
    """
    m, B = vw.shape
    if B == 1:
        return np.einsum("j,jp,jq,jr->pqr", g, vw, vw, vw)
    T = np.empty((B, B, B))

    def entries(lo, hi):
        k = (hi - lo) * B
        chunk = max(1, _CHUNK_TERMS // (k * B))
        total = np.zeros((B, k))
        buf = np.empty((min(chunk, m) + 1, B, k))
        gvv = np.empty((min(chunk, m), hi - lo, B))
        for j0 in range(0, m, chunk):
            v = vw[j0:j0 + chunk]
            rows = buf[:len(v) + 1]
            rows[0] = total
            pq = np.einsum("jp,jq->jpq", g[j0:j0 + chunk, None] * v[:, lo:hi], v,
                           out=gvv[:len(v)])
            np.einsum("jk,jr->jrk", pq.reshape(len(v), k), v, out=rows[1:])
            np.add.reduce(rows, axis=0, out=total)
        T[lo:hi] = total.reshape(B, hi - lo, B).transpose(1, 2, 0)

    _halves(entries, B, g.size * B * B)  # sized by the (m, B, B) products g_j v_jp v_jq
    return T


def build_moment_matrix(
    grad_a: np.ndarray,
    W: np.ndarray,
    moments: HermiteMoments,
    probe: np.ndarray | None = None,
) -> np.ndarray:
    """Second-order moment statistic of the observed grad_a block.

    matrix_order == 2:
        (1/m) sum_j g_j (w_j w_j^T - I)
    matrix_order == 3 (order-2 moment vanishes):
        the order-3 Hermite tensor contracted with a unit probe ``a``:
        (1/m) sum_j g_j [ (w_j.a) w_j w_j^T - w_j a^T - a w_j^T - (w_j.a) I ]

    Symmetric by construction either way.  P is computed by output-row
    halves (``_halves``); a half fills the rows of the (d, m) operand
    W^T diag(g) it needs in two blocks, and multiplies and frees each block
    before filling the next, so a quarter of the operand is held at once on
    each thread that runs a half.  A call below the floor fills and
    multiplies the whole operand.  The reductions over m (``grad_a @ W``,
    the means) and the matrix-vector ``W @ probe`` stay whole.
    """
    m, d = W.shape
    if grad_a.shape != (m,):
        raise DimensionError(f"grad_a has shape {grad_a.shape}, expected ({m},)")

    def weighted_gram(g):
        """(W^T * g) @ W / m"""
        P = np.empty((d, d))

        def rows(lo, hi):
            # a half of fewer than 4 rows stays one block: a block of one row
            # would be a matrix-vector product, which sums in another order
            cuts = (lo, hi) if hi - lo == d or hi - lo < 4 else (lo, (lo + hi) // 2, hi)
            for a, b in zip(cuts, cuts[1:]):
                A = np.multiply(W.T[a:b], g, out=np.empty((b - a, m), order="F"))
                np.matmul(A, W, out=P[a:b])
                del A  # freed before the next block is filled

        _halves(rows, d, W.size)
        P /= m
        return P

    if moments.matrix_order == 2:
        P = weighted_gram(grad_a)
        P -= float(np.mean(grad_a)) * np.eye(d)
        return P
    if probe is None:
        probe = np.zeros(d)
        probe[0] = 1.0
    probe = probe / np.linalg.norm(probe)
    s = W @ probe                      # (m,) inner products w_j . a
    gs = grad_a * s
    P = weighted_gram(gs)
    u = (grad_a @ W) / m               # (1/m) sum_j g_j w_j
    P -= np.outer(u, probe) + np.outer(probe, u)
    P -= float(np.mean(gs)) * np.eye(d)
    return P


def estimate_subspace(
    P: np.ndarray, B: int, iters: int = 200, seed: int = 0
) -> tuple[np.ndarray, float, list]:
    """Top-B invariant subspace of P by orthogonal iteration on P^2.

    Each sweep multiplies by P twice and re-orthonormalizes, so components
    with signed weights (the moment matrix is indefinite in general) are
    still ranked by magnitude.  Deterministic given the seed.

    Returns (V, gap, warnings) where gap is the spectral separation between
    the B-th and (B+1)-th singular values of P; a gap below 1e-12 attaches
    an ill-conditioned-subspace warning instead of failing.  A non-finite P
    is a DegenerateObservationError before any LAPACK call: LAPACK's SVD
    prints to stdout on one.
    """
    d = P.shape[0]
    if B > d:
        raise DimensionError(f"B={B} exceeds dimension d={d}")
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    if not np.isfinite(P).all():
        raise DegenerateObservationError("the moment matrix is not finite")
    rng = rng_from(seed)
    V = np.linalg.qr(rng.standard_normal((d, B)))[0]
    for _ in range(iters):
        V_new = np.linalg.qr(P @ (P @ V))[0]
        if np.linalg.norm(V_new @ V_new.T - V @ V.T) < 1e-14:
            V = V_new
            break
        V = V_new
    sv = np.linalg.svd(P, compute_uv=False)
    gap = float(sv[B - 1] - sv[B]) if B < d else float(sv[B - 1])
    warnings = []
    if gap < 1e-12:
        warnings.append(
            f"ill-conditioned subspace: singular-value gap {gap:.3e} below 1e-12"
        )
    return V, gap, warnings


def build_projected_tensor(
    grad_a: np.ndarray,
    W: np.ndarray,
    V: np.ndarray,
    moments: HermiteMoments,
    probe: np.ndarray | None = None,
) -> np.ndarray:
    """Order-3 moment statistic, built directly in the projected space.

    With v_j = V^T w_j (exactly standard normal in R^B for orthonormal V):

    tensor_order == 3:
        T = (1/m) sum_j g_j (v_j^(x3) - v_j (x~) I_B)
    tensor_order == 4:
        the order-4 Hermite tensor contracted with a unit probe a
        (default: the first subspace column, so a lies in span(V)); with
        s_j = w_j . a and at = V^T a,

        H4(w_j)(V,V,V,a) = s_j (v_j^(x3) - v_j (x~) I_B)
                           - sym3(v_j v_j^T, at) + at (x~) I_B

        where sym3 symmetrizes the matrix-vector outer product.  The
        identity is validated against a sampling-based Stein oracle in the
        test suite.

    ``W @ V`` runs by row halves (``_matmul_rows``) and the order-3
    contraction by output halves over p (``_halves``), each split chosen
    from the shape alone; the reductions over m and the matrix-vector
    ``W @ probe`` stay whole.
    """
    m, d = W.shape
    B = V.shape[1]
    if not np.allclose(V.T @ V, np.eye(B), atol=1e-8):
        raise DimensionError("V must have orthonormal columns")
    vw = _matmul_rows(W, V)  # (m, B) rows v_j
    if moments.tensor_order == 3:
        T = _cube_contraction(grad_a, vw) / m
        T -= _sym_matrix_vector(np.eye(B), (grad_a @ vw) / m)
        return T
    if probe is None:
        probe = V[:, 0].copy()
    probe = probe / np.linalg.norm(probe)
    at = V.T @ probe
    if np.linalg.norm(at) < 1e-6:
        raise ProbeError(
            "probe is orthogonal to the estimated subspace; resample it"
        )
    s = W @ probe
    gs = grad_a * s
    T = _cube_contraction(gs, vw) / m
    T -= _sym_matrix_vector(np.eye(B), (gs @ vw) / m)
    T -= _sym_matrix_vector((vw.T * grad_a) @ vw / m, at)
    T += float(np.mean(grad_a)) * _sym_matrix_vector(np.eye(B), at)
    return T


def decompose_tensor(
    T: np.ndarray,
    B: int,
    restarts: int = 10,
    iters: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-B symmetric decomposition by power iteration with deflation.

    For each component, ``restarts`` random unit initializations are run
    through the map u <- T(I, u, u)/|.| for up to ``iters`` steps (stopping
    when the successive-iterate angle falls below ``tol``); the restart
    maximizing |T(u, u, u)| wins.  The extracted weight is T(u, u, u) at
    extraction time, and the rank-1 term is deflated before continuing.

    Returns (weights, vectors (B, n_components as columns), converged).
    Non-convergence flags the component rather than failing.
    """
    n = T.shape[0]
    if T.ndim != 3 or T.shape != (n, n, n):
        raise DimensionError(f"tensor must be cubic, got {T.shape}")
    if B > n:
        raise DimensionError(f"cannot extract {B} components from a {n}-dim tensor")
    if B < 1:
        raise DimensionError("B must be >= 1")
    rng = rng_from(seed)
    work = T.copy()
    weights = np.empty(B)
    vectors = np.empty((n, B))
    converged = np.zeros(B, dtype=bool)
    for comp in range(B):
        best_u, best_lam, best_conv = None, 0.0, False
        for _ in range(restarts):
            u = rng.standard_normal(n)
            u /= math.sqrt(u.dot(u))  # np.linalg.norm(u)'s arithmetic, less Python
            conv = False
            for _ in range(iters):
                nxt = np.einsum("pqr,q,r->p", work, u, u)
                nrm = math.sqrt(nxt.dot(nxt))
                if nrm < 1e-300:
                    break
                nxt /= nrm
                if 1.0 - abs(float(nxt @ u)) < tol:
                    u = nxt
                    conv = True
                    break
                u = nxt
            lam = float(np.einsum("pqr,p,q,r->", work, u, u, u))
            if best_u is None or abs(lam) > abs(best_lam):
                best_u, best_lam, best_conv = u, lam, conv
        weights[comp] = best_lam
        vectors[:, comp] = best_u
        converged[comp] = best_conv
        work = work - best_lam * np.einsum("p,q,r->pqr", best_u, best_u, best_u)
    return weights, vectors, converged


def tensor_attack(
    obs: GradientObservation,
    params: NetworkParams,
    B: int,
    config: TensorAttackConfig | None = None,
) -> ReconstructionResult:
    """End-to-end moment-based reconstruction of B samples.

    Consumes only the grad_a block of the observation plus the known
    first-layer rows and activation.  Signs are left unresolved; call
    ``score_reconstruction`` against the truth to fill in the metric
    fields.  Stage failures re-raise as AttackStageError with the stage
    name.
    """
    cfg = config or TensorAttackConfig()

    def _stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as e:
            raise AttackStageError(name, e) from e

    moments = _stage("hermite-moments", hermite_moments, params.activation)
    P = _stage("moment-matrix", build_moment_matrix, obs.grad_a, params.W, moments,
               cfg.probe)
    V, gap, warns = _stage(
        "subspace", estimate_subspace, P, B, cfg.subspace_iters, cfg.seed
    )
    T = _stage(
        "projected-tensor", build_projected_tensor, obs.grad_a, params.W, V, moments,
        cfg.probe,
    )
    weights, vectors, converged = _stage(
        "decomposition", decompose_tensor, T, B, cfg.restarts, cfg.power_iters,
        cfg.seed, cfg.tol,
    )
    samples = V @ vectors
    norms = np.linalg.norm(samples, axis=0)
    samples = samples / np.where(norms > 0, norms, 1.0)
    diagnostics = {
        "converged": converged,
        "weights": weights,  # T(u, u, u) of each component at extraction
        "subspace_gap": gap,
        "warnings": warns,
    }
    if not converged.all():
        diagnostics["partial"] = True
    return ReconstructionResult(samples=samples, diagnostics=diagnostics)


def score_reconstruction(
    result: ReconstructionResult, X_true: np.ndarray, sign_resolve: bool = True
) -> ReconstructionResult:
    """Fill rmse/assignment/signs by matching against the true samples."""
    rmse, perm, signs = min_perm_distance(X_true, result.samples, sign_resolve)
    return replace(result, rmse=rmse, assignment=perm, signs=signs)

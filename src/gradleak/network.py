"""Two-layer random network: forward model, exact gradients, input Gram matrix.

Model and conventions (shared by every other module):

    f(x) = sum_j a[j] * s(W[j] . x)         a ~ N(0, 1/m^2), W rows ~ N(0, I_d)
    loss = sum_i (y_i - f(x_i))^2           unreduced sum over the batch
    r_i  = 2 (f(x_i) - y_i)                 canonical residual sign

    d loss / d a[j]   = sum_i r_i s(W[j] . x_i)
    d loss / d W[j]   = sum_i r_i a[j] s'(W[j] . x_i) x_i

An observation is one frozen, read-only flat buffer: ``grad_a`` first, then
``grad_W`` row-major, giving m + m*d coordinates; ``gradient`` writes both
blocks into it in place, and the blocks are views of it.  The input
Jacobian stacks per-sample blocks: row (i, s) holds the derivative of every gradient coordinate with respect to
component s of sample x_i, so J has shape (B*d, m + m*d).  The library
never forms J: ``input_gram`` builds J J^T from per-sample factors.

``_beside`` is the one way a thread hands work to the helper it lends
(``_spare_thread``), and that work runs under the handing thread's
``np.errstate``.  A trial hands it the defense draws, the attacks (with
bounds on) and the upper half of each large kernel call (``_halves``:
``W @ X`` and three in ``tensor_attack``).  A call's partition depends on
its shape alone, so the helper decides where a half runs, never the bytes.

On glibc, importing the module keeps freed memory in the process
(``_keep_freed_memory``), so a trial reuses the pages the last one freed.
"""
from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .errors import DimensionError
from .seeding import rng_from

__all__ = [
    "NetworkParams",
    "DataBatch",
    "GradientObservation",
    "sample_params",
    "sample_batch",
    "forward",
    "gradient",
    "input_gram",
]


# a call splits in two when its largest W-sized array holds at least this
# many elements: attack-d64's W (m d = 2^22) does, bound-d32's (2^19) does not
_SPLIT_MIN = 1 << 21

_lender = threading.local()


def _keep_freed_memory() -> None:
    """On glibc, have malloc serve every large array from its heap, never
    give freed heap back to the kernel, and serve every thread from one
    arena.  A trial then reuses the pages the last one freed (at attack-d64
    W, 34 MB, the moment matrix's operand blocks, 8 MB each, and the (m, B)
    products) instead of faulting in and zero-filling new ones, whichever
    thread frees or asks: with an arena per thread, the trial's thread and
    its helper could each keep a copy of the peak.  The process keeps its
    peak heap.  Process-wide, set once at import; no arithmetic changes.
    Elsewhere it does nothing."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # mallopt's M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD -1, M_ARENA_MAX -8;
    # setting either threshold turns off glibc's own adjustment of both, so
    # the rest is set only once the mmap threshold has been taken
    if mallopt(-3, 1 << 30):
        mallopt(-1, 2**31 - 1)
        mallopt(-8, 1)


_keep_freed_memory()


def _quiet():
    """numpy's floating-point errors ignored on this thread (``errstate`` is
    per thread): the caller's explicit checks decide what a non-finite
    value means, so its result is the same, and nothing is printed, under
    any warnings filter."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


@contextmanager
def _spare_thread(executor):
    """While the block runs, ``_beside`` on this thread hands its ``there`` to
    ``executor``, a one-thread pool that must never wait on this thread.
    Other threads (the executor's own included) lend nothing."""
    prev = getattr(_lender, "spare", None)
    _lender.spare = executor
    try:
        yield
    finally:
        _lender.spare = prev


def _beside(there, here):
    """``(there(), here())``.  With a spare thread lent (``_spare_thread``),
    the spare runs ``there`` under this thread's ``np.errstate`` (numpy's is
    per thread) while this thread runs ``here``: a lent spare runs every
    ``there`` it is handed.  Otherwise both run here, ``here`` first.  An
    error surfaces only once neither is running, ``here``'s first."""
    spare = getattr(_lender, "spare", None)
    if spare is None:
        done = here()
        return there(), done
    pending = spare.submit(np.errstate(**np.geterr())(there))
    try:
        done = here()
    except BaseException:
        if not pending.cancel():
            wait([pending])
        raise
    return pending.result(), done


def _halves(fn, n: int, size: int) -> None:
    """Compute all n outputs of a call through ``fn(lo, hi)``, which writes
    outputs [lo, hi) in place.  The partition depends on the shape alone:
    with n >= 4 (a one-row half of a GEMM would be a matrix-vector product)
    and ``size`` (the call's largest W-sized array) at least
    ``_SPLIT_MIN``, [n//2, n) runs ``_beside`` [0, n//2), on a lent helper or
    here after it; otherwise ``fn(0, n)`` runs whole, since below the floor a
    split GEMM's rows can differ from the whole call's (README, kernel splits)."""
    if n >= 4 and size >= _SPLIT_MIN:
        _beside(lambda: fn(n // 2, n), lambda: fn(0, n // 2))
    else:
        fn(0, n)


def _matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, allocated as the whole call would, by row halves of ``a``
    through ``_halves``; a b of one column stays whole, since a split
    matrix-vector product gave other bytes (README, kernel splits)."""
    out = np.empty((a.shape[0], b.shape[1]))
    if b.shape[1] < 2:
        return np.matmul(a, b, out=out)
    _halves(lambda lo, hi: np.matmul(a[lo:hi], b, out=out[lo:hi]), a.shape[0],
            max(a.size, out.size))
    return out


@dataclass(frozen=True)
class NetworkParams:
    """Weights of the two-layer network, both arrays read-only once built."""

    a: np.ndarray          # (m,)   second-layer weights
    W: np.ndarray          # (m, d) first-layer weight rows
    activation: Activation

    def __post_init__(self):
        if self.a.ndim != 1 or self.W.ndim != 2 or self.a.shape[0] != self.W.shape[0]:
            raise DimensionError(
                f"inconsistent parameter shapes a{self.a.shape} W{self.W.shape}"
            )
        self.a.flags.writeable = self.W.flags.writeable = False

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]

    @property
    def n_coords(self) -> int:
        """Length of the flattened gradient."""
        return self.m * (1 + self.d)


@dataclass(frozen=True)
class DataBatch:
    """Unit-norm samples as columns of X with +/-1 labels, read-only once built."""

    X: np.ndarray  # (d, B)
    y: np.ndarray  # (B,)

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[1],):
            raise DimensionError(f"inconsistent batch shapes X{self.X.shape} y{self.y.shape}")
        self.X.flags.writeable = self.y.flags.writeable = False

    @property
    def B(self) -> int:
        return self.X.shape[1]

    @property
    def d(self) -> int:
        return self.X.shape[0]

    @property
    def min_singular_value(self) -> float:
        """B-th singular value of the sample matrix; must stay away from 0
        for moment-based recovery to be well posed."""
        return float(np.linalg.svd(self.X, compute_uv=False)[-1])


@dataclass(frozen=True, eq=False)
class GradientObservation:
    """A (possibly defended) gradient: one read-only flat buffer.

    ``flat`` holds grad_a, then grad_W row-major (m + m*d coordinates).  The
    constructor takes ownership of ``flat`` and marks it read-only;
    ``grad_a`` and ``grad_W`` are read-only views of it.  ``provenance``
    records every defense applied, in order.  At layout (m, 0) the buffer
    is the a-block alone and ``grad_W`` is empty: a trial whose stages read
    only ``grad_a`` observes that (``harness._inputs``).
    """

    flat: np.ndarray
    m: int
    d: int
    provenance: tuple = ()

    def __post_init__(self):
        n = self.m * (1 + self.d)
        if self.flat.shape != (n,):
            raise DimensionError(f"flat vector has shape {self.flat.shape}, expected ({n},)")
        self.flat.flags.writeable = False
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def grad_a(self) -> np.ndarray:
        return self.flat[:self.m]

    @property
    def grad_W(self) -> np.ndarray:
        return self.flat[self.m:].reshape(self.m, self.d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))

    def same_layout(self, other: "GradientObservation") -> bool:
        return self.m == other.m and self.d == other.d


def sample_params(d: int, m: int, seed: int, activation: Activation) -> NetworkParams:
    """Draw a ~ N(0, 1/m^2) and W rows ~ N(0, I_d); deterministic in seed."""
    if d < 1 or m < 1:
        raise DimensionError(f"d and m must be positive, got d={d}, m={m}")
    rng = rng_from(seed)
    a = rng.normal(0.0, 1.0 / m, size=m)
    W = rng.standard_normal((m, d))
    return NetworkParams(a=a, W=W, activation=activation)


def sample_batch(d: int, B: int, seed: int) -> DataBatch:
    """Uniform unit-sphere samples with Rademacher labels."""
    if d < 1 or B < 1:
        raise DimensionError(f"d and B must be positive, got d={d}, B={B}")
    return _draw_batch(rng_from(seed), d, B)


def _draw_batch(rng: np.random.Generator, d: int, B: int) -> DataBatch:
    """The data model: B unit-sphere samples, then their Rademacher labels, from ``rng``."""
    X = rng.standard_normal((d, B))
    X /= np.linalg.norm(X, axis=0)
    y = rng.choice(np.array([-1.0, 1.0]), size=B)
    return DataBatch(X=X, y=y)


def forward(params: NetworkParams, x: np.ndarray) -> float:
    """f(x) = sum_j a[j] s(W[j] . x), summed in ascending j."""
    if x.shape != (params.d,):
        raise DimensionError(f"x has shape {x.shape}, expected ({params.d},)")
    return float(params.a @ params.activation(params.W @ x))


def _batch_internals(params: NetworkParams, batch: DataBatch, order: int = 1):
    """Activation values and derivatives up to ``order`` and residuals shared by the ops."""
    if batch.d != params.d:
        raise DimensionError(
            f"batch dimension {batch.d} does not match network dimension {params.d}"
        )
    S = params.activation.derivatives(_matmul_rows(params.W, batch.X), order)
    fx = S[0].T @ params.a            # (B,)
    return S, fx, 2.0 * (fx - batch.y)


def gradient(params: NetworkParams, batch: DataBatch) -> GradientObservation:
    """Exact gradient of the summed square loss at ``params`` on ``batch``.

    ``W @ X`` runs by row halves (``_batch_internals``); the reduction over
    m (``S0^T a``), the matrix-vector ``S0 @ r`` and the W-block ``C @ X^T``
    run whole."""
    (S0, S1), _, r = _batch_internals(params, batch)
    m, d = params.m, params.d
    flat = np.empty(params.n_coords)  # both blocks written in place, no concatenation
    np.matmul(S0, r, out=flat[:m])
    C = S1 * r[None, :]               # (m, B): a_j s'(z_ji) r_i, one temporary
    C *= params.a[:, None]
    del S0, S1
    np.matmul(C, batch.X.T, out=flat[m:].reshape(m, d))
    return GradientObservation(flat, m, d)


def loss(params: NetworkParams, batch: DataBatch) -> float:
    """Summed square loss sum_i (y_i - f(x_i))^2."""
    _, fx, _ = _batch_internals(params, batch)
    return float(np.sum((batch.y - fx) ** 2))


def _input_gradients(params, S1):
    """h_i = grad_x f(x_i) = sum_j a_j s'(z_ji) W[j]; returned as (d, B)."""
    return params.W.T @ (params.a[:, None] * S1)


def input_gram(
    params: NetworkParams, batch: DataBatch, keep: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """``J[:, keep] J[:, keep]^T`` and ``||J||_F^2`` without forming J.

    ``keep`` is a boolean mask over the m + m*d observation coordinates
    (None keeps all).  Per sample the Jacobian (its dense form is the test
    oracle ``tests/oracles.py::input_jacobian``) factors as

        a-block:  A_i = r_i W^T diag(s'_i) + 2 h_i s_i^T              (d, m)
        W-block:  J_i[s, (j, t)] = P_i[s, j] x_i[t] + q_ij delta_st
                  P_i = 2 h_i (a * s'_i)^T + r_i W^T diag(a * s''_i)  (d, m)
                  q_ij = r_i a_j s'(z_ji)

    so with mask weights w_a (m,) and w_W (m, d) the (i, k) Gram block is

        A_i diag(w_a) A_k^T + P_i diag(w_W (x_i * x_k)) P_k^T
        + (P_i diag(q_k) w_W) * x_i[u] + its (k, i) transpose
        + diag(w_W^T (q_i * q_k)).

    When the W-block mask is constant along each hidden unit's row,
    w_W[j, t] = w_j, the W-block terms collapse (``_add_w_block_rows``):
    with Pw = P * w,

        (x_i . x_k) (Pw_i Pw_k^T) + V[i, :, k] x_i[u] + its transpose
        + ((q_i * q_k) . w) I,        V = Pw Q^T  (B*d, B).

    No mask and node-level dropout, clip, noise, local and secure
    aggregation all keep whole rows and take this path: one (B*d, m) GEMM
    with its transpose and O(B m d) memory.  Pruning and coordinate-level
    dropout break rows and take the per-coordinate path
    (``_add_w_block_coords``): B(B+1)/2 block GEMMs with the scale
    x_i * x_k inside the sum, plus an m x (B*d) cross operand.  Both cost
    O(B^2 m d^2) time; the a-block Gram ``A diag(w_a) A^T`` is the same on
    both.  The unmasked Frobenius mass comes from the same factors in
    O(B m d).
    """
    (S0, S1, S2), _, r = _batch_internals(params, batch, 2)
    m, d, B = params.m, params.d, batch.B
    X, a = batch.X, params.a
    if keep is None:
        keep = np.ones(params.n_coords, dtype=bool)
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (params.n_coords,):
        raise DimensionError(f"mask has shape {keep.shape}, expected ({params.n_coords},)")
    w_a = keep[:m].astype(float)
    H = _input_gradients(params, S1)          # (d, B)
    WT = np.ascontiguousarray(params.W.T)     # (d, m)
    aS1, aS2 = a[:, None] * S1, a[:, None] * S2
    A = np.empty((B, d, m))
    for i in range(B):
        np.multiply(WT, r[i] * S1[:, i], out=A[i])
        A[i] += np.outer(2.0 * H[:, i], S0[:, i])
    mass_a = np.vdot(A, A)                    # the a-block's unmasked mass, taken before A is masked
    A *= w_a
    Af = A.reshape(B * d, m)
    G = Af @ Af.T
    P = A                                     # A is done: P takes its buffer
    del A, Af                                 # working set: P plus one (B, d, m) temporary
    for i in range(B):
        np.multiply(WT, r[i] * aS2[:, i], out=P[i])
        P[i] += np.outer(2.0 * H[:, i], aS1[:, i])
    Q = np.ascontiguousarray((aS1 * r).T)     # (B, m): q_ij

    # unmasked mass, summed over (j, t) of (P_i[s, j] x_i[t] + q_ij delta_st)^2
    PX = np.einsum("isj,si->ij", P, X)        # (B, m): (P_i^T x_i)[j]
    mass = float(
        mass_a
        + sum(float(X[:, i] @ X[:, i]) * np.vdot(P[i], P[i]) for i in range(B))
        + 2.0 * np.vdot(Q, PX)
        + d * np.vdot(Q, Q)
    )
    keep_W = keep[m:].reshape(m, d)
    if (keep_W == keep_W[:, :1]).all():
        _add_w_block_rows(G, P, Q, X, keep_W[:, 0])
    else:
        _add_w_block_coords(G, P, Q, X, keep_W)
    # the diagonal blocks' products are symmetric only up to rounding
    return 0.5 * (G + G.T), mass


def _add_w_block_rows(G, P, Q, X, rows):
    """Add the W-block terms to G (B*d, B*d) for a row-constant mask.

    ``rows`` (m,) bool keeps or drops unit j's whole W row; P is (B, d, m)
    and is overwritten with P * rows, Q is (B, m) and X (d, B).
    """
    B, d, m = P.shape
    G4 = G.reshape(B, d, B, d)                # view: G4[i, s, k, u]
    w = rows.astype(float)
    P *= w
    Pw = P.reshape(B * d, m)
    # cross terms V[i, s, k] x_i[u], V = Pw Q^T, plus their transposes
    cross = ((Pw @ Q.T).reshape(B, d, B, 1) * X.T[:, None, None, :]).reshape(B * d, B * d)
    G += cross + cross.T
    # ((q_i * q_k) . w) delta_su
    idx = np.arange(d)
    G4[:, idx, :, idx] += (Q[:, None, :] * Q[None, :, :]) @ w
    # (x_i . x_k) Pw_i Pw_k^T
    PP = (Pw @ Pw.T).reshape(B, d, B, d)
    PP *= (X.T @ X)[:, None, :, None]
    G += PP.reshape(B * d, B * d)


def _add_w_block_coords(G, P, Q, X, keep_W):
    """Add the W-block terms to G (B*d, B*d) for any (m, d) bool mask.

    P is (B, d, m), Q (B, m) and X (d, B).
    """
    B, d, m = P.shape
    G4 = G.reshape(B, d, B, d)                # view: G4[i, s, k, u]
    w_W = keep_W.astype(float)
    # cross terms P_i diag(q_k) w_W, scaled by x_i[u], plus their transposes
    R = (Q.T[:, :, None] * w_W[:, None, :]).reshape(m, B * d)
    cross = (P.reshape(B * d, m) @ R).reshape(B, d, B, d) * X.T[:, None, None, :]
    del R
    cross = cross.reshape(B * d, B * d)
    G += cross + cross.T
    # q_i q_k delta_su terms
    idx = np.arange(d)
    G4[:, idx, :, idx] += ((Q[:, None, :] * Q[None, :, :]) @ w_W).transpose(2, 0, 1)
    # P_i diag(c_ik) P_k^T with c_ik = w_W (x_i * x_k); blocks k >= i, mirrored
    wWT = np.ascontiguousarray(w_W.T)         # (d, m)
    for i in range(B):
        C = (X[:, i:i + 1] * X[:, i:]).T @ wWT  # (B - i, m)
        blk = (P[i] @ (P[i:] * C[:, None, :]).reshape((B - i) * d, m).T).reshape(d, B - i, d)
        G4[i, :, i:, :] += blk
        G4[i + 1:, :, i, :] += blk[:, 1:, :].transpose(1, 2, 0)

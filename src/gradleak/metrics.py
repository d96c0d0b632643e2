"""Permutation- and sign-resolved reconstruction error.

Batched gradients are unordered sums, so a reconstruction is only defined
up to a permutation of the batch, and moment-based recovery additionally
leaves a sign per sample.  The error metric therefore minimizes

    (1/B) sum_i || S_i - s_i * S_hat_{pi(i)} ||^2

over permutations pi (exact assignment solve) and, when requested, signs
s_i in {+1, -1}; the reported value is the square root.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import AssignmentError, DimensionError

__all__ = ["min_perm_distance"]


def min_perm_distance(
    S: np.ndarray, S_hat: np.ndarray, sign_resolve: bool = True
) -> tuple[float, np.ndarray, np.ndarray]:
    """Root mean squared error after optimal column matching.

    Parameters
    ----------
    S, S_hat : (d, B) arrays, true and reconstructed samples as columns.
    sign_resolve : also minimize over a sign per matched pair.

    Returns
    -------
    (rmse, permutation, signs): S[:, i] is matched to
    signs[i] * S_hat[:, permutation[i]] for every i.

    Raises AssignmentError when the cost matrix holds NaN (a non-finite
    reconstruction).
    """
    if S.shape != S_hat.shape or S.ndim != 2:
        raise DimensionError(f"shape mismatch: {S.shape} vs {S_hat.shape}")
    B = S.shape[1]
    # squared distances for both sign choices, computed via Gram products
    ss = np.sum(S * S, axis=0)[:, None]
    hh = np.sum(S_hat * S_hat, axis=0)[None, :]
    cross = S.T @ S_hat
    cost_plus = ss + hh - 2.0 * cross
    if sign_resolve:
        cost_minus = ss + hh + 2.0 * cross
        cost = np.minimum(cost_plus, cost_minus)
    else:
        cost = cost_plus
    cost = np.maximum(cost, 0.0)  # guard tiny negative round-off
    rows, cols = _assignment(cost)  # rows come back sorted
    perm = cols.copy()
    if sign_resolve:
        signs = np.where(cost_minus[rows, cols] < cost_plus[rows, cols], -1.0, 1.0)
    else:
        signs = np.ones(B)
    rmse = float(np.sqrt(cost[rows, cols].sum() / B))
    return rmse, perm, signs


def _assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost matching of a square cost matrix: ``(rows, cols)``.

    A line-for-line port of scipy's ``linear_sum_assignment``, the shortest
    augmenting path solver of Crouse 2016, "On implementing 2D rectangular
    assignment algorithms" (IEEE TAES), for the square case.  It keeps each
    rule that breaks ties, so it returns scipy's arrays exactly (tested
    against ``tests/oracles.py::scipy_assignment``): ``remaining`` starts in
    reverse order, the scan prefers an unassigned column among equal path
    costs, a scanned column leaves ``remaining`` by swap-remove, and each
    reduced cost is ``min_val + c[i][j] - u[i] - v[j]`` in that order on
    Python floats.  NaN or -inf entries and an infeasible matrix raise
    AssignmentError with scipy's message.
    """
    n = cost.shape[0]
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise AssignmentError("matrix contains invalid numeric entries")
    c = cost.tolist()
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        # shortest augmenting path from row ``cur``
        spc = [math.inf] * n
        in_sr = [False] * n
        in_sc = [False] * n
        remaining = list(range(n - 1, -1, -1))
        num = n
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            in_sr[i] = True
            ci, ui = c[i], u[i]
            for it in range(num):
                j = remaining[it]
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise AssignmentError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_sc[j] = True
            num -= 1
            remaining[index] = remaining[num]
        # dual update
        u[cur] += min_val
        for i in range(n):
            if in_sr[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(n):
            if in_sc[j]:
                v[j] -= min_val - spc[j]
        # augment along the path back to ``cur``
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(n, dtype=np.int64), np.array(col4row, dtype=np.int64)

import numpy as np
import pytest

from gradleak.errors import AssignmentError, DimensionError, GradleakError
from gradleak.metrics import _assignment, min_perm_distance
from oracles import brute_force_min_perm, scipy_assignment


def random_instance(rng, d, B, unit=True):
    S = rng.standard_normal((d, B))
    S_hat = rng.standard_normal((d, B))
    if unit:
        S /= np.linalg.norm(S, axis=0)
        S_hat /= np.linalg.norm(S_hat, axis=0)
    return S, S_hat


def test_exact_recovery_up_to_perm_and_sign():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((5, 4))
    perm = rng.permutation(4)
    signs = rng.choice([-1.0, 1.0], size=4)
    S_hat = S[:, perm] * signs[None, :]
    rmse, _, _ = min_perm_distance(S, S_hat, sign_resolve=True)
    assert rmse == pytest.approx(0.0, abs=1e-12)


def test_two_point_hand_example():
    S = np.zeros((3, 2))
    S[0, 0] = 1.0
    S[1, 1] = 1.0
    second = np.array([0.0, 1.0, 0.0]) + 0.1 * np.array([0.0, 0.0, 1.0])
    S_hat = np.stack([np.array([0.0, 1.0, 0.0]), second / np.linalg.norm(second)], axis=1)
    rmse, _, _ = min_perm_distance(S, S_hat, sign_resolve=True)
    assert rmse == pytest.approx(brute_force_min_perm(S, S_hat, True), abs=1e-12)


@pytest.mark.parametrize("sign_resolve", [True, False])
def test_matches_brute_force(sign_resolve):
    rng = np.random.default_rng(42)
    for trial in range(50):
        B = int(rng.integers(1, 7))
        d = int(rng.integers(2, 8))
        S, S_hat = random_instance(rng, d, B)
        rmse, perm, signs = min_perm_distance(S, S_hat, sign_resolve)
        assert rmse == pytest.approx(brute_force_min_perm(S, S_hat, sign_resolve), abs=1e-10)
        # returned assignment reproduces the reported value
    # spot-check the decomposition of one instance
    S, S_hat = random_instance(rng, 5, 4)
    rmse, perm, signs = min_perm_distance(S, S_hat, True)
    manual = np.sqrt(
        np.mean([np.sum((S[:, i] - signs[i] * S_hat[:, perm[i]]) ** 2) for i in range(4)])
    )
    assert rmse == pytest.approx(manual, rel=1e-12)


def test_shape_mismatch():
    with pytest.raises(DimensionError):
        min_perm_distance(np.zeros((3, 2)), np.zeros((3, 3)))


# --- the assignment solver is scipy's, bit for bit ------------------------------

def oracle_families(rng, B):
    """Seeded B x B cost matrices, several with ties: random, small integers,
    tenths (whose sums round, so the order of the reduced-cost additions
    decides ties), constant, duplicate columns, and +inf-masked (feasible or
    not)."""
    yield rng.random((B, B))
    yield rng.integers(0, 3, (B, B)).astype(float)
    yield rng.integers(0, 30, (B, B)) / 10
    yield np.full((B, B), 2.5)
    yield rng.random((B, max(B // 2, 1)))[:, rng.integers(0, max(B // 2, 1), B)]
    for ties in (False, True):
        masked = rng.integers(0, 2, (B, B)).astype(float) if ties else rng.random((B, B))
        masked[rng.random((B, B)) < 0.3] = np.inf
        yield masked


def solve(solver, cost):
    try:
        return solver(cost)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("B", range(33))
def test_assignment_matches_scipy(B):
    rng = np.random.default_rng(1000 + B)
    for _ in range(4):
        for cost in oracle_families(rng, B):
            want, got = solve(scipy_assignment, cost), solve(_assignment, cost)
            if isinstance(want, str):
                assert got == want == "cost matrix is infeasible"
                continue
            for w, g in zip(want, got):
                assert g.dtype == np.int64 and np.array_equal(g, w)


@pytest.mark.parametrize("poison, message", [
    (np.nan, "matrix contains invalid numeric entries"),
    (-np.inf, "matrix contains invalid numeric entries"),
    ("row", "cost matrix is infeasible"),
])
def test_assignment_errors_match_scipy(poison, message):
    cost = np.random.default_rng(5).random((6, 6))
    if poison == "row":
        cost[3] = np.inf
    else:
        cost[2, 4] = poison
    with pytest.raises(ValueError, match=f"^{message}$"):
        scipy_assignment(cost)
    with pytest.raises(AssignmentError, match=f"^{message}$") as err:
        _assignment(cost)
    assert isinstance(err.value, ValueError) and isinstance(err.value, GradleakError)

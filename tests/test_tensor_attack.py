import contextlib
import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gradleak import network
from gradleak.activations import Activation, hermite_moments
from gradleak.defenses import ClipDefense, PruneRatioDefense
from gradleak.errors import (AttackStageError, ConfigError, DegenerateObservationError,
                             DimensionError, ProbeError)
from gradleak.network import GradientObservation, gradient, sample_batch, sample_params
from gradleak.tensor_attack import (
    _CHUNK_TERMS,
    _cube_contraction,
    TensorAttackConfig,
    build_moment_matrix,
    build_projected_tensor,
    decompose_tensor,
    estimate_subspace,
    score_reconstruction,
    tensor_attack,
)
from conftest import RecordingPool, traced_peak, whole_calls
from oracles import (einsum_projected_tensor, hermite_tensor3, hermite_tensor4, loglog_slope,
                     norm_decompose_tensor)

SP = Activation("softplus")
EXP = Activation("exp")
SP_MO = hermite_moments(SP)
EXP_MO = hermite_moments(EXP)
CUBIC_MO = hermite_moments(Activation("cubic"))


def run_attack(d, m, B, seed, activation, defense=None):
    p = sample_params(d, m, seed=seed, activation=activation)
    b = sample_batch(d, B, seed=seed + 10_000)
    obs = gradient(p, b)
    if defense is not None:
        obs = defense(obs)
    res = tensor_attack(obs, p, B, TensorAttackConfig(seed=seed))
    return score_reconstruction(res, b.X), b


# --- moment matrix ---------------------------------------------------------

def test_moment_matrix_zero_gradient():
    W = np.random.default_rng(0).standard_normal((8, 4))
    P = build_moment_matrix(np.zeros(8), W, SP_MO)
    assert np.abs(P).max() == 0.0


def test_moment_matrix_single_unit():
    W = np.zeros((1, 4))
    W[0, 0] = 1.0
    P = build_moment_matrix(np.ones(1), W, SP_MO)
    expected = np.outer(W[0], W[0]) - np.eye(4)
    assert np.allclose(P, expected, atol=1e-14)


def test_moment_matrix_is_symmetric():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((64, 6))
    g = rng.standard_normal(64)
    for mo in (SP_MO, CUBIC_MO):
        P = build_moment_matrix(g, W, mo)
        assert np.abs(P - P.T).max() < 1e-10


def test_moment_matrix_order3_matches_literal_contraction():
    # the probe-contracted builder equals H3(w)(I, I, a) done by hand
    rng = np.random.default_rng(2)
    W = rng.standard_normal((5, 4))
    g = rng.standard_normal(5)
    probe = rng.standard_normal(4)
    probe /= np.linalg.norm(probe)
    P = build_moment_matrix(g, W, CUBIC_MO, probe=probe)
    manual = sum(
        g[j] * np.einsum("ijk,k->ij", hermite_tensor3(W[j]), probe) for j in range(5)
    ) / 5.0
    assert np.allclose(P, manual, atol=1e-12)


def test_moment_matrix_concentrates_at_root_m_rate():
    # distance to the ground-truth second moment decays like 1/sqrt(m)
    d, B = 16, 2
    sizes = (2**11, 2**13, 2**15)
    med = []
    for m in sizes:
        errs = []
        for seed in range(10):
            p = sample_params(d, m, seed=seed, activation=SP)
            b = sample_batch(d, B, seed=seed + 500)
            obs = gradient(p, b)
            z = p.W @ b.X
            fx = SP(z).T @ p.a
            r = 2.0 * (fx - b.y)
            target = sum(
                r[i] * SP_MO.raw[2] * np.outer(b.X[:, i], b.X[:, i]) for i in range(B)
            )
            P = build_moment_matrix(obs.grad_a, p.W, SP_MO)
            errs.append(np.linalg.norm(P - target, 2))
        med.append(np.median(errs))
    assert loglog_slope(sizes, med) == pytest.approx(-0.5, abs=0.15)


# --- subspace ---------------------------------------------------------------

def test_subspace_exact_diagonal():
    P = np.diag([5.0, 3.0, 0.0, 0.0])
    V, gap, warns = estimate_subspace(P, B=2, seed=0)
    assert np.linalg.norm(V @ V.T - np.diag([1.0, 1.0, 0.0, 0.0])) < 1e-8
    assert gap == pytest.approx(3.0)
    assert not warns


def test_subspace_indefinite_rank_one():
    # shifted rank-one matrix: squaring must rank |1.5| above |-0.5|
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    P = 2.0 * np.outer(x, x) - 0.5 * np.eye(6)
    V, _, _ = estimate_subspace(P, B=1, seed=1)
    assert abs(float(V[:, 0] @ x)) > 1.0 - 1e-10


def test_subspace_gap_warning():
    V, gap, warns = estimate_subspace(np.eye(4), B=2, seed=0)
    assert warns  # degenerate spectrum flagged, not fatal


def _eye_with(x):
    P = np.eye(4)
    P[1, 2] = x
    return P


@pytest.mark.parametrize("P", [_eye_with(np.inf), _eye_with(-np.inf), _eye_with(np.nan),
                               np.full((4, 4), np.nan)], ids=["inf", "-inf", "nan", "all-nan"])
def test_subspace_refuses_a_non_finite_moment_matrix(P):
    # before LAPACK: its SVD prints to stdout on +-inf and raises on all-NaN
    with pytest.raises(DegenerateObservationError, match="moment matrix is not finite"):
        estimate_subspace(P, B=2)


def test_subspace_b_larger_than_d():
    with pytest.raises(DimensionError):
        estimate_subspace(np.eye(3), B=4)


def test_subspace_captures_true_span_at_large_width():
    d, B, m = 16, 2, 2**15
    dists = []
    for seed in range(5):
        p = sample_params(d, m, seed=seed, activation=EXP)
        b = sample_batch(d, B, seed=100 + seed)
        obs = gradient(p, b)
        P = build_moment_matrix(obs.grad_a, p.W, EXP_MO)
        V, _, _ = estimate_subspace(P, B, seed=seed)
        U = np.linalg.qr(b.X)[0]
        dists.append(np.linalg.norm(V @ V.T - U @ U.T, 2))
        for i in range(B):
            assert np.linalg.norm(V @ (V.T @ b.X[:, i])) >= 0.9
    assert np.median(dists) < 0.25


# --- projected tensor --------------------------------------------------------

def test_projected_tensor_zero_gradient():
    rng = np.random.default_rng(7)
    W = rng.standard_normal((10, 5))
    V = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    T = build_projected_tensor(np.zeros(10), W, V, EXP_MO)
    assert np.abs(T).max() == 0.0


def test_projected_tensor_symmetry():
    rng = np.random.default_rng(8)
    W = rng.standard_normal((256, 6))
    g = rng.standard_normal(256)
    V = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    for mo in (EXP_MO, SP_MO):
        T = build_projected_tensor(g, W, V, mo)
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert np.abs(T - np.transpose(T, perm)).max() < 1e-10


def test_projected_tensor_order3_stein_oracle():
    # sampling estimate of E[s(w.x) H3(w)] lands on E[s'''] x^(x3)
    rng = np.random.default_rng(9)
    d, n = 4, 10**6
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    W = rng.standard_normal((n, d))
    g = EXP(W @ x)
    V = np.eye(d)
    T = build_projected_tensor(g, W, V, EXP_MO)
    expected = EXP_MO.raw[3] * np.einsum("p,q,r->pqr", x, x, x)
    assert np.abs(T - expected).max() < 5e-2


def test_projected_tensor_order4_matches_literal_contraction():
    # per-unit identity against the explicit order-4 Hermite tensor
    rng = np.random.default_rng(10)
    d = 4
    W = rng.standard_normal((3, d))
    g = rng.standard_normal(3)
    V = np.linalg.qr(rng.standard_normal((d, 2)))[0]
    probe = V[:, 0]
    T = build_projected_tensor(g, W, V, SP_MO, probe=probe)
    manual = np.zeros((2, 2, 2))
    for j in range(3):
        H4 = hermite_tensor4(W[j])
        contracted = np.einsum("ijkl,l->ijk", H4, probe)
        manual += g[j] * np.einsum("ijk,ip,jq,kr->pqr", contracted, V, V, V)
    manual /= 3.0
    assert np.allclose(T, manual, atol=1e-10)


def test_projected_tensor_order4_stein_oracle():
    # sampling estimate of E[s(w.x) H4(w)](V,V,V,a) for the in-span probe
    rng = np.random.default_rng(11)
    d, n = 4, 10**6
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    W = rng.standard_normal((n, d))
    g = SP(W @ x)
    V = np.linalg.qr(np.stack([x, rng.standard_normal(d)], axis=1))[0]
    T = build_projected_tensor(g, W, V, SP_MO)
    xt = V.T @ x
    at = V.T @ V[:, 0]
    expected = SP_MO.raw[4] * float(x @ V[:, 0]) * np.einsum("p,q,r->pqr", xt, xt, xt)
    assert np.abs(T - expected).max() < 5e-2


# under split_halves: the whole calls, each split's halves one after the other on
# this thread, and its upper half on the fixture's spare
SPLIT_MODES = {"whole": whole_calls, "here": lambda: network._spare_thread(None),
               "spare": contextlib.nullcontext}


@pytest.mark.parametrize("B", range(1, 9))
@pytest.mark.parametrize("moments", [EXP_MO, SP_MO], ids=["order3", "order4"])
def test_projected_tensor_matches_einsum_bitwise(B, moments, split_halves):
    # below, at and off a multiple of the chunk length; whole, and with W @ V by row
    # halves and the contraction by output halves over p, the upper half here or on
    # the spare (at B = 1 both stay whole, and the contraction at B < 4)
    chunk = _CHUNK_TERMS // B**3
    rng = np.random.default_rng(100 + B)
    d = B + 2
    V = np.linalg.qr(rng.standard_normal((d, B)))[0]
    probe = rng.standard_normal(d)
    for m in (chunk - 1, chunk, 2 * chunk + 3):
        W = rng.standard_normal((m, d))
        g = rng.standard_normal(m)
        for pr in (None, probe):
            expected = einsum_projected_tensor(g, W, V, moments, probe=pr)
            for how, mode in SPLIT_MODES.items():
                with mode():
                    T = build_projected_tensor(g, W, V, moments, probe=pr)
                assert np.array_equal(T, expected), (m, how)
    assert len(split_halves.names) == (0 if B == 1 else 6 if B < 4 else 12)


@pytest.mark.parametrize("B", range(1, 9))
def test_cube_contraction_keeps_signed_zeros_bitwise(B, split_halves):
    # -0 terms must not leave a -0 or a different sum in the running total, whole
    # or by output halves over p
    rng = np.random.default_rng(200 + B)
    m = 2 * (_CHUNK_TERMS // B**3) + 5
    g = rng.standard_normal(m)
    v = rng.standard_normal((m, B))
    g[rng.random(m) < 0.2], g[rng.random(m) < 0.2] = 0.0, -0.0
    v[rng.random((m, B)) < 0.2], v[rng.random((m, B)) < 0.1] = -0.0, 0.0
    v[:, 0] = -0.0  # a whole entry of -0 terms only
    for gg in (g, -np.abs(g)):
        for how, mode in SPLIT_MODES.items():
            with mode():
                T = _cube_contraction(gg, v)
            assert T.flags.c_contiguous
            assert T.tobytes() == np.einsum("j,jp,jq,jr->pqr", gg, v, v, v).tobytes()
    assert len(split_halves.names) == (0 if B < 4 else 2)


@pytest.mark.parametrize("d", [3, 7, 8])
@pytest.mark.parametrize("moments", [EXP_MO, CUBIC_MO], ids=["order2", "order3-probe"])
def test_moment_matrix_split_in_halves_equals_the_whole_call(split_halves, moments, d):
    # P by output-row halves, each filling and multiplying its operand rows in two
    # blocks (one block for a half of fewer than 4 rows), the upper half on the
    # spare or here; whole at d = 3
    rng = np.random.default_rng(300 + d)
    m = 2001
    W = rng.standard_normal((m, d))
    g = rng.standard_normal(m)
    g[::5] = -0.0
    probe = rng.standard_normal(d)
    for pr in (None, probe):
        with whole_calls():
            whole = build_moment_matrix(g, W, moments, probe=pr)
        for how, mode in SPLIT_MODES.items():
            with mode():
                assert build_moment_matrix(g, W, moments, probe=pr).tobytes() == whole.tobytes()
    assert len(split_halves.names) == (0 if d == 3 else 2)  # d = 3 runs whole


# attack-d64's W, and W of 2^21 elements (the split floor) at d = 4, 8, 16 and 64:
# at d = 4 each half has 2 rows and stays one block
ATTACK_D64_AND_FLOOR_SHAPES = [(65536, 64), (1 << 19, 4), (1 << 18, 8), (1 << 17, 16),
                               (1 << 15, 64)]


@pytest.mark.parametrize("m,d", ATTACK_D64_AND_FLOOR_SHAPES)
def test_blocked_moment_matrix_equals_the_whole_call_at_the_split_floor(m, d):
    # at the real floor, P by output-row halves, each half's operand in row blocks,
    # with a helper lent or none, is byte for byte the whole call's in both orders
    rng = np.random.default_rng(m + d)
    W = rng.standard_normal((m, d))
    g = rng.standard_normal(m)
    probe = rng.standard_normal(d)
    with RecordingPool(max_workers=1) as pool:
        for moments, pr in ((EXP_MO, None), (CUBIC_MO, probe)):
            with whole_calls():
                whole = build_moment_matrix(g, W, moments, probe=pr)
            for spare in (pool, None):
                with network._spare_thread(spare):
                    split = build_moment_matrix(g, W, moments, probe=pr)
                assert split.tobytes() == whole.tobytes(), (moments.matrix_order, spare)
    assert pool.names == ["_halves.<locals>.<lambda>"] * 2


def test_blocked_moment_matrix_holds_half_of_its_operand_at_attack_d64():
    # the whole (d, m) operand is W.nbytes; each thread that runs a half holds one
    # block of a quarter of it at a time: two with a helper lent, one without
    rng = np.random.default_rng(64)
    W = rng.standard_normal((65536, 64))
    g = rng.standard_normal(65536)
    with ThreadPoolExecutor(max_workers=1) as pool, network._spare_thread(pool):
        assert traced_peak(lambda: build_moment_matrix(g, W, EXP_MO)) < W.nbytes / 2 + (1 << 20)
    assert traced_peak(lambda: build_moment_matrix(g, W, EXP_MO)) < W.nbytes / 4 + (1 << 20)


def test_projected_tensor_probe_orthogonal_error():
    rng = np.random.default_rng(12)
    W = rng.standard_normal((8, 5))
    V = np.linalg.qr(rng.standard_normal((5, 2)))[0]
    probe = np.linalg.qr(np.concatenate([V, rng.standard_normal((5, 1))], axis=1))[0][:, 2]
    with pytest.raises(ProbeError):
        build_projected_tensor(np.ones(8), W, V, SP_MO, probe=probe)


# --- decomposition -----------------------------------------------------------

def test_decompose_exact_rank_one():
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = 2.0
    weights, vectors, converged = decompose_tensor(T, B=1, seed=0)
    assert abs(weights[0]) == pytest.approx(2.0, abs=1e-8)
    assert abs(vectors[0, 0]) == pytest.approx(1.0, abs=1e-8)
    assert converged.all()


def test_decompose_orthogonal_pair():
    rng = np.random.default_rng(13)
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    T = 3.0 * np.einsum("p,q,r->pqr", a, a, a) + np.einsum("p,q,r->pqr", b, b, b)
    weights, vectors, _ = decompose_tensor(T, B=2, seed=1)
    order = np.argsort(-np.abs(weights))
    assert abs(abs(float(vectors[:, order[0]] @ a)) - 1.0) < 1e-6
    assert abs(abs(float(vectors[:, order[1]] @ b)) - 1.0) < 1e-6
    assert sorted(np.round(np.abs(weights), 5)) == [1.0, 3.0]


def test_decompose_noisy_perturbation():
    rng = np.random.default_rng(14)
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    T = 3.0 * np.einsum("p,q,r->pqr", a, a, a) + 2.0 * np.einsum("p,q,r->pqr", b, b, b)
    E = rng.standard_normal((3, 3, 3))
    E = (E + np.transpose(E, (0, 2, 1)) + np.transpose(E, (1, 0, 2))
         + np.transpose(E, (1, 2, 0)) + np.transpose(E, (2, 0, 1))
         + np.transpose(E, (2, 1, 0))) / 6.0
    E *= 0.01 / np.linalg.norm(E.reshape(3, -1), 2)
    weights, vectors, _ = decompose_tensor(T + E, B=2, seed=2)
    order = np.argsort(-np.abs(weights))
    for truth, idx in ((a, order[0]), (b, order[1])):
        angle = np.arccos(min(1.0, abs(float(vectors[:, idx] @ truth))))
        assert angle < 0.1


@pytest.mark.parametrize("B", range(1, 9))
def test_decompose_equals_the_norm_oracle_bitwise(B):
    """Weights, vectors and flags bit for bit the oracle's, on a noisy
    rank-B tensor in n = B and B + 1 dimensions; one iteration per restart
    leaves components unconverged."""
    rng = np.random.default_rng(40 + B)
    for n, iters in ((B, 100), (B + 1, 100), (B + 1, 1)):
        V = rng.standard_normal((n, B))
        E = rng.standard_normal((n, n, n))
        T = np.einsum("pi,qi,ri->pqr", V, V, V) + 0.05 * sum(
            np.transpose(E, axes) for axes in itertools.permutations(range(3)))
        got = decompose_tensor(T, B, restarts=4, iters=iters, seed=B)
        want = norm_decompose_tensor(T, B, restarts=4, iters=iters, seed=B)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (n, iters)
        if iters == 1:
            assert not got[2].all()


def test_decompose_bad_rank():
    with pytest.raises(DimensionError):
        decompose_tensor(np.zeros((2, 2, 2)), B=3)


# --- end-to-end ---------------------------------------------------------------

def test_single_sample_reconstruction_softplus():
    errs = []
    for seed in range(10):
        res, _ = run_attack(d=8, m=2**14, B=1, seed=seed, activation=SP)
        errs.append(res.rmse)
    assert np.median(errs) < 0.15


def test_clip_neutrality():
    for seed in (0, 1):
        p = sample_params(8, 2**12, seed=seed, activation=EXP)
        b = sample_batch(8, 2, seed=seed + 100)
        obs = gradient(p, b)
        clipped = ClipDefense(obs.norm() / 5.0).apply(obs, 0)
        r0 = tensor_attack(obs, p, 2, TensorAttackConfig(seed=seed))
        r1 = tensor_attack(clipped, p, 2, TensorAttackConfig(seed=seed))
        assert np.abs(r0.samples - r1.samples).max() < 1e-9


def test_scale_invariance():
    p = sample_params(8, 2**12, seed=3, activation=EXP)
    b = sample_batch(8, 2, seed=103)
    obs = gradient(p, b)
    scaled = GradientObservation(obs.flat * 3.7, obs.m, obs.d)
    r0 = tensor_attack(obs, p, 2, TensorAttackConfig(seed=3))
    r1 = tensor_attack(scaled, p, 2, TensorAttackConfig(seed=3))
    assert np.abs(r0.samples - r1.samples).max() < 1e-9


def test_heavy_pruning_degrades_reconstruction():
    # below ratio d/(d+1) pruning only shaves the tiny W-block entries and
    # the attack never notices; at 0.99 with d=16 it reaches 83% of the
    # second-layer block the attack feeds on, and the error degrades.
    # (It does not collapse: the survivors are the largest-|g| units, which
    # also carry the most signal.)
    d, B, m = 16, 2, 2**14
    base, pruned = [], []
    for seed in range(10):
        p = sample_params(d, m, seed=seed, activation=EXP)
        b = sample_batch(d, B, seed=100 + seed)
        obs = gradient(p, b)
        defended = PruneRatioDefense(0.99).apply(obs, 0)
        assert np.count_nonzero(defended.grad_a) < 0.25 * m  # a-block really hit
        r0 = score_reconstruction(tensor_attack(obs, p, B, TensorAttackConfig(seed=seed)), b.X)
        r1 = score_reconstruction(
            tensor_attack(defended, p, B, TensorAttackConfig(seed=seed)), b.X
        )
        base.append(r0.rmse)
        pruned.append(r1.rmse)
    assert np.median(pruned) > np.median(base)


def test_moderate_pruning_leaves_second_layer_essentially_untouched():
    # with d=16 the W block holds 16/17 of the coordinates, so a 0.9 prune
    # stays inside it apart from a handful of near-cancelled a entries, and
    # the reconstruction barely moves
    p = sample_params(16, 2**13, seed=3, activation=EXP)
    b = sample_batch(16, 2, seed=103)
    obs = gradient(p, b)
    defended = PruneRatioDefense(0.9).apply(obs, 0)
    survivors = np.count_nonzero(defended.grad_a)
    assert survivors >= 0.999 * obs.grad_a.size
    r0 = score_reconstruction(tensor_attack(obs, p, 2, TensorAttackConfig(seed=3)), b.X)
    r1 = score_reconstruction(tensor_attack(defended, p, 2, TensorAttackConfig(seed=3)), b.X)
    assert abs(r0.rmse - r1.rmse) < 0.01


def test_batch_column_permutation_is_invisible():
    p = sample_params(6, 2**10, seed=4, activation=EXP)
    b = sample_batch(6, 3, seed=104)
    perm = np.array([2, 0, 1])
    from gradleak.network import DataBatch

    b2 = DataBatch(X=b.X[:, perm], y=b.y[perm])
    g1, g2 = gradient(p, b), gradient(p, b2)
    assert np.allclose(g1.flat, g2.flat, rtol=1e-12)
    r1 = tensor_attack(g1, p, 3, TensorAttackConfig(seed=4))
    r2 = tensor_attack(g2, p, 3, TensorAttackConfig(seed=4))
    assert np.allclose(r1.samples, r2.samples, atol=1e-12)


def test_error_grows_with_batch_size():
    meds = []
    for B in (1, 2, 4):
        errs = [run_attack(16, 2**12, B, seed, EXP)[0].rmse for seed in range(5)]
        meds.append(np.median(errs))
    assert meds[0] <= meds[1] <= meds[2]


def test_stage_error_is_tagged():
    p = sample_params(3, 16, seed=0, activation=EXP)
    b = sample_batch(3, 2, seed=1)
    obs = gradient(p, b)
    with pytest.raises(AttackStageError) as exc:
        tensor_attack(obs, p, B=5)  # B exceeds d in the subspace stage
    assert exc.value.stage == "subspace"


def test_cubic_activation_full_pipeline():
    # order-3 moment matrix path (vanishing order-2 moment); the canonical
    # probe costs accuracy when it lands nearly orthogonal to a sample,
    # so only the median is asserted
    errs = []
    for seed in range(5):
        res, _ = run_attack(d=8, m=2**14, B=1, seed=seed, activation=Activation("cubic"))
        errs.append(res.rmse)
    assert np.median(errs) < 0.3


def test_decompose_non_convergence_is_flagged():
    rng = np.random.default_rng(15)
    T = rng.standard_normal((3, 3, 3))
    T = (T + np.transpose(T, (0, 2, 1)) + np.transpose(T, (1, 0, 2))
         + np.transpose(T, (1, 2, 0)) + np.transpose(T, (2, 0, 1))
         + np.transpose(T, (2, 1, 0))) / 6.0
    _, _, converged = decompose_tensor(T, B=2, iters=1, seed=0)
    assert not converged.all()


def test_moment_matrix_order3_stein_oracle():
    # sampling estimate of E[s(w.x) H3(w)](I, I, a) lands on
    # E[s'''] (x.a) x x^T; cubic has E[s'''] = 6 exactly
    rng = np.random.default_rng(16)
    d, n = 4, 10**6
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    probe = rng.standard_normal(d)
    probe /= np.linalg.norm(probe)
    W = rng.standard_normal((n, d))
    g = Activation("cubic")(W @ x)
    P = build_moment_matrix(g, W, CUBIC_MO, probe=probe)
    expected = 6.0 * float(x @ probe) * np.outer(x, x)
    assert np.abs(P - expected).max() < 5e-2


def test_attack_output_estimates_are_well_formed():
    # the attack's stages rerun on run_attack's inputs and seed
    d, m, B, seed = 10, 2**12, 3, 21
    res, b = run_attack(d, m, B, seed, activation=EXP)
    p = sample_params(d, m, seed=seed, activation=EXP)
    g = gradient(p, b).grad_a
    cfg = TensorAttackConfig(seed=seed)
    P = build_moment_matrix(g, p.W, EXP_MO)
    V, gap, _ = estimate_subspace(P, B, cfg.subspace_iters, cfg.seed)
    T = build_projected_tensor(g, p.W, V, EXP_MO)
    assert res.diagnostics["subspace_gap"] == gap
    assert res.diagnostics["weights"].shape == (B,)
    assert np.abs(P - P.T).max() < 1e-10
    assert np.abs(V.T @ V - np.eye(3)).max() < 1e-10
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.abs(T - np.transpose(T, perm)).max() < 1e-10
    assert np.abs(np.linalg.norm(res.samples, axis=0) - 1.0).max() < 1e-9


@pytest.mark.parametrize("bad", [
    {"restarts": 0}, {"subspace_iters": 1.5}, {"power_iters": True}, {"tol": -1.0},
    {"tol": float("nan")}, {"probe": [1.0, float("inf")]}, {"probe": "ab"},
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        TensorAttackConfig(**bad)


def test_probe_is_kept_as_a_tuple_and_drives_the_cubic_path():
    # a JSON list, a tuple and an array give the same frozen config and reconstruction
    p = sample_params(6, 2**12, seed=8, activation=Activation("cubic"))
    b = sample_batch(6, 2, seed=9)
    obs = gradient(p, b)
    runs = []
    for probe in ([0.0, 1, 0, 0, 0, 0], (0.0, 1, 0, 0, 0, 0), np.eye(6)[1]):
        cfg = TensorAttackConfig(seed=3, probe=probe)
        assert cfg == TensorAttackConfig(seed=3, probe=(0, 1, 0, 0, 0, 0))
        runs.append(tensor_attack(obs, p, 2, cfg).samples)
    assert all(np.array_equal(r, runs[0]) for r in runs)

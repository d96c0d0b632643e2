import numpy as np
import pytest

from gradleak.activations import Activation
from gradleak.defenses import NoiseDefense
from gradleak.errors import ConfigError, DivergenceError
from gradleak.gradmatch import (
    GradMatchConfig,
    OptimizerConfig,
    feature_regularizer,
    grad_match_attack,
    grad_match_loss,
)
from gradleak.network import GradientObservation, gradient, sample_batch, sample_params
from gradleak.tensor_attack import score_reconstruction
import gradleak.gradmatch as gm
from oracles import allocating_matching_objective, dense_grad_match_loss

SP = Activation("softplus")


def setup(d=5, m=16, B=2, seed=0, activation=SP):
    p = sample_params(d, m, seed=seed, activation=activation)
    b = sample_batch(d, B, seed=seed + 50)
    return p, b, gradient(p, b)


def fd_loss_grad(X, y, p, target, cfg, step=1e-6):
    out = np.empty_like(X)
    for i in range(X.shape[1]):
        for s in range(X.shape[0]):
            vals = []
            for sign in (1.0, -1.0):
                Xp = X.copy()
                Xp[s, i] += sign * step
                vals.append(grad_match_loss(Xp, y, p, target, cfg)[0])
            out[s, i] = (vals[0] - vals[1]) / (2.0 * step)
    return out


def test_loss_zero_at_truth():
    p, b, g = setup()
    cfg = GradMatchConfig()
    val, grad = grad_match_loss(b.X, b.y, p, g, cfg)
    assert val == pytest.approx(0.0, abs=1e-20)
    assert np.linalg.norm(grad) < 1e-10


@pytest.mark.parametrize("distance", ["squared-l2", "negative-cosine"])
@pytest.mark.parametrize("reweight", [False, True])
def test_loss_gradient_matches_finite_differences(distance, reweight):
    p, b, g = setup()
    cfg = GradMatchConfig(distance=distance, group_reweighting=reweight)
    rng = np.random.default_rng(7)
    X = rng.standard_normal(b.X.shape)
    X /= np.linalg.norm(X, axis=0)
    _, grad = grad_match_loss(X, b.y, p, g, cfg)
    fd = fd_loss_grad(X, b.y, p, g, cfg)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-5


def _from_blocks(grad_a, grad_W):
    return GradientObservation(np.concatenate([grad_a, grad_W.ravel()]), *grad_W.shape)


def _oracle_targets(p, b, rng):
    """Clean, noisy, pruned and W-block-zero targets for one batch."""
    g = gradient(p, b)
    scale = np.abs(g.flat).max()
    noisy = _from_blocks(
        g.grad_a + 0.1 * scale * rng.standard_normal(g.grad_a.shape),
        g.grad_W + 0.1 * scale * rng.standard_normal(g.grad_W.shape),
    )
    pruned = _from_blocks(
        np.where(rng.random(g.grad_a.shape) < 0.5, 0.0, g.grad_a),
        np.where(rng.random(g.grad_W.shape) < 0.5, 0.0, g.grad_W),
    )
    w_zero = _from_blocks(g.grad_a, np.zeros_like(g.grad_W))
    return {"clean": g, "noisy": noisy, "pruned": pruned, "W-zero": w_zero}


@pytest.mark.parametrize("case", range(12))
def test_loss_matches_dense_oracle(case):
    """The rank-B objective against the dense m x d one, value and gradient.

    Cubic is homogeneous, so at d = 1 every candidate gradient is a multiple
    of one vector and the cosine distance is flat in X: its gradient is pure
    rounding there, and cubic cases draw d >= 2.  Likewise m >= 2, since a
    reweighted one-coordinate a-block has a flat cosine.
    """
    rng = np.random.default_rng(1000 + case)
    kind = ("softplus", "exp", "cubic")[case % 3]
    d = int(rng.integers(2 if kind == "cubic" else 1, 9))
    m, B = int(rng.integers(2, 65)), int(rng.integers(1, 5))
    p = sample_params(d, m, seed=case, activation=Activation(kind))
    b = sample_batch(d, B, seed=case + 100)
    X = rng.standard_normal((d, B))
    for name, target in _oracle_targets(p, b, rng).items():
        for distance in ("squared-l2", "negative-cosine"):
            for reweight in (False, True):
                cfg = GradMatchConfig(distance=distance, group_reweighting=reweight)
                val, grad = grad_match_loss(X, b.y, p, target, cfg)
                ref_val, ref_grad = dense_grad_match_loss(X, b.y, p, target, cfg)
                where = (name, distance, reweight)
                assert abs(val - ref_val) <= 1e-12 * abs(ref_val), where
                assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad), where


@pytest.mark.parametrize("scale", [1.0, 0.37])
@pytest.mark.parametrize("kind", ["exp", "softplus", "cubic"])
@pytest.mark.parametrize("B", [1, 2, 3])
def test_objective_equals_the_allocating_oracle_bitwise(kind, scale, B):
    """The in-place objective against its allocating form, value and
    gradient bit for bit, at candidates near the target's batch and far
    from it, for both distances with and without group reweighting."""
    rng = np.random.default_rng(31 + B)
    p, b, _ = setup(d=5, m=48, B=B, seed=B, activation=Activation(kind, scale))
    targets = _oracle_targets(p, b, rng)
    far = rng.standard_normal(b.X.shape)
    near = b.X + 1e-3 * rng.standard_normal(b.X.shape)
    for name in ("clean", "noisy", "pruned"):
        for distance in ("squared-l2", "negative-cosine"):
            for reweight in (False, True):
                cfg = GradMatchConfig(distance=distance, group_reweighting=reweight)
                fast = gm._matching_objective(p, targets[name], b.y, cfg)
                slow = allocating_matching_objective(p, targets[name], b.y, cfg)
                for X in (near, far):
                    val, grad = fast(X)
                    ref_val, ref_grad = slow(X)
                    where = (name, distance, reweight)
                    assert val == ref_val and np.array_equal(grad, ref_grad), where


@pytest.mark.parametrize("feature_mode", ["off", "cosine2", "subspace"])
@pytest.mark.parametrize("halve", [False, True], ids=["plain", "halving"])
def test_attack_trajectory_equals_the_allocating_objectives(monkeypatch, feature_mode, halve):
    p, b, g = setup(d=6, m=40, seed=12, activation=Activation("exp", 0.37))
    noisy = NoiseDefense(0.01).apply(g, 5)
    Z = b.X + 0.1 * np.random.default_rng(13).standard_normal(b.X.shape)
    cfg = GradMatchConfig(
        distance="negative-cosine", group_reweighting=True, feature_mode=feature_mode,
        alpha_feature=0.1, seed=3,
        optimizer=OptimizerConfig(max_iters=60, step_size=0.2, halve_on_increase=halve))
    fast = grad_match_attack(noisy, p, b.y, cfg, feature_targets=Z)
    monkeypatch.setattr(gm, "_matching_objective", allocating_matching_objective)
    slow = grad_match_attack(noisy, p, b.y, cfg, feature_targets=Z)
    assert fast.diagnostics == slow.diagnostics
    assert np.array_equal(fast.samples, slow.samples)


def test_column_projection_is_the_norms_arithmetic():
    X = np.random.default_rng(14).standard_normal((7, 5)) * np.logspace(-3, 3, 5)
    X[:, 2] = 0.0
    for Y in (X, X.T.copy().T):  # C and Fortran layouts
        norms = np.linalg.norm(Y, axis=0)
        assert np.array_equal(gm._project_columns(Y), Y / np.where(norms > 1e-300, norms, 1.0))


def test_cosine_distance_target_scale_invariant():
    p, b, g = setup()
    cfg = GradMatchConfig(distance="negative-cosine")
    rng = np.random.default_rng(8)
    X = rng.standard_normal(b.X.shape)
    X /= np.linalg.norm(X, axis=0)
    val, _ = grad_match_loss(X, b.y, p, g, cfg)
    doubled = GradientObservation(2.0 * g.flat, g.m, g.d)
    val2, _ = grad_match_loss(X, b.y, p, doubled, cfg)
    assert val2 == val  # exact: scaling by a power of two is lossless


def test_loss_divergence_error():
    p, b, g = setup()
    bad = b.X.copy()
    bad[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grad_match_loss(bad, b.y, p, g, GradMatchConfig())


# --- feature regularizer ----------------------------------------------------

def test_subspace_mode_zero_in_span():
    rng = np.random.default_rng(1)
    Z = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    X = Z @ rng.standard_normal((2, 3))
    val, grad, _ = feature_regularizer(X, Z, "subspace")
    assert val == pytest.approx(0.0, abs=1e-20)
    assert np.abs(grad).max() < 1e-12


def test_cosine2_sign_proof():
    z = np.array([[1.0], [0.0]])
    val, grad, _ = feature_regularizer(-z.copy(), z, "cosine2")
    assert val == pytest.approx(0.0, abs=1e-15)


def test_cosine2_orthogonal_candidate():
    z = np.array([[1.0], [0.0]])
    x = np.array([[0.0], [1.0]])
    val, grad, _ = feature_regularizer(x, z, "cosine2")
    assert val == pytest.approx(1.0, abs=1e-15)
    # finite-difference directional check: the penalty decreases toward z
    step = 1e-6
    moved = x + step * np.array([[1.0], [0.0]])
    val2, _, _ = feature_regularizer(moved, z, "cosine2", pairing=np.array([0]))
    fd = (val2 - val) / step
    assert fd == pytest.approx(float(grad[0, 0]), abs=1e-4)
    assert fd <= 0.0


def test_zero_norm_candidate_guard():
    z = np.array([[1.0], [0.0]])
    x = np.zeros((2, 1))
    val, grad, _ = feature_regularizer(x, z, "cosine2")
    assert val == 1.0
    assert np.abs(grad).max() == 0.0


def test_greedy_pairing_consumes_targets():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((4, 3))
    X = Z[:, [2, 0, 1]] + 0.01 * rng.standard_normal((4, 3))
    _, _, pairing = feature_regularizer(X, Z, "cosine2")
    assert sorted(pairing.tolist()) == [0, 1, 2]
    assert pairing.tolist() == [2, 0, 1]


# --- the attack --------------------------------------------------------------

def test_attack_from_truth_converges_immediately():
    p, b, g = setup(d=6, m=32)
    cfg = GradMatchConfig(optimizer=OptimizerConfig(max_iters=10))
    res = grad_match_attack(g, p, b.y, cfg, X0=b.X)
    scored = score_reconstruction(res, b.X, sign_resolve=False)
    assert scored.rmse < 1e-4
    assert res.diagnostics["iterations"] <= 10


def test_attack_deterministic_trajectory():
    p, b, g = setup(d=6, m=64)
    cfg = GradMatchConfig(seed=4, optimizer=OptimizerConfig(max_iters=50))
    h1 = grad_match_attack(g, p, b.y, cfg).diagnostics["trajectory_hash"]
    h2 = grad_match_attack(g, p, b.y, cfg).diagnostics["trajectory_hash"]
    assert h1 == h2


def test_feature_sign_flip_leaves_trajectory_unchanged():
    p, b, g = setup(d=8, m=64, seed=5)
    noisy = NoiseDefense(0.01).apply(g, 99)
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((8, 2))
    Z /= np.linalg.norm(Z, axis=0)
    cfg = GradMatchConfig(
        feature_mode="cosine2", alpha_feature=0.5, seed=7,
        optimizer=OptimizerConfig(max_iters=40),
    )
    h1 = grad_match_attack(noisy, p, b.y, cfg, feature_targets=Z).diagnostics
    h2 = grad_match_attack(noisy, p, b.y, cfg, feature_targets=-Z).diagnostics
    assert h1["trajectory_hash"] == h2["trajectory_hash"]


def test_halving_makes_accepted_steps_monotone():
    p, b, g = setup(d=6, m=48, seed=9)
    cfg = GradMatchConfig(
        optimizer=OptimizerConfig(max_iters=120, step_size=0.3, halve_on_increase=True)
    )
    hist = grad_match_attack(g, p, b.y, cfg).diagnostics["loss_history"]
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_single_sample_reconstruction():
    errs = []
    for seed in range(5):
        p, b, g = setup(d=8, m=256, B=1, seed=200 + seed)
        cfg = GradMatchConfig(seed=seed, optimizer=OptimizerConfig(max_iters=3000))
        res = grad_match_attack(g, p, b.y, cfg)
        errs.append(score_reconstruction(res, b.X).rmse)
    assert np.median(errs) < 0.05


def test_divergent_start_returns_flagged_best():
    import warnings

    p, b, g = setup()
    X0 = np.full_like(b.X, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = grad_match_attack(g, p, b.y, GradMatchConfig(), X0=X0)
    assert res.diagnostics["diverged"]


def test_feature_mode_requires_targets():
    p, b, g = setup()
    cfg = GradMatchConfig(feature_mode="cosine2", alpha_feature=0.1)
    with pytest.raises(ConfigError):
        grad_match_attack(g, p, b.y, cfg)


def test_config_validation():
    # an invalid config cannot be built, so the attack never sees one
    for bad in [
        {"distance": "l1"}, {"feature_mode": "cosine"}, {"feature_source": "gradmatch"},
        {"alpha_feature": -1.0}, {"alpha_feature": float("nan")}, {"alpha_feature": "0.1"},
        {"pairing_refresh": 0}, {"group_reweighting": 1}, {"sign_resolve": "yes"},
    ]:
        with pytest.raises(ConfigError):
            GradMatchConfig(**bad)


@pytest.mark.parametrize("bad", [
    {"max_iters": 0}, {"max_iters": 2.0}, {"step_size": 0.0}, {"step_size": float("inf")},
    {"beta1": 1.0}, {"beta2": -0.1}, {"eps": 0.0}, {"grad_tol": float("nan")},
    {"halve_on_increase": 0}, {"max_halvings": -1},
])
def test_optimizer_config_validation(bad):
    with pytest.raises(ConfigError):
        OptimizerConfig(**bad)

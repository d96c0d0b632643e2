import numpy as np
import pytest

from gradleak.activations import make_activation
from gradleak.defenses import (
    ClipDefense,
    NoiseDefense,
    PruneThresholdDefense,
    apply_clip,
    apply_dropout,
    apply_noise,
    apply_prune_ratio,
    apply_prune_threshold,
    compose,
    defense_from_dict,
    dp_sgd_preset,
    local_aggregation,
    secure_aggregate,
)
from gradleak.errors import ConfigError, DegenerateObservationError, DivergenceError, LayoutMismatchError
from gradleak.network import DataBatch, GradientObservation, gradient, sample_batch, sample_params
from gradleak.seeding import derive_seed, rng_from
from oracles import argsort_prune_mask

SP = make_activation("softplus")


def obs_of(d=6, m=32, B=2, seed=0):
    p = sample_params(d, m, seed=seed, activation=SP)
    b = sample_batch(d, B, seed=seed + 1)
    return p, b, gradient(p, b)


# --- noise ---------------------------------------------------------------

def test_noise_zero_is_identity():
    _, _, g = obs_of()
    out = apply_noise(g, 0.0, seed=1)
    assert np.array_equal(out.flatten(), g.flatten())
    assert out.provenance[-1].variant == "noise"


def test_noise_realized_std():
    # 10^5 coordinates: realized std within 1% of sigma0
    p, b, g = obs_of(d=4, m=20_000)
    out = apply_noise(g, 0.1, seed=5)
    diff = out.flatten() - g.flatten()
    assert 0.099 <= diff.std() <= 0.101


def test_noise_deterministic_and_mean_preserving():
    _, _, g = obs_of()
    a = apply_noise(g, 0.3, seed=9).flatten()
    b = apply_noise(g, 0.3, seed=9).flatten()
    assert np.array_equal(a, b)
    draws = np.stack([apply_noise(g, 0.3, seed=s).flatten() - g.flatten() for s in range(1000)])
    per_coord = np.abs(draws.mean(axis=0))
    assert per_coord[:16].max() < 4 * 0.3 / np.sqrt(1000)


def test_noise_clip_scale_parameterization():
    _, _, g = obs_of()
    scaled = apply_noise(g, 0.1, seed=3, clip_scale=4.0).flatten() - g.flatten()
    plain = apply_noise(g, 0.4, seed=3).flatten() - g.flatten()
    assert np.allclose(scaled, plain, rtol=1e-12)


def test_noise_equals_flat_sum_bitwise():
    _, _, g = obs_of(d=5, m=64)
    out = apply_noise(g, 0.2, seed=4, clip_scale=1.5)
    draw = rng_from(4).normal(0.0, 0.2 * 1.5, size=g.m * (1 + g.d))
    old = GradientObservation.from_flat(g.flatten() + draw, g.m, g.d)
    assert np.array_equal(out.grad_a, old.grad_a)
    assert np.array_equal(out.grad_W, old.grad_W)


# --- clipping ------------------------------------------------------------

def test_clip_identity_when_small():
    _, _, g = obs_of()
    out = apply_clip(g, threshold=g.norm() * 2)
    assert np.array_equal(out.flatten(), g.flatten())
    assert out.provenance[-1].clip_factor == 1.0


def test_clip_rescales_to_threshold():
    _, _, g = obs_of()
    scale = 10.0 / g.norm()
    big = GradientObservation(grad_a=g.grad_a * scale, grad_W=g.grad_W * scale)
    out = apply_clip(big, threshold=2.0)
    assert out.norm() == pytest.approx(2.0, rel=1e-12)
    assert out.provenance[-1].clip_factor == pytest.approx(0.2, rel=1e-12)


def test_clip_zero_gradient_identity():
    z = GradientObservation(grad_a=np.zeros(4), grad_W=np.zeros((4, 3)))
    out = apply_clip(z, threshold=1.0)
    assert out.provenance[-1].clip_factor == 1.0
    assert out.norm() == 0.0


def test_clip_never_increases_norm():
    _, _, g = obs_of()
    for c in (0.1, 1.0, 10.0, 1000.0):
        assert apply_clip(g, c).norm() <= g.norm() + 1e-12


# --- pruning -------------------------------------------------------------

def test_prune_ratio_zero_identity():
    _, _, g = obs_of()
    out = apply_prune_ratio(g, 0.0)
    assert np.array_equal(out.flatten(), g.flatten())


def test_prune_ratio_small_example():
    g = GradientObservation(grad_a=np.array([3.0, -1.0]), grad_W=np.array([[2.0], [0.5]]))
    out = apply_prune_ratio(g, 0.5)
    assert np.array_equal(out.flatten(), np.array([3.0, 0.0, 2.0, 0.0]))


def test_prune_masks_describe_zeroed_coordinates():
    _, _, g = obs_of()
    out = apply_prune_ratio(g, 0.4)
    mask = out.provenance[-1].mask
    flat = out.flatten()
    assert np.array_equal(flat == 0.0, ~mask | (g.flatten() == 0.0))
    assert mask.sum() == g.flatten().size - int(0.4 * g.flatten().size)


def test_prune_ratio_threshold_consistency():
    _, _, g = obs_of(m=64)
    flat = np.abs(g.flatten())
    k = int(0.3 * flat.size)
    srt = np.sort(flat)
    cutoff = 0.5 * (srt[k - 1] + srt[k])
    by_ratio = apply_prune_ratio(g, 0.3).flatten()
    by_threshold = apply_prune_threshold(g, cutoff).flatten()
    assert np.array_equal(by_ratio, by_threshold)


def test_prune_threshold_idempotent():
    _, _, g = obs_of()
    once = apply_prune_threshold(g, 1e-4)
    twice = apply_prune_threshold(once, 1e-4)
    assert np.array_equal(once.flatten(), twice.flatten())


PRUNE_KINDS = ("gauss", "rounded", "zeros", "signed_zeros", "inf", "nan", "mostly_nan")


def _prune_input(kind: str, m: int, d: int, seed: int) -> GradientObservation:
    """A flattened gradient of m(1+d) coordinates shaped to stress the tie
    order and NaN placement of a magnitude prune."""
    n = m * (1 + d)
    rng = rng_from(seed)
    if n >= 100:
        p = sample_params(d, m, seed=seed, activation=SP)
        g = gradient(p, sample_batch(d, 2, seed=seed + 1)).flatten()
        g /= np.abs(g).max()
    else:
        g = rng.standard_normal(n)
    if kind == "rounded":
        g = np.round(g, 3)  # many equal magnitudes
    elif kind == "zeros":
        g[rng.random(n) < 0.3] = 0.0
    elif kind == "signed_zeros":
        g[rng.random(n) < 0.3] = 0.0
        g[rng.random(n) < 0.3] = -0.0
    elif kind == "inf":
        g[rng.random(n) < 0.1] = np.inf
        g[rng.random(n) < 0.1] = -np.inf
        g[0] = -np.inf
    elif kind == "nan":
        g[rng.random(n) < 0.1] = np.nan
        g[rng.random(n) < 0.05] = np.inf
        g[-1] = np.nan
    elif kind == "mostly_nan":  # k exceeds the non-NaN count from ratio 0.5 on
        g[rng.random(n) < 0.6] = np.nan
        g[rng.random(n) < 0.1] = -0.0
        g[0] = np.nan
    return GradientObservation.from_flat(g, m, d)


@pytest.mark.parametrize("m,d", [(1, 0), (1, 1), (200, 14)])
@pytest.mark.parametrize("kind", PRUNE_KINDS)
def test_prune_ratio_matches_stable_argsort(kind, m, d):
    obs = _prune_input(kind, m, d, seed=11 * m + d)
    flat = obs.flatten()
    n = flat.size
    for ratio in (0.0, 1e-4, 0.1, 0.5, 0.9, 0.99, (n - 0.5) / n):
        keep = argsort_prune_mask(flat, ratio)
        # a pruned +-inf becomes NaN (inf * 0) on both sides
        with np.errstate(invalid="ignore"):
            out = apply_prune_ratio(obs, ratio)
            expect = flat * keep
        assert np.array_equal(out.provenance[-1].mask, keep), (kind, ratio)
        assert out.flatten().tobytes() == expect.tobytes(), (kind, ratio)


def test_prune_ratio_nan_beyond_the_numbers():
    flat = np.array([1.0, np.nan, 0.5, np.nan, 2.0])
    out = apply_prune_ratio(GradientObservation.from_flat(flat, 5, 0), 0.8)
    assert np.array_equal(out.provenance[-1].mask, [False, False, False, True, False])
    assert np.array_equal(argsort_prune_mask(flat, 0.8), out.provenance[-1].mask)


def test_prune_ratio_matches_stable_argsort_on_criterion_06_gradients():
    exp = make_activation("exp")
    d, m = 16, 2**14
    for seed in range(600, 610):
        p = sample_params(d, m, seed=seed, activation=exp)
        g = gradient(p, sample_batch(d, 2, seed=derive_seed(seed, 1)))
        mask = apply_prune_ratio(g, 0.9).provenance[-1].mask
        assert np.array_equal(mask, argsort_prune_mask(g.flatten(), 0.9)), seed


# --- dropout -------------------------------------------------------------

def test_dropout_zero_identity():
    _, _, g = obs_of()
    assert np.array_equal(apply_dropout(g, 0.0, seed=1).flatten(), g.flatten())


def test_dropout_survivor_count():
    p, b, g = obs_of(d=3, m=10_000)
    out = apply_dropout(g, 0.5, seed=2)
    survivors = np.count_nonzero(out.provenance[-1].mask[:10_000])
    assert 4900 <= survivors <= 5100  # binomial band, fixed draw


def test_dropout_is_node_level():
    _, _, g = obs_of(m=64)
    out = apply_dropout(g, 0.5, seed=3)
    dropped = ~out.provenance[-1].mask[:64]
    assert dropped.any()
    assert np.all(out.grad_a[dropped] == 0.0)
    assert np.all(out.grad_W[dropped] == 0.0)


def test_dropout_all_nodes_dropped_errors():
    g = GradientObservation(grad_a=np.ones(1), grad_W=np.ones((1, 2)))
    # a single unit at rate 0.9 is dropped for most seeds; find one
    for seed in range(50):
        try:
            apply_dropout(g, 0.9, seed=seed)
        except DegenerateObservationError:
            break
    else:
        pytest.fail("never hit the degenerate-observation path")


def test_dropout_coordinate_variant():
    _, _, g = obs_of(m=2000)
    out = apply_dropout(g, 0.5, seed=4, node_level=False)
    mask = out.provenance[-1].mask
    # coordinate-level masks do not respect unit boundaries
    per_unit = mask[2000:].reshape(2000, -1)
    assert np.logical_xor(per_unit.any(axis=1), per_unit.all(axis=1)).any()


# --- local aggregation ---------------------------------------------------

def test_local_aggregation_one_step_is_gradient():
    p, b, g = obs_of()
    out = local_aggregation(p, [b], eta_a=None, eta_w=None, steps=1)
    assert np.allclose(out.flatten(), g.flatten(), rtol=1e-9, atol=1e-12)


def test_local_aggregation_two_steps_near_double():
    d, m = 8, 8192
    p = sample_params(d, m, seed=11, activation=SP)
    b = sample_batch(d, 2, seed=12)
    g = gradient(p, b).flatten()
    out = local_aggregation(p, [b], eta_a=1.0 / m**2, eta_w=0.1 / np.sqrt(m), steps=2)
    rel = np.linalg.norm(out.flatten() - 2.0 * g) / np.linalg.norm(2.0 * g)
    assert rel < 0.05
    assert out.provenance[-1].steps == 2


def test_local_aggregation_divergence_names_step():
    p, b, _ = obs_of()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            local_aggregation(p, [b], eta_a=1e300, eta_w=1e300, steps=3)
    assert exc.value.step is not None


def test_local_aggregation_batch_count_validation():
    p, b, _ = obs_of()
    with pytest.raises(ConfigError):
        local_aggregation(p, [b, b], eta_a=None, eta_w=None, steps=3)


def test_local_aggregation_two_disjoint_batches():
    p = sample_params(6, 512, seed=13, activation=SP)
    b1 = sample_batch(6, 2, seed=14)
    b2 = sample_batch(6, 2, seed=15)
    out = local_aggregation(p, [b1, b2], eta_a=None, eta_w=None, steps=2)
    assert out.provenance[-1].steps == 2
    assert np.isfinite(out.flatten()).all()


# --- secure aggregation --------------------------------------------------

def test_secure_aggregate_single_client_scaling():
    p, b, g = obs_of(B=3)
    out = secure_aggregate([(g, 3)])
    assert np.allclose(out.flatten(), g.flatten() / 3.0, rtol=1e-12)


def test_secure_aggregate_equals_union_batch():
    p = sample_params(5, 24, seed=20, activation=SP)
    b1 = sample_batch(5, 2, seed=21)
    b2 = sample_batch(5, 3, seed=22)
    g1, g2 = gradient(p, b1), gradient(p, b2)
    agg = secure_aggregate([(g1, 2), (g2, 3)])
    union = DataBatch(X=np.concatenate([b1.X, b2.X], axis=1), y=np.concatenate([b1.y, b2.y]))
    expected = gradient(p, union).flatten() / 5.0
    assert np.linalg.norm(agg.flatten() - expected) <= 1e-12 * np.linalg.norm(expected)


def test_secure_aggregate_layout_mismatch():
    _, _, g1 = obs_of(m=32)
    _, _, g2 = obs_of(m=16)
    with pytest.raises(LayoutMismatchError):
        secure_aggregate([(g1, 1), (g2, 1)])


# --- composition ---------------------------------------------------------

def test_compose_identity_chain():
    _, _, g = obs_of()
    out = compose([ClipDefense(threshold=g.norm() * 2), NoiseDefense(sigma0=0.0)], g, seed=1)
    assert np.array_equal(out.flatten(), g.flatten())
    assert [r.variant for r in out.provenance] == ["clip", "noise"]


def test_compose_order_matters():
    _, _, g = obs_of()
    scale = 10.0 / g.norm()
    big = GradientObservation(grad_a=g.grad_a * scale, grad_W=g.grad_W * scale)
    pre = dp_sgd_preset(threshold=2.0, sigma0=0.5)
    clipped_first = compose(pre, big, seed=7).flatten()
    noised_first = compose(list(reversed(pre)), big, seed=7).flatten()
    assert not np.allclose(clipped_first, noised_first)


def test_compose_prune_idempotent_threshold():
    _, _, g = obs_of()
    cfg = PruneThresholdDefense(cutoff=1e-4)
    once = compose([cfg], g, seed=0).flatten()
    twice = compose([cfg, cfg], g, seed=0).flatten()
    assert np.array_equal(once, twice)


def test_compose_rejects_aggregators_and_empty():
    _, _, g = obs_of()
    with pytest.raises(ConfigError):
        compose([], g, seed=0)
    with pytest.raises(ConfigError):
        compose([defense_from_dict({"variant": "local_aggregation", "steps": 2})], g, seed=0)


def test_defense_dict_round_trip():
    from gradleak.defenses import defense_to_dict

    specs = [
        {"variant": "noise", "sigma0": 0.1, "clip_scale": 1.0},
        {"variant": "clip", "threshold": 2.0},
        {"variant": "prune_ratio", "ratio": 0.5},
        {"variant": "dropout", "rate": 0.3, "node_level": True},
        {"variant": "secure_aggregation", "batch_sizes": [2, 3]},
    ]
    for spec in specs:
        cfg = defense_from_dict(spec)
        assert defense_from_dict(defense_to_dict(cfg)) == cfg


def test_defense_validation():
    with pytest.raises(ConfigError):
        defense_from_dict({"variant": "noise", "sigma0": -0.1})
    with pytest.raises(ConfigError):
        defense_from_dict({"variant": "prune_ratio", "ratio": 1.0})
    with pytest.raises(ConfigError):
        defense_from_dict({"variant": "mixup"})


# --- copy-free outputs -----------------------------------------------------

TRANSFORMS = {
    "noise": lambda g: apply_noise(g, 0.3, seed=2),
    "clip": lambda g: apply_clip(g, threshold=0.5 * g.norm()),
    "prune_ratio": lambda g: apply_prune_ratio(g, 0.4),
    "prune_threshold": lambda g: apply_prune_threshold(g, 1e-3),
    "dropout": lambda g: apply_dropout(g, 0.5, seed=3),
    "dropout_coords": lambda g: apply_dropout(g, 0.5, seed=3, node_level=False),
}
MASKING = ("prune_ratio", "prune_threshold", "dropout", "dropout_coords")


@pytest.mark.parametrize("name", MASKING)
def test_mask_equals_flat_product_bitwise(name):
    _, _, g = obs_of(d=5, m=64)
    out = TRANSFORMS[name](g)
    old = GradientObservation.from_flat(g.flatten() * out.provenance[-1].mask, g.m, g.d)
    assert np.array_equal(out.grad_a, old.grad_a)
    assert np.array_equal(out.grad_W, old.grad_W)


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_writing_to_output_leaves_input_unchanged(name):
    _, _, g = obs_of(d=5, m=64)
    before = g.copy()
    out = TRANSFORMS[name](g)
    out.grad_a[:] = 7.0
    out.grad_W[:] = 7.0
    assert np.array_equal(g.grad_a, before.grad_a)
    assert np.array_equal(g.grad_W, before.grad_W)
    assert len(g.provenance) == len(before.provenance)

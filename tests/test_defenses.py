import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gradleak.activations import Activation
from gradleak.defenses import (
    ClipDefense,
    DropoutDefense,
    LocalAggregationDefense,
    NoiseDefense,
    PruneRatioDefense,
    PruneThresholdDefense,
    SecureAggregationDefense,
    _masked,
    compose,
    compose_drawn,
    defense_from_dict,
    draw_chain,
    dp_sgd_preset,
    local_aggregation,
    secure_aggregate,
)
from gradleak.errors import ConfigError, DegenerateObservationError, DivergenceError, LayoutMismatchError
from gradleak.network import DataBatch, GradientObservation, gradient, sample_batch, sample_params
from gradleak.seeding import derive_seed, rng_from
from oracles import (argsort_prune_mask, interleaved_compose, local_aggregation_reference,
                     where_masked)

SP = Activation("softplus")


def obs_of(d=6, m=32, B=2, seed=0):
    p = sample_params(d, m, seed=seed, activation=SP)
    b = sample_batch(d, B, seed=seed + 1)
    return p, b, gradient(p, b)


# --- noise ---------------------------------------------------------------

def test_noise_zero_is_identity():
    _, _, g = obs_of()
    out = NoiseDefense(0.0).apply(g, 1)
    assert np.array_equal(out.flat, g.flat)
    assert out.provenance[-1].variant == "noise"


def test_noise_realized_std():
    # 10^5 coordinates: realized std within 1% of sigma0
    p, b, g = obs_of(d=4, m=20_000)
    out = NoiseDefense(0.1).apply(g, 5)
    diff = out.flat - g.flat
    assert 0.099 <= diff.std() <= 0.101


def test_noise_deterministic_and_mean_preserving():
    _, _, g = obs_of()
    a = NoiseDefense(0.3).apply(g, 9).flat
    b = NoiseDefense(0.3).apply(g, 9).flat
    assert np.array_equal(a, b)
    draws = np.stack([NoiseDefense(0.3).apply(g, s).flat - g.flat for s in range(1000)])
    per_coord = np.abs(draws.mean(axis=0))
    assert per_coord[:16].max() < 4 * 0.3 / np.sqrt(1000)


def test_noise_clip_scale_parameterization():
    _, _, g = obs_of()
    scaled = NoiseDefense(0.1, clip_scale=4.0).apply(g, 3).flat - g.flat
    plain = NoiseDefense(0.4).apply(g, 3).flat - g.flat
    assert np.allclose(scaled, plain, rtol=1e-12)


def test_noise_equals_flat_sum_bitwise():
    _, _, g = obs_of(d=5, m=64)
    out = NoiseDefense(0.2, clip_scale=1.5).apply(g, 4)
    draw = rng_from(4).normal(0.0, 0.2 * 1.5, size=g.m * (1 + g.d))
    old = GradientObservation(g.flat + draw, g.m, g.d)
    assert np.array_equal(out.grad_a, old.grad_a)
    assert np.array_equal(out.grad_W, old.grad_W)


@pytest.mark.parametrize("sigma0,clip_scale", [(5e-324, 1.0), (1e-300, 1e-10)],
                         ids=["smallest_subnormal", "subnormal_product"])
def test_noise_matches_rng_normal_bitwise(sigma0, clip_scale):
    # A subnormal scale rounds s*z to -0.0 for small negative z.  On a -0.0
    # coordinate only 0.0 + s*z, as rng.normal forms it, gives +0.0.
    m, d = 64, 5
    flat = rng_from(8).standard_normal(m * (1 + d))
    flat[::3], flat[1::7], flat[2::11] = -0.0, 0.0, -5e-324
    expect = rng_from(4).normal(0.0, sigma0 * clip_scale, size=flat.size) + flat
    out = NoiseDefense(sigma0, clip_scale=clip_scale).apply(
        GradientObservation(flat.copy(), m, d), 4)
    assert out.flat.tobytes() == expect.tobytes()


# --- clipping ------------------------------------------------------------

def test_clip_identity_when_small():
    _, _, g = obs_of()
    out = ClipDefense(g.norm() * 2).apply(g, 0)
    assert np.array_equal(out.flat, g.flat)
    assert out.provenance[-1].clip_factor == 1.0


def test_clip_rescales_to_threshold():
    _, _, g = obs_of()
    scale = 10.0 / g.norm()
    big = GradientObservation(g.flat * scale, g.m, g.d)
    out = ClipDefense(2.0).apply(big, 0)
    assert out.norm() == pytest.approx(2.0, rel=1e-12)
    assert out.provenance[-1].clip_factor == pytest.approx(0.2, rel=1e-12)
    assert out.flat.tobytes() == (big.flat * (2.0 / big.norm())).tobytes()


def test_clip_zero_gradient_identity():
    z = GradientObservation(np.zeros(16), 4, 3)
    out = ClipDefense(1.0).apply(z, 0)
    assert out.provenance[-1].clip_factor == 1.0
    assert out.norm() == 0.0


def test_clip_never_increases_norm():
    _, _, g = obs_of()
    for c in (0.1, 1.0, 10.0, 1000.0):
        assert ClipDefense(c).apply(g, 0).norm() <= g.norm() + 1e-12


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200],
                         ids=["inf", "-inf", "nan", "norm-overflow"])
def test_clip_of_a_non_finite_gradient_is_all_nan(bad):
    # a non-finite norm gives factor NaN: one defined result and no warning
    _, _, g = obs_of()
    flat = g.flat.copy()
    flat[[7, 8]] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ClipDefense(1.0).apply(GradientObservation(flat, g.m, g.d), 0)
    assert np.isnan(out.flat).all()
    assert math.isnan(out.provenance[-1].clip_factor)


# --- pruning -------------------------------------------------------------

def test_prune_ratio_zero_identity():
    _, _, g = obs_of()
    out = PruneRatioDefense(0.0).apply(g, 0)
    assert np.array_equal(out.flat, g.flat)


def test_prune_ratio_small_example():
    g = GradientObservation(np.array([3.0, -1.0, 2.0, 0.5]), 2, 1)
    out = PruneRatioDefense(0.5).apply(g, 0)
    assert np.array_equal(out.flat, np.array([3.0, 0.0, 2.0, 0.0]))


def test_prune_masks_describe_zeroed_coordinates():
    _, _, g = obs_of()
    out = PruneRatioDefense(0.4).apply(g, 0)
    mask = out.provenance[-1].mask
    flat = out.flat
    assert np.array_equal(flat == 0.0, ~mask | (g.flat == 0.0))
    assert mask.sum() == g.flat.size - int(0.4 * g.flat.size)


def test_prune_ratio_threshold_consistency():
    _, _, g = obs_of(m=64)
    flat = np.abs(g.flat)
    k = int(0.3 * flat.size)
    srt = np.sort(flat)
    cutoff = 0.5 * (srt[k - 1] + srt[k])
    by_ratio = PruneRatioDefense(0.3).apply(g, 0).flat
    by_threshold = PruneThresholdDefense(cutoff).apply(g, 0).flat
    assert np.array_equal(by_ratio, by_threshold)


def test_prune_threshold_idempotent():
    _, _, g = obs_of()
    once = PruneThresholdDefense(1e-4).apply(g, 0)
    twice = PruneThresholdDefense(1e-4).apply(once, 0)
    assert np.array_equal(once.flat, twice.flat)


PRUNE_KINDS = ("gauss", "rounded", "zeros", "signed_zeros", "inf", "nan", "mostly_nan")


def _prune_input(kind: str, m: int, d: int, seed: int) -> GradientObservation:
    """A flattened gradient of m(1+d) coordinates shaped to stress the tie
    order and NaN placement of a magnitude prune."""
    n = m * (1 + d)
    rng = rng_from(seed)
    if n >= 100:
        p = sample_params(d, m, seed=seed, activation=SP)
        g = gradient(p, sample_batch(d, 2, seed=seed + 1)).flat
        g = g / np.abs(g).max()
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
    return GradientObservation(g, m, d)


@pytest.mark.parametrize("m,d", [(1, 0), (1, 1), (200, 14)])
@pytest.mark.parametrize("kind", PRUNE_KINDS)
def test_prune_ratio_matches_stable_argsort(kind, m, d):
    obs = _prune_input(kind, m, d, seed=11 * m + d)
    flat = obs.flat
    n = flat.size
    for ratio in (0.0, 1e-4, 0.1, 0.5, 0.9, 0.99, (n - 0.5) / n):
        keep = argsort_prune_mask(flat, ratio)
        out = PruneRatioDefense(ratio).apply(obs, 0)
        # a pruned coordinate, inf and NaN included, becomes a zero of its sign
        expect = flat.copy()
        expect[~keep] = np.copysign(0.0, flat[~keep])
        assert np.array_equal(out.provenance[-1].mask, keep), (kind, ratio)
        assert out.flat.tobytes() == expect.tobytes(), (kind, ratio)
        finite = np.isfinite(flat)
        assert out.flat[finite].tobytes() == (flat[finite] * keep[finite]).tobytes()


@pytest.mark.parametrize("defense", [
    PruneRatioDefense(0.99), PruneThresholdDefense(0.5),
    DropoutDefense(0.5, node_level=False), DropoutDefense(0.5),
], ids=["prune_ratio", "prune_threshold", "coord_dropout", "node_dropout"])
def test_masked_defenses_zero_non_finite_coordinates(defense):
    m, d = 64, 3
    flat = rng_from(4).standard_normal(m * (1 + d))
    flat[::5], flat[1::5], flat[2::7], flat[3::11] = np.inf, -np.inf, np.nan, -np.nan
    obs = GradientObservation(flat.copy(), m, d)
    out = defense.apply(obs, 3)  # RuntimeWarnings are errors in this suite
    keep = out.provenance[-1].mask
    dropped = out.flat[~keep]
    assert not np.isfinite(flat[~keep]).all()
    assert (dropped == 0.0).all()
    assert np.array_equal(np.signbit(dropped), np.signbit(flat[~keep]))
    assert out.flat[keep].tobytes() == flat[keep].tobytes()


def _special_values(n: int, seed: int) -> np.ndarray:
    """Gaussians with half the entries replaced by +-0, +-inf, NaN of both
    signs (one with a payload) and subnormals."""
    rng = rng_from(seed)
    specials = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
        np.array([0xFFF8000000000ABC], dtype=np.uint64).view(np.float64)[0],  # -NaN, payload
        5e-324, -5e-324, 2.2e-308, -1e-310,
    ])
    flat = rng.standard_normal(n)
    pick = rng.random(n) < 0.5
    flat[pick] = rng.choice(specials, size=np.count_nonzero(pick))
    return flat


@pytest.mark.parametrize("mask", ["half", "sparse", "all_kept", "all_dropped"])
def test_masked_matches_where_bytewise(mask):
    m, d = 97, 7
    n = m * (1 + d)
    obs = GradientObservation(_special_values(n, seed=12), m, d)
    keep = {
        "half": rng_from(13).random(n) < 0.5,
        "sparse": rng_from(14).random(n) < 0.1,
        "all_kept": np.ones(n, dtype=bool),
        "all_dropped": np.zeros(n, dtype=bool),
    }[mask]
    out = _masked(PruneThresholdDefense(0.0), obs, keep)
    assert out.flat.tobytes() == where_masked(obs.flat, keep).tobytes()


def test_prune_ratio_nan_beyond_the_numbers():
    flat = np.array([1.0, np.nan, 0.5, np.nan, 2.0])
    out = PruneRatioDefense(0.8).apply(GradientObservation(flat, 5, 0), 0)
    assert np.array_equal(out.provenance[-1].mask, [False, False, False, True, False])
    assert np.array_equal(argsort_prune_mask(flat, 0.8), out.provenance[-1].mask)


def test_prune_ratio_matches_stable_argsort_on_criterion_06_gradients():
    exp = Activation("exp")
    d, m = 16, 2**14
    for seed in range(600, 610):
        p = sample_params(d, m, seed=seed, activation=exp)
        g = gradient(p, sample_batch(d, 2, seed=derive_seed(seed, 1)))
        mask = PruneRatioDefense(0.9).apply(g, 0).provenance[-1].mask
        assert np.array_equal(mask, argsort_prune_mask(g.flat, 0.9)), seed


# --- dropout -------------------------------------------------------------

def test_dropout_zero_identity():
    _, _, g = obs_of()
    assert np.array_equal(DropoutDefense(0.0).apply(g, 1).flat, g.flat)


def test_dropout_survivor_count():
    p, b, g = obs_of(d=3, m=10_000)
    out = DropoutDefense(0.5).apply(g, 2)
    survivors = np.count_nonzero(out.provenance[-1].mask[:10_000])
    assert 4900 <= survivors <= 5100  # binomial band, fixed draw


def test_dropout_is_node_level():
    _, _, g = obs_of(m=64)
    out = DropoutDefense(0.5).apply(g, 3)
    dropped = ~out.provenance[-1].mask[:64]
    assert dropped.any()
    assert np.all(out.grad_a[dropped] == 0.0)
    assert np.all(out.grad_W[dropped] == 0.0)


def test_dropout_all_nodes_dropped_errors():
    g = GradientObservation(np.ones(3), 1, 2)
    # a single unit at rate 0.9 is dropped for most seeds; find one
    for seed in range(50):
        try:
            DropoutDefense(0.9).apply(g, seed)
        except DegenerateObservationError:
            break
    else:
        pytest.fail("never hit the degenerate-observation path")


def test_dropout_coordinate_variant():
    _, _, g = obs_of(m=2000)
    out = DropoutDefense(0.5, node_level=False).apply(g, 4)
    mask = out.provenance[-1].mask
    # coordinate-level masks do not respect unit boundaries
    per_unit = mask[2000:].reshape(2000, -1)
    assert np.logical_xor(per_unit.any(axis=1), per_unit.all(axis=1)).any()


# --- local aggregation ---------------------------------------------------

def test_local_aggregation_one_step_is_gradient():
    p, b, g = obs_of()
    out = local_aggregation(p, [b], eta_a=None, eta_w=None, steps=1)
    assert np.allclose(out.flat, g.flat, rtol=1e-9, atol=1e-12)


def test_local_aggregation_two_steps_near_double():
    d, m = 8, 8192
    p = sample_params(d, m, seed=11, activation=SP)
    b = sample_batch(d, 2, seed=12)
    g = gradient(p, b).flat
    out = local_aggregation(p, [b], eta_a=1.0 / m**2, eta_w=0.1 / np.sqrt(m), steps=2)
    rel = np.linalg.norm(out.flat - 2.0 * g) / np.linalg.norm(2.0 * g)
    assert rel < 0.05
    assert out.provenance[-1].steps == 2


def test_local_aggregation_divergence_names_step():
    # a 1e200-rate exp rollout: the first update is finite, the second is not
    p = sample_params(16, 256, seed=3, activation=Activation("exp"))
    b = sample_batch(16, 2, seed=4)
    for rollout in (local_aggregation, local_aggregation_reference):
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            rollout(p, [b], 1e200, 1e200, 3)
        assert exc.value.step == 2


@pytest.mark.parametrize("kind", ["softplus", "exp"])
@pytest.mark.parametrize("m", [256, 300, 333])  # W starts 8m bytes in: 300, 333 are off 64 and 16
@pytest.mark.parametrize("fresh", [False, True])
def test_local_aggregation_matches_out_of_place_rollout(kind, m, fresh):
    p = sample_params(16, m, seed=m, activation=Activation(kind))
    for steps in (1, 2, 3):
        batches = [sample_batch(16, 2, seed=m + k) for k in range(1 + (steps - 1) * fresh)]
        out = local_aggregation(p, batches, None, None, steps).flat
        assert out.tobytes() == local_aggregation_reference(p, batches, None, None, steps).tobytes()


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
    assert np.isfinite(out.flat).all()


# --- secure aggregation --------------------------------------------------

def test_secure_aggregate_single_client_scaling():
    p, b, g = obs_of(B=3)
    out = secure_aggregate([(g, 3)])
    assert np.allclose(out.flat, g.flat / 3.0, rtol=1e-12)


def test_secure_aggregate_equals_union_batch():
    p = sample_params(5, 24, seed=20, activation=SP)
    b1 = sample_batch(5, 2, seed=21)
    b2 = sample_batch(5, 3, seed=22)
    g1, g2 = gradient(p, b1), gradient(p, b2)
    agg = secure_aggregate([(g1, 2), (g2, 3)])
    union = DataBatch(X=np.concatenate([b1.X, b2.X], axis=1), y=np.concatenate([b1.y, b2.y]))
    expected = gradient(p, union).flat / 5.0
    assert np.linalg.norm(agg.flat - expected) <= 1e-12 * np.linalg.norm(expected)


def test_secure_aggregate_layout_mismatch():
    _, _, g1 = obs_of(m=32)
    _, _, g2 = obs_of(m=16)
    with pytest.raises(LayoutMismatchError):
        secure_aggregate([(g1, 1), (g2, 1)])


# --- composition ---------------------------------------------------------

def test_compose_identity_chain():
    _, _, g = obs_of()
    out = compose([ClipDefense(threshold=g.norm() * 2), NoiseDefense(sigma0=0.0)], g, seed=1)
    assert np.array_equal(out.flat, g.flat)
    assert [r.variant for r in out.provenance] == ["clip", "noise"]


def test_compose_order_matters():
    _, _, g = obs_of()
    scale = 10.0 / g.norm()
    big = GradientObservation(g.flat * scale, g.m, g.d)
    pre = dp_sgd_preset(threshold=2.0, sigma0=0.5)
    clipped_first = compose(pre, big, seed=7).flat
    noised_first = compose(list(reversed(pre)), big, seed=7).flat
    assert not np.allclose(clipped_first, noised_first)


def test_compose_prune_idempotent_threshold():
    _, _, g = obs_of()
    cfg = PruneThresholdDefense(cutoff=1e-4)
    once = compose([cfg], g, seed=0).flat
    twice = compose([cfg, cfg], g, seed=0).flat
    assert np.array_equal(once, twice)


def test_compose_rejects_aggregators_and_empty():
    _, _, g = obs_of()
    with pytest.raises(ConfigError):
        compose([], g, seed=0)
    with pytest.raises(ConfigError):
        compose([defense_from_dict({"variant": "local_aggregation", "steps": 2})], g, seed=0)


DRAWN_CHAINS = {
    "noise": [NoiseDefense(0.3)],
    "noise-sigma0-zero": [NoiseDefense(0.0)],
    "clip-noise": dp_sgd_preset(threshold=1e-3, sigma0=0.05, scale_noise_by_clip=True),
    "dropout-node": [DropoutDefense(0.5)],
    "dropout-coord": [DropoutDefense(0.5, node_level=False)],
    "prune_ratio": [PruneRatioDefense(0.5)],
    "prune_threshold-noise-clip": [PruneThresholdDefense(1e-4), NoiseDefense(0.01),
                                   ClipDefense(1e-2)],
    "dropout-prune-noise": [DropoutDefense(0.3), PruneRatioDefense(0.4), NoiseDefense(0.1)],
    "dropout-prune_threshold-noise-noise": [DropoutDefense(0.5), PruneThresholdDefense(1e-4),
                                            NoiseDefense(0.1), NoiseDefense(0.2, clip_scale=0.5)],
}


@pytest.mark.parametrize("chain", sorted(DRAWN_CHAINS))
def test_draw_then_apply_equals_compose_byte_for_byte(chain):
    defenses = DRAWN_CHAINS[chain]
    _, _, g = obs_of(m=48)
    flat = g.flat.copy()
    flat[0] = -0.0
    if not any(isinstance(c, ClipDefense) for c in defenses):  # clip makes inf all NaN
        flat[[5, 60]] = [np.inf, np.nan]
    g = GradientObservation(flat, g.m, g.d)
    # every step acts on a coordinate alone: the chain can run on the a-block
    a_only = all(isinstance(c, (NoiseDefense, PruneThresholdDefense))
                 or getattr(c, "node_level", False) for c in defenses)
    for seed in (0, 11):
        draws = draw_chain(defenses, derive_seed(seed, 3), g.m, g.d)
        assert [d is None for d in draws] == [
            isinstance(c, (ClipDefense, PruneRatioDefense, PruneThresholdDefense))
            or (isinstance(c, NoiseDefense) and c.sigma0 == 0) for c in defenses]
        ref = interleaved_compose(defenses, g, derive_seed(seed, 3))
        if a_only:
            # numpy fills a draw in order: at layout (m, 0) each draw is the a-block
            # prefix of the full one, and the chain gives the full output's a-block
            a_draws = draw_chain(defenses, derive_seed(seed, 3), g.m, 0)
            assert [None if x is None else x.tobytes() for x in a_draws] == [
                None if x is None else x[:g.m].tobytes() for x in draws]
            a_block = compose_drawn(defenses, GradientObservation(g.grad_a.copy(), g.m, 0),
                                    a_draws)
            assert a_block.flat.tobytes() == ref.grad_a.tobytes()
        drawn = compose_drawn(defenses, g, draws)
        assert drawn.flat.tobytes() == ref.flat.tobytes()
        assert compose(defenses, g, derive_seed(seed, 3)).flat.tobytes() == ref.flat.tobytes()
        assert len(drawn.provenance) == len(ref.provenance) == len(defenses)
        for a, b in zip(drawn.provenance, ref.provenance):
            assert (a.variant, a.params, a.clip_factor) == (b.variant, b.params, b.clip_factor)
            assert (a.mask is None) == (b.mask is None)
            assert a.mask is None or np.array_equal(a.mask, b.mask)
    if chain == "noise-sigma0-zero":
        assert drawn.flat is g.flat  # no draw: the input's buffer is shared


def test_draw_chain_checks_the_chain_and_dropout_degeneracy():
    with pytest.raises(ConfigError):
        draw_chain([], 0, 4, 2)
    with pytest.raises(ConfigError):
        draw_chain([LocalAggregationDefense(steps=2)], 0, 4, 2)
    # the draw raises what apply raises: a 0.9 dropout of one unit drops it for some seed
    seed = next(s for s in range(100) if rng_from(derive_seed(s, 0)).random() < 0.9)
    with pytest.raises(DegenerateObservationError):
        draw_chain([DropoutDefense(0.9)], seed, 1, 3)


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


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ClipDefense(threshold=NAN),
        lambda: NoiseDefense(sigma0=NAN),
        lambda: PruneThresholdDefense(cutoff=NAN),
        lambda: LocalAggregationDefense(steps=2, eta_a=NAN),
        lambda: NoiseDefense(sigma0="0.1"),
        lambda: NoiseDefense(sigma0=0.1, clip_scale=-1.0),
        lambda: ClipDefense(threshold=0.0),
        lambda: PruneRatioDefense(ratio=NAN),
        lambda: DropoutDefense(rate=-0.1),
        lambda: DropoutDefense(rate=0.5, node_level="false"),
        lambda: LocalAggregationDefense(steps=2.0),
        lambda: LocalAggregationDefense(steps=2, fresh_batches=1),
        lambda: SecureAggregationDefense(batch_sizes=[]),
        lambda: SecureAggregationDefense(batch_sizes=[2, 0]),
        lambda: SecureAggregationDefense(batch_sizes=3),
    ],
)
def test_invalid_defense_cannot_be_constructed(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize(
    "spec",
    [
        {"variant": "noise", "sigma0": "0.1"},
        {"variant": "prune_threshold", "cutoff": NAN},
        {"variant": "clip", "threshold": NAN},
        {"variant": "local_aggregation", "steps": 2, "eta_a": NAN},
        {"variant": ["noise"], "sigma0": 0.1},
        "noise",
        3,
    ],
)
def test_invalid_defense_spec_is_a_config_error(spec):
    with pytest.raises(ConfigError):
        defense_from_dict(spec)


def test_variant_is_not_a_constructor_argument():
    assert NoiseDefense(sigma0=0.1).variant == "noise"
    with pytest.raises(TypeError):
        NoiseDefense(sigma0=0.1, variant="clip")
    assert "variant" not in {f.name for f in dataclasses.fields(NoiseDefense)}


def test_secure_aggregation_sizes_become_a_tuple():
    assert SecureAggregationDefense(batch_sizes=[2, 3]).batch_sizes == (2, 3)


# --- copy-free outputs -----------------------------------------------------

TRANSFORMS = {
    "noise": lambda g: NoiseDefense(0.3).apply(g, 2),
    "clip": lambda g: ClipDefense(0.5 * g.norm()).apply(g, 0),
    "prune_ratio": lambda g: PruneRatioDefense(0.4).apply(g, 0),
    "prune_threshold": lambda g: PruneThresholdDefense(1e-3).apply(g, 0),
    "dropout": lambda g: DropoutDefense(0.5).apply(g, 3),
    "dropout_coords": lambda g: DropoutDefense(0.5, node_level=False).apply(g, 3),
}
MASKING = ("prune_ratio", "prune_threshold", "dropout", "dropout_coords")


@pytest.mark.parametrize("name", MASKING)
def test_mask_equals_flat_product_bitwise(name):
    _, _, g = obs_of(d=5, m=64)
    out = TRANSFORMS[name](g)
    old = GradientObservation(g.flat * out.provenance[-1].mask, g.m, g.d)
    assert np.array_equal(out.grad_a, old.grad_a)
    assert np.array_equal(out.grad_W, old.grad_W)


@pytest.mark.parametrize("name,limit", [(n, 1.3) for n in MASKING] + [("noise", 1.05), ("clip", 1.05)])
def test_transform_allocates_one_output_buffer(name, limit):
    _, _, g = obs_of(d=16, m=4096)
    tracemalloc.start()
    try:
        out = TRANSFORMS[name](g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.flat.nbytes == g.flat.nbytes
    assert peak <= limit * g.flat.nbytes, peak / g.flat.nbytes


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
def test_writing_to_output_leaves_input_unchanged(name):
    _, _, g = obs_of(d=5, m=64)
    before = g.flat.copy()
    out = TRANSFORMS[name](g)
    for buf in (out.flat, out.grad_a, out.grad_W, g.flat, g.grad_a, g.grad_W):
        assert not buf.flags.writeable
        with pytest.raises(ValueError):
            buf[...] = 7.0
    record = out.provenance[-1]
    if record.mask is not None:
        with pytest.raises(ValueError):
            record.mask[...] = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.mask = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.provenance = ()
    assert np.array_equal(g.flat, before)
    assert g.provenance == ()

import math

import numpy as np
import pytest

from gradleak.activations import Activation
from gradleak.bounds import (
    bound_for_observation,
    dp_delta,
    dp_lambda_star,
    estimate_sensitivity,
    required_sigma,
)
from gradleak.defenses import ClipDefense, DefenseRecord, DropoutDefense, PruneRatioDefense
from gradleak.errors import ConfigError
from gradleak.network import GradientObservation, gradient, input_gram, sample_batch, sample_params
from oracles import (cramer_rao, input_jacobian, local_aggregation_jacobian_fd, loglog_slope,
                     pairwise_sensitivity)

SP = Activation("softplus")


def two_layer(d, m, B, seed):
    return sample_params(d, m, seed=seed, activation=SP), sample_batch(d, B, seed=seed + 77)


def two_layer_jacobian(d, m, B, seed):
    p, b = two_layer(d, m, B, seed)
    return p, b, input_jacobian(p, b)


# --- Cramer-Rao core --------------------------------------------------------

def test_identity_observation():
    d, sigma = 6, 0.3
    rep = cramer_rao(np.eye(d), sigma, B=1)
    assert rep.rl2_exact == pytest.approx(d * sigma**2, rel=1e-12)
    assert rep.rl2_loose == pytest.approx(d * sigma**2, rel=1e-12)


def test_diagonal_observation_hand_values():
    rep = cramer_rao(np.diag([1.0, 2.0]), sigma=1.0, B=1)
    assert rep.rl2_exact == pytest.approx(1.25, rel=1e-12)
    assert rep.rl2_loose == pytest.approx(0.8, rel=1e-12)


def test_loose_never_exceeds_exact_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n_in = int(rng.integers(2, 8))
        n_obs = int(rng.integers(n_in, 20))
        J = rng.standard_normal((n_in, n_obs))
        rep = cramer_rao(J, sigma=0.5, B=1)
        assert rep.rl2_loose <= rep.rl2_exact + 1e-9


def test_bound_monotone_in_sigma():
    _, _, J = two_layer_jacobian(6, 64, 2, seed=1)
    vals = [cramer_rao(J, s, 2).rl_exact for s in (0.05, 0.1, 0.2)]
    assert vals[0] < vals[1] < vals[2]


def test_column_deletion_never_decreases_exact_bound():
    rng = np.random.default_rng(2)
    _, _, J = two_layer_jacobian(5, 48, 2, seed=3)
    base = cramer_rao(J, 0.1, 2).rl2_exact
    for _ in range(5):
        keep = rng.random(J.shape[1]) > 0.3
        rep = cramer_rao(J[:, keep], 0.1, 2)
        assert rep.rl2_exact >= base - 1e-9


def test_no_information_is_infinite():
    rep = cramer_rao(np.zeros((4, 10)), 0.1, 1)
    assert math.isinf(rep.rl2_exact) and math.isinf(rep.rl2_loose)
    assert "no-information" in rep.flags


def test_two_layer_loose_bound_scales_with_width():
    d, B, sigma = 16, 2, 0.1
    sizes = (2**9, 2**10, 2**11, 2**12)
    med = []
    for m in sizes:
        vals = []
        for seed in range(3):
            p, b = two_layer(d, m, B, seed)
            vals.append(bound_for_observation(p, b, sigma, gradient(p, b)).rl_loose)
        med.append(np.median(vals))
    assert loglog_slope(sizes, med) == pytest.approx(-0.5, abs=0.15)


# --- defense adjustments ------------------------------------------------------

def test_clip_below_threshold_identity():
    p, b = two_layer(5, 32, 2, seed=5)
    g = gradient(p, b)
    rep = bound_for_observation(p, b, 0.1, ClipDefense(g.norm() * 2).apply(g, 0))
    base = bound_for_observation(p, b, 0.1, g)
    assert rep.rl2_exact == base.rl2_exact


def test_clip_factor_is_noise_rescaling():
    p, b = two_layer(5, 32, 2, seed=6)
    g = gradient(p, b)
    clipped = ClipDefense(g.norm() / 2.0).apply(g, 0)  # factor exactly 1/2
    rep = bound_for_observation(p, b, 0.1, clipped)
    doubled = bound_for_observation(p, b, 0.2, g)
    assert rep.rl2_exact == doubled.rl2_exact  # formula-level identity
    assert rep.rl2_loose == doubled.rl2_loose


def _assert_mass_law(masked, base):
    # rank unchanged: the loose bound is rank * sigma / sqrt(B * kept mass),
    # so it grows by exactly 1/sqrt(1 - destroyed fraction)
    assert masked.rank == base.rank == base.n_input_coords
    kept = 1.0 - masked.adjustments["mass_fraction_destroyed"]
    assert masked.rl_loose * math.sqrt(kept) == pytest.approx(base.rl_loose, rel=1e-12)


def test_prune_mask_mass_ratio():
    p, b = two_layer(4, 64, 2, seed=4)
    g = gradient(p, b)
    base = bound_for_observation(p, b, 0.1, g)
    for ratio in (0.5, 0.9):
        masked = bound_for_observation(p, b, 0.1, PruneRatioDefense(ratio).apply(g, 0))
        assert 0.0 < masked.adjustments["mass_fraction_destroyed"] < 1.0
        _assert_mass_law(masked, base)


def test_dropout_closed_form_scaling():
    p, b = two_layer(4, 256, 1, seed=7)
    g = gradient(p, b)
    base = bound_for_observation(p, b, 0.1, g)
    rep = bound_for_observation(p, b, 0.1, DropoutDefense(0.75).apply(g, 8))
    _assert_mass_law(rep, base)
    # exact form on the surviving columns should also exceed the base
    assert rep.rl2_exact >= base.rl2_exact - 1e-12
    # node dropout at rate p keeps about a (1 - p) share of the mass, so the
    # width law rl / sqrt(1 - p) holds in the median over seeds
    for rate in (0.5, 0.75):
        ratios = []
        for seed in range(5):
            p, b = two_layer(8, 2048, 2, seed)
            g = gradient(p, b)
            base = bound_for_observation(p, b, 0.1, g)
            rep = bound_for_observation(p, b, 0.1, DropoutDefense(rate).apply(g, 100 + seed))
            ratios.append(rep.rl_loose * math.sqrt(1.0 - rate) / base.rl_loose)
        assert np.median(ratios) == pytest.approx(1.0, abs=0.05), (rate, ratios)


def test_masking_everything_is_infinite():
    p, b = two_layer(4, 16, 1, seed=9)
    g = gradient(p, b)
    record = DefenseRecord(
        variant="prune_threshold",
        params={"cutoff": np.inf},
        mask=np.zeros(p.n_coords, dtype=bool),
    )
    g = GradientObservation(g.flat, g.m, g.d, (record,))
    rep = bound_for_observation(p, b, 0.1, g)
    assert math.isinf(rep.rl2_exact)


def test_local_aggregation_flagged():
    p, b = two_layer(4, 16, 1, seed=10)
    g = gradient(p, b)
    record = DefenseRecord(variant="local_aggregation", steps=2)
    g = GradientObservation(g.flat, g.m, g.d, (record,))
    rep = bound_for_observation(p, b, 0.1, g)
    assert any("local-aggregation" in f for f in rep.flags)


def test_prune_bound_grows_with_ratio_on_real_gradient():
    p, b = two_layer(4, 64, 2, seed=11)
    g = gradient(p, b)
    reps = []
    for ratio in (0.5, 0.9, 0.99):
        reps.append(bound_for_observation(p, b, 0.1, PruneRatioDefense(ratio).apply(g, 0)).rl2_exact)
    assert reps[0] <= reps[1] <= reps[2]


# --- privacy calculator --------------------------------------------------------

def test_dp_delta_vacuous_point():
    # optimum at zero: the guarantee degenerates to delta = 1
    assert dp_delta(epsilon=1.0, sigma_sq=1.0, sensitivity=2.0) == 1.0


def test_dp_delta_closed_form_value():
    val = dp_delta(epsilon=1.0, sigma_sq=20.0, sensitivity=2.0)
    assert val == pytest.approx(math.exp(-4.5125), rel=1e-12)
    assert val == pytest.approx(1.097e-2, rel=1e-3)


def test_dp_delta_monotone_in_sigma():
    eps, sens = 1.0, 2.0
    start = sens / (2 * eps) * (1 + 1e-3)
    grid = np.linspace(start, 100 * sens / eps, 200)
    vals = [dp_delta(eps, s, sens) for s in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_required_sigma_round_trip():
    for eps, delta, sens in ((1.0, 1e-5, 2.0), (0.5, 1e-6, 7.0), (3.0, 1e-3, 0.4)):
        s2 = required_sigma(eps, delta, sens)
        assert dp_delta(eps, s2, sens) == pytest.approx(delta, rel=1e-9)


def test_required_sigma_linear_in_sensitivity():
    s1 = required_sigma(1.0, 1e-5, 2.0)
    s2 = required_sigma(1.0, 1e-5, 4.0)
    assert s2 == pytest.approx(2.0 * s1, rel=1e-12)


def test_lambda_star_region():
    s2 = required_sigma(1.0, 1e-5, 2.0)
    assert dp_lambda_star(1.0, s2, 2.0) >= 1.0


def test_dp_parameter_validation():
    with pytest.raises(ConfigError):
        dp_delta(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        required_sigma(1.0, 1.5, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("arg", [0, 1, 2])
def test_dp_calculator_rejects_a_non_finite_argument(arg, bad):
    # epsilon, sigma_sq and sensitivity must be finite: NaN and inf pass a test
    # of x <= 0 and would come out as a NaN, 0 or vacuous delta
    forward = [1.0, 20.0, 2.0]
    forward[arg] = bad
    with pytest.raises(ConfigError, match="must be a finite number > 0"):
        dp_delta(*forward)
    if arg != 1:  # the inverse takes delta, not sigma_sq
        inverse = [1.0, 1e-5, 2.0]
        inverse[arg] = bad
        with pytest.raises(ConfigError, match="must be a finite number > 0"):
            required_sigma(*inverse)


# --- sensitivity ------------------------------------------------------------

def test_sensitivity_monotone_in_trials():
    p = sample_params(6, 128, seed=12, activation=SP)
    small = estimate_sensitivity(p, trials=10, seed=13)
    large = estimate_sensitivity(p, trials=50, seed=13)
    assert large >= small  # same stream prefix, growing max


@pytest.mark.parametrize("d, m, trials, seed", [(1, 4, 3, 0), (4, 8, 20, 3), (6, 64, 50, 11),
                                                (16, 256, 30, 2024)])
def test_sensitivity_matches_the_pairwise_oracle_bitwise(d, m, trials, seed):
    # the pairs come from the data model's own draw (network._draw_batch)
    p = sample_params(d, m, seed=seed + 1, activation=SP)
    assert estimate_sensitivity(p, trials, seed) == pairwise_sensitivity(p, trials, seed)


def test_sensitivity_scales_linearly_in_width():
    vals = {}
    for m in (256, 1024, 4096):
        p = sample_params(8, m, seed=14, activation=SP)
        vals[m] = estimate_sensitivity(p, trials=60, seed=15) / m
    ratios = max(vals.values()) / min(vals.values())
    assert ratios < 5.0


def test_rollout_jacobian_matches_single_step():
    p = sample_params(3, 8, seed=16, activation=SP)
    b = sample_batch(3, 2, seed=17)
    J_fd = local_aggregation_jacobian_fd(p, [b], eta_a=None, eta_w=None, steps=1)
    G, _ = input_gram(p, b)
    assert np.linalg.norm(J_fd @ J_fd.T - G) / np.linalg.norm(G) < 1e-4

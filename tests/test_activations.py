import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.stats import norm, qmc

from gradleak.activations import (
    Activation,
    ZERO_MOMENT_THRESHOLD,
    _gauss_hermite_rule,
    gauss_hermite_expectation,
    hermite_moments,
)
from gradleak.errors import ConfigError, NoInformativeOrderError


@pytest.mark.parametrize("kind", ["softplus", "exp", "cubic"])
def test_first_derivative_matches_finite_differences(kind):
    act = Activation(kind)
    rng = np.random.default_rng(3)
    z = rng.uniform(-5.0, 5.0, size=100)
    h = 1e-6
    fd = (act(z + h) - act(z - h)) / (2.0 * h)
    rel = np.abs(act.derivatives(z, 1)[1] - fd) / np.maximum(np.abs(fd), 1e-3)
    assert rel.max() < 1e-7


@pytest.mark.parametrize("kind", ["softplus", "exp", "cubic"])
def test_finite_on_wide_range(kind):
    act = Activation(kind)
    z = np.linspace(-50.0, 50.0, 2001)
    for order in (0, 1, 2):
        for s in act.derivatives(z, order):
            assert np.isfinite(s).all()


def test_softplus_orders():
    mo = hermite_moments(Activation("softplus"))
    # even first derivative makes the order-3 moment vanish, pushing the
    # tensor statistic to order 4
    assert (mo.matrix_order, mo.tensor_order) == (2, 4)
    assert abs(mo.raw[3]) < ZERO_MOMENT_THRESHOLD
    assert mo.matrix_weight == pytest.approx(0.2066, abs=2e-4)


def test_exp_orders_closed_form():
    # E[e^z He_k(z)] = E[e^z] = sqrt(e) for every k
    mo = hermite_moments(Activation("exp"))
    assert (mo.matrix_order, mo.tensor_order) == (2, 3)
    for k in range(5):
        assert mo.raw[k] == pytest.approx(np.sqrt(np.e), rel=1e-10)


def test_cubic_skips_to_order_three():
    mo = hermite_moments(Activation("cubic"))
    assert (mo.matrix_order, mo.tensor_order) == (3, 3)
    assert mo.matrix_weight == pytest.approx(6.0, rel=1e-10)


def test_vanishing_activation_has_no_informative_order():
    # a scale a config accepts can push every moment under the threshold
    with pytest.raises(NoInformativeOrderError, match=r"'exp\*1e-12'"):
        hermite_moments(Activation("exp", scale=1e-12))


def test_scale_multiplies_moments():
    base = hermite_moments(Activation("exp"))
    scaled = hermite_moments(Activation("exp", scale=1e-3))
    assert scaled.raw == pytest.approx(1e-3 * base.raw, rel=1e-12)
    assert (scaled.matrix_order, scaled.tensor_order) == (2, 3)


def sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# s, s' and s'' of each kind as separate literal numpy formulas
SEPARATE = {
    "softplus": (lambda z, c: c * np.logaddexp(0.0, z),
                 lambda z, c: c * sigmoid(z),
                 lambda z, c: c * sigmoid(z) * (1.0 - sigmoid(z))),
    "exp": (lambda z, c: c * np.exp(z),) * 3,
    "cubic": (lambda z, c: c * z**3, lambda z, c: 3.0 * c * z**2, lambda z, c: 6.0 * c * z),
}


@pytest.mark.parametrize("kind", ["exp", "softplus", "cubic"])
@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_derivatives_match_the_separate_callables_bitwise(kind, scale):
    act = Activation(kind, scale)
    z = np.linspace(-30.0, 30.0, 1001).reshape(7, 143)
    separate = [f(z, scale) for f in SEPARATE[kind]]
    assert np.array_equal(act(z), separate[0])
    for order in (0, 1, 2):
        got = act.derivatives(z, order)
        assert len(got) == order + 1
        for g, want in zip(got, separate):
            assert np.array_equal(g, want), (order, kind, scale)


def test_softplus_second_derivative_bitwise():
    z = np.linspace(-30.0, 30.0, 1001)
    for c in (1.0, 0.3):
        expected = c * sigmoid(z) * (1.0 - sigmoid(z))
        assert np.array_equal(Activation("softplus", c).derivatives(z, 2)[2], expected)


def test_exp_derivatives_share_one_read_only_array():
    s, s1, s2 = Activation("exp").derivatives(np.zeros(3), 2)
    assert s is s1 is s2
    with pytest.raises(ValueError):
        s1 *= 2.0


def test_parameter_validation():
    for kind, scale in [("softplus", 0.0), ("softplus", -1.0), ("exp", float("nan")),
                        ("exp", float("inf")), ("cubic", True), ("cubic", "2"),
                        ("relu6", 1.0), ("Softplus", 1.0), (None, 1.0)]:
        with pytest.raises(ConfigError):
            Activation(kind, scale)


def test_stein_self_consistency_sampling():
    """Quadrature values match a 10^6-sample estimate of E[s(z) He_k(z)].

    A scrambled low-discrepancy normal sample keeps the estimator error
    well under the 1e-3 budget that plain Monte-Carlo variance would blow
    at orders 3-4.
    """
    act = Activation("softplus")
    mo = hermite_moments(act)
    sob = qmc.Sobol(d=1, scramble=True, seed=11)
    u = sob.random(2**20).ravel()  # 1,048,576 standard normals
    z = norm.ppf(u)
    he = np.ones_like(z)
    he_prev = np.zeros_like(z)
    for k in range(5):
        est = float(np.mean(act(z) * he))
        assert abs(est - mo.raw[k]) < 1e-3, f"order {k}"
        he, he_prev = z * he - k * he_prev, he


def test_quadrature_rule_is_cached_and_read_only():
    z, w = _gauss_hermite_rule()
    assert _gauss_hermite_rule()[0] is z
    x, w_ref = hermgauss(128)
    assert np.array_equal(z, np.sqrt(2.0) * x) and np.array_equal(w, w_ref)
    for arr in (z, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    expected = float(np.sum(w_ref * np.cos(np.sqrt(2.0) * x)) / np.sqrt(np.pi))
    assert gauss_hermite_expectation(np.cos) == expected

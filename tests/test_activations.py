import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.stats import norm, qmc

from gradleak.activations import (
    Activation,
    ZERO_MOMENT_THRESHOLD,
    _gauss_hermite_rule,
    _sigmoid,
    gauss_hermite_expectation,
    hermite_moments,
    make_activation,
)
from gradleak.errors import ConfigError, NoInformativeOrderError, UnsupportedActivationError
from gradleak.network import gradient, loss, sample_batch, sample_params


@pytest.mark.parametrize("kind", ["softplus", "exp", "cubic"])
def test_first_derivative_matches_finite_differences(kind):
    act = make_activation(kind)
    rng = np.random.default_rng(3)
    z = rng.uniform(-5.0, 5.0, size=100)
    h = 1e-6
    fd = (act(z + h) - act(z - h)) / (2.0 * h)
    rel = np.abs(act.derivative(z) - fd) / np.maximum(np.abs(fd), 1e-3)
    assert rel.max() < 1e-7


@pytest.mark.parametrize("kind", ["softplus", "exp", "cubic"])
def test_finite_on_wide_range(kind):
    act = make_activation(kind)
    z = np.linspace(-50.0, 50.0, 2001)
    separate = (act(z), act.derivative(z), act.second_derivative(z))
    for s in (*separate, *act.derivatives(z, 1), *act.derivatives(z, 2)):
        assert np.isfinite(s).all()


def test_softplus_orders():
    mo = hermite_moments(make_activation("softplus"))
    # even first derivative makes the order-3 moment vanish, pushing the
    # tensor statistic to order 4
    assert (mo.matrix_order, mo.tensor_order) == (2, 4)
    assert abs(mo.raw[3]) < ZERO_MOMENT_THRESHOLD
    assert mo.matrix_weight == pytest.approx(0.2066, abs=2e-4)


def test_exp_orders_closed_form():
    # E[e^z He_k(z)] = E[e^z] = sqrt(e) for every k
    mo = hermite_moments(make_activation("exp"))
    assert (mo.matrix_order, mo.tensor_order) == (2, 3)
    for k in range(5):
        assert mo.raw[k] == pytest.approx(np.sqrt(np.e), rel=1e-10)


def test_cubic_skips_to_order_three():
    mo = hermite_moments(make_activation("cubic"))
    assert (mo.matrix_order, mo.tensor_order) == (3, 3)
    assert mo.matrix_weight == pytest.approx(6.0, rel=1e-10)


def test_odd_activation_skips_order_two():
    tanh = Activation(
        name="tanh",
        value=np.tanh,
        derivative=lambda z: 1.0 - np.tanh(z) ** 2,
        second_derivative=lambda z: -2.0 * np.tanh(z) * (1.0 - np.tanh(z) ** 2),
    )
    mo = hermite_moments(tanh)
    assert abs(mo.raw[2]) < ZERO_MOMENT_THRESHOLD
    assert mo.matrix_order == 3


def test_linear_activation_has_no_informative_order():
    lin = Activation(name="linear", value=lambda z: z, derivative=np.ones_like)
    with pytest.raises(NoInformativeOrderError):
        hermite_moments(lin)


def test_scale_multiplies_moments():
    base = hermite_moments(make_activation("exp"))
    scaled = hermite_moments(make_activation("exp", scale=1e-3))
    assert scaled.raw == pytest.approx(1e-3 * base.raw, rel=1e-12)
    assert (scaled.matrix_order, scaled.tensor_order) == (2, 3)


def test_missing_second_derivative_raises():
    act = Activation(name="abs", value=np.abs, derivative=np.sign)
    with pytest.raises(UnsupportedActivationError):
        act.derivatives(np.zeros(3), 2)


@pytest.mark.parametrize("kind", ["exp", "softplus", "cubic"])
@pytest.mark.parametrize("scale", [1.0, 0.37])
def test_derivatives_match_the_separate_callables_bitwise(kind, scale):
    act = make_activation(kind, scale)
    z = np.linspace(-30.0, 30.0, 1001).reshape(7, 143)
    separate = (act.value(z), act.derivative(z), act.second_derivative(z))
    for order in (1, 2):
        joint = act.derivatives(z, order)
        assert len(joint) == order + 1
        for got, want in zip(joint, separate):
            assert np.array_equal(got, want), (order, kind, scale)


def test_exp_derivatives_share_one_read_only_array():
    s, s1, s2 = make_activation("exp").derivatives(np.zeros(3), 2)
    assert s is s1 is s2
    with pytest.raises(ValueError):
        s1 *= 2.0


def test_derivatives_without_second_derivative():
    act = Activation(name="abs", value=np.abs, derivative=np.sign)
    z = np.linspace(-1.0, 1.0, 5)
    s, s1 = act.derivatives(z, 1)
    assert np.array_equal(s, np.abs(z)) and np.array_equal(s1, np.sign(z))
    # gradient and loss need only order 1 (order 2 raises, see the test above)
    p = sample_params(3, 16, seed=1, activation=act)
    b = sample_batch(3, 2, seed=2)
    assert np.isfinite(gradient(p, b).flat).all()
    assert loss(p, b) >= 0.0


def test_parameter_validation():
    with pytest.raises(ConfigError):
        hermite_moments(make_activation("softplus"), k_max=3)
    with pytest.raises(ConfigError):
        hermite_moments(make_activation("softplus"), quad_nodes=32)
    with pytest.raises(ConfigError):
        make_activation("softplus", scale=0.0)
    with pytest.raises(ConfigError):
        make_activation("relu6")


def test_stein_self_consistency_sampling():
    """Quadrature values match a 10^6-sample estimate of E[s(z) He_k(z)].

    A scrambled low-discrepancy normal sample keeps the estimator error
    well under the 1e-3 budget that plain Monte-Carlo variance would blow
    at orders 3-4.
    """
    act = make_activation("softplus")
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


def test_softplus_second_derivative_bitwise():
    z = np.linspace(-30.0, 30.0, 1001)
    for c in (1.0, 0.3):
        expected = c * _sigmoid(z) * (1.0 - _sigmoid(z))
        assert np.array_equal(make_activation("softplus", c).derivatives(z, 2)[2], expected)


def test_quadrature_rule_is_cached_and_read_only():
    z, w = _gauss_hermite_rule(128)
    assert _gauss_hermite_rule(128)[0] is z
    x, w_ref = hermgauss(128)
    assert np.array_equal(z, np.sqrt(2.0) * x) and np.array_equal(w, w_ref)
    for arr in (z, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    expected = float(np.sum(w_ref * np.cos(np.sqrt(2.0) * x)) / np.sqrt(np.pi))
    assert gauss_hermite_expectation(np.cos) == expected

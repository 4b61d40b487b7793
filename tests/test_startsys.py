import numpy as np
import pytest

from paramsweep.poly import instantiate, parse_system, variable_degrees
from paramsweep.startsys import (
    build_homotopy,
    random_gamma,
    total_degree_homotopy,
    total_degree_start,
)


def _value(system, z):
    """The value of an instantiated system at z."""
    return system.eval_and_jac(z)[0]


def test_degree_two_roots():
    sols = total_degree_start([2])
    assert sols.shape == (2, 1)
    assert np.allclose(sorted(sols[:, 0].real), [-1.0, 1.0], atol=1e-15)


def test_solution_count_product():
    # one row per start solution, one column per variable
    assert total_degree_start([2, 3]).shape == (6, 2)
    assert total_degree_start([3, 3, 3, 3]).shape == (81, 4)


def test_zero_degree_rejected():
    with pytest.raises(ValueError):
        total_degree_start([2, 0])


def test_start_points_satisfy_system():
    # the start points solve Step 1's homotopy at t = 1, where H = gamma*g
    # and |H| = |g|
    sys = parse_system(
        "variable x, y, w; parameter a; function f, g, h;"
        "f = x^2 - a; g = y^3 + a*x - 2; h = w^3 - y;"
    )
    sols = total_degree_start(variable_degrees(sys))
    gamma = random_gamma(np.random.default_rng(8))
    h = total_degree_homotopy(sys, np.array([0.4 + 0.3j]), gamma)
    assert sols.shape == (18, 3)
    for z in sols:
        assert np.max(np.abs(_value(h.at(1.0, [0]), z))) < 1e-12


def test_lexicographic_enumeration_order():
    sols = total_degree_start([2, 3])
    w = np.exp(2j * np.pi / 3)
    expected = [
        (1, 1), (1, w), (1, w**2),
        (-1, 1), (-1, w), (-1, w**2),
    ]
    assert np.allclose(sols, np.array(expected), atol=1e-15)


def test_random_gamma_unit_modulus():
    rng = np.random.default_rng(42)
    g = random_gamma(rng)
    assert abs(abs(g) - 1.0) < 1e-15


def test_random_gamma_seed_behaviour():
    g1 = random_gamma(np.random.default_rng(1))
    g2 = random_gamma(np.random.default_rng(2))
    g1_again = random_gamma(np.random.default_rng(1))
    assert g1 != g2
    assert g1 == g1_again


QUAD = parse_system("variable z; parameter p; function f; f = z^2 - p;")


def test_parameter_homotopy_hand_values():
    h = build_homotopy(QUAD, [[4.0]], [1.0])
    z = np.array([1.0 + 0j])
    # H(1, 0.5) = 0.5*(1-4) + 0.5*(1-1) = -1.5
    assert _value(h.at(0.5, [0]), z)[0] == pytest.approx(-1.5)
    # dH/dt = -(1-4) + (1-1) = 3
    assert h.tangent_data(z, 0.5, [0])[0][0] == pytest.approx(3.0)


TWO_VARS = parse_system(
    "variable u, v; parameter a; function f, g; f = u^2*v - a; g = v^3 + a*u - 2;"
)
# base coefficients that are not powers of two, on monomials of every
# parameter degree up to 2
ODD = parse_system(
    "variable z; parameter p, q; function f; f = 3.5*z^2 - p*z - 1.25 + 0.3*q^2*z^3;"
)


def _start_value(sys, z):
    """g(z) = z_i^{d_i} - 1, d_i the variable degree of ``sys``'s function i."""
    return z ** np.array(variable_degrees(sys)) - 1


def test_endpoint_identities():
    # Step 1's homotopy is F(., p0) at t = 0 and gamma*g at t = 1
    rng = np.random.default_rng(5)
    for sys in (TWO_VARS, ODD):
        p0 = rng.standard_normal(sys.n_params) + 1j * rng.standard_normal(sys.n_params)
        target = instantiate(sys, p0)
        gamma = random_gamma(rng)
        h = total_degree_homotopy(sys, p0, gamma)
        for _ in range(20):
            z = rng.standard_normal(sys.n_vars) + 1j * rng.standard_normal(sys.n_vars)
            at_0, at_1 = _value(h.at(0.0, [0]), z), _value(h.at(1.0, [0]), z)
            assert np.max(np.abs(at_0 - _value(target, z))) < 1e-12
            assert np.max(np.abs(at_1 - gamma * _start_value(sys, z))) < 1e-12


def test_stacked_targets_instantiate_bitwise():
    # at t = 0 each target's coefficients are instantiate's, bit for bit,
    # though 3.5, 1.25 and 0.3 are no powers of two
    rng = np.random.default_rng(6)
    targets = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    h = build_homotopy(ODD, targets, np.array([0.3 - 0.8j, 1.1 + 0.2j]))
    assert h.n_points == 5
    for k, p in enumerate(targets):
        assert np.array_equal(h.at(0.0, [k]).coeffs, instantiate(ODD, p).coeffs)


def test_dh_dt_is_the_difference_of_the_endpoints():
    # dH/dt = F(z; source) - F(z; target_k) on every target of a stack
    rng = np.random.default_rng(7)
    targets = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    source = np.array([0.3 - 0.8j, 1.1 + 0.2j])
    h = build_homotopy(ODD, targets, source)
    for _ in range(10):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        t = rng.uniform()
        for k, p in enumerate(targets):
            expected = _value(instantiate(ODD, source), z) - _value(instantiate(ODD, p), z)
            assert np.max(np.abs(h.tangent_data(z, t, [k])[0] - expected)) < 1e-12


def test_dt_matches_finite_differences():
    rng = np.random.default_rng(9)
    h = total_degree_homotopy(TWO_VARS, np.array([0.7 + 0.4j]), random_gamma(rng))
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = rng.uniform(0.1, 0.9)
        eps = 1e-7
        fd = (_value(h.at(t + eps, [0]), z) - _value(h.at(t - eps, [0]), z)) / (2 * eps)
        assert np.max(np.abs(h.tangent_data(z, t, [0])[0] - fd)) < 1e-6


def test_jacobian_blend():
    h = build_homotopy(QUAD, [[4.0]], [1.0])
    z = np.array([2.0 + 1.0j])
    t = 0.3
    # both endpoint systems are z^2 - c, so J_H = 2z at any t
    assert h.tangent_data(z, t, [0])[1][0, 0] == pytest.approx(2 * (2.0 + 1.0j))


@pytest.mark.parametrize("targets", [
    [[4.0, 1.0]],          # two values for the family's one parameter
    [4.0],                 # one point, not a (k, 1) array
    np.zeros((2, 0)),      # no value
])
def test_build_homotopy_refuses_targets_of_another_parameter_count(targets):
    # the message names the family's parameter count and the shape given
    with pytest.raises(ValueError, match=r"\(k, 1\) array for a family of 1 parameters") as err:
        build_homotopy(QUAD, targets, [1.0])
    assert f"got shape {np.shape(targets)}" in str(err.value)


@pytest.mark.parametrize("source", [[1.0, 2.0], [[1.0]], []])
def test_build_homotopy_refuses_a_source_of_another_parameter_count(source):
    with pytest.raises(ValueError, match="must hold 1 parameter values") as err:
        build_homotopy(QUAD, [[4.0]], source)
    assert f"got shape {np.shape(source)}" in str(err.value)

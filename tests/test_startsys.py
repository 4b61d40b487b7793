import numpy as np
import pytest

from paramsweep.poly import instantiate, parse_system
from paramsweep.startsys import (
    Homotopy,
    build_homotopy,
    random_gamma,
    total_degree_start,
)


def _value(system, z):
    """The value of an instantiated system at z."""
    return system.eval_and_jac(z)[0]


def test_degree_two_roots():
    ss = total_degree_start([2])
    sols = ss.solutions()
    assert len(sols) == 2
    vals = sorted(complex(s[0]).real for s in sols)
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-15)


def test_solution_count_product():
    assert total_degree_start([2, 3]).n_solutions == 6
    assert len(total_degree_start([2, 3]).solutions()) == 6
    assert total_degree_start([3, 3, 3, 3]).n_solutions == 81


def test_zero_degree_rejected():
    with pytest.raises(ValueError):
        total_degree_start([2, 0])


def test_start_points_satisfy_system():
    ss = total_degree_start([2, 3, 3])
    g = ss.as_instantiated()
    sols = ss.solutions()
    assert len(sols) == 18
    for z in sols:
        assert np.max(np.abs(_value(g, z))) < 1e-12


def test_lexicographic_enumeration_order():
    ss = total_degree_start([2, 3])
    sols = ss.solutions()
    w = np.exp(2j * np.pi / 3)
    expected = [
        (1, 1), (1, w), (1, w**2),
        (-1, 1), (-1, w), (-1, w**2),
    ]
    for got, exp in zip(sols, expected):
        assert np.allclose(got, np.array(exp), atol=1e-15)


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


def _quad_pair():
    sys = parse_system("variable z; parameter p; function f; f = z^2 - p;")
    target = instantiate(sys, np.array([4.0 + 0j]))
    source = instantiate(sys, np.array([1.0 + 0j]))
    return target, source


def test_parameter_homotopy_hand_values():
    target, source = _quad_pair()
    h = build_homotopy(target, source, gamma=1.0)
    z = np.array([1.0 + 0j])
    # H(1, 0.5) = 0.5*(1-4) + 0.5*(1-1) = -1.5
    assert _value(h.at(0.5), z)[0] == pytest.approx(-1.5)
    # dH/dt = -(1-4) + (1-1) = 3
    assert h.tangent_data(z, 0.5)[0][0] == pytest.approx(3.0)


def test_parameter_homotopy_requires_unit_gamma():
    target, source = _quad_pair()
    with pytest.raises(ValueError, match="gamma"):
        build_homotopy(target, source, gamma=0.5 + 0.5j)


def test_endpoint_identities():
    rng = np.random.default_rng(5)
    sys = parse_system(
        "variable u, v; parameter a; function f, g; f = u^2*v - a; g = v^3 + a*u - 2;"
    )
    target = instantiate(sys, np.array([1.3 - 0.2j]))
    start = total_degree_start([3, 3])
    gamma = random_gamma(rng)
    h = build_homotopy(target, start, gamma)
    g = start.as_instantiated()
    for _ in range(20):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.max(np.abs(_value(h.at(0.0), z) - _value(target, z))) < 1e-12
        assert np.max(np.abs(_value(h.at(1.0), z) - gamma * _value(g, z))) < 1e-12


def test_dt_matches_finite_differences():
    rng = np.random.default_rng(9)
    sys = parse_system(
        "variable u, v; parameter a; function f, g; f = u^2*v - a; g = v^3 + a*u - 2;"
    )
    target = instantiate(sys, np.array([0.7 + 0.4j]))
    h = build_homotopy(target, total_degree_start([3, 3]), random_gamma(rng))
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        t = rng.uniform(0.1, 0.9)
        eps = 1e-7
        fd = (_value(h.at(t + eps), z) - _value(h.at(t - eps), z)) / (2 * eps)
        assert np.max(np.abs(h.tangent_data(z, t)[0] - fd)) < 1e-6


def test_jacobian_blend():
    target, source = _quad_pair()
    h = build_homotopy(target, source, gamma=1.0)
    z = np.array([2.0 + 1.0j])
    t = 0.3
    # both endpoint systems are z^2 - c, so J_H = 2z at any t
    assert h.tangent_data(z, t)[1][0, 0] == pytest.approx(2 * (2.0 + 1.0j))


def test_homotopy_dimension_mismatch():
    sys1 = parse_system("variable z; function f; f = z^2 - 1;")
    sys2 = parse_system("variable u, v; function f, g; f = u; g = v;")
    t1 = instantiate(sys1, np.zeros(0, dtype=complex))
    t2 = instantiate(sys2, np.zeros(0, dtype=complex))
    with pytest.raises(ValueError, match="dimension"):
        Homotopy(t1, t2, 1.0)

import numpy as np
import pytest

from paramsweep.poly import (
    ParamSystem,
    ParseError,
    Term,
    parse_system,
    variable_degrees,
)
from conftest import CUBE_TEXT, MONKS_TEXT, instantiate


def _eval(sys, z, p):
    """F(z, p) and its N x N matrix of variable partials."""
    st, c = instantiate(sys, p)
    return st.eval_and_jac(c, c, z)


def _value(sys, z, p):
    """F(z, p)."""
    return _eval(sys, z, p)[0]


def _jacobian(sys, z, p):
    """The N x N matrix of variable partials at (z, p)."""
    return _eval(sys, z, p)[1]


def test_parse_basic_quadratic():
    sys = parse_system("variable z1; parameter p1; function f1; f1 = z1^2 - p1;")
    assert sys.var_names == ("z1",)
    assert sys.param_names == ("p1",)
    assert len(sys.functions) == 1
    terms = set(sys.functions[0])
    assert terms == {
        Term(-1.0 + 0j, (0,), (1,)),
        Term(1.0 + 0j, (2,), (0,)),
    }


def test_parse_cube_with_aggregate_parameters():
    # The x^6/y^6 coefficients can themselves be treated as the parameters.
    sys = parse_system("variable z; parameter x6, y6; function f; f = x6 + y6 + z^6 - 1;")
    assert sys.n_vars == 1
    assert sys.n_params == 2
    assert variable_degrees(sys) == (6,)


def test_parse_non_square_rejected():
    with pytest.raises(ParseError, match="non-square"):
        parse_system(
            "variable a, b, c; function f1, f2; f1 = a*b; f2 = c;"
        )


def test_parse_undeclared_identifier():
    with pytest.raises(ParseError, match="undeclared identifier 'w'"):
        parse_system("variable z; function f; f = z + w;")


def test_parse_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate declaration"):
        parse_system("variable z; parameter z; function f; f = z;")


def test_parse_negative_exponent():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_system("variable z; function f; f = z^-2;")


def test_parse_fractional_exponent():
    with pytest.raises(ParseError, match="exponent must be"):
        parse_system("variable z; function f; f = z^2.5;")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_system("variable z;\nfunction f;\nf = z + q;")
    assert err.value.line == 3
    assert err.value.col == 9


def test_parse_imaginary_unit_and_scientific():
    sys = parse_system("variable z; function f; f = 2.5e-1*I*z + 1e2;")
    terms = set(sys.functions[0])
    assert terms == {Term(0.25j, (1,), ()), Term(100.0 + 0j, (0,), ())}


def test_parse_expansion_merges_terms():
    # (z+1)^2 - z^2 - 2*z expands and collapses to the constant 1
    sys = parse_system("variable z; function f; f = (z+1)^2 - z^2 - 2*z;")
    assert sys.functions[0] == (Term(1.0 + 0j, (0,), ()),)


def test_evaluate_quadratic():
    sys = parse_system("variable z; parameter p; function f; f = z^2 - p;")
    out = _value(sys, np.array([2.0 + 0j]), np.array([1.0 + 0j]))
    assert out.shape == (1,)
    assert out[0] == 3.0 + 0j


def test_evaluate_cube_at_root():
    sys = parse_system(CUBE_TEXT)
    out = _value(sys, np.array([1.0 + 0j]), np.array([0j, 0j]))
    assert out[0] == 0j


def test_evaluate_monks_origin():
    sys = parse_system(MONKS_TEXT)
    z = np.zeros(4, dtype=complex)
    p = np.array([0.3 + 0.1j, 1.7 - 0.4j, 2.0 + 0j])
    assert np.all(_value(sys, z, p) == 0)


def test_evaluate_dimension_mismatch():
    sys = parse_system(CUBE_TEXT)
    with pytest.raises(ValueError):
        instantiate(sys, np.array([0j]))


def test_eval_and_jac_refuses_a_point_of_the_wrong_length():
    # one variable: [2, 3] is two values for z, not a point
    cube = parse_system(CUBE_TEXT)
    with pytest.raises(ValueError, match=r"\(1,\) or \(B, 1\).*\(2,\)"):
        _eval(cube, np.array([2.0 + 0j, 3.0 + 0j]), np.array([0j, 0j]))
    monks, p = parse_system(MONKS_TEXT), np.array([0.3 + 0.1j, 1.7 - 0.4j, 2.0 + 0j])
    with pytest.raises(ValueError, match=r"got \(3, 5\)"):
        _eval(monks, np.zeros((3, 5), dtype=complex), p)
    f, jac = _eval(monks, np.zeros((3, 4), dtype=complex), p)
    assert f.shape == (3, 4) and jac.shape == (3, 4, 4)


def test_jacobian_univariate():
    sys = parse_system("variable z; parameter p; function f; f = z^2 - p;")
    jac = _jacobian(sys, np.array([2.0 + 0j]), np.array([1.0 + 0j]))
    assert jac.shape == (1, 1)
    assert jac[0, 0] == 4.0 + 0j


def test_jacobian_bilinear():
    sys = parse_system("variable z1, z2; function f1, f2; f1 = z1*z2; f2 = z1 + z2;")
    jac = _jacobian(sys, np.array([3.0 + 0j, 5.0 + 0j]), np.zeros(0, dtype=complex))
    assert jac[0, 0] == 5.0 + 0j
    assert jac[0, 1] == 3.0 + 0j


def _random_system(rng, n_vars, n_params, degree, n_terms):
    funcs = []
    for _ in range(n_vars):
        terms = {}
        for _ in range(n_terms):
            ve = tuple(int(x) for x in rng.integers(0, degree + 1, n_vars))
            if sum(ve) > degree:
                continue
            pe = tuple(int(x) for x in rng.integers(0, 2, n_params))
            c = complex(rng.standard_normal(), rng.standard_normal())
            terms[(ve, pe)] = terms.get((ve, pe), 0) + c
        if not terms:
            terms[((0,) * n_vars, (0,) * n_params)] = 1.0 + 0j
        funcs.append(
            tuple(
                Term(c, ve, pe)
                for (ve, pe), c in sorted(terms.items())
            )
        )
    names_v = tuple(f"z{i}" for i in range(n_vars))
    names_p = tuple(f"p{i}" for i in range(n_params))
    return ParamSystem(names_v, names_p, tuple(funcs))


def test_jacobian_matches_finite_differences():
    # independent oracle: central differences with h = 1e-7
    rng = np.random.default_rng(7)
    for trial in range(5):
        sys = _random_system(rng, n_vars=3, n_params=2, degree=3, n_terms=8)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        jac = _jacobian(sys, z, p)
        h = 1e-7
        fd = np.zeros_like(jac)
        for j in range(3):
            dz = np.zeros(3, dtype=complex)
            dz[j] = h
            fd[:, j] = (_value(sys, z + dz, p) - _value(sys, z - dz, p)) / (2 * h)
        scale = max(1.0, np.max(np.abs(jac)))
        assert np.max(np.abs(jac - fd)) / scale < 1e-6


def test_variable_degrees_cube_and_monks():
    assert variable_degrees(parse_system(CUBE_TEXT)) == (6,)
    assert variable_degrees(parse_system(MONKS_TEXT)) == (3, 3, 3, 3)


def test_variable_degrees_exclude_parameters():
    sys = parse_system("variable z1; parameter p1; function f; f = p1^3*z1^2;")
    assert variable_degrees(sys) == (2,)


def test_instantiate_quadratic():
    sys = parse_system("variable z; parameter p; function f; f = z^2 - p;")
    f, jac = _eval(sys, np.array([3.0 + 0j]), np.array([4.0 + 0j]))
    assert f[0] == 5.0 + 0j
    assert jac[0, 0] == 6.0 + 0j
    # a function with no terms, and one constant in z: no Jacobian term
    for definition, value in (("0", 0j), ("p", 4.0 + 0j)):
        sys = parse_system(f"variable z; parameter p; function f; f = {definition};")
        f, jac = _eval(sys, np.array([3.0 + 0j]), np.array([4.0 + 0j]))
        assert f[0] == value
        assert jac[0, 0] == 0


def test_functions_without_variable_terms_next_to_an_ordinary_one():
    # f has no terms and g is constant in the variables: their values are
    # 0 and p*q^2, their Jacobian rows all zero, at one point and in a batch
    sys = parse_system(
        "variable x, y, w; parameter p, q; function f, g, h;"
        "f = 0; g = p*q^2; h = x*y^2*w - q*x^3 + 2;"
    )
    rng = np.random.default_rng(4)
    p, q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    st, c = instantiate(sys, np.array([p, q]))
    zs = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    f, jac = st.eval_and_jac(c, c, zs)
    assert np.array_equal(st.evaluate(c, zs), f)
    assert np.array_equal(st.jacobian(c, zs), jac)
    for k, (x, y, w) in enumerate(zs):
        expected = [0, p * q**2, x * y**2 * w - q * x**3 + 2]
        assert np.allclose(f[k], expected, rtol=1e-14, atol=0)
        assert not jac[k, :2].any()
        row = [y**2 * w - 3 * q * x**2, 2 * x * y * w, x * y**2]
        assert np.allclose(jac[k, 2], row, rtol=1e-14, atol=0)
        f_k, jac_k = st.eval_and_jac(c, c, zs[k])
        assert np.array_equal(f_k, f[k]) and np.array_equal(jac_k, jac[k])


def test_instantiate_cube_at_ones():
    sys = parse_system(CUBE_TEXT)
    # z^6 + 1
    for z in [0j, 1.0 + 0j, 2.0 - 1.0j]:
        assert _value(sys, np.array([z]), np.array([1.0 + 0j, 1.0 + 0j]))[0] == z**6 + 1.0


def test_instantiate_matches_evaluate_bitwise():
    # 100 instantiations stacked into one evaluation, a column of
    # coefficients per point, give each point bit for bit what it gets alone
    rng = np.random.default_rng(11)
    sys = _random_system(rng, n_vars=2, n_params=3, degree=4, n_terms=10)
    zs, ps = [], []
    for _ in range(100):
        zs.append(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        ps.append(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    st = instantiate(sys, ps[0])[0]
    stacked = np.hstack([instantiate(sys, p)[1] for p in ps])
    f, jac = st.eval_and_jac(stacked, stacked, np.array(zs))
    for k, (p, z) in enumerate(zip(ps, zs)):
        f_k, jac_k = _eval(sys, z, p)
        assert np.array_equal(f[k], f_k)
        assert np.array_equal(jac[k], jac_k)


def test_degrees_invariant_under_renaming_and_reordering():
    rng = np.random.default_rng(3)
    sys = _random_system(rng, n_vars=3, n_params=2, degree=4, n_terms=9)
    degs = variable_degrees(sys)
    renamed = ParamSystem(sys.var_names, ("qa", "qb"), sys.functions)
    assert variable_degrees(renamed) == degs
    shuffled = ParamSystem(
        sys.var_names,
        sys.param_names,
        tuple(tuple(reversed(fn)) for fn in sys.functions),
    )
    assert variable_degrees(shuffled) == degs


def test_comments_are_skipped():
    sys = parse_system(
        "% leading comment\nvariable z; # trailing\nfunction f;\nf = z; % tail\n"
    )
    assert sys.functions[0] == (Term(1.0 + 0j, (1,), ()),)

import numpy as np
import pytest

from paramsweep.poly import parse_system, term_structure

# Sextic surface slice: z is the only variable, x and y act as parameters.
CUBE_TEXT = """
variable z;
parameter x, y;
function f;
f = x^6 + y^6 + z^6 - 1;
"""

# Coupled wave-amplitude equilibrium system (conjugates dropped, so pure
# real solutions of the original ODE system are roots of this one).
# S = 2*(z0^2 + z1^2 + z2^2 + z3^2) is inlined into each equation.
MONKS_TEXT = """
variable z0, z1, z2, z3;
parameter mu0, mu1, g;
function f0, f1, f2, f3;
f0 = mu0*z0 + z1*z2 - g*z0*(2*(z0^2+z1^2+z2^2+z3^2) - z0^2);
f1 = mu1*z1 + z0*z2 + z2*z3 - g*z1*(2*(z0^2+z1^2+z2^2+z3^2) - z1^2);
f2 = mu1*z2 + z0*z1 + z1*z3 - g*z2*(2*(z0^2+z1^2+z2^2+z3^2) - z2^2);
f3 = mu0*z3 + z1*z2 - g*z3*(2*(z0^2+z1^2+z2^2+z3^2) - z3^2);
"""

QUAD_TEXT = """
variable z;
parameter p;
function f;
f = z^2 - p;
"""


@pytest.fixture(scope="session")
def cube_system():
    return parse_system(CUBE_TEXT)


@pytest.fixture(scope="session")
def monks_system():
    return parse_system(MONKS_TEXT)


@pytest.fixture(scope="session")
def quad_system():
    return parse_system(QUAD_TEXT)


def instantiate(sys, p):
    """F(., p) as ``(structure, coeffs)``: the term structure of ``sys`` and
    its (n_terms, 1) coefficients at the parameter point ``p``, the
    reference the homotopies' coefficients are checked against."""
    p = np.asarray(p, dtype=complex)
    if p.shape != (sys.n_params,):
        raise ValueError(f"expected {sys.n_params} parameter values, got {p.shape}")
    st = term_structure(sys)
    return st, st.base_coeffs[:, None] * st.param_monomials(p[None])[st.block]


def value_at(h, t, z):
    """H(z, t) on the first target of the homotopy ``h``."""
    c = h.at(t, [0])
    return h.structure.eval_and_jac(c, c, z)[0]


def set_distance(a, b):
    """Hausdorff-style distance between two finite point sets (inf-norm)."""
    a = [np.asarray(x, dtype=complex) for x in a]
    b = [np.asarray(x, dtype=complex) for x in b]
    if len(a) != len(b):
        return np.inf
    if not a:
        return 0.0
    d1 = max(min(np.max(np.abs(x - y)) for y in b) for x in a)
    d2 = max(min(np.max(np.abs(x - y)) for y in a) for x in b)
    return max(d1, d2)

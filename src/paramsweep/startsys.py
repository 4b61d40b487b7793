"""Total-degree start systems and the parameter homotopy of both steps.

The start system g_i(z) = z_i^{d_i} - 1, d_i the degree of F's function i
in the variables, has prod(d_i) trivially enumerable solutions (tuples of
roots of unity); ``total_degree_start`` returns them as the
(prod(d_i), N) array that ``tracker.track_many`` takes.

Every homotopy here is a parameter homotopy of one family F(z; p): it
moves the parameters from a source point (t = 1) to a target point
(t = 0).  Every term of a family has one parameter monomial q, so with
the terms grouped into blocks by q (``TermStructure.block``), row b of a
homotopy is

    H_b(z, t) = sum_k base_k * w_{q_k}(b, t) * z^{e_k},
    w(b, t) = w_target[:, b] + t * (w_source - w_target[:, b]),

where w_target[:, b] holds the monomials of row b's target point and
w_source those of the source.  dH/dt takes the weights w_source -
w_target on the same terms.  Evaluating H, its z-Jacobian or dH/dt at any
t costs one weight blend plus one sparse evaluation.  A homotopy holds a
stack of targets with one source, so that a batch of parameter points is
tracked as one batch of rows; a single target is a stack of one.

Step 2 tracks from the round's start point to its batch of targets
(``build_homotopy``).  Step 1 is a parameter homotopy too
(``total_degree_homotopy``), of the extended family a*F(z; p) + s*g(z),
the start terms appended after each function's own terms, from
(p, a, s) = (0, 0, gamma), where H = gamma*g, to (p0, 1, 0), where
H = F(., p0).
"""

from __future__ import annotations

import itertools

import numpy as np

from paramsweep.poly import (
    InstantiatedSystem,
    ParamSystem,
    Term,
    TermStructure,
    term_structure,
    variable_degrees,
)

__all__ = [
    "Homotopy",
    "total_degree_start",
    "random_gamma",
    "build_homotopy",
    "total_degree_homotopy",
]


def total_degree_start(degrees) -> np.ndarray:
    """The (prod(d_i), N) solutions of g_i(z) = z_i^{d_i} - 1 for the given
    per-function variable degrees: all root-of-unity tuples, in
    lexicographic index order."""
    degrees = tuple(int(d) for d in degrees)
    if any(d < 1 for d in degrees):
        raise ValueError(f"start system needs degrees >= 1, got {degrees}")
    roots = [np.exp(2j * np.pi * np.arange(d) / d) for d in degrees]
    return np.array(list(itertools.product(*roots)), dtype=complex)


def random_gamma(rng: np.random.Generator) -> complex:
    """Uniform point on the complex unit circle."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.cos(theta), np.sin(theta))


class Homotopy:
    """H_b(z, t) = sum_k base_k * w_{q_k}(b, t) * z^{e_k} on one term structure.

    ``w_target`` (n_blocks, k) holds the parameter monomials of each
    target of the stack, ``w_source`` (n_blocks,) those of the source.  The
    evaluations take a batch of rows, each row's t and ``point``, the index
    of its target; each row is computed exactly as it would be in a
    homotopy of its target alone.

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, structure: TermStructure, w_target: np.ndarray, w_source: np.ndarray):
        self._struct = structure
        self._w_target = w_target
        self._w_dt = w_source[:, None] - w_target

    @property
    def n_vars(self) -> int:
        return self._struct.n_vars

    @property
    def n_points(self) -> int:
        """The number of targets in the stack."""
        return self._w_target.shape[1]

    def _coeffs(self, w: np.ndarray) -> np.ndarray:
        """(n_terms, B) coefficients base * w[block] of (n_blocks, B) weights."""
        c = w[self._struct.block]
        c *= self._struct.base_coeffs[:, None]  # in place: one (n_terms, B) array, not two
        return c

    def at(self, t, point) -> InstantiatedSystem:
        """The frozen systems H(., t), one column of coefficients per row."""
        w = self._w_target[:, point] + t * self._w_dt[:, point]
        return InstantiatedSystem(self._struct, self._coeffs(w))

    def tangent_data(self, z: np.ndarray, t, point) -> tuple[np.ndarray, np.ndarray]:
        """(dH/dt, J_z) at (z, t) in a single fused evaluation."""
        w_dt = self._w_dt[:, point]
        return self._struct.eval_and_jac(
            self._coeffs(w_dt), self._coeffs(self._w_target[:, point] + t * w_dt), z
        )


def build_homotopy(sys: ParamSystem, targets, source) -> Homotopy:
    """The parameter homotopy of ``sys`` from the point ``source`` (t = 1)
    to each row of the (k, M) array ``targets`` (t = 0)."""
    targets = np.asarray(targets, dtype=complex)
    source = np.asarray(source, dtype=complex)
    m = sys.n_params
    if targets.ndim != 2 or targets.shape[1] != m:
        raise ValueError(
            f"targets must be a (k, {m}) array for a family of {m} parameters, "
            f"got shape {targets.shape}"
        )
    if source.shape != (m,):
        raise ValueError(
            f"the source must hold {m} parameter values, one per parameter of "
            f"the family, got shape {source.shape}"
        )
    st = term_structure(sys)
    return Homotopy(st, st.param_monomials(targets), st.param_monomials(source[None])[:, 0])


def total_degree_homotopy(sys: ParamSystem, p0: np.ndarray, gamma: complex) -> Homotopy:
    """Step 1's homotopy from gamma*g at t = 1 to F(., p0) at t = 0, g the
    start system of ``sys``'s variable degrees.

    It is the parameter homotopy of a*F(z; p) + s*g(z), the family with
    two parameters more, from (0, 0, gamma) to (p0, 1, 0).
    """
    n, m = sys.n_vars, sys.n_params
    # exponents of (a, s): F's terms carry a, the start terms s
    of_f, of_g = (1, 0), (0, 1)
    functions = []
    for i, (terms, d) in enumerate(zip(sys.functions, variable_degrees(sys))):
        z_d = tuple(d if j == i else 0 for j in range(n))
        functions.append(
            tuple(Term(t.coeff, t.var_exps, t.param_exps + of_f) for t in terms)
            + (Term(-1.0 + 0j, (0,) * n, (0,) * m + of_g),
               Term(1.0 + 0j, z_d, (0,) * m + of_g))
        )
    # the two names cannot clash with a parsed name: "(" starts none
    family = ParamSystem(sys.var_names, sys.param_names + ("(a)", "(s)"), tuple(functions))
    target = np.concatenate([np.asarray(p0, dtype=complex), [1.0, 0.0]])
    source = np.concatenate([np.zeros(m), [0.0, gamma]])
    return build_homotopy(family, target[None], source)

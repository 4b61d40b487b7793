"""Total-degree start systems and homotopy construction.

The start system g_i(z) = z_i^{d_i} - 1 has prod(d_i) trivially enumerable
solutions (tuples of roots of unity).  A homotopy blends a target and a
source system,

    H(z, t) = target(z) * (1 - t) + source(z) * t * gamma,

so H(., 1) = gamma * source and H(., 0) = target.  For parameter
homotopies (both endpoints instantiations of the same family) gamma is
fixed at exactly 1; the randomness of the start parameter point already
provides genericity.

Internally both endpoint systems are laid out on one shared term
structure, so evaluating H, its z-Jacobian, or dH/dt at any t costs a
single coefficient blend plus one sparse evaluation.  A homotopy may hold
a stack of targets with one source, one homotopy per target, so that a
batch of parameter points is tracked as one batch of rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from paramsweep.poly import InstantiatedSystem, Term, TermStructure

__all__ = [
    "StartSystem",
    "Homotopy",
    "total_degree_start",
    "random_gamma",
    "build_homotopy",
]


@dataclass(frozen=True)
class StartSystem:
    """g_i(z) = z_i^{d_i} - 1 for the given degree vector."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.degrees):
            raise ValueError(f"start system needs degrees >= 1, got {self.degrees}")

    @property
    def n_vars(self) -> int:
        return len(self.degrees)

    @property
    def n_solutions(self) -> int:
        out = 1
        for d in self.degrees:
            out *= d
        return out

    def solutions(self) -> list[np.ndarray]:
        """All root-of-unity tuples, in lexicographic index order."""
        roots = [
            np.exp(2j * np.pi * np.arange(d) / d) for d in self.degrees
        ]
        return [
            np.array(combo, dtype=complex)
            for combo in itertools.product(*roots)
        ]

    def as_instantiated(self) -> InstantiatedSystem:
        n = self.n_vars
        funcs = []
        for i, d in enumerate(self.degrees):
            mono = [0] * n
            mono[i] = d
            funcs.append(
                (Term(-1.0 + 0j, (0,) * n, ()), Term(1.0 + 0j, tuple(mono), ()))
            )
        st = TermStructure(n, 0, tuple(funcs))
        return InstantiatedSystem(st, st.base_coeffs.copy())


def total_degree_start(degrees) -> StartSystem:
    """Start system for the given per-function variable degrees."""
    return StartSystem(tuple(int(d) for d in degrees))


def random_gamma(rng: np.random.Generator) -> complex:
    """Uniform point on the complex unit circle."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(np.cos(theta), np.sin(theta))


class Homotopy:
    """H_k(z, t) = target_k(z)*(1-t) + source(z)*t*gamma on a shared structure.

    One homotopy per target of a stack: every target shares one term
    structure, and all share the source and gamma.  The evaluations take a
    batch of rows and ``point``, the index of each row's target (0 for a
    stack of one); each row is computed exactly as it would be in a
    homotopy of its target alone.  A stack of one target keeps 1-D
    coefficients, which broadcast over the rows without a gather.

    Immutable after construction; safe to share across workers.
    """

    def __init__(
        self,
        targets: InstantiatedSystem | Sequence[InstantiatedSystem],
        source: InstantiatedSystem,
        gamma: complex,
    ):
        if isinstance(targets, InstantiatedSystem):
            targets = [targets]
        st_a = targets[0].structure
        if any(t.structure is not st_a for t in targets):
            raise ValueError("the targets of a homotopy must share one term structure")
        if st_a.n_vars != source.n_vars:
            raise ValueError(
                f"dimension mismatch: target has {st_a.n_vars} variables, "
                f"source has {source.n_vars}"
            )
        c_a = np.array([t.coeffs for t in targets], dtype=complex)
        if st_a is source.structure:
            self._struct = st_a
            c_b = source.coeffs
        else:
            self._struct, idx_a, idx_b = _union_structure(st_a, source.structure)
            c_union = np.zeros((len(targets), self._struct.n_terms), dtype=complex)
            c_union[:, idx_a] = c_a
            c_a = c_union
            c_b = np.zeros(self._struct.n_terms, dtype=complex)
            c_b[idx_b] = source.coeffs
        if len(targets) == 1:
            c_a = c_a[0]
        self._c_target = c_a
        # c(t) = c_target + t * c_dt reproduces (1-t)*target + t*gamma*source
        self._c_dt = complex(gamma) * c_b - c_a

    @property
    def n_vars(self) -> int:
        return self._struct.n_vars

    @property
    def n_points(self) -> int:
        """The number of targets in the stack."""
        return len(self._c_target) if self._c_target.ndim == 2 else 1

    def _rows(self, c: np.ndarray, point) -> np.ndarray:
        return c if c.ndim == 1 else c[point]

    def coeffs_at(self, t, point=0) -> np.ndarray:
        return self._rows(self._c_target, point) + t * self._rows(self._c_dt, point)

    def at(self, t, point=0) -> InstantiatedSystem:
        """The frozen system H(., t), usable for Newton correction."""
        return InstantiatedSystem(self._struct, self.coeffs_at(t, point))

    def tangent_data(self, z: np.ndarray, t, point=0) -> tuple[np.ndarray, np.ndarray]:
        """(dH/dt, J_z) at (z, t) in a single fused evaluation."""
        return self._struct.eval_and_jac(
            self._rows(self._c_dt, point), self.coeffs_at(t, point), z
        )


def _union_structure(
    st_a: TermStructure, st_b: TermStructure
) -> tuple[TermStructure, np.ndarray, np.ndarray]:
    """Interleave two structures function by function.

    Returns the combined structure plus index arrays mapping each input
    term to its slot, so endpoint coefficient vectors can be scattered in.
    """
    if st_a.n_vars != st_b.n_vars:
        raise ValueError("cannot combine structures of different dimension")
    n = st_a.n_vars
    funcs = []
    idx_a, idx_b = [], []
    pos = 0
    for i in range(n):
        terms = []
        for st, idx in ((st_a, idx_a), (st_b, idx_b)):
            lo, hi = st.fn_offsets[i], st.fn_offsets[i + 1]
            for k in range(lo, hi):
                idx.append(pos)
                terms.append(Term(0j, tuple(int(e) for e in st.var_exps[k]), ()))
                pos += 1
        funcs.append(tuple(terms))
    union = TermStructure(n, 0, tuple(funcs))
    return union, np.array(idx_a, dtype=np.intp), np.array(idx_b, dtype=np.intp)


def build_homotopy(
    target: InstantiatedSystem | Sequence[InstantiatedSystem],
    source: InstantiatedSystem | StartSystem,
    gamma: complex = 1.0,
) -> Homotopy:
    """Blend a target, or a stack of targets on one term structure, with a source.

    A StartSystem source gives a total-degree homotopy (any unit gamma);
    an instantiated source gives a parameter homotopy, where gamma must
    be exactly 1.
    """
    if isinstance(source, StartSystem):
        return Homotopy(target, source.as_instantiated(), gamma)
    if gamma != 1.0:
        raise ValueError("parameter homotopies require gamma = 1")
    return Homotopy(target, source, 1.0)

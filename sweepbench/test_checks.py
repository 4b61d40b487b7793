"""The workload checks accept correct roots and reject wrong ones.

No sweep runs here: each case builds a point record in the layout of the
program's ``solutions.json`` from roots computed in this file.  Run with

    python3 -m pytest sweepbench/test_checks.py
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402


def _pairs(v):
    return [[float(c.real), float(c.imag)] for c in v]


def _point(params, roots, status="Complete"):
    return {
        "index": 0,
        "params": _pairs(np.asarray(params, dtype=complex)),
        "status": status,
        "retries": 0,
        "solutions": [
            {"coords": _pairs(r), "singular": False,
             "real": bool(np.max(np.abs(np.imag(r))) < 1e-6),
             "multiplicity": 1, "residual": 0.0}
            for r in roots
        ],
    }


def _newton_roots(mu0, mu1, g, n_starts=4000, iters=60):
    """All 81 roots of the wave-amplitude system by Newton's method from
    random starts, with the Jacobian written out by hand."""
    rng = np.random.default_rng(0)
    z = 1.5 * (rng.normal(size=(n_starts, 4)) + 1j * rng.normal(size=(n_starts, 4)))

    def f_and_jac(z):
        z0, z1, z2, z3 = z.T
        s = np.sum(z * z, axis=1)
        zs = (z0, z1, z2, z3)
        lin = ((mu0, z2, z1, 0), (z2, mu1, z0 + z3, z2), (z1, z0 + z3, mu1, z1), (0, z2, z1, mu0))
        jac = np.empty((len(z), 4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                d = lin[i][j] - 4 * g * zs[i] * zs[j]
                if i == j:
                    d = d - g * (2 * s - zs[i] ** 2) + 2 * g * zs[i] ** 2
                jac[:, i, j] = d
        f = np.stack([
            mu0 * z0 + z1 * z2 - g * z0 * (2 * s - z0 * z0),
            mu1 * z1 + z0 * z2 + z2 * z3 - g * z1 * (2 * s - z1 * z1),
            mu1 * z2 + z0 * z1 + z1 * z3 - g * z2 * (2 * s - z2 * z2),
            mu0 * z3 + z1 * z2 - g * z3 * (2 * s - z3 * z3),
        ], axis=1)
        return f, jac

    with np.errstate(all="ignore"):
        for _ in range(iters):
            f, jac = f_and_jac(z)
            ok = np.all(np.isfinite(jac), axis=(1, 2)) & (np.abs(np.linalg.det(jac)) > 1e-300)
            z = z[ok]
            z = z - np.linalg.solve(jac[ok], f[ok][:, :, None])[:, :, 0]
        z = z[np.all(np.isfinite(z), axis=1)]
        z = z[np.max(np.abs(f_and_jac(z)[0]), axis=1) < 1e-12]
    roots = []
    for r in z:
        if all(np.max(np.abs(r - q)) > 1e-6 for q in roots):
            roots.append(r)
    return np.array(roots)


MONKS_POINT = (3.0, 6.0, 7.63)


@pytest.fixture(scope="module")
def cases():
    monks = _newton_roots(*MONKS_POINT)
    assert len(monks) == wl.MONKS_GENERIC_ROOTS
    return {
        "cube-mesh inside": (wl.check_cube_point, (0.3, -0.6), wl.cube_roots(0.3, -0.6)),
        "cube-mesh outside": (wl.check_cube_point, (1.2, 0.4), wl.cube_roots(1.2, 0.4)),
        "monks-generic": (wl.check_monks_generic_point, MONKS_POINT, monks),
        "monks-g0 diagonal": (wl.check_monks_g0_point, (2.0, 2.0, 0.0), wl.monks_g0_roots(2.0, 2.0)),
        "monks-g0 off diagonal": (wl.check_monks_g0_point, (2.0, 8.0, 0.0), wl.monks_g0_roots(2.0, 8.0)),
    }


CASE_NAMES = ["cube-mesh inside", "cube-mesh outside", "monks-generic",
              "monks-g0 diagonal", "monks-g0 off diagonal"]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_accepts_the_true_roots(cases, name):
    check, params, roots = cases[name]
    assert check(_point(params, roots)) == []


@pytest.mark.parametrize("name", CASE_NAMES)
def test_rejects_a_perturbed_root(cases, name):
    check, params, roots = cases[name]
    roots = roots.copy()
    roots[1, 0] += 1e-6 * max(1.0, abs(roots[1, 0]))
    assert check(_point(params, roots))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_rejects_a_missing_root(cases, name):
    check, params, roots = cases[name]
    assert check(_point(params, roots[1:]))


@pytest.mark.parametrize("name", CASE_NAMES)
def test_rejects_a_root_flagged_singular(cases, name):
    check, params, roots = cases[name]
    point = _point(params, roots)
    point["solutions"][0]["singular"] = True
    assert check(point)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_rejects_an_unresolved_point(cases, name):
    check, params, roots = cases[name]
    assert check(_point(params, roots, status="Unresolved"))


def test_cube_rejects_a_wrong_real_count():
    point = _point((0.3, -0.6), wl.cube_roots(0.3, -0.6))
    point["solutions"][1]["real"] = not point["solutions"][1]["real"]
    assert wl.check_cube_point(point)


def test_monks_generic_rejects_a_set_not_closed_under_symmetry():
    roots = _newton_roots(*MONKS_POINT)
    # a conjugate pair replaced by one root twice: still 81 roots that all
    # satisfy the equations, but not closed under conjugation
    k = next(i for i, r in enumerate(roots) if np.max(np.abs(r.imag)) > 1e-3)
    partner = int(np.argmin(np.max(np.abs(roots - roots[k].conj()), axis=1)))
    roots[partner] = roots[k] * (1 + 1e-15)
    problems = wl.check_monks_generic_point(_point(MONKS_POINT, roots))
    assert any("conjugation" in p for p in problems)


def test_mesh_points_follow_the_program_order():
    """First parameter fastest, as paramsweep.mesh lays a grid out."""
    pts = wl._mesh_points([np.array([0.0, 1.0]), np.array([10.0, 20.0, 30.0])])
    assert pts[:3].real.tolist() == [[0.0, 10.0], [1.0, 10.0], [0.0, 20.0]]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = wl.WORKLOADS[name].make_input
    a, b = make(5), make(5)
    assert a.text == b.text and np.array_equal(a.points, b.points)

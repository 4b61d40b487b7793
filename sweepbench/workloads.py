"""The sweep benchmark's workloads: seeded inputs and independent checks.

Each workload writes one ``paramsweep solve`` input file from a seed and
checks every parameter point of the run's ``solutions.json`` against a
computation made here, never by the program and never against a stored
copy of earlier output:

* ``cube-mesh``: the closed-form roots of ``z^6 = 1 - x^6 - y^6``;
* ``monks-generic``: the wave-amplitude equations evaluated here, the
  system's symmetries, and the path count ``m + k*l``;
* ``monks-g0``: the closed-form finite roots of the g = 0 slice.

A check returns a list of problems; an empty list means the point passed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

CUBE_SYSTEM = """\
INPUT
  variable z;
  parameter x, y;
  function f;
  f = x^6 + y^6 + z^6 - 1;
END;
"""

MONKS_SYSTEM = """\
INPUT
  variable z0, z1, z2, z3;
  parameter mu0, mu1, g;
  function f0, f1, f2, f3;
  f0 = mu0*z0 + z1*z2 - g*z0*(2*(z0^2+z1^2+z2^2+z3^2) - z0^2);
  f1 = mu1*z1 + z0*z2 + z2*z3 - g*z1*(2*(z0^2+z1^2+z2^2+z3^2) - z1^2);
  f2 = mu1*z2 + z0*z1 + z1*z3 - g*z2*(2*(z0^2+z1^2+z2^2+z3^2) - z2^2);
  f3 = mu0*z3 + z1*z2 - g*z3*(2*(z0^2+z1^2+z2^2+z3^2) - z3^2);
END;
"""

# Total-degree paths of the wave-amplitude system (3^4) and its root count
# at a generic parameter point.
MONKS_TOTAL_DEGREE = 81
MONKS_GENERIC_ROOTS = 81

CUBE_N = 25  # cube-mesh grid is CUBE_N x CUBE_N
# Closed-form roots a point must match, relative to max(1, |root|).
ROOT_TOL = 1e-8
# Cube points keep |1 - x^6 - y^6| at least this far from 0: nearer the
# curve the six roots approach one 6-fold root, which a tracker without
# an endgame cannot resolve to ROOT_TOL.
CUBE_MARGIN = 1e-3
# Relative residual of a generic root under the evaluator below.
RESIDUAL_TOL = 1e-9
# Two generic roots closer than this (inf-norm) are not distinct; the
# program merges endpoints at the same distance.
DISTINCT_TOL = 1e-6
# The program's own seed (CONFIG seed: Step 1's random start point and
# gamma) is fixed per workload, not drawn from the benchmark seed: the
# start point sets the length of every path of every point, and moving it
# changed a run's time by a third between seeds.  The benchmark seed moves
# the mesh instead.
CUBE_PROGRAM_SEED = 7
MONKS_PROGRAM_SEED = 11
# Fixed g = 0 slice: one point on the diagonal mu0 = mu1, one off it.
G0_POINTS = ((2.0, 2.0), (2.0, 8.0))
G0_PROGRAM_SEED = 9
# monks-generic mesh corners sit up to this far inside the generic box.
MONKS_JITTER = 0.5
MONKS_COUNTS = (2, 2, 2)  # mesh points along mu0, mu1, g


@dataclass(frozen=True)
class Input:
    text: str
    points: np.ndarray  # (k, n_params) complex, in the program's mesh order


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]  # solve flags besides the input and --out
    workers: int
    make_input: Callable[[int], Input]
    check_point: Callable[[dict], list[str]]
    # problems with the run as a whole: (run directory, solutions.json
    # document, paths tracked as the program logged it)
    check_run: Callable[[str, dict, int], list[str]]
    # the program fault known to fail this workload's points, if any
    known_fault: str = ""


def _mesh_points(axes) -> np.ndarray:
    """Grid of the given per-parameter value arrays, first parameter fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel(order="F") for g in grids], axis=1).astype(complex)


def _range_line(name: str, lo: float, hi: float, n: int) -> str:
    return f"  {name} range {float(lo)!r} {float(hi)!r} {n};"


def _input_text(config: dict, system: str, mesh_lines: list[str]) -> str:
    cfg = "".join(f"  {k}: {v};\n" for k, v in config.items())
    mesh = "\n".join(mesh_lines)
    return f"CONFIG\n{cfg}END;\n\n{system}\nMESH\n{mesh}\nEND;\n"


def complex_vec(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _roots(point: dict) -> np.ndarray:
    rows = [complex_vec(s["coords"]) for s in point["solutions"]]
    n_vars = len(rows[0]) if rows else 0
    return np.array(rows, dtype=complex).reshape(len(rows), n_vars)


def _fmt(v) -> str:
    return "(" + ", ".join(f"{c.real:.6g}{c.imag:+.6g}j" for c in np.atleast_1d(v)) + ")"


def _flag_problems(point: dict, statuses: tuple[str, ...]) -> list[str]:
    problems = []
    if point["status"] not in statuses:
        problems.append(f"status {point['status']}")
    for s in point["solutions"]:
        if s["singular"] or s["multiplicity"] != 1:
            problems.append(
                f"root {_fmt(complex_vec(s['coords']))} flagged singular "
                f"(multiplicity {s['multiplicity']})"
            )
    return problems


def match_roots(reported: np.ndarray, expected: np.ndarray, tol: float) -> list[str]:
    """Problems unless the two root sets pair up one to one within tol.

    The tolerance is relative to max(1, |expected root|) in the inf-norm.
    """
    problems = []
    if len(reported) != len(expected):
        problems.append(f"{len(reported)} roots reported, {len(expected)} expected")
    unused = list(range(len(reported)))
    for e in expected:
        dist = [float(np.max(np.abs(reported[i] - e))) for i in unused]
        if not dist or min(dist) > tol * max(1.0, float(np.max(np.abs(e)))):
            problems.append(f"no root within {tol:g} of {_fmt(e)}")
            continue
        unused.pop(int(np.argmin(dist)))
    problems.extend(f"unexpected root {_fmt(reported[i])}" for i in unused)
    return problems


# ---------------------------------------------------------------------------
# cube-mesh
# ---------------------------------------------------------------------------


def cube_roots(x: float, y: float) -> np.ndarray:
    """The six roots of z^6 = 1 - x^6 - y^6, as (6, 1) complex."""
    c = complex(1.0 - x**6 - y**6)
    base = c ** (1.0 / 6.0)
    return (base * np.exp(2j * np.pi * np.arange(6) / 6)).reshape(6, 1)


def cube_real_count(x: float, y: float) -> int:
    return 2 if 1.0 - x**6 - y**6 > 0 else 0


def make_cube_input(seed: int) -> Input:
    """A CUBE_N x CUBE_N mesh inside [-1.5, 1.5]^2, its edges moved in by
    up to half a grid step from the seed."""
    rng = np.random.default_rng([seed, 1])
    half_step = 3.0 / (CUBE_N - 1) / 2
    while True:
        lo_x, lo_y = -1.5 + half_step * rng.random(2)
        hi_x, hi_y = 1.5 - half_step * rng.random(2)
        xs = np.linspace(lo_x, hi_x, CUBE_N)
        ys = np.linspace(lo_y, hi_y, CUBE_N)
        pts = _mesh_points([xs, ys])
        c = 1.0 - pts.real[:, 0] ** 6 - pts.real[:, 1] ** 6
        if np.min(np.abs(c)) >= CUBE_MARGIN:
            break
    text = _input_text(
        {"seed": CUBE_PROGRAM_SEED, "max_retries": 2},
        CUBE_SYSTEM,
        [_range_line("x", lo_x, hi_x, CUBE_N), _range_line("y", lo_y, hi_y, CUBE_N)],
    )
    return Input(text, pts)


def check_cube_point(point: dict) -> list[str]:
    x, y = (c.real for c in complex_vec(point["params"]))
    problems = _flag_problems(point, ("Complete",))
    problems += match_roots(_roots(point), cube_roots(x, y), ROOT_TOL)
    n_real = sum(bool(s["real"]) for s in point["solutions"])
    if n_real != cube_real_count(x, y):
        problems.append(f"{n_real} real roots, expected {cube_real_count(x, y)}")
    return problems


def check_cube_run(run_dir: str, doc: dict, paths_tracked: int) -> list[str]:
    """The real-count export agrees with the closed form at every point."""
    with open(os.path.join(run_dir, "real_counts.csv")) as f:
        rows = list(csv.DictReader(f))
    if len(rows) != len(doc["points"]):
        return [f"real_counts.csv has {len(rows)} rows for {len(doc['points'])} points"]
    problems = []
    for row in rows:
        x, y = float(row["x"]), float(row["y"])
        if (int(row["n_solutions"]), int(row["n_real"])) != (6, cube_real_count(x, y)):
            problems.append(f"real_counts.csv row at ({x}, {y}) reads "
                            f"{row['n_solutions']} roots, {row['n_real']} real")
    return problems


# ---------------------------------------------------------------------------
# The wave-amplitude ("monks") system
# ---------------------------------------------------------------------------


def monks_residual(z: np.ndarray, mu0, mu1, g) -> np.ndarray:
    """Residual of each root in z (shape (k, 4)): the largest |f_i|
    divided by 1 + the sum of the magnitudes of f_i's terms."""
    z0, z1, z2, z3 = z.T
    a0, a1, a2, a3 = np.abs(z).T
    s = z0 * z0 + z1 * z1 + z2 * z2 + z3 * z3
    sa = a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3
    f = np.stack([
        mu0 * z0 + z1 * z2 - g * z0 * (2 * s - z0 * z0),
        mu1 * z1 + z0 * z2 + z2 * z3 - g * z1 * (2 * s - z1 * z1),
        mu1 * z2 + z0 * z1 + z1 * z3 - g * z2 * (2 * s - z2 * z2),
        mu0 * z3 + z1 * z2 - g * z3 * (2 * s - z3 * z3),
    ], axis=1)
    scale = np.stack([
        abs(mu0) * a0 + a1 * a2 + abs(g) * a0 * (2 * sa + a0 * a0),
        abs(mu1) * a1 + a0 * a2 + a2 * a3 + abs(g) * a1 * (2 * sa + a1 * a1),
        abs(mu1) * a2 + a0 * a1 + a1 * a3 + abs(g) * a2 * (2 * sa + a2 * a2),
        abs(mu0) * a3 + a1 * a2 + abs(g) * a3 * (2 * sa + a3 * a3),
    ], axis=1)
    return np.max(np.abs(f) / (1.0 + scale), axis=1)


# Generators of the system's symmetry group (for real parameters).
MONKS_SYMMETRIES = {
    "complex conjugation": lambda z: z.conj(),
    "z0<->z3": lambda z: z[:, [3, 1, 2, 0]],
    "z1<->z2": lambda z: z[:, [0, 2, 1, 3]],
    "(z1, z2) -> (-z1, -z2)": lambda z: z * np.array([1, -1, -1, 1]),
}


def _max_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inf-norm distance between every row of a and every row of b."""
    return np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)


def make_monks_generic_input(seed: int) -> Input:
    """A MONKS_COUNTS mesh whose corners the seed draws near the corners
    of the generic box mu0, mu1 in [0.5, 10], g in [0.5, 9.5]."""
    rng = np.random.default_rng([seed, 2])
    lo = np.array([0.5, 0.5, 0.5]) + MONKS_JITTER * rng.random(3)
    hi = np.array([10.0, 10.0, 9.5]) - MONKS_JITTER * rng.random(3)
    names = ("mu0", "mu1", "g")
    text = _input_text(
        {"seed": MONKS_PROGRAM_SEED, "max_retries": 2},
        MONKS_SYSTEM,
        [_range_line(*axis) for axis in zip(names, lo, hi, MONKS_COUNTS)],
    )
    return Input(text, _mesh_points(
        [np.linspace(a, b, n) for a, b, n in zip(lo, hi, MONKS_COUNTS)]))


def check_monks_generic_point(point: dict) -> list[str]:
    mu0, mu1, g = (c.real for c in complex_vec(point["params"]))
    problems = _flag_problems(point, ("Complete",))
    z = _roots(point)
    if len(z) != MONKS_GENERIC_ROOTS:
        problems.append(f"{len(z)} roots reported, {MONKS_GENERIC_ROOTS} expected")
    if not len(z):
        return problems
    for k in np.flatnonzero(monks_residual(z, mu0, mu1, g) > RESIDUAL_TOL):
        problems.append(f"root {_fmt(z[k])} does not satisfy the equations")
    dist = _max_dist(z, z) + np.diag(np.full(len(z), np.inf))
    if np.min(dist) <= DISTINCT_TOL:
        problems.append("two reported roots coincide")
    scale = np.maximum(1.0, np.max(np.abs(z), axis=1))
    for name, sym in MONKS_SYMMETRIES.items():
        unmatched = np.min(_max_dist(sym(z), z), axis=1) > ROOT_TOL * scale
        if np.any(unmatched):
            problems.append(f"root set not closed under {name} "
                            f"({int(np.sum(unmatched))} roots unmatched)")
    return problems


def _step1_problems(run_dir: str) -> list[str]:
    with open(os.path.join(run_dir, "step1.json")) as f:
        step1 = json.load(f)
    if step1["paths_tracked"] != MONKS_TOTAL_DEGREE:
        return [f"step 1 tracked {step1['paths_tracked']} paths, "
                f"expected {MONKS_TOTAL_DEGREE}"]
    return []


def check_monks_generic_run(run_dir: str, doc: dict, paths_tracked: int) -> list[str]:
    problems = _step1_problems(run_dir)
    expected = MONKS_TOTAL_DEGREE + MONKS_GENERIC_ROOTS * len(doc["points"])
    if paths_tracked != expected:
        problems.append(f"{paths_tracked} paths tracked, expected m + k*l = {expected}")
    return problems


def monks_g0_roots(mu0: float, mu1: float) -> np.ndarray:
    """The five finite roots at g = 0: the origin, and z0 = z3 = -z1*z2/mu0
    with z1^2 = z2^2 = mu0*mu1/2."""
    s = np.sqrt(complex(mu0 * mu1 / 2))
    roots = [np.zeros(4, dtype=complex)]
    for z1 in (s, -s):
        for z2 in (s, -s):
            z0 = -z1 * z2 / mu0
            roots.append(np.array([z0, z1, z2, z0]))
    return np.array(roots)


def make_monks_g0_input(seed: int) -> Input:
    """The fixed g = 0 points of G0_POINTS; the seed is not used, since
    every point fails the same way on every seed (see the README)."""
    (mu0, mu1a), (_, mu1b) = G0_POINTS
    text = _input_text(
        {"seed": G0_PROGRAM_SEED, "max_retries": 2, "max_newton_iters": 4},
        MONKS_SYSTEM,
        [f"  mu0 fixed {mu0!r};", _range_line("mu1", mu1a, mu1b, 2), "  g fixed 0.0;"],
    )
    pts = np.array([[m0, m1, 0.0] for m0, m1 in G0_POINTS], dtype=complex)
    return Input(text, pts)


def check_monks_g0_point(point: dict) -> list[str]:
    mu0, mu1, _ = (c.real for c in complex_vec(point["params"]))
    problems = _flag_problems(point, ("Complete", "HadFailures"))
    return problems + match_roots(_roots(point), monks_g0_roots(mu0, mu1), ROOT_TOL)


def check_monks_g0_run(run_dir: str, doc: dict, paths_tracked: int) -> list[str]:
    return _step1_problems(run_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cube-mesh", ("--workers", "2", "--export-csv"), 2,
                 make_cube_input, check_cube_point, check_cube_run),
        Workload("monks-generic", ("--workers", "2"), 2,
                 make_monks_generic_input, check_monks_generic_point,
                 check_monks_generic_run),
        Workload("monks-g0", (), 1,
                 make_monks_g0_input, check_monks_g0_point, check_monks_g0_run,
                 known_fault="paths bound for infinity end below max_norm, _sharpen "
                 "pulls them onto z = 0 and classify_endpoints flags that "
                 "well-conditioned root singular; off the diagonal 8 paths also end "
                 "in NEWTON_FAILURE, so the point is Unresolved (tracker.py)"),
    )
}

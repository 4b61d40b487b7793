#!/usr/bin/env python3
"""Sweep the sextic surface slice and map real-root counts over (x, y).

Equivalent to `paramsweep solve inputs/cube.input --export-csv` but with a
configurable grid size, and prints a crude ASCII picture of the region
with real solutions (x^6 + y^6 <= 1).
"""

import argparse
import time

import numpy as np

from paramsweep.mesh import MeshSpec, Range, generate_mesh
from paramsweep.paramhom import step1
from paramsweep.poly import parse_system
from paramsweep.scheduler import run_parallel
from paramsweep.tracker import TrackerConfig

CUBE = """
variable z;
parameter x, y;
function f;
f = x^6 + y^6 + z^6 - 1;
"""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=41, help="grid points per axis")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=None, help="run directory (optional)")
    args = ap.parse_args()

    sysm = parse_system(CUBE)
    cfg = TrackerConfig()
    rng = np.random.default_rng(args.seed)
    r1 = step1(sysm, cfg, rng, seed=args.seed)
    print(f"step 1: {r1.n_solutions} generic solutions at p0={r1.p0}")

    spec = MeshSpec((Range(-1.5, 1.5, args.n), Range(-1.5, 1.5, args.n)))
    points = generate_mesh(spec)
    t0 = time.perf_counter()
    sweep = run_parallel(
        sysm, r1, points.points, cfg, max_retries=2,
        workers=args.workers, rng=rng, out_dir=args.out,
    )
    dt = time.perf_counter() - t0
    print(f"step 2: {len(points)} points, {sweep.total_paths_tracked} paths, "
          f"{dt:.1f}s ({1000 * dt / len(points):.1f} ms/point), "
          f"{len(sweep.unresolved_indices)} unresolved")

    grid = np.array(
        [pr.solutions.n_real for pr in sweep.point_results]
    ).reshape(args.n, args.n)  # row = y index (x varies fastest)
    for row in grid[::-1]:
        print("".join(" .x"[min(v, 2)] for v in row))


if __name__ == "__main__":
    main()

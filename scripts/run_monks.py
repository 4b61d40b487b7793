#!/usr/bin/env python3
"""Wave-amplitude equilibria: generic count plus a real-count slice map.

Runs the one-time generic solve (81 solutions), then sweeps a (mu0, mu1)
grid at a fixed g and prints how many of the 81 equilibria are real at
each grid point.
"""

import argparse
import time

import numpy as np

from paramsweep.mesh import Fixed, MeshSpec, Range, generate_mesh
from paramsweep.paramhom import step1, verify_step1
from paramsweep.poly import parse_system
from paramsweep.scheduler import run_parallel
from paramsweep.tracker import TrackerConfig

MONKS = """
variable z0, z1, z2, z3;
parameter mu0, mu1, g;
function f0, f1, f2, f3;
f0 = mu0*z0 + z1*z2 - g*z0*(2*(z0^2+z1^2+z2^2+z3^2) - z0^2);
f1 = mu1*z1 + z0*z2 + z2*z3 - g*z1*(2*(z0^2+z1^2+z2^2+z3^2) - z1^2);
f2 = mu1*z2 + z0*z1 + z1*z3 - g*z2*(2*(z0^2+z1^2+z2^2+z3^2) - z2^2);
f3 = mu0*z3 + z1*z2 - g*z3*(2*(z0^2+z1^2+z2^2+z3^2) - z3^2);
"""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8, help="grid points per mu axis")
    ap.add_argument("--g", type=float, default=7.63, help="fixed g value")
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--verify", action="store_true", help="re-run step 1")
    args = ap.parse_args()

    sysm = parse_system(MONKS)
    cfg = TrackerConfig()
    rng = np.random.default_rng(args.seed)

    t0 = time.perf_counter()
    r1 = step1(sysm, cfg, rng, seed=args.seed)
    print(f"step 1: {r1.n_solutions} generic solutions "
          f"({time.perf_counter() - t0:.1f}s)")
    if args.verify:
        # a generator of its own, so the check leaves the sweep's draws
        failure = verify_step1(sysm, cfg, r1, np.random.default_rng([args.seed, 1]))
        print("step 1 verified" if failure is None else f"step 1 check failed: {failure}")

    spec = MeshSpec((Range(0, 10, args.n), Range(0, 10, args.n), Fixed(args.g)))
    points = generate_mesh(spec)
    t0 = time.perf_counter()
    sweep = run_parallel(
        sysm, r1, list(points.points), cfg, max_retries=2,
        workers=args.workers, rng=rng,
    )
    dt = time.perf_counter() - t0
    print(f"step 2: {len(points)} points at g={args.g}, "
          f"{sweep.total_paths_tracked} paths, {dt:.1f}s, "
          f"{len(sweep.unresolved_indices)} unresolved")

    grid = np.array(
        [pr.solutions.n_real for pr in sweep.point_results]
    ).reshape(args.n, args.n)  # row = mu1 index (mu0 varies fastest)
    print("real-solution counts over (mu0 ->, mu1 ^):")
    for row in grid[::-1]:
        print(" ".join(f"{v:2d}" for v in row))


if __name__ == "__main__":
    main()

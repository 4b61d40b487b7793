#!/usr/bin/env python3
"""Sweep benchmark: ``paramsweep solve`` on seeded inputs, run as a user runs it.

    python3 sweepbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it starts ``python -m paramsweep.cli``
with the checkout's ``src`` on the path.  One run writes the workload's
input file from the seed, then repeats whole rounds, at least two, while
the next round is expected to end within ``--seconds``.  A round is one
``solve`` of the same input, a batch job over all the input's parameter
points, and one operation is one point.  A point fails if it ends
Unresolved or its roots fail the workload's check (``workloads.py``).
Every round must write the same ``solutions.json``.

With ``--trace 0`` the solves run untraced and the result holds the
end-to-end metrics, each the median over the run's rounds.  With
``--trace 1`` each solve runs under ``tracer.py`` and the result holds the
per-layer metrics instead.  The last line of standard output is the
result as JSON; the lines before it say what was seen.  Run files go to
``.sweepbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_ROOT = ".sweepbench"
# set-up samples per untraced run; rounds that end too soon to give this
# many are topped up with --step1-only solves of the same input
SETUP_SAMPLES = 5
# rounds per run at the least: the median needs them, and so does the
# check that every round writes the same solutions
MIN_ROUNDS = 2
PARENS = re.compile(r"\([^)]*\)")
NUMBERS = re.compile(r"(?<![\w.])[-+]?\d[\d.]*(?:e[-+]?\d+)?(?![\w.])")
SWEEP_LINE = re.compile(r"sweep finished: (\d+) points, (\d+) paths tracked, (\d+) unresolved")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "points_per_s": "points/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (program missing or crashed)."""


@dataclass
class Solve:
    """One finished ``paramsweep solve``, measured from outside."""

    exit_code: int
    wall_s: float
    setup_s: float | None  # spawn to the "step1:" log line
    cpu_s: float  # user + system time of the process and its reaped workers
    peak_rss_mb: float  # largest resident set in the process tree
    log: list[str] = field(default_factory=list)


def run_solve(argv: list[str], env: dict) -> Solve:
    """Start one solve, time its Step 1 from the log, and reap it with wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    log: list[str] = []
    step1_at: list[float] = []

    def read_log():
        for line in proc.stderr:
            if not step1_at and line.startswith("INFO step1:"):
                step1_at.append(time.perf_counter())
            log.append(line.rstrip("\n"))

    reader = threading.Thread(target=read_log)
    reader.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        reader.join()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # the pipe closes once every process of the group has exited
    reader.join()
    proc.stderr.close()
    return Solve(
        exit_code=proc.returncode,
        wall_s=wall,
        setup_s=step1_at[0] - t0 if step1_at else None,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        log=log,
    )


def _digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _sweep_line(w: workloads.Workload, solve: Solve) -> re.Match:
    """The solve's closing log line; a solve that crashed (any exit code
    but 0, or 2 for Unresolved points) or did not log it is an error."""
    match = next((m for m in map(SWEEP_LINE.search, solve.log) if m), None)
    if solve.exit_code not in (0, 2) or match is None or solve.setup_s is None:
        tail = "\n".join(solve.log[-15:])
        raise BenchError(f"{w.name}: solve exited with code {solve.exit_code}:\n{tail}")
    return match


@dataclass
class RoundCheck:
    failed: int
    problems: Counter  # kind of problem -> points with it
    examples: dict  # kind of problem -> one full instance
    run_problems: list[str]


def check_round(w: workloads.Workload, inp: workloads.Input, out_dir: str,
                exit_code: int, sweep_line: re.Match) -> RoundCheck:
    """Check one round's output against the workload's own computations."""
    with open(os.path.join(out_dir, "solutions.json")) as f:
        doc = json.load(f)
    points = sorted(doc["points"], key=lambda p: p["index"])
    run_problems = []
    if len(points) != len(inp.points):
        run_problems.append(f"{len(points)} points in the output, {len(inp.points)} in the input")
    for pt, want in zip(points, inp.points):
        got = workloads.complex_vec(pt["params"])
        if max(abs(got - want)) > 1e-12 * max(1.0, max(abs(want))):
            run_problems.append(f"point {pt['index']} solved at {got}, input has {want}")
    problems: Counter = Counter()
    examples: dict = {}
    failed = 0
    for pt in points:
        found = w.check_point(pt)
        failed += bool(found)
        # count each kind of problem once per point, its numbers left out
        kinds = {}
        for p in found:
            kinds.setdefault(NUMBERS.sub("#", PARENS.sub("(..)", p)), p)
        problems.update(kinds.keys())
        for kind, p in kinds.items():
            examples.setdefault(kind, f"point {pt['index']}: {p}")
    n_unresolved = sum(pt["status"] == "Unresolved" for pt in points)
    if (exit_code == 2) != (n_unresolved > 0) or int(sweep_line.group(3)) != n_unresolved:
        run_problems.append(f"exit code {exit_code} with {n_unresolved} Unresolved points")
    run_problems += w.check_run(out_dir, doc, int(sweep_line.group(2)))
    return RoundCheck(failed, problems, examples, run_problems)


def measure(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    root = os.path.abspath(os.path.join(RUN_ROOT, f"{w.name}-seed{seed}-trace{int(trace)}"))
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    inp = w.make_input(seed)
    input_path = os.path.join(root, "input.txt")
    with open(input_path, "w") as f:
        f.write(inp.text)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def solve_argv(out_dir: str, extra=(), trace_dir=None) -> list[str]:
        head = [sys.executable, "-m", "paramsweep.cli"] if trace_dir is None else [
            sys.executable, os.path.join(HERE, "tracer.py"), trace_dir]
        return head + ["solve", input_path, "--out", out_dir, *w.flags, *extra]

    solves: list[Solve] = []
    layers: list[dict] = []
    checks: dict[str, RoundCheck] = {}  # solutions.json digest -> its check
    attempted = failed = 0
    start = time.perf_counter()

    def another_round() -> bool:
        if len(solves) < MIN_ROUNDS:
            return True
        elapsed = time.perf_counter() - start
        return elapsed * (len(solves) + 1) / len(solves) <= seconds

    while another_round():
        out_dir = os.path.join(root, f"round{len(solves)}")
        trace_dir = out_dir + "-trace" if trace else None
        if trace_dir:
            os.makedirs(trace_dir)
        solve = run_solve(solve_argv(out_dir, trace_dir=trace_dir), env)
        solves.append(solve)
        sweep_line = _sweep_line(w, solve)
        digest = _digest(os.path.join(out_dir, "solutions.json"))
        if digest not in checks:
            checks[digest] = check_round(w, inp, out_dir, solve.exit_code, sweep_line)
        attempted += len(inp.points)
        failed += checks[digest].failed
        if trace_dir:
            layers.append(tracer.layer_metrics(trace_dir, out_dir, w.workers,
                                               int(sweep_line.group(2))))
        if len(solves) > 1:
            shutil.rmtree(os.path.join(root, f"round{len(solves) - 2}"))

    # a fixed seed must give the same solutions in every round
    correct = len(checks) == 1
    if not correct:
        print(f"{w.name}: the rounds wrote {len(checks)} different solutions.json files")
    for rc in checks.values():
        correct &= not rc.run_problems
        for problem in rc.run_problems[:5]:
            print(f"{w.name}: run check failed: {problem}")
        if len(rc.run_problems) > 5:
            print(f"{w.name}: ... and {len(rc.run_problems) - 5} more run check failures")
        for kind, n in rc.problems.most_common():
            print(f"{w.name}: {n} of {len(inp.points)} points per round: {kind}; "
                  f"e.g. {rc.examples[kind]}")
    if failed and w.known_fault:
        print(f"{w.name}: known fault: {w.known_fault}")
    walls = [s.wall_s for s in solves]
    print(f"{w.name}: seed {seed}, {len(solves)} rounds of {len(inp.points)} points, "
          f"{'traced' if trace else 'untraced'} wall_s median {statistics.median(walls):.4f} "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")

    if trace:
        values = {k: statistics.median(d[k] for d in layers) for k in tracer.PER_LAYER_UNITS}
        units = tracer.PER_LAYER_UNITS
    else:
        setups = [s.setup_s for s in solves]
        while len(setups) < SETUP_SAMPLES:
            extra = run_solve(solve_argv(os.path.join(root, "step1-only"), ["--step1-only"]), env)
            if extra.exit_code != 0 or extra.setup_s is None:
                raise BenchError(f"{w.name}: --step1-only solve failed:\n" + "\n".join(extra.log[-15:]))
            setups.append(extra.setup_s)
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "points_per_s": statistics.median(len(inp.points) / (s.wall_s - s.setup_s) for s in solves),
            "cpu_s": statistics.median(s.cpu_s for s in solves),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in solves),
        }
        units = END_TO_END_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "paramsweep", "cli.py")):
        print("sweepbench: run from the root of a paramsweep checkout "
              "(src/paramsweep/cli.py not found)", file=sys.stderr)
        return 1
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(workloads.WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace))
            for metric, v in results[name]["metrics"].items():
                print(f"{name}: {metric} = {v['value']:.6g} {v['unit']}")
            print(f"{name}: attempted {results[name]['attempted']} points, "
                  f"failed {results[name]['failed']}, correct {results[name]['correct']}")
    except BenchError as exc:
        print(f"sweepbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

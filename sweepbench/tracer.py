"""Per-layer tracing of one ``paramsweep`` command, from outside the program.

Run as a script::

    python tracer.py <trace_dir> solve <input> [solve flags...]

with the program's ``src`` directory on ``PYTHONPATH``.  It wraps the
public functions of each ``paramsweep`` module (the names in the module's
``__all__``, plus the kernels in ``EXTRA``), runs the command line, and
writes one ``trace-<pid>.json`` per process into ``trace_dir``: the
coordinator's when the command returns, each forked worker's when the
worker ends.

Every call to a wrapped function adds to its count, its summed time and
its self time (the time not covered by wrapped calls it made).  Calls
other than the hot kernels in ``HOT`` are also kept as spans
``[name, span id, parent span id, start, duration]``, with parent -1 for
a call made outside any other traced call.  Imported as a module, this file
only turns a trace directory into per-layer metrics (``layer_metrics``).
"""

from __future__ import annotations

import glob
import importlib
import inspect
import itertools
import json
import os
import pickle
import statistics
import sys
import time
from collections import Counter

LAYERS = ("poly", "startsys", "tracker", "paramhom", "scheduler", "datafile", "mesh", "cli")
# Named kernels and steps outside the modules' __all__ lists.
EXTRA = {
    "poly": ("TermStructure.eval_and_jac", "TermStructure.evaluate", "TermStructure.jacobian"),
    "tracker": ("_solve",),
    "scheduler": ("_merge_part_files",),
}
# The metrics layer_metrics computes, with their units.
PER_LAYER_UNITS = {
    "poly.eval_and_jac_us": "us",
    "poly.eval_and_jac_calls": "count",
    "poly.instantiate_us": "us",
    "poly.self_s": "s",
    "startsys.build_homotopy_us": "us",
    "startsys.self_s": "s",
    "tracker.track_path_ms": "ms",
    "tracker.steps_per_path": "count",
    "tracker.rejected_per_path": "count",
    "tracker.newton_iters_per_path": "count",
    "tracker.solve_us": "us",
    "tracker.classify_ms": "ms",
    "tracker.paths_diverged": "count",
    "tracker.useful_path_ratio": "ratio",
    "tracker.self_s": "s",
    "paramhom.step1_s": "s",
    "paramhom.step2_point_ms_p50": "ms",
    "paramhom.step2_point_ms_p90": "ms",
    "paramhom.paths_tracked": "count",
    "paramhom.retried_points": "count",
    "paramhom.self_s": "s",
    "scheduler.step2_s": "s",
    "scheduler.busy_frac": "ratio",
    "scheduler.result_bytes_per_point": "bytes",
    "scheduler.spill_bytes": "bytes",
    "scheduler.merge_s": "s",
    "scheduler.self_s": "s",
    "datafile.serialize_us": "us",
    "datafile.parse_ms": "ms",
    "datafile.read_collected_ms": "ms",
    "datafile.collected_bytes": "bytes",
    "datafile.self_s": "s",
    "mesh.generate_ms": "ms",
    "cli.parse_input_ms": "ms",
    "cli.export_ms": "ms",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
}
# Called once or more per path step: counted and timed, never kept as spans.
HOT = {
    "poly.TermStructure.eval_and_jac",
    "poly.TermStructure.evaluate",
    "poly.TermStructure.jacobian",
    "tracker._solve",
    "tracker.euler_predict",
    "tracker.newton_correct",
}


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.origin = time.perf_counter()
        self.stack: list[list] = []  # [time covered by children, span id] per open call
        self.ids = itertools.count()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[list] = []
        self.counters: Counter = Counter()

    def reset(self) -> None:
        """Forget what the parent recorded (state is cleared in place,
        because the wrappers hold references to it)."""
        self.stack.clear()
        self.spans.clear()
        self.counters.clear()
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]

    def wrap(self, name: str, fn, before=None, after=None):
        stack, spans, ids, perf = self.stack, self.spans, self.ids, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep_span = name not in HOT
        origin = self.origin

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep_span:
                    spans.append([name, frame[1], parent, t0 - origin, dt])
            if after is not None:
                after(out)
            return out

        return traced

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump({"pid": os.getpid(), "stats": self.stats, "spans": self.spans,
                       "counters": self.counters}, f)


def _observers(tracer: Tracer) -> dict:
    """Counts taken from arguments (before) and results (after) of calls."""
    from paramsweep.tracker import PathStatus

    c = tracer.counters

    def track_path(res):
        c["paths"] += 1
        c["steps"] += res.steps_taken
        c["diverged"] += res.status is PathStatus.DIVERGED

    def newton_correct(res):
        c["newton_iters"] += res.iterations

    def step2_single(out):
        # the per-point payload a worker sends over the result queue
        c["outcomes"] += 1
        c["outcome_bytes"] += len(pickle.dumps(out))

    def flush_buffer(args):
        c["spill_bytes"] += args[0].nbytes

    return {
        "tracker.track_path": (None, track_path),
        "tracker.newton_correct": (None, newton_correct),
        "paramhom.step2_single": (None, step2_single),
        "scheduler.flush_buffer": (flush_buffer, None),
    }


def install(tracer: Tracer) -> None:
    """Replace each traced function wherever a paramsweep module holds it."""
    modules = {layer: importlib.import_module(f"paramsweep.{layer}") for layer in LAYERS}
    holders = [m for name, m in sys.modules.items()
               if name == "paramsweep" or name.startswith("paramsweep.")]
    observers = _observers(tracer)
    for layer, mod in modules.items():
        names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
        for qual in names + list(EXTRA.get(layer, ())):
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = getattr(owner, attr)
            traced = tracer.wrap(f"{layer}.{qual}", fn, *observers.get(f"{layer}.{qual}", (None, None)))
            if owner_name:
                setattr(owner, attr, traced)
                continue
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, key, traced)


def main(argv: list[str]) -> int:
    import multiprocessing.util as mp_util

    trace_dir, cli_args = argv[0], argv[1:]
    tracer = Tracer(trace_dir)

    def in_worker(t: Tracer) -> None:
        t.reset()
        mp_util.Finalize(None, t.dump, exitpriority=10)

    mp_util.register_after_fork(tracer, in_worker)
    install(tracer)
    from paramsweep import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump()


# ---------------------------------------------------------------------------
# Turning traces into per-layer metrics
# ---------------------------------------------------------------------------


def load(trace_dir: str) -> tuple[dict, list, Counter]:
    """Stats, spans and counters summed over every process's trace."""
    stats: dict[str, list] = {}
    spans: list = []
    counters: Counter = Counter()
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path) as f:
            doc = json.load(f)
        for name, (calls, total, self_s) in doc["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        spans.extend(doc["spans"])
        counters.update(doc["counters"])
    return stats, spans, counters


def layer_metrics(trace_dir: str, run_dir: str, workers: int, paths_tracked: int) -> dict:
    """Per-layer metrics of one traced solve, as name -> value."""
    stats, spans, c = load(trace_dir)

    def calls(name):
        return stats.get(name, [0])[0]

    def total(name):
        return stats.get(name, [0, 0.0])[1]

    def mean(name, scale):
        n = calls(name)
        return total(name) / n * scale if n else 0.0

    def self_s(layer):
        return sum(st[2] for name, st in stats.items() if name.startswith(layer + "."))

    with open(os.path.join(run_dir, "solutions.json")) as f:
        doc = json.load(f)
    with open(os.path.join(run_dir, "step1.json")) as f:
        step1 = json.load(f)
    # paths that ended on a reported nonsingular root: the Step 1 solutions
    # and every nonsingular root in the sweep's output
    useful = len(step1["solutions"]) + sum(
        1 for pt in doc["points"] for s in pt["solutions"] if not s["singular"]
    )
    point_ms = sorted(s[4] * 1e3 for s in spans if s[0] == "paramhom.step2_single")
    deciles = statistics.quantiles(point_ms, n=10, method="inclusive") if len(point_ms) > 1 else point_ms * 9
    paths = c["paths"] or 1
    step2_s = total("scheduler.run_parallel")
    out_bytes = sum(os.path.getsize(os.path.join(run_dir, n)) for n in os.listdir(run_dir))
    return {
        "poly.eval_and_jac_us": mean("poly.TermStructure.eval_and_jac", 1e6),
        "poly.eval_and_jac_calls": calls("poly.TermStructure.eval_and_jac"),
        "poly.instantiate_us": mean("poly.instantiate", 1e6),
        "poly.self_s": self_s("poly"),
        "startsys.build_homotopy_us": mean("startsys.build_homotopy", 1e6),
        "startsys.self_s": self_s("startsys"),
        "tracker.track_path_ms": mean("tracker.track_path", 1e3),
        "tracker.steps_per_path": c["steps"] / paths,
        "tracker.rejected_per_path": (calls("tracker.euler_predict") - c["steps"]) / paths,
        "tracker.newton_iters_per_path": c["newton_iters"] / paths,
        "tracker.solve_us": mean("tracker._solve", 1e6),
        "tracker.classify_ms": mean("tracker.classify_endpoints", 1e3),
        "tracker.paths_diverged": c["diverged"],
        "tracker.useful_path_ratio": useful / paths,
        "tracker.self_s": self_s("tracker"),
        "paramhom.step1_s": total("paramhom.step1"),
        "paramhom.step2_point_ms_p50": statistics.median(point_ms) if point_ms else 0.0,
        "paramhom.step2_point_ms_p90": deciles[8] if deciles else 0.0,
        "paramhom.paths_tracked": paths_tracked,
        "paramhom.retried_points": sum(1 for pt in doc["points"] if pt["retries"] > 0),
        "paramhom.self_s": self_s("paramhom"),
        "scheduler.step2_s": step2_s,
        "scheduler.busy_frac": total("paramhom.step2_single") / (workers * step2_s) if step2_s else 0.0,
        "scheduler.result_bytes_per_point": c["outcome_bytes"] / c["outcomes"] if c["outcomes"] else 0.0,
        "scheduler.spill_bytes": c["spill_bytes"],
        "scheduler.merge_s": total("scheduler._merge_part_files"),
        "scheduler.self_s": self_s("scheduler"),
        "datafile.serialize_us": mean("datafile.serialize_record", 1e6),
        "datafile.parse_ms": mean("datafile.parse_records", 1e3),
        "datafile.read_collected_ms": mean("datafile.read_collected", 1e3),
        "datafile.collected_bytes": os.path.getsize(os.path.join(run_dir, "collected.dat")),
        "datafile.self_s": self_s("datafile"),
        "mesh.generate_ms": mean("mesh.generate_mesh", 1e3),
        "cli.parse_input_ms": mean("cli.parse_input_file", 1e3),
        "cli.export_ms": 1e3 * sum(total(f"cli.{n}") for n in (
            "export_real_count_grid", "export_solutions_json", "write_failure_report")),
        "cli.output_bytes": out_bytes,
        "cli.self_s": self_s("cli"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

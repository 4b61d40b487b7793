"""Command-line driver and file formats.

Input files are Bertini-style section blocks::

    CONFIG
      seed: 7;
      max_retries: 2;
    END;

    INPUT
      variable z;
      parameter x, y;
      function f;
      f = x^6 + y^6 + z^6 - 1;
    END;

    MESH
      x range -1.5 1.5 21;
      y range -1.5 1.5 21;
    END;

CONFIG accepts the tracker setting ``max_newton_iters`` (the one field of
TrackerConfig; the step control, the tolerances and the divergence
threshold are constants of ``tracker``), the sweep settings ``seed``,
``workers``, ``max_retries``, ``batch_size``, ``verify_step1``, the Step 1
start point ``p0: re im re im ...;`` and ``param_file: <path>;`` as the
alternative to a MESH section (exactly one of the two must be present).
``verify_step1`` takes 1/0/true/false/yes/no/on/off in any case; the other
numbers must be integers, and parameter values must be finite.
Command-line flags override CONFIG values, and a CONFIG value is checked
even when a flag overrides it.  ``%`` and ``#`` start comments.

A run directory receives::

    collected.dat       the sweep's results, one record per parameter point
    step1.json          the generic-solve artifact (reusable via --reuse-step1)
    solutions.json      full machine-readable dump
    failure_report.txt  failed/retried/degenerate points
    timing_summary.txt  per-point tracking seconds; a point's tracking
                        time is its equal share of its batch's
    real_counts.csv     grid export (mesh runs with --export-csv)

``solve`` writes the exports from the sweep it holds; ``export`` writes
the same bytes from ``collected.dat``.

Exit codes: 0 success, 2 when any point is Unresolved, 1 on fatal errors,
usage errors of the command line included.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from paramsweep.datafile import CollectedHeader, read_collected
from paramsweep.mesh import (
    Fixed,
    MeshSpec,
    PointList,
    Range,
    finite_float,
    generate_mesh,
    load_param_file,
)
from paramsweep.paramhom import (
    FaultInjection,
    PointResult,
    PointStatus,
    Step1Result,
    SweepResult,
    Step1Empty,
    step1,
    step1_draws,
    verify_step1,
)
from paramsweep.poly import ParamSystem, ParseError, parse_system, strip_comment
from paramsweep.scheduler import check_sweep_settings, run_parallel
from paramsweep.tracker import HARD_FAILURES, ClassifiedSolutions, TrackerConfig

__all__ = [
    "InputFile",
    "parse_input_file",
    "export_real_count_grid",
    "export_solutions_json",
    "write_failure_report",
    "main",
]

log = logging.getLogger("paramsweep")

_CONFIG_KEYS = {
    "max_newton_iters",
    "seed",
    "workers",
    "max_retries",
    "batch_size",
    "verify_step1",
    "p0",
    "param_file",
}
_HARD_FAILURE_VALUES = {s.value for s in HARD_FAILURES}
_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


class InputError(ValueError):
    """Bad input file or configuration."""


@dataclass(frozen=True)
class InputFile:
    system: ParamSystem
    config: dict
    mesh: MeshSpec | None
    param_file: str | None
    p0: np.ndarray | None


def _split_sections(text: str) -> dict[str, tuple[int, list[str]]]:
    """Map section name -> (1-based first body line, body lines)."""
    sections: dict[str, tuple[int, list[str]]] = {}
    current: str | None = None
    body: list[str] = []
    start = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if current is None:
            if not line:
                continue
            name = line.rstrip(";").strip()
            if name.upper() in ("CONFIG", "INPUT", "MESH"):
                current = name.upper()
                body = []
                start = lineno + 1
            else:
                raise InputError(
                    f"line {lineno}: expected CONFIG, INPUT, or MESH section, "
                    f"got {line!r}"
                )
        else:
            if line.rstrip(";").strip().upper() == "END":
                if current in sections:
                    raise InputError(f"line {lineno}: duplicate {current} section")
                sections[current] = (start, body)
                current = None
            else:
                body.append(raw)
    if current is not None:
        raise InputError(f"section {current} is missing its END;")
    return sections


def _parse_config_body(start: int, lines: list[str]) -> dict:
    config = {}
    for off, raw in enumerate(lines):
        line = strip_comment(raw).strip()
        if not line:
            continue
        lineno = start + off
        if not line.endswith(";"):
            raise InputError(f"line {lineno}: config entry must end with ';'")
        line = line[:-1].strip()
        if ":" not in line:
            raise InputError(f"line {lineno}: expected 'key: value;'")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise InputError(f"line {lineno}: unknown config key {key!r}")
        if key in config:
            raise InputError(f"line {lineno}: config key {key!r} given twice")
        value = value.strip()
        if key == "p0":
            try:
                value = [finite_float(t) for t in value.split()]
            except ValueError as exc:
                raise InputError(f"line {lineno}: p0: {exc}") from exc
        config[key] = value
    return config


def _parse_bool(key: str, value: str) -> bool:
    try:
        return _BOOLEANS[value.strip().lower()]
    except KeyError:
        raise InputError(
            f"config key {key!r} must be one of 1/0/true/false/yes/no/on/off, "
            f"got {value!r}"
        ) from None


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InputError(
            f"config key {key!r} must be an integer, got {value!r}"
        ) from None


def _parse_mesh_body(
    start: int, lines: list[str], param_names: tuple[str, ...]
) -> MeshSpec:
    axes: dict[str, Fixed | Range] = {}
    for off, raw in enumerate(lines):
        line = strip_comment(raw).strip()
        if not line:
            continue
        lineno = start + off
        if not line.endswith(";"):
            raise InputError(f"line {lineno}: mesh entry must end with ';'")
        toks = line[:-1].split()
        if len(toks) < 3:
            raise InputError(f"line {lineno}: expected '<param> range|fixed ...'")
        name, kind = toks[0], toks[1].lower()
        if name not in param_names:
            raise InputError(f"line {lineno}: unknown parameter {name!r}")
        if name in axes:
            raise InputError(f"line {lineno}: parameter {name!r} listed twice")
        try:
            if kind == "range":
                if len(toks) != 5:
                    raise InputError(
                        f"line {lineno}: range needs '<min> <max> <count>'"
                    )
                axes[name] = Range(
                    finite_float(toks[2]), finite_float(toks[3]), int(toks[4])
                )
            elif kind == "fixed":
                if len(toks) not in (3, 4):
                    raise InputError(f"line {lineno}: fixed needs '<re> [<im>]'")
                im = finite_float(toks[3]) if len(toks) == 4 else 0.0
                axes[name] = Fixed(complex(finite_float(toks[2]), im))
            else:
                raise InputError(f"line {lineno}: expected 'range' or 'fixed'")
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    missing = [n for n in param_names if n not in axes]
    if missing:
        raise InputError(f"MESH section does not cover parameter {missing[0]!r}")
    return MeshSpec(tuple(axes[n] for n in param_names))


def parse_input_file(text: str) -> InputFile:
    sections = _split_sections(text)
    if "INPUT" not in sections:
        raise InputError("input file has no INPUT section")
    start, body = sections["INPUT"]
    # pad so parse errors report absolute file positions
    system = parse_system("\n" * (start - 1) + "\n".join(body))

    config = {}
    if "CONFIG" in sections:
        config = _parse_config_body(*sections["CONFIG"])

    p0 = None
    if "p0" in config:
        vals = config.pop("p0")
        if len(vals) != 2 * system.n_params:
            raise InputError(
                f"p0 needs {2 * system.n_params} numbers (re/im per parameter), "
                f"got {len(vals)}"
            )
        p0 = np.array(vals).view(complex)

    param_file = config.pop("param_file", None)
    mesh = None
    if "MESH" in sections:
        mesh_start, mesh_body = sections["MESH"]
        mesh = _parse_mesh_body(mesh_start, mesh_body, system.param_names)

    if (mesh is None) == (param_file is None):
        raise InputError(
            "exactly one of a MESH section or 'param_file:' must be given"
        )
    return InputFile(system=system, config=config, mesh=mesh,
                     param_file=param_file, p0=p0)


def _build_tracker_config(config: dict) -> TrackerConfig:
    kwargs = {}
    if "max_newton_iters" in config:
        kwargs["max_newton_iters"] = _parse_int(
            "max_newton_iters", config["max_newton_iters"]
        )
    try:
        return TrackerConfig(**kwargs)
    except ValueError as exc:
        raise InputError(f"bad tracker configuration: {exc}") from exc


def _sweep_setting(config: dict, args, key: str, default):
    """The flag's value, else the CONFIG value, else ``default``; a bad
    CONFIG value is refused even when the flag overrides it."""
    value = _parse_int(key, config[key]) if key in config else default
    cli_val = getattr(args, key, None)
    return value if cli_val is None else cli_val


# ---------------------------------------------------------------------------
# Step 1 artifact
# ---------------------------------------------------------------------------


def _pairs(vec) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in vec]


def _unpairs(pairs) -> np.ndarray:
    return np.array([complex(finite_float(re), finite_float(im)) for re, im in pairs])


def save_step1(path, r1: Step1Result) -> None:
    sols = r1.solutions
    doc = {
        "version": 1,
        "n_params": len(r1.p0),
        "p0": _pairs(r1.p0),
        "gamma": [r1.gamma.real, r1.gamma.imag],
        "seed": r1.seed,
        "paths_tracked": r1.paths_tracked_step1,
        "suspected_crossings": [list(p) for p in r1.suspected_crossings],
        "path_statuses": dict(r1.path_statuses),
        "solutions": [
            {"coords": _pairs(pt), "real": rf, "residual": res, "multiplicity": mult}
            for pt, rf, res, mult in zip(
                sols.distinct,
                sols.real_flags.tolist(),
                sols.residuals.tolist(),
                sols.multiplicities.tolist(),
            )
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_step1(path, sysm: ParamSystem) -> Step1Result:
    """Read a Step 1 artifact, refusing one that lacks a key or solutions,
    holds a number that is not finite, or whose parameters or solution
    coordinates do not fit ``sysm``."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("version") != 1:
        raise InputError(f"{path}: unsupported step1 artifact version")
    try:
        sols = doc["solutions"]
        distinct = np.array([_unpairs(s["coords"]) for s in sols], dtype=complex)
        classified = ClassifiedSolutions(
            distinct=distinct,
            singular_flags=np.zeros(len(sols), dtype=bool),
            real_flags=np.array([bool(s["real"]) for s in sols], dtype=bool),
            residuals=np.array([float(s["residual"]) for s in sols]),
            multiplicities=np.array([int(s["multiplicity"]) for s in sols], dtype=int),
        )
        r1 = Step1Result(
            p0=_unpairs(doc["p0"]),
            solutions=classified,
            paths_tracked_step1=int(doc["paths_tracked"]),
            seed=doc["seed"],
            gamma=complex(doc["gamma"][0], doc["gamma"][1]),
            suspected_crossings=tuple(tuple(p) for p in doc["suspected_crossings"]),
            path_statuses=tuple(sorted(
                (k, int(v)) for k, v in doc.get("path_statuses", {}).items()
            )),
        )
        n_params = doc["n_params"]
    except KeyError as exc:
        raise InputError(f"{path}: artifact has no {exc.args[0]!r} entry") from None
    except ValueError as exc:  # a non-finite number, or coordinate lists of two lengths
        raise InputError(f"{path}: {exc}") from None
    for what, n in (("parameters", n_params), ("p0 values", len(r1.p0))):
        if n != sysm.n_params:
            raise InputError(
                f"{path}: artifact has {n} {what}, system has {sysm.n_params}"
            )
    if not len(distinct):
        raise InputError(f"{path}: artifact has no solutions to start Step 2 from")
    if distinct.shape[1] != sysm.n_vars:
        raise InputError(
            f"{path}: artifact solutions have {distinct.shape[1]} coordinates, "
            f"system has {sysm.n_vars} variables"
        )
    return r1


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def export_real_count_grid(
    header: CollectedHeader, results: list[PointResult], mesh: MeshSpec
) -> str:
    """CSV of real-solution counts over the mesh, one row per grid point."""
    if header.source != "mesh":
        raise InputError("collected data came from a point file; no grid shape")
    if mesh.size != len(results):
        raise InputError(
            f"mesh has {mesh.size} points but collected data has {len(results)}"
        )
    axes = tuple(
        j for j, ax in enumerate(mesh.axes) if isinstance(ax, Range)
    ) or tuple(range(mesh.n_params))
    names = header.param_names or tuple(f"p{j}" for j in range(mesh.n_params))
    out = [",".join([names[j] for j in axes] + ["n_solutions", "n_real", "status"])]
    for pr in sorted(results, key=lambda r: r.index):
        coords = [repr(float(pr.p[j].real)) for j in axes]
        out.append(",".join(coords + [
            str(len(pr.solutions)), str(pr.solutions.n_real), pr.status.value,
        ]))
    return "\n".join(out) + "\n"


# float.__repr__ spellings json writes differently
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_SOLUTIONS_JSON = """{
 "version": 1,
 "n_vars": %d,
 "n_params": %d,
 "n_points": %d,
 "step1_paths": %d,
 "seed": %s,
 "max_retries": %d,
 "source": %s,
 "param_names": %s,
 "p0": %s,
 "points": %s
}"""

_POINT_JSON = """{
   "index": %d,
   "params": %s,
   "status": %s,
   "retries": %d,
   "path_failures": %d,
   "diverged": %d,
   "note": %s,
   "solutions": %s
  }"""

_SOLUTION_JSON = """{
     "coords": %s,
     "singular": %s,
     "real": %s,
     "multiplicity": %d,
     "residual": %s
    }"""


def _json_float(x: float) -> str:
    s = repr(x)
    return _JSON_FLOATS.get(s, s)


def _json_list(items: list[str], depth: int) -> str:
    """A list of encoded items, laid out as json.dumps(indent=1) lays out
    a list opened at nesting ``depth``."""
    if not items:
        return "[]"
    sep = "\n" + " " * (depth + 1)
    return "[" + sep + ("," + sep).join(items) + "\n" + " " * depth + "]"


def _json_pairs(vec, depth: int) -> str:
    """``_pairs(vec)`` as json.dumps(indent=1) writes it at nesting ``depth``."""
    nums = np.ascontiguousarray(vec, dtype=complex).view(float).tolist()
    inner = "\n" + " " * (depth + 2)
    pair = "[" + inner + "%s," + inner + "%s\n" + " " * (depth + 1) + "]"
    return _json_list(
        [pair % (_json_float(re), _json_float(im)) for re, im in zip(nums[::2], nums[1::2])],
        depth,
    )


def export_solutions_json(header: CollectedHeader, results: list[PointResult]) -> str:
    """Full dump: every point, every solution as [re, im] arrays.

    Returns the bytes ``json.dumps(doc, indent=1)`` would write for the
    document as nested dicts and lists, but lays them out itself: the
    pure-Python encoder that ``indent`` selects costs more than the sweep
    of a cheap system.  Floats are spelled as json spells them, strings go
    through json.dumps, and an infinite residual is written as null.
    """
    points = []
    for pr in sorted(results, key=lambda r: r.index):
        sols = pr.solutions
        solutions = [
            _SOLUTION_JSON % (
                _json_pairs(coords, 5),
                "true" if singular else "false",
                "true" if real else "false",
                mult,
                "null" if math.isinf(res) else _json_float(res),
            )
            for coords, singular, real, mult, res in zip(
                sols.distinct, sols.singular_flags.tolist(), sols.real_flags.tolist(),
                sols.multiplicities.tolist(), sols.residuals.tolist(),
            )
        ]
        points.append(_POINT_JSON % (
            pr.index,
            _json_pairs(pr.p, 3),
            json.dumps(pr.status.value),
            pr.retries_used,
            pr.path_failures,
            pr.diverged_paths,
            json.dumps(pr.note),
            _json_list(solutions, 3),
        ))
    return _SOLUTIONS_JSON % (
        header.n_vars,
        header.n_params,
        header.n_points,
        header.step1_paths,
        "null" if header.seed is None else header.seed,
        header.max_retries,
        json.dumps(header.source),
        _json_list([json.dumps(name) for name in header.param_names], 1),
        _json_pairs(header.p0, 1),
        _json_list(points, 1),
    )


def _fmt_point(p: np.ndarray) -> str:
    return "(" + ", ".join(f"{c.real:g}{c.imag:+g}j" for c in p) + ")"


def write_failure_report(sweep: SweepResult) -> str:
    """Human-readable summary of failed, retried, and degenerate points."""
    unresolved = [pr for pr in sweep.point_results if pr.status is PointStatus.UNRESOLVED]
    retried = [
        pr for pr in sweep.point_results
        if pr.retries_used > 0 and pr.status is not PointStatus.UNRESOLVED
    ]
    diverged = [
        pr for pr in sweep.point_results
        if pr.diverged_paths > 0 and pr.status is not PointStatus.UNRESOLVED
    ]
    singular = [pr for pr in sweep.point_results if pr.solutions.singular_flags.any()]
    n_failed = len(unresolved) + len(retried)
    lines = [f"{n_failed} failed points "
             f"({len(unresolved)} unresolved, {len(retried)} resolved by retry)"]

    def describe(pr):
        kinds = ", ".join(f"{k}:{n}" for k, n in pr.failure_kinds) or "none"
        entry = (
            f"  point {pr.index} at {_fmt_point(pr.p)}: status={pr.status.value}, "
            f"failures={pr.path_failures} [{kinds}], diverged={pr.diverged_paths}, "
            f"retries_used={pr.retries_used}"
        )
        if pr.note:
            entry += f"\n    note: {pr.note}"
        return entry

    if unresolved:
        lines.append("")
        lines.append("unresolved points:")
        lines.extend(describe(pr) for pr in unresolved)
    if retried:
        lines.append("")
        lines.append("points resolved after retries:")
        lines.extend(describe(pr) for pr in retried)
    if diverged:
        lines.append("")
        lines.append("points with divergent paths (fewer finite solutions; "
                      "not retried):")
        lines.extend(describe(pr) for pr in diverged)
    if singular:
        lines.append("")
        lines.append("points with singular endpoints (degenerate targets; "
                      "not retried):")
        for pr in singular:
            n_sing = int(pr.solutions.singular_flags.sum())
            lines.append(
                f"  point {pr.index} at {_fmt_point(pr.p)}: {n_sing} singular "
                f"of {len(pr.solutions)} solutions, status={pr.status.value}"
            )
    return "\n".join(lines) + "\n"


def write_timing_summary(sweep: SweepResult) -> str:
    lines = ["index track_seconds"]
    # stable: the retry rounds of one index stay in round order
    for rec in sorted(sweep.timings, key=lambda r: r.index):
        lines.append(f"{rec.index} {rec.track_seconds:.6f}")
    total_track = sum(r.track_seconds for r in sweep.timings)
    lines.append(f"# totals: points={len(sweep.timings)} track={total_track:.3f}s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _load_points(inp: InputFile, base_dir: str) -> PointList:
    if inp.mesh is not None:
        return generate_mesh(inp.mesh)
    path = inp.param_file
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    with open(path) as f:
        return load_param_file(f.read(), n_params=inp.system.n_params)


def _parse_fault(spec: str | None, n_points: int) -> FaultInjection | None:
    """The point indices of ``--inject-failure-at``, each in [0, n_points)."""
    if spec is None:
        return None
    try:
        indices = frozenset(int(tok) for tok in spec.split(","))
    except ValueError:
        raise InputError(
            f"--inject-failure-at takes comma-separated point indices, got {spec!r}"
        ) from None
    outside = sorted(i for i in indices if not 0 <= i < n_points)
    if outside:
        raise InputError(
            f"--inject-failure-at index {outside[0]} is outside the "
            f"{n_points} points [0, {n_points})"
        )
    return FaultInjection(indices)


def cmd_solve(args) -> int:
    text = _read_text(args.input)
    inp = parse_input_file(text)
    if args.export_csv and inp.mesh is None:
        raise InputError("--export-csv requires a MESH run")
    sysm = inp.system
    base_dir = os.path.dirname(os.path.abspath(args.input)) if args.input != "-" else "."
    # a bad point file, Step 1 artifact, fault index or setting fails here,
    # before the generic solve and before the run directory is made
    points = _load_points(inp, base_dir)
    fault = _parse_fault(args.inject_failure_at, len(points.points))

    cfg = _build_tracker_config(inp.config)
    seed = _sweep_setting(inp.config, args, "seed", 0)
    workers = _sweep_setting(inp.config, args, "workers", 1)
    max_retries = _sweep_setting(inp.config, args, "max_retries", 2)
    batch_size = _sweep_setting(inp.config, args, "batch_size", None)
    check_sweep_settings(workers, max_retries, batch_size)
    do_verify = _parse_bool(
        "verify_step1", inp.config.get("verify_step1", "0")
    ) or args.verify_step1
    r1 = None
    if args.reuse_step1:
        r1 = load_step1(os.path.join(args.reuse_step1, "step1.json"), sysm)

    out_dir = args.out or os.environ.get("SWEEP_OUT_DIR")
    if out_dir is None:
        stem = "sweep" if args.input == "-" else os.path.splitext(
            os.path.basename(args.input)
        )[0]
        out_dir = stem + "_run"
    os.makedirs(out_dir, exist_ok=True)

    rng = np.random.default_rng(seed)

    if r1 is None:
        r1 = step1(sysm, cfg, rng, p0_override=inp.p0, seed=seed)
        log.info("step1: %d solutions from %d paths", r1.n_solutions,
                 r1.paths_tracked_step1)
    else:
        # the draws of the Step 1 that saved the artifact come first, so the
        # retry rounds draw the p' values of that run
        step1_draws(sysm, rng, inp.p0)
        log.info("step1: reusing %d solutions from %s", r1.n_solutions, args.reuse_step1)
    save_step1(os.path.join(out_dir, "step1.json"), r1)

    if do_verify:
        hard = [(k, n) for k, n in r1.path_statuses if k in _HARD_FAILURE_VALUES]
        if hard:
            log.error(
                "step1 verification failed: %d of %d paths failed (%s), which "
                "divergence does not explain; re-run with a different seed or "
                "supply p0",
                sum(n for _, n in hard), r1.paths_tracked_step1,
                ", ".join(f"{k}:{n}" for k, n in r1.path_statuses),
            )
            return 1
        if verify_step1(sysm, cfg, r1, rng):
            log.info("step1: %d solutions, verified", r1.n_solutions)
        else:
            log.error("step1 verification failed: solution counts differ; "
                      "re-run with a different seed or supply p0")
            return 1

    if args.step1_only:
        log.info("step1 artifact written to %s", out_dir)
        return 0

    sweep = run_parallel(
        sysm, r1, list(points.points), cfg, max_retries, workers, rng,
        batch_size=batch_size, out_dir=out_dir, fault_injection=fault,
        source=points.source,
    )

    with open(os.path.join(out_dir, "solutions.json"), "w") as f:
        f.write(export_solutions_json(sweep.header, sweep.point_results))
    with open(os.path.join(out_dir, "failure_report.txt"), "w") as f:
        f.write(write_failure_report(sweep))
    with open(os.path.join(out_dir, "timing_summary.txt"), "w") as f:
        f.write(write_timing_summary(sweep))
    if args.export_csv:
        with open(os.path.join(out_dir, "real_counts.csv"), "w") as f:
            f.write(export_real_count_grid(sweep.header, sweep.point_results, inp.mesh))

    n_unresolved = len(sweep.unresolved_indices)
    log.info(
        "sweep finished: %d points, %d paths tracked, %d unresolved",
        len(sweep.point_results), sweep.total_paths_tracked, n_unresolved,
    )
    return 2 if n_unresolved else 0


def cmd_export(args) -> int:
    inp = parse_input_file(_read_text(args.input))
    header, records = read_collected(os.path.join(args.run_dir, "collected.dat"))
    if args.csv:
        if inp.mesh is None:
            log.error("CSV export requires a MESH-based input file")
            return 1
        with open(args.csv, "w") as f:
            f.write(export_real_count_grid(header, records, inp.mesh))
    if args.json:
        with open(args.json, "w") as f:
            f.write(export_solutions_json(header, records))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramsweep",
        description="Solve a parameterized polynomial system at many "
        "parameter points via parameter homotopy continuation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the two-step sweep")
    solve.add_argument("input", help="input file path, or '-' for stdin")
    solve.add_argument("--out", help="output directory "
                       "(default: $SWEEP_OUT_DIR or <input>_run)")
    solve.add_argument("--workers", type=int, help="worker processes (default 1)")
    solve.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    solve.add_argument("--max-retries", type=int, dest="max_retries",
                       help="retry rounds from fresh start points (default 2)")
    solve.add_argument("--batch-size", type=int, dest="batch_size",
                       help="points per work batch")
    solve.add_argument("--verify-step1", action="store_true",
                       help="fail if a generic-solve path failed other than "
                       "by diverging; else re-run it and compare counts")
    solve.add_argument("--step1-only", action="store_true",
                       help="stop after writing step1.json")
    solve.add_argument("--reuse-step1", metavar="DIR",
                       help="load step1.json from a previous run directory")
    solve.add_argument("--export-csv", action="store_true",
                       help="also write real_counts.csv (mesh runs)")
    solve.add_argument("--inject-failure-at", metavar="I,J,...",
                       help="testing hook: force one path failure on the "
                       "first attempt at these point indices")
    solve.set_defaults(func=cmd_solve)

    export = sub.add_parser("export", help="re-export a finished run")
    export.add_argument("input", help="the input file used for the run")
    export.add_argument("run_dir", help="run directory with collected.dat")
    export.add_argument("--csv", help="write real-count grid CSV here")
    export.add_argument("--json", help="write solutions JSON here")
    export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means an Unresolved point
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (InputError, ParseError, Step1Empty, FileNotFoundError, ValueError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

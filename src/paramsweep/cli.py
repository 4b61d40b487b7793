"""Command-line driver: the input file, the commands and the exports.

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
``max_retries``, ``batch_size``, ``verify_step1``, the Step 1 start point
``p0: re im re im ...;`` and ``param_file: <path>;`` as the alternative to
a MESH section (exactly one of the two must be present).  Each value is
parsed on its own line, and an error names that line: ``verify_step1``
takes 1/0/true/false/yes/no/on/off in any case, the other numbers must be
integers, and parameter values must be finite.  Each setting has one
source: the worker count is the ``--workers`` flag, the run directory
``--out``, and everything else CONFIG.  ``%`` and ``#`` start comments.

A run directory receives::

    collected.dat       the sweep's results, one record per parameter point
    step1.json          the generic-solve artifact (v2, reusable via
                        --reuse-step1), its roots in the record's layout
    solutions.json      full machine-readable dump: the header of
                        collected.dat and its record lines, one per line
    failure_report.txt  failed/retried/degenerate points
    timing_summary.txt  per-point tracking seconds; a point's tracking
                        time is its equal share of its batch's
    real_counts.csv     grid export (mesh runs with --export-csv)

``datafile`` owns the JSON layout of every file here but the CSV and
the two text reports.  ``solve`` writes ``collected.dat`` and
``solutions.json`` from the record lines its workers encoded, and the
CSV and the failure report from those lines parsed, as ``export`` does
from the lines it reads back, so the two write the same bytes.

Exit codes: 0 success, 2 when any point is Unresolved, 1 on fatal errors,
usage errors of the command line included.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from paramsweep.datafile import CollectedHeader, load_step1, read_collected, save_step1
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
    Step1Empty,
    step1,
    step1_draws,
    verify_step1,
)
from paramsweep.poly import ParamSystem, ParseError, parse_system, strip_comment
from paramsweep.scheduler import COLLECTED_NAME, PointSummary, check_sweep_settings, run_parallel
from paramsweep.tracker import TrackerConfig

__all__ = [
    "InputFile",
    "parse_input_file",
    "export_real_count_grid",
    "export_solutions_json",
    "write_failure_report",
    "main",
]

log = logging.getLogger("paramsweep")

_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


class InputError(ValueError):
    """Bad input file or configuration."""


def _parse_bool(value: str) -> bool:
    try:
        return _BOOLEANS[value.lower()]
    except KeyError:
        raise ValueError(
            f"must be one of 1/0/true/false/yes/no/on/off, got {value!r}"
        ) from None


def _parse_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"must be an integer, got {value!r}") from None


def _parse_seed(value: str) -> int:
    seed = _parse_int(value)
    if seed < 0:  # numpy's generators take no negative seed
        raise ValueError(f"must be >= 0, got {seed}")
    return seed


_CONFIG_KEYS = {
    "max_newton_iters": _parse_int,
    "seed": _parse_seed,
    "max_retries": _parse_int,
    "batch_size": _parse_int,
    "verify_step1": _parse_bool,
    "p0": lambda value: [finite_float(t) for t in value.split()],
    "param_file": str,
}


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
        try:
            config[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise InputError(f"line {lineno}: config key {key!r}: {exc}") from None
    return config


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
    try:
        return TrackerConfig(config.get("max_newton_iters", TrackerConfig.max_newton_iters))
    except ValueError as exc:
        raise InputError(f"bad tracker configuration: {exc}") from exc


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


def export_solutions_json(header: CollectedHeader, records: list[str]) -> str:
    """Full dump: the collected file's header, then under ``"points"`` its
    record lines, which the caller gives in index order."""
    head = json.dumps({"version": 1, **header.doc()})
    points = ",\n".join(records)
    return f'{head[:-1]}, "points": [\n{points}\n]}}\n'


def _fmt_point(p: np.ndarray) -> str:
    return "(" + ", ".join(f"{c.real:g}{c.imag:+g}j" for c in p) + ")"


def write_failure_report(results: list[PointResult]) -> str:
    """Human-readable summary of failed, retried, and degenerate points."""
    unresolved = [pr for pr in results if pr.status is PointStatus.UNRESOLVED]
    retried = [
        pr for pr in results
        if pr.retries_used > 0 and pr.status is not PointStatus.UNRESOLVED
    ]
    diverged = [
        pr for pr in results
        if pr.diverged_paths > 0 and pr.status is not PointStatus.UNRESOLVED
    ]
    singular = [pr for pr in results if pr.solutions.singular_flags.any()]
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


def write_timing_summary(timings: list[PointSummary]) -> str:
    lines = ["index track_seconds"]
    # stable: the retry rounds of one index stay in round order
    for rec in sorted(timings, key=lambda r: r.index):
        lines.append(f"{rec.index} {rec.track_seconds:.6f}")
    total_track = sum(r.track_seconds for r in timings)
    lines.append(f"# totals: attempts={len(timings)} track={total_track:.3f}s")
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
    fault = _parse_fault(args.inject_failure_at, len(points))

    cfg = _build_tracker_config(inp.config)
    seed = inp.config.get("seed", 0)
    max_retries = inp.config.get("max_retries", 2)
    batch_size = inp.config.get("batch_size")
    check_sweep_settings(args.workers, max_retries, batch_size)
    r1 = None
    if args.reuse_step1:
        r1 = load_step1(os.path.join(args.reuse_step1, "step1.json"), sysm)

    out_dir = args.out
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

    if inp.config.get("verify_step1", False):
        # a generator of its own, so the check leaves the retry rounds' draws
        failure = verify_step1(sysm, cfg, r1, np.random.default_rng([seed, 1]))
        if failure is not None:
            log.error("step1 verification failed: %s; re-run with a different "
                      "seed or supply p0", failure)
            return 1
        log.info("step1: %d solutions, verified", r1.n_solutions)

    if args.step1_only:
        log.info("step1 artifact written to %s", out_dir)
        return 0

    sweep = run_parallel(
        sysm, r1, points.points, cfg, max_retries, args.workers, rng,
        batch_size=batch_size, out_dir=out_dir, fault_injection=fault,
        source=points.source,
    )

    with open(os.path.join(out_dir, "solutions.json"), "w") as f:
        f.write(export_solutions_json(sweep.header, sweep.records))
    with open(os.path.join(out_dir, "failure_report.txt"), "w") as f:
        f.write(write_failure_report(sweep.point_results))
    with open(os.path.join(out_dir, "timing_summary.txt"), "w") as f:
        f.write(write_timing_summary(sweep.timings))
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
    header, records, lines = read_collected(os.path.join(args.run_dir, COLLECTED_NAME))
    if args.csv:
        if inp.mesh is None:
            log.error("CSV export requires a MESH-based input file")
            return 1
        with open(args.csv, "w") as f:
            f.write(export_real_count_grid(header, records, inp.mesh))
    if args.json:
        order = sorted(range(len(records)), key=lambda k: records[k].index)
        with open(args.json, "w") as f:
            f.write(export_solutions_json(header, [lines[k] for k in order]))
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
    solve.add_argument("--out", help="output directory (default: <input>_run)")
    solve.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1)")
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

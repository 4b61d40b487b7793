"""The JSON layout of a run's roots and records: the collected data file,
the points of ``solutions.json`` and the Step 1 artifact ``step1.json``.

Each record is one ``paramhom.PointResult`` written by ``serialize_record``
as one JSON object on one line, and read back by ``parse_records``::

    {"index": 3, "params": [[0.5, -0.25]], "status": "Complete", "round": 0,
     "retries": 0, "path_failures": 0, "diverged": 0, "failure_kinds": {},
     "note": "", "solutions": [{"coords": [[1.0, 0.0]], "singular": false,
     "real": true, "multiplicity": 1, "residual": 1e-16}]}

Complex values are ``[re, im]`` pairs.  Floats are written as ``json``
writes them (``repr``, and NaN/Infinity for the values JSON lacks), so
reading a record back reproduces every value exactly.  A root set is a
``"solutions"`` list, written by ``_solution_list`` and read by
``_read_solutions`` for both the record and the Step 1 artifact (v2,
``save_step1``, ``load_step1``); the reader refuses a root whose
coordinate count is not ``n_vars``, and reads no roots as (0, n_vars).

The collected file (``write_collected``, ``read_collected``) is the line
``# paramsweep collected v2``, one JSON line with the header
(``CollectedHeader.doc``), then one self-delimiting record per line.
A sweep's workers encode its records; ``write_collected`` writes the
lines it is given, and ``solutions.json`` is built from the same lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from paramsweep.paramhom import PointResult, PointStatus, Step1Result
from paramsweep.poly import ParamSystem
from paramsweep.tracker import ClassifiedSolutions

__all__ = [
    "serialize_record",
    "parse_records",
    "write_collected",
    "read_collected",
    "save_step1",
    "load_step1",
]

FORMAT_HEADER = "# paramsweep collected v2"
STEP1_VERSION = 2
_INT_FIELDS = ("n_vars", "n_params", "n_points", "step1_paths", "max_retries")


def pairs(values) -> list:
    """Complex ``values`` as nested lists with an [re, im] pair per value."""
    values = np.ascontiguousarray(values, dtype=complex)
    return values.view(float).reshape(*values.shape, 2).tolist()


def _complexes(nested) -> np.ndarray:
    """Nested ``[re, im]`` pairs as a complex array of the nesting's shape."""
    arr = np.array(nested, dtype=float)
    if arr.shape[-1:] != (2,):
        raise ValueError(f"numbers of shape {arr.shape} are not [re, im] pairs")
    # a view keeps each (re, im) pair as written; re + 1j*im would turn
    # an imaginary -0.0 into 0.0 and an infinite one into a nan real part
    return arr.view(complex)[..., 0]


def _solution_list(sols: ClassifiedSolutions) -> list[dict]:
    """The roots of ``sols`` as the ``"solutions"`` list of a record."""
    return [
        {"coords": coords, "singular": singular, "real": real,
         "multiplicity": mult, "residual": res}
        for coords, singular, real, mult, res in zip(
            pairs(sols.distinct), sols.singular_flags.tolist(), sols.real_flags.tolist(),
            sols.multiplicities.tolist(), sols.residuals.tolist(),
        )
    ]


def _read_solutions(entries: list, n_vars: int) -> ClassifiedSolutions:
    """The root set of a ``"solutions"`` list of roots of ``n_vars`` coordinates."""
    if not entries:
        return ClassifiedSolutions.empty(n_vars)
    distinct = _complexes([s["coords"] for s in entries])
    if distinct.shape[1] != n_vars:
        raise ValueError(
            f"solutions have {distinct.shape[1]} coordinates, system has {n_vars} variables"
        )
    return ClassifiedSolutions(
        distinct,
        np.array([s["singular"] for s in entries], dtype=bool),
        np.array([s["real"] for s in entries], dtype=bool),
        np.array([s["residual"] for s in entries], dtype=float),
        np.array([s["multiplicity"] for s in entries], dtype=int),
    )


def serialize_record(pr: PointResult) -> str:
    """The point's record: one JSON object on one line, with no newline."""
    return json.dumps({
        "index": pr.index,
        "params": pairs(pr.p),
        "status": pr.status.value,
        "round": pr.round,
        "retries": pr.retries_used,
        "path_failures": pr.path_failures,
        "diverged": pr.diverged_paths,
        "failure_kinds": dict(pr.failure_kinds),
        "note": pr.note,
        "solutions": _solution_list(pr.solutions),
    })


def _parse_record(line: str, lineno: int, n_vars: int) -> PointResult:
    try:
        rec = json.loads(line)
        if type(rec["index"]) is not int:
            raise ValueError(f"index {rec['index']!r} is not an integer")
        return PointResult(
            index=rec["index"],
            p=_complexes(rec["params"]),
            solutions=_read_solutions(rec["solutions"], n_vars),
            status=PointStatus(rec["status"]),
            retries_used=rec["retries"],
            path_failures=rec["path_failures"],
            diverged_paths=rec["diverged"],
            failure_kinds=tuple(rec["failure_kinds"].items()),
            note=rec["note"],
            round=rec["round"],
        )
    except KeyError as exc:
        raise ValueError(f"line {lineno}: record has no {exc.args[0]!r} entry") from None
    except json.JSONDecodeError as exc:  # cut short, or not JSON at all
        raise ValueError(
            f"line {lineno}: not a JSON record: {exc.msg} at column {exc.colno}"
        ) from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"line {lineno}: malformed point record: {exc}") from None


def parse_records(lines: list[str], n_vars: int) -> list[PointResult]:
    """Parse one record of ``n_vars`` variables from each of the ``lines``;
    a ValueError names the line at fault, counting from 1."""
    return [_parse_record(line, n, n_vars) for n, line in enumerate(lines, start=1)]


@dataclass(frozen=True)
class CollectedHeader:
    n_vars: int
    n_params: int
    n_points: int
    step1_paths: int
    seed: int | None
    max_retries: int
    p0: np.ndarray
    source: str = "mesh"  # "mesh" or "file"
    param_names: tuple[str, ...] = ()

    def doc(self) -> dict:
        """The header as the JSON object of the collected file's second
        line, whose keys ``solutions.json`` has at its top level."""
        return {
            "n_vars": self.n_vars,
            "n_params": self.n_params,
            "n_points": self.n_points,
            "step1_paths": self.step1_paths,
            "seed": self.seed,
            "max_retries": self.max_retries,
            "source": self.source,
            "param_names": list(self.param_names),
            "p0": pairs(self.p0),
        }


def write_collected(path, header: CollectedHeader, lines: list[str]) -> None:
    """Write the version line and the header, then the record ``lines``,
    each given without its newline."""
    with open(path, "w") as f:
        f.write(f"{FORMAT_HEADER}\n{json.dumps(header.doc())}\n")
        f.writelines(line + "\n" for line in lines)
    return lines


def _read_header(line: str) -> CollectedHeader:
    try:
        doc = json.loads(line)
        fields = {key: doc[key] for key in (*_INT_FIELDS, "seed", "source", "param_names")}
        p0 = doc["p0"]
    except KeyError as exc:
        raise ValueError(
            f"collected data file header has no {exc.args[0]!r} entry"
        ) from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"collected data file header: {exc}") from None
    try:
        p0 = _complexes(p0)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"collected data file header: p0: {exc}") from None
    for key in (*_INT_FIELDS, "seed"):
        value = fields[key]
        if type(value) is not int and not (key == "seed" and value is None):
            raise ValueError(
                f"collected data file header: {key}={value!r} is not an integer"
            )
    if len(p0) != fields["n_params"]:
        raise ValueError(
            f"collected data file header: p0 has {len(p0)} values, "
            f"n_params={fields['n_params']}"
        )
    fields["param_names"] = tuple(fields["param_names"])
    return CollectedHeader(p0=p0, **fields)


def read_collected(path) -> tuple[CollectedHeader, list[PointResult], list[str]]:
    """The header, the records and the record lines of a collected data
    file, the records and their lines in the file's order."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        version = lines[0] if lines else ""
        if version.startswith("# paramsweep collected "):
            raise ValueError(
                f"collected data file is {version.split()[-1]}, this program "
                f"reads {FORMAT_HEADER.split()[-1]}"
            )
        raise ValueError("not a collected data file (bad or missing header)")
    if len(lines) < 2:
        raise ValueError("collected data file lacks its header line")
    header = _read_header(lines[1])
    records = []
    seen = set()
    for lineno, line in enumerate(lines[2:], start=3):
        r = _parse_record(line, lineno, header.n_vars)
        if not 0 <= r.index < header.n_points:
            raise ValueError(
                f"line {lineno}: point index {r.index} is outside [0, {header.n_points})"
            )
        if r.index in seen:
            raise ValueError(f"line {lineno}: point index {r.index} repeats")
        seen.add(r.index)
        if len(r.p) != header.n_params:
            raise ValueError(
                f"line {lineno}: the record of point {r.index} has "
                f"{len(r.p)} parameter values, n_params={header.n_params}"
            )
        records.append(r)
    if len(records) != header.n_points:
        raise ValueError(
            f"collected file holds {len(records)} records, header says "
            f"{header.n_points}"
        )
    return header, records, lines[2:]


def save_step1(path, r1: Step1Result) -> None:
    """Write the Step 1 artifact, its roots in the record's layout."""
    doc = {
        "version": STEP1_VERSION,
        "n_params": len(r1.p0),
        "p0": pairs(r1.p0),
        "gamma": pairs([r1.gamma])[0],
        "seed": r1.seed,
        "paths_tracked": r1.paths_tracked_step1,
        "suspected_crossings": [list(p) for p in r1.suspected_crossings],
        "path_statuses": dict(r1.path_statuses),
        "solutions": _solution_list(r1.solutions),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_step1(path, sysm: ParamSystem) -> Step1Result:
    """Read a Step 1 artifact, refusing one of another version, one that
    lacks a key or solutions, holds a number that is not finite, or whose
    parameters or solution coordinates do not fit ``sysm``."""
    with open(path) as f:
        doc = json.load(f)
    try:
        version = doc["version"]
        if version != STEP1_VERSION:
            raise ValueError(f"step1 artifact is v{version}, this program reads v{STEP1_VERSION}")
        p0, gamma = _complexes(doc["p0"]), complex(_complexes(doc["gamma"]))
        solutions = _read_solutions(doc["solutions"], sysm.n_vars)
        numbers = np.concatenate([p0, [gamma], solutions.distinct.ravel()]).view(float)
        if not np.isfinite(numbers).all():
            raise ValueError(f"non-finite value {numbers[~np.isfinite(numbers)][0]}")
        for key in ("seed", "paths_tracked"):  # the collected file's header holds both
            if type(doc[key]) is not int and not (key == "seed" and doc[key] is None):
                raise ValueError(f"{key}={doc[key]!r} is not an integer")
        r1 = Step1Result(
            p0=p0, solutions=solutions, paths_tracked_step1=doc["paths_tracked"],
            seed=doc["seed"], gamma=gamma,
            suspected_crossings=tuple(map(tuple, doc["suspected_crossings"])),
            path_statuses=tuple(sorted((k, int(n)) for k, n in doc["path_statuses"].items())),
        )
        n_params = doc["n_params"]
    except KeyError as exc:
        raise ValueError(f"{path}: artifact has no {exc.args[0]!r} entry") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    for what, n in (("parameters", n_params), ("p0 values", len(p0))):
        if n != sysm.n_params:
            raise ValueError(f"{path}: artifact has {n} {what}, system has {sysm.n_params}")
    if not len(solutions):
        raise ValueError(f"{path}: artifact has no solutions to start Step 2 from")
    return r1

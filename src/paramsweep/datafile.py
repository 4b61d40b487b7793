"""One JSON record per point: the collected data file and the points of
``solutions.json``.

Each record is one ``paramhom.PointResult`` written by ``serialize_record``
as one JSON object on one line, and read back by ``parse_records``::

    {"index": 3, "params": [[0.5, -0.25]], "status": "Complete", "round": 0,
     "retries": 0, "path_failures": 0, "diverged": 0, "failure_kinds": {},
     "note": "", "solutions": [{"coords": [[1.0, 0.0]], "singular": false,
     "real": true, "multiplicity": 1, "residual": 1e-16}]}

Complex values are ``[re, im]`` pairs.  Floats are written as ``json``
writes them (``repr``, and NaN/Infinity for the values JSON lacks), so
reading a record back reproduces every value exactly.  A record with no
solutions reads back as a ``ClassifiedSolutions`` of 0 rows.

The collected file (``write_collected``, ``read_collected``) is the line
``# paramsweep collected v2``, one JSON line with the header
(``CollectedHeader.doc``), then one record per line.  Records are
self-delimiting lines, so a reader needs nothing but the line to parse one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from paramsweep.paramhom import PointResult, PointStatus
from paramsweep.tracker import ClassifiedSolutions

__all__ = [
    "serialize_record",
    "parse_records",
    "write_collected",
    "read_collected",
]

FORMAT_HEADER = "# paramsweep collected v2"
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


def serialize_record(pr: PointResult) -> str:
    """The point's record: one JSON object on one line, with no newline."""
    sols = pr.solutions
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
        "solutions": [
            {"coords": coords, "singular": singular, "real": real,
             "multiplicity": mult, "residual": res}
            for coords, singular, real, mult, res in zip(
                pairs(sols.distinct), sols.singular_flags.tolist(), sols.real_flags.tolist(),
                sols.multiplicities.tolist(), sols.residuals.tolist(),
            )
        ],
    })


def _parse_record(line: str, lineno: int) -> PointResult:
    try:
        rec = json.loads(line)
        if type(rec["index"]) is not int:
            raise ValueError(f"index {rec['index']!r} is not an integer")
        sols = rec["solutions"]
        solutions = ClassifiedSolutions.empty(0)
        if sols:
            solutions = ClassifiedSolutions(
                _complexes([s["coords"] for s in sols]),
                np.array([s["singular"] for s in sols], dtype=bool),
                np.array([s["real"] for s in sols], dtype=bool),
                np.array([s["residual"] for s in sols], dtype=float),
                np.array([s["multiplicity"] for s in sols], dtype=int),
            )
        return PointResult(
            index=rec["index"],
            p=_complexes(rec["params"]),
            solutions=solutions,
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


def parse_records(text: str) -> list[PointResult]:
    """Parse one record per line; a ValueError names the line at fault."""
    return [_parse_record(line, n) for n, line in enumerate(text.splitlines(), start=1)]


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


def write_collected(path, header: CollectedHeader, results: list[PointResult]) -> None:
    """Write the version line and the header, then one record per result."""
    with open(path, "w") as f:
        f.write(f"{FORMAT_HEADER}\n{json.dumps(header.doc())}\n")
        for pr in results:
            f.write(serialize_record(pr) + "\n")


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


def read_collected(path) -> tuple[CollectedHeader, list[PointResult]]:
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
        r = _parse_record(line, lineno)
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
    return header, records

"""Line-oriented text format of the collected data file.

Each record is one ``paramhom.PointResult``: the coordinator writes each
point's result once, after the sweep (``write_collected``), and
``read_collected`` reads the file back as ``PointResult``s.  Floats are
written with ``repr``, so reading a file back reproduces every value
exactly.  A record's solutions are a ``tracker.ClassifiedSolutions`` of
arrays, one ``S`` line per row; a record with no ``S`` line reads back
as a record of 0 rows.

Record layout (one parameter point per record)::

    P <index> <round> <status> <retries> <failures> <diverged> <kinds> <nsols> <re im ...>
    S <singular> <real> <multiplicity> <residual> <re im ...>     (x nsols)
    D <index> <free-text note>                                    (optional)

``kinds`` is ``-`` or comma-joined ``name:count`` pairs, and ``nsols``
counts the ``S`` lines that follow.  The collected file carries a ``#``
header block in front.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from paramsweep.paramhom import PointResult, PointStatus
from paramsweep.tracker import ClassifiedSolutions

__all__ = [
    "serialize_record",
    "parse_records",
    "write_collected",
    "read_collected",
]

FORMAT_HEADER = "# paramsweep collected v1"
# the fields of the header's second line that every collected file has
_HEADER_FIELDS = ("nvars", "nparams", "npoints", "step1_paths", "seed", "max_retries")


def _floats(vec: np.ndarray) -> str:
    return " ".join(f"{float(c.real)!r} {float(c.imag)!r}" for c in vec)


def _complexes(tokens: list[str]) -> np.ndarray:
    if len(tokens) % 2:
        raise ValueError(f"{len(tokens)} numbers are not re/im pairs")
    # a view keeps each (re, im) pair as written; re + 1j*im would turn
    # an imaginary -0.0 into 0.0 and an infinite one into a nan real part
    return np.array([float(t) for t in tokens]).view(complex)


def _kinds_str(kinds) -> str:
    if not kinds:
        return "-"
    return ",".join(f"{name}:{count}" for name, count in kinds)


def _parse_kinds(tok: str) -> tuple[tuple[str, int], ...]:
    if tok == "-":
        return ()
    out = []
    for part in tok.split(","):
        name, count = part.rsplit(":", 1)
        out.append((name, int(count)))
    return tuple(out)


def serialize_record(pr: PointResult) -> str:
    sols = pr.solutions
    lines = [
        f"P {pr.index} {pr.round} {pr.status.value} {pr.retries_used} "
        f"{pr.path_failures} {pr.diverged_paths} {_kinds_str(pr.failure_kinds)} "
        f"{len(sols)} {_floats(pr.p)}"
    ]
    for coords, singular, real, mult, res in zip(
        sols.distinct, sols.singular_flags.tolist(), sols.real_flags.tolist(),
        sols.multiplicities.tolist(), sols.residuals.tolist(),
    ):
        lines.append(f"S {int(singular)} {int(real)} {mult} {res!r} {_floats(coords)}")
    if pr.note:
        lines.append(f"D {pr.index} {pr.note}")
    return "\n".join(lines) + "\n"


def parse_records(text: str) -> list[PointResult]:
    """Parse concatenated records; a ``D`` line notes the record of its index."""
    records: list[PointResult] = []
    position: dict[int, int] = {}  # index -> position of its latest record
    lines = text.splitlines()
    i = 0

    def bad(msg, lineno):
        return ValueError(f"line {lineno + 1}: {msg}")

    while i < len(lines):
        line = lines[i].strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        if line.startswith("D "):
            _, idx_tok, note = line.split(" ", 2)
            k = position.get(int(idx_tok))
            if k is not None:
                records[k] = replace(records[k], note=note)
            i += 1
            continue
        if not line.startswith("P "):
            raise bad(f"expected record line, got {line[:40]!r}", i)
        toks = line.split()
        try:
            index, rnd = int(toks[1]), int(toks[2])
            status = PointStatus(toks[3])
            retries, failures, diverged = int(toks[4]), int(toks[5]), int(toks[6])
            kinds = _parse_kinds(toks[7])
            nsols = int(toks[8])
            params = _complexes(toks[9:])
        except (IndexError, ValueError) as exc:
            raise bad(f"malformed point record: {exc}", i) from exc
        rows = []  # (coords, singular, real, residual, multiplicity)
        for k in range(nsols):
            j = i + 1 + k
            if j >= len(lines) or not lines[j].startswith("S "):
                raise bad(f"record for point {index} is truncated", i)
            stoks = lines[j].split()
            try:
                rows.append((
                    _complexes(stoks[5:]),
                    bool(int(stoks[1])),
                    bool(int(stoks[2])),
                    float(stoks[4]),
                    int(stoks[3]),
                ))
            except (IndexError, ValueError) as exc:
                raise bad(f"malformed solution record: {exc}", j) from exc
        solutions = ClassifiedSolutions.empty(0)
        if rows:
            try:
                solutions = ClassifiedSolutions(*map(np.array, zip(*rows)))
            except ValueError:
                raise bad(f"the solutions of point {index} differ in length", i) from None
        position[index] = len(records)
        records.append(
            PointResult(
                index=index,
                p=params,
                solutions=solutions,
                status=status,
                retries_used=retries,
                path_failures=failures,
                diverged_paths=diverged,
                failure_kinds=kinds,
                round=rnd,
            )
        )
        i += 1 + nsols
    return records


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


def write_collected(path, header: CollectedHeader, results: list[PointResult]) -> None:
    """Write the header block, then one record per result."""
    names = header.param_names or tuple(
        f"p{i}" for i in range(header.n_params)
    )
    with open(path, "w") as f:
        f.write(FORMAT_HEADER + "\n")
        f.write(
            f"# nvars={header.n_vars} nparams={header.n_params} "
            f"npoints={header.n_points} step1_paths={header.step1_paths} "
            f"seed={'none' if header.seed is None else header.seed} "
            f"max_retries={header.max_retries} source={header.source}\n"
        )
        f.write(f"# params {' '.join(names)}\n")
        f.write(f"# p0 {_floats(header.p0)}\n")
        for pr in results:
            f.write(serialize_record(pr))


def read_collected(path) -> tuple[CollectedHeader, list[PointResult]]:
    with open(path) as f:
        text = f.read()
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError("not a collected data file (bad or missing header)")
    for n, prefix in enumerate(("# nvars=", "# params ", "# p0 "), start=2):
        if len(lines) < n or not lines[n - 1].startswith(prefix):
            raise ValueError(f"collected data file lacks its {prefix.strip()!r} header line")
    fields = dict(tok.partition("=")[::2] for tok in lines[1][2:].split())
    ints = {}
    for key in _HEADER_FIELDS:
        value = fields.get(key)
        if value is None:
            raise ValueError(f"collected data file header has no {key}= field")
        try:
            ints[key] = None if (key, value) == ("seed", "none") else int(value)
        except ValueError:
            raise ValueError(
                f"collected data file header: {key}={value!r} is not an integer"
            ) from None
    param_names = tuple(lines[2].split()[2:])
    try:
        p0 = _complexes(lines[3].split()[2:])
    except ValueError as exc:
        raise ValueError(f"collected data file '# p0' line: {exc}") from None
    if len(p0) != ints["nparams"]:
        raise ValueError(
            f"collected data file '# p0' line has {len(p0)} values, "
            f"nparams={ints['nparams']}"
        )
    header = CollectedHeader(
        n_vars=ints["nvars"],
        n_params=ints["nparams"],
        n_points=ints["npoints"],
        step1_paths=ints["step1_paths"],
        seed=ints["seed"],
        max_retries=ints["max_retries"],
        p0=p0,
        source=fields.get("source", "mesh"),
        param_names=param_names,
    )
    records = parse_records(text)  # skips the header's "#" lines
    # parse_records makes one record per "P" line, in file order
    record_lines = (
        n for n, line in enumerate(lines, start=1) if line.strip().startswith("P ")
    )
    seen = set()
    for r, lineno in zip(records, record_lines):
        if not 0 <= r.index < header.n_points:
            raise ValueError(
                f"line {lineno}: point index {r.index} is outside [0, {header.n_points})"
            )
        if r.index in seen:
            raise ValueError(f"line {lineno}: point index {r.index} repeats")
        seen.add(r.index)
        if len(r.p) != header.n_params:
            raise ValueError(
                f"collected data file: the record of point {r.index} has "
                f"{len(r.p)} parameter values, nparams={header.n_params}"
            )
    if len(records) != header.n_points:
        raise ValueError(
            f"collected file holds {len(records)} records, header says "
            f"{header.n_points}"
        )
    return header, records

"""Line-oriented text format for sweep records.

One format serves both the per-worker spill files and the final collected
data file, and each record is one ``paramhom.PointResult``: the worker
writes the attempt it solved, and both files read back as
``PointResult``s.  The merge splits the spill files into record texts
(``split_records``) and copies the text of the attempt that stands into
the collected file, with its retry count and note; so ``write_collected``
takes the records as text.  Floats are written with ``repr``, so reading
a file back reproduces every value exactly.

Record layout (one parameter point per record)::

    P <index> <round> <status> <retries> <failures> <diverged> <kinds> <nsols> <re im ...>
    S <singular> <real> <multiplicity> <residual> <re im ...>     (x nsols)
    D <index> <free-text note>                                    (optional)

``kinds`` is ``-`` or comma-joined ``name:count`` pairs.  The ``nsols``
count lets ``split_records`` detect and drop a record truncated by a
crashed writer.  The collected file carries a ``#`` header block in front.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from paramsweep.paramhom import PointResult, PointStatus
from paramsweep.tracker import ClassifiedSolutions

__all__ = [
    "serialize_record",
    "split_records",
    "parse_records",
    "write_collected",
    "read_collected",
]

FORMAT_HEADER = "# paramsweep collected v1"


def _floats(vec: np.ndarray) -> str:
    return " ".join(f"{float(c.real)!r} {float(c.imag)!r}" for c in vec)


def _complexes(tokens: list[str]) -> np.ndarray:
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
        sols.distinct, sols.singular_flags, sols.real_flags,
        sols.multiplicities, sols.residuals,
    ):
        lines.append(
            f"S {int(singular)} {int(real)} {mult} {float(res)!r} {_floats(coords)}"
        )
    if pr.note:
        lines.append(f"D {pr.index} {pr.note}")
    return "\n".join(lines) + "\n"


def split_records(text: str) -> list[tuple[int, int, str]]:
    """Split a spill file into its complete records, as ``(index, round,
    text)``, without parsing their numbers.

    A crashed writer can stop anywhere, inside a number too, which would
    still parse: the text is cut at its last newline, and a record with
    fewer ``S`` lines than its ``nsols`` ends the file.
    """
    lines = text[: text.rfind("\n") + 1].splitlines(keepends=True)
    records = []
    i = 0
    while i < len(lines):
        toks = lines[i].split(" ", 9)
        if toks[0] != "P":
            raise ValueError(f"line {i + 1}: expected record line, got {lines[i][:40]!r}")
        try:
            index, rnd, nsols = int(toks[1]), int(toks[2]), int(toks[8])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"line {i + 1}: malformed point record: {exc}") from exc
        end = i + 1 + nsols
        if end > len(lines) or not all(
            line.startswith("S ") for line in lines[i + 1 : end]
        ):
            break
        records.append((index, rnd, "".join(lines[i:end])))
        i = end
    return records


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
        distinct, singular, real, residuals, mults = tuple(zip(*rows)) or ((),) * 5
        position[index] = len(records)
        records.append(
            PointResult(
                index=index,
                p=params,
                solutions=ClassifiedSolutions(
                    distinct, singular, real, residuals, mults, n_real=sum(real)
                ),
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


def write_collected(path, header: CollectedHeader, body: str) -> None:
    """Write the header block, then ``body``, the records as text."""
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
        f.write(body)


def read_collected(path) -> tuple[CollectedHeader, list[PointResult]]:
    with open(path) as f:
        text = f.read()
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError("not a collected data file (bad or missing header)")
    fields = dict(tok.split("=", 1) for tok in lines[1][2:].split())
    param_names = tuple(lines[2].split()[2:])
    p0 = _complexes(lines[3].split()[2:])
    header = CollectedHeader(
        n_vars=int(fields["nvars"]),
        n_params=int(fields["nparams"]),
        n_points=int(fields["npoints"]),
        step1_paths=int(fields["step1_paths"]),
        seed=None if fields["seed"] == "none" else int(fields["seed"]),
        max_retries=int(fields["max_retries"]),
        p0=p0,
        source=fields.get("source", "mesh"),
        param_names=param_names,
    )
    records = parse_records("\n".join(lines[4:]))
    if len(records) != header.n_points:
        raise ValueError(
            f"collected file holds {len(records)} records, header says "
            f"{header.n_points}"
        )
    return header, records

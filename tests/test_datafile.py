import dataclasses
import re

import numpy as np
import pytest

from paramsweep.datafile import (
    CollectedHeader,
    parse_records,
    read_collected,
    serialize_record,
    split_records,
    write_collected,
)
from paramsweep.paramhom import PointResult, PointStatus
from paramsweep.tracker import ClassifiedSolutions


def _solutions(distinct):
    """Nonsingular, nonreal solutions of multiplicity 1 at the rows of ``distinct``."""
    n = len(distinct)
    return ClassifiedSolutions(
        distinct, np.zeros(n, dtype=bool), np.zeros(n, dtype=bool), np.full(n, 1e-12),
        np.ones(n, dtype=int),
    )


def _sample_record(idx=3, note=""):
    return PointResult(
        index=idx,
        p=np.array([0.5 - 0.25j, 1.0 + 0j]),
        solutions=ClassifiedSolutions(
            distinct=np.array([[1.234567890123456e-3 + 1j], [-1.0 + 0j]]),
            singular_flags=np.array([False, True]),
            real_flags=np.array([False, True]),
            residuals=np.array([3.2e-12, float("inf")]),
            multiplicities=np.array([1, 2]),
        ),
        status=PointStatus.HAD_FAILURES,
        retries_used=1,
        path_failures=0,
        diverged_paths=2,
        failure_kinds=(("diverged", 2),),
        note=note,
        round=1,
    )


def test_record_roundtrip_exact():
    rec = _sample_record(note="requeued once")
    back = parse_records(serialize_record(rec))
    assert len(back) == 1
    b = back[0]
    assert (b.index, b.round, b.status, b.note) == (rec.index, rec.round, rec.status, rec.note)
    assert (b.retries_used, b.path_failures, b.diverged_paths) == (1, 0, 2)
    assert b.failure_kinds == rec.failure_kinds
    assert np.array_equal(b.p, rec.p)
    sa, sb = rec.solutions, b.solutions
    for field in dataclasses.fields(sa):  # inf == inf
        x, y = getattr(sa, field.name), getattr(sb, field.name)
        assert x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
    assert sb.n_real == sa.n_real == 1


def _spill_text(*records):
    # a worker's spill record: retries 0 and no note
    return "".join(
        serialize_record(dataclasses.replace(r, retries_used=0)) for r in records
    )


def test_truncated_tail_dropped_when_tolerated():
    first = _spill_text(_sample_record(1))
    text = first + _spill_text(_sample_record(2))
    cut = text[: text.rfind("S ") + 10]  # chop inside the last record
    assert split_records(cut) == [(1, 1, first)]
    # cut between the S lines of the last record
    assert split_records(text[: text.rfind("S ")]) == [(1, 1, first)]
    assert split_records(text) == [(1, 1, first), (2, 1, text[len(first):])]
    with pytest.raises(ValueError):
        parse_records(cut)


def test_record_cut_inside_a_number_dropped_when_tolerated():
    last = dataclasses.replace(
        _sample_record(2),
        solutions=_solutions(np.array([[1.0 + 0.123456789j]])),
    )
    first = _spill_text(_sample_record(1))
    cut = (first + _spill_text(last))[:-3]
    # the writer stopped inside the last number, which parses
    assert float(cut.split()[-1]) != 0.123456789
    assert split_records(cut) == [(1, 1, first)]


def test_complex_values_roundtrip_bit_for_bit():
    coords = np.array([complex(1.5, -0.0), complex(-0.0, np.inf), complex(2.0, np.nan)])
    rec = PointResult(
        index=0, p=coords[:1],
        solutions=_solutions(coords[None]),
        status=PointStatus.COMPLETE, retries_used=0, path_failures=0, diverged_paths=0,
    )
    text = serialize_record(rec)
    back = parse_records(text)[0]
    assert serialize_record(back) == text
    assert np.signbit(back.p[0].imag)
    assert np.isinf(back.solutions.distinct[0][1].imag)


def test_collected_file_roundtrip(tmp_path):
    header = CollectedHeader(
        n_vars=1,
        n_params=2,
        n_points=2,
        step1_paths=6,
        seed=7,
        max_retries=3,
        p0=np.array([0.25 + 0.5j, 0.75 + 0.125j]),
    )
    records = [
        parse_records(serialize_record(_sample_record(0)))[0],
        parse_records(serialize_record(_sample_record(1)))[0],
    ]
    path = tmp_path / "collected.dat"
    write_collected(path, header, "".join(map(serialize_record, records)))
    h2, r2 = read_collected(path)
    assert (h2.n_vars, h2.n_params, h2.n_points) == (1, 2, 2)
    assert (h2.step1_paths, h2.seed, h2.max_retries) == (6, 7, 3)
    assert h2.source == "mesh"
    assert h2.param_names == ("p0", "p1")  # default names
    assert np.array_equal(h2.p0, header.p0)
    assert [r.index for r in r2] == [0, 1]
    # byte-for-byte identical when rewritten
    path2 = tmp_path / "again.dat"
    write_collected(path2, h2, "".join(map(serialize_record, r2)))
    assert path.read_bytes() == path2.read_bytes()


def test_read_collected_rejects_garbage(tmp_path):
    p = tmp_path / "x.dat"
    p.write_text("not a data file\n")
    with pytest.raises(ValueError, match="header"):
        read_collected(p)


@pytest.mark.parametrize("old, new, message", [
    ("nvars=1", "nvars=one", "header: nvars='one' is not an integer"),
    ("# p0 0.25 0.5 0.75 0.125", "# p0 0.25 0.5 0.75 0.125 1.0",
     "'# p0' line: 5 numbers are not re/im pairs"),
    ("# p0 0.25 0.5 0.75 0.125", "# p0 0.25 0.5 0.75 0.125 1.0 0.0",
     "'# p0' line has 3 values, nparams=2"),
    ("2 0.5 -0.25 1.0 0.0\n", "2 0.5 -0.25 1.0 0.0 2.0 0.0\n",
     "the record of point 0 has 3 parameter values, nparams=2"),
    (" inf -1.0 0.0\n", " inf -1.0 0.0 2.0 0.0\n",
     "line 5: the solutions of point 0 differ in length"),
], ids=["nvars", "p0-odd", "p0-count", "record-params", "ragged-solutions"])
def test_read_collected_names_what_is_wrong(tmp_path, old, new, message):
    header = CollectedHeader(
        n_vars=1, n_params=2, n_points=2, step1_paths=6, seed=7, max_retries=3,
        p0=np.array([0.25 + 0.5j, 0.75 + 0.125j]),
    )
    path = tmp_path / "collected.dat"
    write_collected(path, header, "".join(serialize_record(_sample_record(k)) for k in (0, 1)))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_collected(path)


def test_notes_land_on_their_records():
    records = [
        _sample_record(0, note="first"),
        _sample_record(1),
        _sample_record(2, note='a "b" \\ c'),
    ]
    back = parse_records("".join(map(serialize_record, records)))
    assert [r.note for r in back] == ["first", "", 'a "b" \\ c']
    # a D line names its record by index, wherever it stands
    text = "".join(serialize_record(_sample_record(k)) for k in range(3))
    back = parse_records(text + "D 2 last\nD 0 first\n")
    assert [r.note for r in back] == ["first", "", "last"]


def test_many_notes_parse_as_before():
    text = "".join(
        serialize_record(_sample_record(k, note=f"note {k}")) for k in range(2000)
    )
    back = parse_records(text)
    assert [r.index for r in back] == list(range(2000))
    assert [r.note for r in back] == [f"note {k}" for k in range(2000)]
    assert "".join(map(serialize_record, back)) == text


def test_split_records_refuses_a_line_outside_a_record():
    with pytest.raises(ValueError, match="line 1: expected record line"):
        split_records("S 0 0 1 1e-12 1.0 0.0\n")

import dataclasses
import re

import numpy as np
import pytest

from paramsweep.datafile import (
    CollectedHeader,
    parse_records,
    read_collected,
    serialize_record,
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
    write_collected(path, header, records)
    h2, r2 = read_collected(path)
    assert (h2.n_vars, h2.n_params, h2.n_points) == (1, 2, 2)
    assert (h2.step1_paths, h2.seed, h2.max_retries) == (6, 7, 3)
    assert h2.source == "mesh"
    assert h2.param_names == ()
    assert np.array_equal(h2.p0, header.p0)
    assert [r.index for r in r2] == [0, 1]
    # byte-for-byte identical when rewritten
    path2 = tmp_path / "again.dat"
    write_collected(path2, h2, r2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_collected_rejects_garbage(tmp_path):
    p = tmp_path / "x.dat"
    p.write_text("not a data file\n")
    with pytest.raises(ValueError, match="header"):
        read_collected(p)


@pytest.mark.parametrize("old, new, message", [
    ('"n_vars": 1,', '"n_vars": "one",', "header: n_vars='one' is not an integer"),
    ('"p0": [[0.25, 0.5], [0.75, 0.125]]', '"p0": [[0.25, 0.5, 0.75, 0.125]]',
     "header: p0: numbers of shape (1, 4) are not [re, im] pairs"),
    ('"p0": [[0.25, 0.5], [0.75, 0.125]]', '"p0": [[0.25, 0.5], [0.75, 0.125], [1.0, 0.0]]',
     "header: p0 has 3 values, n_params=2"),
    ("[[0.5, -0.25], [1.0, 0.0]]", "[[0.5, -0.25], [1.0, 0.0], [2.0, 0.0]]",
     "line 3: the record of point 0 has 3 parameter values, n_params=2"),
    ("[[-1.0, 0.0]]", "[[-1.0, 0.0], [2.0, 0.0]]",
     "line 3: malformed point record: setting an array element with a sequence"),
    ('{"index": 1,', '{"index": 0,', "line 4: point index 0 repeats"),
    ('{"index": 1,', '{"index": 2,', "line 4: point index 2 is outside [0, 2)"),
    ('Infinity}]}\n{"index": 1', 'Infinity}\n{"index": 1',
     "line 3: not a JSON record: Expecting ',' delimiter at column"),
    ('{"index": 1,', "P 1 1 Complete", "line 4: not a JSON record: Expecting value at column 1"),
    ('"retries": 1, ', "", "line 3: record has no 'retries' entry"),
    ('{"index": 1,', '{"index": "1",', "line 4: malformed point record: index '1' is not an integer"),
    ('"status": "HadFailures"', '"status": "Done"', "line 3: malformed point record: 'Done'"),
    ('"n_points": 2', '"n_points": 3', "collected file holds 2 records, header says 3"),
    ('"n_params": 2, ', "", "collected data file header has no 'n_params' entry"),
    ("collected v2", "collected v1", "collected data file is v1, this program reads v2"),
], ids=["nvars", "p0-odd", "p0-count", "record-params", "ragged-solutions",
        "index-repeats", "index-outside", "cut-short", "not-json", "record-key",
        "record-index", "record-status", "record-count", "header-key", "version-1"])
def test_read_collected_names_what_is_wrong(tmp_path, old, new, message):
    header = CollectedHeader(
        n_vars=1, n_params=2, n_points=2, step1_paths=6, seed=7, max_retries=3,
        p0=np.array([0.25 + 0.5j, 0.75 + 0.125j]),
    )
    path = tmp_path / "collected.dat"
    write_collected(path, header, [_sample_record(k) for k in (0, 1)])
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_collected(path)


def _write_header(path, records):
    header = CollectedHeader(
        n_vars=1, n_params=2, n_points=len(records), step1_paths=6, seed=None,
        max_retries=3, p0=np.array([0.25 + 0.5j, 0.75 + 0.125j]),
    )
    write_collected(path, header, records)


def test_notes_land_on_their_records(tmp_path):
    records = [
        _sample_record(0, note="first"),
        _sample_record(1),
        _sample_record(2, note='a "b" \\ c\nnext line caf\u00e9'),
    ]
    path = tmp_path / "collected.dat"
    _write_header(path, records)
    assert len(path.read_text().splitlines()) == 2 + len(records)
    _, back = read_collected(path)
    assert [r.note for r in back] == ["first", "", 'a "b" \\ c\nnext line caf\u00e9']
    # each record is a line of its own, so the records of a file may stand
    # in any order, each with its own note
    _write_header(path, records[::-1])
    _, back = read_collected(path)
    assert [(r.index, r.note) for r in back] == [(2, records[2].note), (1, ""), (0, "first")]


def test_many_notes_parse_as_before():
    text = "".join(
        serialize_record(_sample_record(k, note=f"note {k}")) + "\n" for k in range(2000)
    )
    back = parse_records(text)
    assert [r.index for r in back] == list(range(2000))
    assert [r.note for r in back] == [f"note {k}" for k in range(2000)]
    assert "".join(serialize_record(r) + "\n" for r in back) == text

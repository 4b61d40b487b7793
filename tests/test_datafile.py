import dataclasses
import json
import re

import numpy as np
import pytest

from paramsweep.datafile import (
    CollectedHeader,
    load_step1,
    parse_records,
    read_collected,
    save_step1,
    serialize_record,
    write_collected,
)
from paramsweep.paramhom import PointResult, PointStatus, Step1Result
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
    back = parse_records(serialize_record(rec), 1)
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
    back = parse_records(text, 3)[0]
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
        parse_records(serialize_record(_sample_record(0)), 1)[0],
        parse_records(serialize_record(_sample_record(1)), 1)[0],
    ]
    path = tmp_path / "collected.dat"
    write_collected(path, header, records)
    h2, r2, _ = read_collected(path)
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
    ('"n_vars": 1,', '"n_vars": 2,',
     "line 3: malformed point record: solutions have 1 coordinates, system has 2 variables"),
], ids=["nvars", "p0-odd", "p0-count", "record-params", "ragged-solutions",
        "index-repeats", "index-outside", "cut-short", "not-json", "record-key",
        "record-index", "record-status", "record-count", "header-key", "version-1",
        "root-coords"])
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
    _, back, _ = read_collected(path)
    assert [r.note for r in back] == ["first", "", 'a "b" \\ c\nnext line caf\u00e9']
    # each record is a line of its own, so the records of a file may stand
    # in any order, each with its own note
    _write_header(path, records[::-1])
    _, back, _ = read_collected(path)
    assert [(r.index, r.note) for r in back] == [(2, records[2].note), (1, ""), (0, "first")]


def test_many_notes_parse_as_before():
    text = "".join(
        serialize_record(_sample_record(k, note=f"note {k}")) + "\n" for k in range(2000)
    )
    back = parse_records(text, 1)
    assert [r.index for r in back] == list(range(2000))
    assert [r.note for r in back] == [f"note {k}" for k in range(2000)]
    assert "".join(serialize_record(r) + "\n" for r in back) == text


def test_a_record_without_roots_keeps_its_dimension(tmp_path):
    # a point with no roots reads back as (0, n_vars), as the sweep holds it
    rec = dataclasses.replace(_sample_record(0), solutions=ClassifiedSolutions.empty(1))
    (back,) = parse_records(serialize_record(rec), 1)
    assert back.solutions.distinct.shape == (0, 1)
    _write_header(tmp_path / "collected.dat", [rec])
    _, (back,), _ = read_collected(tmp_path / "collected.dat")
    assert back.solutions.distinct.shape == (0, 1)
    assert back.solutions.distinct.dtype == complex


def _bits(values):
    return np.asarray(values).tobytes()


def test_step1_artifact_round_trips_bit_for_bit(tmp_path, cube_system):
    r1 = Step1Result(
        p0=np.array([complex(0.25, -0.0), complex(-0.5, -0.0)]),
        solutions=ClassifiedSolutions(
            np.array([[complex(1.5, -0.0)], [-0.0 + 1e16j]]),
            np.array([False, False]), np.array([True, False]),
            np.array([3.2e-16, 5e-324]), np.array([1, 2]),
        ),
        paths_tracked_step1=6,
        seed=7,
        gamma=complex(0.6, -0.0),
        suspected_crossings=((0, 3),),
        path_statuses=(("diverged", 2), ("max_steps", 1), ("success", 3)),
    )
    path = tmp_path / "step1.json"
    save_step1(path, r1)
    back = load_step1(path, cube_system)
    for field in dataclasses.fields(ClassifiedSolutions):
        a, b = getattr(r1.solutions, field.name), getattr(back.solutions, field.name)
        assert a.dtype == b.dtype and _bits(a) == _bits(b), field.name
    assert _bits(back.p0) == _bits(r1.p0) and np.signbit(back.p0.imag).all()
    assert _bits(back.gamma) == _bits(r1.gamma) and np.signbit(back.gamma.imag)
    assert np.signbit(back.solutions.distinct[0, 0].imag)
    assert (back.paths_tracked_step1, back.seed) == (6, 7)
    assert back.suspected_crossings == ((0, 3),)
    assert back.path_statuses == r1.path_statuses
    # the roots are a record's "solutions" list
    rec = PointResult(
        index=0, p=r1.p0, solutions=r1.solutions, status=PointStatus.COMPLETE,
        retries_used=0, path_failures=0, diverged_paths=0,
    )
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    assert doc["solutions"] == json.loads(serialize_record(rec))["solutions"]


def test_a_v1_step1_artifact_is_refused(tmp_path, quad_system):
    r1 = Step1Result(
        p0=np.array([0.25 + 0.5j]), solutions=ClassifiedSolutions(
            np.array([[1.0 + 0j]]), np.array([False]), np.array([True]),
            np.array([1e-16]), np.array([1]),
        ),
        paths_tracked_step1=2, seed=None, gamma=0.6 + 0.8j,
    )
    path = tmp_path / "step1.json"
    save_step1(path, r1)
    doc = json.loads(path.read_text())
    doc["version"] = 1
    for entry in doc["solutions"]:  # v1 wrote no "singular" entry
        entry.pop("singular", None)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="step1 artifact is v1, this program reads v2"):
        load_step1(path, quad_system)

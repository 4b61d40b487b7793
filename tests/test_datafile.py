import numpy as np
import pytest

from paramsweep.datafile import (
    CollectedHeader,
    PointRecord,
    SolutionRecord,
    parse_records,
    point_result_from_record,
    read_collected,
    serialize_record,
    write_collected,
)
from paramsweep.paramhom import PointStatus


def _sample_record(idx=3, note=""):
    return PointRecord(
        index=idx,
        round=1,
        status="Complete",
        retries=1,
        failures=0,
        diverged=2,
        kinds=(("diverged", 2),),
        params=np.array([0.5 - 0.25j, 1.0 + 0j]),
        solutions=(
            SolutionRecord(
                coords=np.array([1.234567890123456e-3 + 1j]),
                singular=False,
                real=False,
                multiplicity=1,
                residual=3.2e-12,
            ),
            SolutionRecord(
                coords=np.array([-1.0 + 0j]),
                singular=True,
                real=True,
                multiplicity=2,
                residual=float("inf"),
            ),
        ),
        note=note,
    )


def test_record_roundtrip_exact():
    rec = _sample_record(note="requeued once")
    back = parse_records(serialize_record(rec))
    assert len(back) == 1
    b = back[0]
    assert b.index == rec.index and b.round == rec.round
    assert b.status == rec.status and b.kinds == rec.kinds
    assert np.array_equal(b.params, rec.params)
    assert b.note == rec.note
    for sa, sb in zip(rec.solutions, b.solutions):
        assert np.array_equal(sa.coords, sb.coords)
        assert sa.residual == sb.residual or (
            np.isinf(sa.residual) and np.isinf(sb.residual)
        )
        assert (sa.singular, sa.real, sa.multiplicity) == (
            sb.singular,
            sb.real,
            sb.multiplicity,
        )


def test_truncated_tail_dropped_when_tolerated():
    text = serialize_record(_sample_record(1)) + serialize_record(_sample_record(2))
    cut = text[: text.rfind("S ") + 10]  # chop inside the last record
    recs = parse_records(cut, tolerate_truncation=True)
    assert [r.index for r in recs] == [1]
    with pytest.raises(ValueError):
        parse_records(cut)


def test_point_result_conversion_roundtrip():
    rec = _sample_record(idx=7, note="requeued once")
    back = point_result_from_record(parse_records(serialize_record(rec))[0])
    assert back.index == rec.index
    assert back.status is PointStatus.COMPLETE
    assert (back.retries_used, back.path_failures, back.diverged_paths) == (1, 0, 2)
    assert back.failure_kinds == rec.kinds
    assert back.note == rec.note
    assert back.solutions.n_real == 1
    assert back.solutions.singular_flags == (False, True)
    assert back.solutions.multiplicities == (1, 2)
    assert np.array_equal(back.solutions.distinct[0], rec.solutions[0].coords)
    assert np.array_equal(back.p, rec.params)


def test_complex_values_roundtrip_bit_for_bit():
    coords = np.array([complex(1.5, -0.0), complex(-0.0, np.inf), complex(2.0, np.nan)])
    rec = PointRecord(
        index=0, round=0, status="attempt", retries=0, failures=0, diverged=0,
        kinds=(), params=coords[:1],
        solutions=(SolutionRecord(coords, False, False, 1, 1e-12),),
    )
    text = serialize_record(rec)
    back = parse_records(text)[0]
    assert serialize_record(back) == text
    assert np.signbit(back.params[0].imag)
    assert np.isinf(back.solutions[0].coords[1].imag)


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
    assert h2.param_names == ("p0", "p1")  # default names
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

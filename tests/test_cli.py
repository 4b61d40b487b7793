import dataclasses
import json
import logging
import struct

import numpy as np
import pytest

import paramsweep.cli as cli
import paramsweep.datafile as datafile
import paramsweep.scheduler as scheduler
from paramsweep.cli import (
    InputError,
    _parse_bool,
    export_real_count_grid,
    export_solutions_json,
    main,
    parse_input_file,
    write_failure_report,
    write_timing_summary,
)
from paramsweep.datafile import (
    CollectedHeader,
    load_step1,
    read_collected,
    save_step1,
    serialize_record,
    write_collected,
)
from paramsweep.mesh import MeshSpec, Range
from paramsweep.paramhom import PointResult, PointStatus, step1
from paramsweep.scheduler import PointSummary, run_parallel
from paramsweep.tracker import ClassifiedSolutions, TrackerConfig
from conftest import MONKS_TEXT

CUBE_INPUT = """
% quick cube run
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
  x range -1.5 1.5 5;
  y range -1.5 1.5 5;
END;
"""


def _write_input(tmp_path, text=CUBE_INPUT, name="cube.input"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_shipped_inputs_parse():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "inputs"
    cube = parse_input_file((root / "cube.input").read_text())
    assert cube.system.var_names == ("z",)
    assert cube.mesh.size == 40_000
    monks = parse_input_file((root / "monks.input").read_text())
    assert monks.system.var_names == ("z0", "z1", "z2", "z3")
    assert monks.system.param_names == ("mu0", "mu1", "g")
    assert monks.mesh.size == 100


def test_parse_input_file_full():
    inp = parse_input_file(CUBE_INPUT)
    assert inp.system.var_names == ("z",)
    assert inp.system.param_names == ("x", "y")
    assert inp.config == {"seed": 7, "max_retries": 2}  # parsed to their types
    assert inp.mesh == MeshSpec((Range(-1.5, 1.5, 5), Range(-1.5, 1.5, 5)))
    assert inp.param_file is None


def test_parse_input_requires_input_section():
    with pytest.raises(InputError, match="INPUT"):
        parse_input_file("CONFIG\nseed: 1;\nEND;\n")


def test_parse_input_requires_exactly_one_point_source():
    no_points = CUBE_INPUT.replace("MESH", "% MESH").replace("END;\n\nINPUT", "END;\n\nINPUT")
    text = """
INPUT
  variable z;
  parameter x;
  function f;
  f = z^2 - x;
END;
"""
    with pytest.raises(InputError, match="exactly one"):
        parse_input_file(text)
    both = text + "\nMESH\n  x range 0 1 3;\nEND;\n"
    both = both.replace("INPUT\n", "CONFIG\n  param_file: pts.txt;\nEND;\nINPUT\n", 1)
    with pytest.raises(InputError, match="exactly one"):
        parse_input_file(both)


def test_parse_input_rejects_unknown_config_key():
    bad = CUBE_INPUT.replace("seed: 7;", "warp_speed: 9;")
    with pytest.raises(InputError, match="warp_speed"):
        parse_input_file(bad)


@pytest.mark.parametrize("entry, flags, key", [
    ("batch_size: 0;", [], "batch_size"),
    ("batch_size: half;", [], "batch_size"),
    ("batch_size: 2.5;", [], "batch_size"),
    ("max_newton_iters: 1e4;", [], "max_newton_iters"),
    ("max_newton_iters: three;", [], "max_newton_iters"),
    ("workers: two;", [], "workers"),
    ("max_retries: two;", [], "max_retries"),
    ("max_newton_iters: 0;", [], "max_newton_iters"),
    ("max_newton_iters: -2;", [], "max_newton_iters"),
    ("workers: 0;", [], "workers"),
    ("workers: two;", ["--workers", "1"], "workers"),
])
def test_solve_names_bad_config_numbers(tmp_path, caplog, entry, flags, key):
    # the worker count is the --workers flag alone: CONFIG refuses the key
    text = CUBE_INPUT.replace("seed: 7;", f"seed: 7;\n  {entry}")
    out = tmp_path / "run"
    with caplog.at_level(logging.ERROR, logger="paramsweep"):
        code = main(["solve", _write_input(tmp_path, text), "--out", str(out), *flags])
    assert code == 1
    assert key in caplog.text
    assert not (out / "step1.json").exists()


# the step control, the tolerances and the divergence threshold of the
# tracker are constants, not settings, and divergence is never retried
REMOVED_TRACKER_KEYS = [
    "initial_step", "min_step", "max_step", "newton_tol", "max_steps", "t_final",
    "endgame_boundary", "sharpen_iters", "step_increase_factor",
    "step_decrease_factor", "consecutive_successes_to_grow", "max_norm",
    "divergence_is_failure",
]


@pytest.mark.parametrize("key", REMOVED_TRACKER_KEYS)
def test_solve_refuses_removed_tracker_keys(tmp_path, caplog, key):
    text = CUBE_INPUT.replace("seed: 7;", f"seed: 7;\n  {key}: 1;")
    out = tmp_path / "run"
    with caplog.at_level(logging.ERROR, logger="paramsweep"):
        code = main(["solve", _write_input(tmp_path, text), "--out", str(out)])
    assert code == 1
    assert f"line 5: unknown config key {key!r}" in caplog.text
    assert not out.exists()


def test_solve_refuses_a_negative_seed_before_the_run_directory(tmp_path, caplog):
    # numpy's generator would refuse it after the run directory is made,
    # naming no setting
    text = CUBE_INPUT.replace("seed: 7;", "seed: -1;")
    out = tmp_path / "run"
    with caplog.at_level(logging.ERROR, logger="paramsweep"):
        code = main(["solve", _write_input(tmp_path, text), "--out", str(out)])
    assert code == 1
    assert "line 4: config key 'seed': must be >= 0, got -1" in caplog.text
    assert not out.exists()


def test_solve_refuses_a_repeated_config_key(tmp_path, caplog):
    # the second value would silently win
    text = CUBE_INPUT.replace("seed: 7;", "seed: 11;\n  Seed: 12;")
    out = tmp_path / "run"
    with caplog.at_level(logging.ERROR, logger="paramsweep"):
        code = main(["solve", _write_input(tmp_path, text), "--step1-only", "--out", str(out)])
    assert code == 1
    assert "line 5: config key 'seed' given twice" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--min-step", "1e-9"],
    ["--newton-tol", "1e-9"],
    ["--newton-tl", "1e-9"],
    ["--workers", "two"],
    ["--max-norm", "1e5"],
    ["--p0", "f"],
    # CONFIG is the one source of these settings
    ["--seed", "7"],
    ["--max-retries", "1"],
    ["--batch-size", "2"],
    ["--verify-step1"],
])
def test_solve_usage_errors_exit_1(tmp_path, capsys, flags):
    # exit code 2 would read as a finished sweep with an Unresolved point
    out = tmp_path / "run"
    assert main(["solve", _write_input(tmp_path), "--out", str(out), *flags]) == 1
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert main(["solve", "--help"]) == 0
    assert "--workers" in capsys.readouterr().out


def test_parse_input_mesh_errors():
    with pytest.raises(InputError, match="unknown parameter"):
        parse_input_file(CUBE_INPUT.replace("x range", "q range"))
    with pytest.raises(InputError, match="does not cover"):
        parse_input_file(CUBE_INPUT.replace("  y range -1.5 1.5 5;\n", ""))


def test_parse_input_system_errors_report_file_lines():
    bad = CUBE_INPUT.replace("f = x^6 + y^6 + z^6 - 1;", "f = x^6 + w;")
    with pytest.raises(Exception) as err:
        parse_input_file(bad)
    assert "w" in str(err.value)
    assert "line 12" in str(err.value)


@pytest.mark.parametrize("value", ["ture", "True2", "", "2"], ids=["ture", "True2", "", "2"])
def test_config_booleans_reject_anything_else(tmp_path, caplog, value):
    text = CUBE_INPUT.replace("seed: 7;", f"seed: 7;\n  verify_step1: {value};")
    out = tmp_path / "run"
    with caplog.at_level(logging.ERROR, logger="paramsweep"):
        assert main(["solve", _write_input(tmp_path, text), "--out", str(out)]) == 1
    assert "line 5: config key 'verify_step1'" in caplog.text
    assert not (out / "step1.json").exists()


def test_config_booleans_accept_any_case(tmp_path, caplog):
    text = CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  verify_step1: True;")
    out = tmp_path / "run"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main(["solve", _write_input(tmp_path, text), "--out", str(out), "--step1-only"])
    assert code == 0
    assert "step1: 6 solutions, verified" in caplog.text
    for value, expected in (("ON", True), ("Yes", True), ("off", False), ("FALSE", False)):
        assert _parse_bool(value) is expected


@pytest.mark.parametrize("old, new, line", [
    ("seed: 7;", "seed: 7;\n  p0: 0.1 nan 0.3 0.4;", 5),
    ("x range -1.5 1.5 5;", "x range -inf 1.5 5;", 16),
    ("y range -1.5 1.5 5;", "y range -1.5 NaN 5;", 17),
    ("y range -1.5 1.5 5;", "y fixed 0.5 inf;", 17),
])
def test_parse_input_rejects_non_finite_values(old, new, line):
    with pytest.raises(InputError, match=f"line {line}: .*non-finite"):
        parse_input_file(CUBE_INPUT.replace(old, new))


def test_parse_input_inline_p0():
    text = CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  p0: 0.1 0.2 0.3 0.4;")
    inp = parse_input_file(text)
    assert np.allclose(inp.p0, [0.1 + 0.2j, 0.3 + 0.4j])
    with pytest.raises(InputError, match="p0"):
        parse_input_file(
            CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  p0: 0.1 0.2;")
        )


def test_solve_end_to_end(tmp_path, caplog):
    inp = _write_input(tmp_path, CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  verify_step1: 1;"))
    out = tmp_path / "run"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main(["solve", inp, "--out", str(out), "--workers", "2", "--export-csv"])
    assert code == 0
    assert "step1: 6 solutions, verified" in caplog.text

    header, records, _ = read_collected(out / "collected.dat")
    assert header.n_points == 25
    assert header.param_names == ("x", "y")
    assert len(records) == 25
    assert (out / "step1.json").exists()
    assert (out / "failure_report.txt").exists()
    assert (out / "timing_summary.txt").exists()
    assert "0 failed points" in (out / "failure_report.txt").read_text()

    csv = (out / "real_counts.csv").read_text().splitlines()
    assert csv[0] == "x,y,n_solutions,n_real,status"
    assert len(csv) == 26
    rows = {}
    for line in csv[1:]:
        x, y, nsol, nreal, status = line.split(",")
        rows[(float(x), float(y))] = (int(nsol), int(nreal), status)
    # z^6 = 1 at the origin: six roots, two of them real
    assert rows[(0.0, 0.0)] == (6, 2, "Complete")
    # outside the unit superellipse there are no real roots
    for (x, y), (nsol, nreal, status) in rows.items():
        if x**6 + y**6 > 1:
            assert nreal == 0
        assert nsol == 6
        assert status == "Complete"

    sol_doc = json.loads((out / "solutions.json").read_text())
    assert sol_doc["n_points"] == 25
    assert len(sol_doc["points"]) == 25
    # JSON round-trips the collected values exactly
    for rec, jpt in zip(records, sol_doc["points"]):
        assert rec.index == jpt["index"]
        for coords, js in zip(rec.solutions.distinct, jpt["solutions"]):
            for c, (re, im) in zip(coords, js["coords"]):
                assert c == complex(re, im)


def test_solve_missing_input_file(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.input")])
    assert code == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["max_retries: -1;"], "max_retries must be >= 0"),
        (["batch_size: -2;", "--workers", "1"], "batch_size must be >= 1"),
        (["batch_size: -2;", "--workers", "2"], "batch_size must be >= 1"),
        (["--workers", "0"], "workers must be >= 1"),
        (["batch_size: 0;"], "batch_size must be >= 1, got 0"),
    ],
)
def test_solve_rejects_bad_sweep_settings(tmp_path, capsys, caplog, flags, message):
    # refused before the generic solve: nothing is written.  A setting
    # that ends in ';' is a CONFIG entry, the rest are command-line flags
    entries = [f for f in flags if f.endswith(";")]
    inp = _write_input(tmp_path, CUBE_INPUT.replace("max_retries: 2;", "\n  ".join(entries)))
    out = tmp_path / "bad"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main(["solve", inp, "--out", str(out), *(f for f in flags if f not in entries)])
    assert code == 1
    assert message in caplog.text
    assert "step1:" not in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_solve_exit_2_on_unresolved(tmp_path):
    inp = _write_input(tmp_path, CUBE_INPUT.replace("max_retries: 2;", "max_retries: 0;"))
    out = tmp_path / "run2"
    code = main(["solve", inp, "--out", str(out), "--inject-failure-at", "3"])
    assert code == 2
    _, records, _ = read_collected(out / "collected.dat")
    assert records[3].status is PointStatus.UNRESOLVED
    report = (out / "failure_report.txt").read_text()
    assert "unresolved points:" in report
    assert "point 3" in report


def test_solve_injected_failure_resolved_and_reported(tmp_path):
    inp = _write_input(tmp_path)
    out = tmp_path / "run3"
    code = main(["solve", inp, "--out", str(out), "--inject-failure-at", "3"])
    assert code == 0
    report = (out / "failure_report.txt").read_text()
    assert "points resolved after retries:" in report
    assert "retries_used=1" in report
    assert "status=Complete" in report


def test_solve_step1_only_and_reuse(tmp_path, caplog):
    inp = _write_input(tmp_path)
    out1 = tmp_path / "first"
    assert main(["solve", inp, "--out", str(out1), "--step1-only"]) == 0
    assert (out1 / "step1.json").exists()
    assert not (out1 / "collected.dat").exists()

    out2 = tmp_path / "second"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main([
            "solve", inp, "--out", str(out2), "--reuse-step1", str(out1),
        ])
    assert code == 0
    assert "reusing 6 solutions" in caplog.text
    # reused p0 must match the artifact
    sysm = parse_input_file(CUBE_INPUT).system
    r1 = load_step1(out1 / "step1.json", sysm)
    header, _, _ = read_collected(out2 / "collected.dat")
    assert np.array_equal(header.p0, r1.p0)


@pytest.mark.parametrize("p0", [None, "0.3 0.2 0.1 0.4"])
def test_reused_step1_reproduces_a_run_that_retried(tmp_path, p0):
    # the retry rounds draw their p' after Step 1's draws (p0 unless CONFIG
    # pins it, then gamma), so a sweep from the saved Step 1 makes them too
    text = CUBE_INPUT if p0 is None else CUBE_INPUT.replace(
        "  seed: 7;", f"  seed: 7;\n  p0: {p0};"
    )
    inp = _write_input(tmp_path, text)
    first, again = tmp_path / "first", tmp_path / "again"
    flags = ["--inject-failure-at", "3,7"]
    assert main(["solve", inp, "--out", str(first), *flags]) == 0
    assert main(["solve", inp, "--out", str(again), "--reuse-step1", str(first), *flags]) == 0
    assert "points resolved after retries:" in (first / "failure_report.txt").read_text()
    for name in ("collected.dat", "solutions.json", "failure_report.txt", "step1.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_verify_step1_leaves_a_run_that_retried_unchanged(tmp_path):
    # the check's second generic solve draws from a generator of its own,
    # so the retry rounds draw the p' values of a run without the check
    plain = _write_input(tmp_path)
    verified = _write_input(
        tmp_path, CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  verify_step1: 1;"), "verified.input"
    )
    first, checked = tmp_path / "first", tmp_path / "checked"
    flags = ["--inject-failure-at", "3"]
    assert main(["solve", plain, "--out", str(first), *flags]) == 0
    assert main(["solve", verified, "--out", str(checked), *flags]) == 0
    assert "points resolved after retries:" in (first / "failure_report.txt").read_text()
    for name in ("collected.dat", "solutions.json", "failure_report.txt", "step1.json"):
        assert (checked / name).read_bytes() == (first / name).read_bytes(), name


def test_step1_artifact_round_trips_the_solutions(tmp_path, cube_system):
    r1 = step1(cube_system, TrackerConfig(), np.random.default_rng(7))
    save_step1(tmp_path / "step1.json", r1)
    back = load_step1(tmp_path / "step1.json", cube_system)
    for field in dataclasses.fields(ClassifiedSolutions):
        a, b = getattr(r1.solutions, field.name), getattr(back.solutions, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name
    assert np.array_equal(back.p0, r1.p0) and back.gamma == r1.gamma


def test_load_step1_without_path_statuses(tmp_path):
    inp = _write_input(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", inp, "--out", str(out), "--step1-only"]) == 0
    doc = json.loads((out / "step1.json").read_text())
    assert doc["path_statuses"] == {"success": 6}
    # a v2 artifact always records the counts: one without them is refused
    del doc["path_statuses"]
    (out / "step1.json").write_text(json.dumps(doc))
    sysm = parse_input_file(CUBE_INPUT).system
    with pytest.raises(ValueError, match="artifact has no 'path_statuses' entry"):
        load_step1(out / "step1.json", sysm)


def test_solve_encodes_each_record_once(tmp_path, monkeypatch):
    # each attempt is encoded once, by the process that tracked it, and
    # collected.dat and solutions.json are those lines; the coordinator
    # encodes only the record of a point whose batch crashed twice
    calls = []
    encode = datafile.serialize_record

    def counted(pr):
        calls.append(pr.index)
        return encode(pr)

    # an encoding through any module's name counts
    for module in (datafile, scheduler, cli):
        monkeypatch.setattr(module, "serialize_record", counted, raising=False)
    out = tmp_path / "run"
    assert main(["solve", _write_input(tmp_path), "--out", str(out),
                 "--inject-failure-at", "3,7"]) == 0
    # one worker tracks in this process: 25 first attempts, 2 retries
    assert sorted(calls) == sorted([*range(25), 3, 7])
    lines = (out / "collected.dat").read_text().splitlines()[2:]
    assert (out / "solutions.json").read_text().splitlines()[1:-1] == [
        line + "," for line in lines[:-1]
    ] + lines[-1:]

    # two workers track in their own processes, whose calls this list
    # never sees: here only the crash records of the batch of point 3
    calls.clear()
    sysm = parse_input_file(CUBE_INPUT).system
    r1 = step1(sysm, TrackerConfig(), np.random.default_rng(7))
    points = np.array([[x, 0.5] for x in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)], dtype=complex)
    sweep = run_parallel(
        sysm, r1, points, TrackerConfig(), 0, workers=2, rng=np.random.default_rng(7),
        batch_size=2, crash_injection=frozenset({3}),
    )
    assert sorted(calls) == [2, 3] == sweep.unresolved_indices


def test_solve_reads_stdin(tmp_path, monkeypatch):
    import io

    out = tmp_path / "stdin_run"
    monkeypatch.setattr("sys.stdin", io.StringIO(CUBE_INPUT))
    code = main(["solve", "-", "--out", str(out)])
    assert code == 0
    assert (out / "collected.dat").exists()


def test_solve_with_param_file(tmp_path):
    (tmp_path / "pts.txt").write_text("0.0 0.0 0.0 0.0\n0.25 0.0 -0.5 0.0\n")
    text = CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  param_file: pts.txt;")
    text = text[: text.index("MESH")]
    inp = _write_input(tmp_path, text=text, name="filecube.input")
    out = tmp_path / "file_run"
    assert main(["solve", inp, "--out", str(out)]) == 0
    header, records, _ = read_collected(out / "collected.dat")
    assert header.source == "file"
    assert header.n_points == 2
    # CSV export must be refused for file-based runs
    with pytest.raises(InputError, match="grid"):
        export_real_count_grid(
            header, records, MeshSpec((Range(0, 1, 2), Range(0, 1, 1)))
        )


def test_solve_export_csv_with_param_file_solves_nothing(tmp_path, caplog):
    (tmp_path / "pts.txt").write_text("0.0 0.0 0.0 0.0\n")
    text = CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  param_file: pts.txt;")
    inp = _write_input(tmp_path, text=text[: text.index("MESH")], name="filecube.input")
    out = tmp_path / "file_run"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main(["solve", inp, "--out", str(out), "--export-csv"])
    assert code == 1
    assert "--export-csv requires a MESH run" in caplog.text
    assert "step1:" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--step1-only"]])
def test_solve_bad_point_file_fails_before_step1(tmp_path, caplog, flags):
    (tmp_path / "pts.txt").write_text("0.0 0.0 0.0 0.0\n0.25 nan -0.5 0.0\n")
    text = CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  param_file: pts.txt;")
    inp = _write_input(tmp_path, text=text[: text.index("MESH")], name="filecube.input")
    out = tmp_path / "file_run"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main(["solve", inp, "--out", str(out), *flags])
    assert code == 1
    assert "line 2" in caplog.text
    assert "step1:" not in caplog.text
    assert not (out / "step1.json").exists()


@pytest.mark.parametrize("spec, message", [
    ("3,x", "takes comma-separated point indices"),
    ("1.5", "takes comma-separated point indices"),
    ("25", "index 25 is outside the 25 points"),
    ("2,-1", "index -1 is outside the 25 points"),
])
def test_solve_bad_fault_index_fails_before_step1(tmp_path, caplog, spec, message):
    out = tmp_path / "run"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main([
            "solve", _write_input(tmp_path), "--out", str(out),
            "--inject-failure-at", spec,
        ])
    assert code == 1
    assert "--inject-failure-at" in caplog.text
    assert message in caplog.text
    assert "step1:" not in caplog.text
    assert not out.exists()


MONKS_SHORT_BUDGET = f"""
CONFIG
  seed: 7;
END;

INPUT
{MONKS_TEXT}
END;

MESH
  mu0 fixed 3.0;
  mu1 fixed 6.0;
  g fixed 7.63;
END;
"""


def test_verify_step1_fails_on_a_hard_failure_shortfall(tmp_path, caplog, monkeypatch):
    # a 15-attempt budget stops some Step 1 paths in MAX_STEPS: a shortfall
    # that divergence does not explain
    monkeypatch.setattr("paramsweep.tracker.MAX_ATTEMPTS", 15)
    verified = MONKS_SHORT_BUDGET.replace("seed: 7;", "seed: 7;\n  verify_step1: 1;")
    inp = _write_input(tmp_path, verified, name="verified.input")
    out = tmp_path / "verified"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main(["solve", inp, "--out", str(out)])
    assert code == 1
    assert "step1 verification failed" in caplog.text
    assert "max_steps:" in caplog.text
    assert not (out / "collected.dat").exists()

    # without verification the shortfall is a warning only
    caplog.clear()
    inp = _write_input(tmp_path, MONKS_SHORT_BUDGET, name="monks.input")
    out = tmp_path / "unverified"
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main(["solve", inp, "--out", str(out), "--step1-only"])
    assert code == 0
    assert "max_steps:" in caplog.text
    assert "step1 verification failed" not in caplog.text


TWO_SQUARES_INPUT = """
INPUT
  variable x, y;
  parameter p;
  function f, g;
  f = x^2 - p;
  g = y^2 - 2*p;
END;

MESH
  p range 1 2 3;
END;
"""
ONE_SQUARE_INPUT = TWO_SQUARES_INPUT.replace("variable x, y;", "variable z;").replace(
    "function f, g;\n  f = x^2 - p;\n  g = y^2 - 2*p;", "function f;\n  f = z^2 - p;"
)


@pytest.mark.parametrize("case, message", [
    ("other system", "solutions have 2 coordinates, system has 1 variables"),
    ("missing key", "artifact has no 'seed' entry"),
    ("missing file", "No such file"),
    ("no solutions", "artifact has no solutions"),
    ("long p0", "artifact has 2 p0 values, system has 1"),
    ("nan coordinate", "non-finite value nan"),
    ("ragged coordinates", "setting an array element with a sequence"),
    ("string seed", "seed='seven' is not an integer"),
])
def test_solve_refuses_a_step1_artifact_that_does_not_fit(tmp_path, caplog, case, message):
    # read before the run directory is made; the two systems have one
    # parameter each, but two variables and one.  Without solutions every
    # point would end Complete with no roots; a p0 of the wrong length
    # would fail only inside the sweep, and a nan coordinate would leave
    # every point Unresolved
    inp = _write_input(tmp_path, ONE_SQUARE_INPUT, name="one.input")
    first = tmp_path / "first"
    source = TWO_SQUARES_INPUT if case == "other system" else ONE_SQUARE_INPUT
    assert main([
        "solve", _write_input(tmp_path, source, name="first.input"),
        "--out", str(first), "--step1-only",
    ]) == 0
    artifact = first / "step1.json"
    doc = json.loads(artifact.read_text())
    if case == "missing key":
        del doc["seed"]
    elif case == "no solutions":
        doc["solutions"] = []
    elif case == "long p0":
        doc["p0"].append([0.5, 0.25])
    elif case == "nan coordinate":
        doc["solutions"][1]["coords"][0][1] = float("nan")
    elif case == "ragged coordinates":
        doc["solutions"][1]["coords"].append([0.5, 0.25])
    elif case == "string seed":  # the run's collected.dat would refuse it
        doc["seed"] = "seven"
    if case == "missing file":
        artifact.unlink()
    else:
        artifact.write_text(json.dumps(doc))
    out = tmp_path / "run"
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        code = main(["solve", inp, "--out", str(out), "--reuse-step1", str(first)])
    assert code == 1
    assert message in caplog.text
    assert "step1:" not in caplog.text
    assert not out.exists()


def test_verify_step1_checks_the_counts_of_a_reused_artifact(tmp_path, caplog):
    inp = _write_input(tmp_path)
    first = tmp_path / "first"
    assert main(["solve", inp, "--out", str(first), "--step1-only"]) == 0
    artifact = first / "step1.json"
    doc = json.loads(artifact.read_text())
    doc["path_statuses"] = {"success": 5, "min_step": 1}
    artifact.write_text(json.dumps(doc))
    verified = _write_input(
        tmp_path, CUBE_INPUT.replace("seed: 7;", "seed: 7;\n  verify_step1: 1;"), "verified.input"
    )
    reuse = ["solve", verified, "--step1-only", "--reuse-step1", str(first)]
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        assert main([*reuse, "--out", str(tmp_path / "counted")]) == 1
    assert "1 of 6 paths failed (min_step:1, success:5)" in caplog.text

    # an artifact without the counts is refused, not left unchecked
    del doc["path_statuses"]
    artifact.write_text(json.dumps(doc))
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="paramsweep"):
        assert main([*reuse, "--out", str(tmp_path / "uncounted")]) == 1
    assert "artifact has no 'path_statuses' entry" in caplog.text
    assert "verified" not in caplog.text
    assert not (tmp_path / "uncounted").exists()


def test_timing_summary_rows_sorted_by_index():
    # arrival order of two batches, then a retry round of index 2
    done = PointStatus.COMPLETE
    timings = [PointSummary(i, PointStatus.UNRESOLVED if i == 2 else done, 0.5 + i)
               for i in (2, 3, 0, 1)]
    timings.append(PointSummary(2, done, 9.0))
    lines = write_timing_summary(timings).splitlines()
    assert lines[0] == "index track_seconds"
    assert lines[1:-1] == [
        "0 0.500000",
        "1 1.500000",
        "2 2.500000",
        "2 9.000000",
        "3 3.500000",
    ]
    # four points, five attempts
    assert lines[-1] == "# totals: attempts=5 track=17.000s"


def test_export_subcommand(tmp_path):
    # solve exports the sweep it holds, export reads collected.dat: the
    # two must write the same bytes
    inp = _write_input(tmp_path)
    out = tmp_path / "run4"
    assert main([
        "solve", inp, "--out", str(out), "--export-csv", "--inject-failure-at", "3",
    ]) == 0
    csv_path = tmp_path / "again.csv"
    json_path = tmp_path / "again.json"
    code = main([
        "export", inp, str(out), "--csv", str(csv_path), "--json", str(json_path),
    ])
    assert code == 0
    assert csv_path.read_text().startswith("x,y,n_solutions")
    assert json.loads(json_path.read_text())["n_points"] == 25
    assert csv_path.read_bytes() == (out / "real_counts.csv").read_bytes()
    assert json_path.read_bytes() == (out / "solutions.json").read_bytes()
    # records may stand in any order in collected.dat; the exports sort them
    lines = (out / "collected.dat").read_text().splitlines()
    (out / "collected.dat").write_text("\n".join(lines[:2] + lines[:1:-1]) + "\n")
    assert main(["export", inp, str(out), "--csv", str(csv_path), "--json", str(json_path)]) == 0
    assert csv_path.read_bytes() == (out / "real_counts.csv").read_bytes()
    assert json_path.read_bytes() == (out / "solutions.json").read_bytes()


@pytest.mark.parametrize("head, complaint", [
    ("# paramsweep collected v2\n", "lacks its header line"),
    ('# paramsweep collected v2\n{"n_vars": 1}\n', "header has no 'n_params' entry"),
    ("# paramsweep collected v1\n# nvars=1 nparams=2\n", "is v1, this program reads v2"),
], ids=["no-header", "header-key", "version-1"])
def test_export_names_what_a_damaged_collected_header_lacks(tmp_path, caplog, head, complaint):
    run = tmp_path / "run"
    run.mkdir()
    (run / "collected.dat").write_text(head)
    with caplog.at_level(logging.ERROR, logger="paramsweep"):
        code = main(["export", _write_input(tmp_path), str(run), "--json", str(tmp_path / "s.json")])
    assert code == 1
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
        f"collected data file {complaint}"
    ]
    assert not (tmp_path / "s.json").exists()


def _reference_doc(header, results):
    """The document of export_solutions_json, as dicts and lists."""

    def pairs(vec):
        return [[float(c.real), float(c.imag)] for c in vec]

    doc = {
        "version": 1,
        "n_vars": header.n_vars,
        "n_params": header.n_params,
        "n_points": header.n_points,
        "step1_paths": header.step1_paths,
        "seed": header.seed,
        "max_retries": header.max_retries,
        "source": header.source,
        "param_names": list(header.param_names),
        "p0": pairs(header.p0),
        "points": [
            {
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
                    {
                        "coords": pairs(coords),
                        "singular": bool(singular),
                        "real": bool(real),
                        "multiplicity": int(mult),
                        "residual": float(res),
                    }
                    for coords, singular, real, mult, res in zip(
                        pr.solutions.distinct,
                        pr.solutions.singular_flags,
                        pr.solutions.real_flags,
                        pr.solutions.multiplicities,
                        pr.solutions.residuals,
                    )
                ],
            }
            for pr in sorted(results, key=lambda r: r.index)
        ],
    }
    return doc


def _bits(doc):
    """``doc`` with each float as its 8 bytes, so that == compares floats
    bit for bit (-0.0 is not 0.0, and nan equals nan)."""
    if isinstance(doc, float):
        return struct.pack("<d", doc)
    if isinstance(doc, dict):
        return {k: _bits(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_bits(v) for v in doc]
    return doc


@pytest.mark.parametrize("seed, names", [(None, ()), (7, ("x", "y\u00e9"))])
def test_solutions_json_is_what_json_dumps_writes(tmp_path, seed, names):
    # the odd floats, notes and names survive solutions.json and a round
    # trip through collected.dat, bit for bit
    header = CollectedHeader(
        n_vars=2, n_params=2, n_points=3, step1_paths=6, seed=seed, max_retries=2,
        p0=np.array([0.25 - 0.5j, 1e16 + 1e-05j]), source="file", param_names=names,
    )
    odd = np.array([
        complex(-0.0, 5e-324), complex(1e-05, 1e16),
        complex(float("nan"), float("inf")), complex(-float("inf"), 1.0),
    ])
    results = [
        PointResult(  # out of index order: the export sorts
            index=2, p=np.array([1.5 + 0j, -2.0 - 0.0j]),
            solutions=ClassifiedSolutions(
                np.array([odd[:2], odd[2:], [0.1 + 0.2j, 3.0 + 0j]]),
                np.array([False, True, True]), np.array([False, False, True]),
                np.array([1e-12, float("inf"), float("-inf")]), np.array([1, 2, 3]),
            ),
            status=PointStatus.HAD_FAILURES, retries_used=1, path_failures=0,
            diverged_paths=2, failure_kinds=(("diverged", 2),), round=1,
        ),
        PointResult(
            index=0, p=np.array([0.1 + 0j, 0.2 + 0j]),
            solutions=ClassifiedSolutions.empty(2),
            status=PointStatus.UNRESOLVED, retries_used=2, path_failures=6,
            diverged_paths=0, note='crashed: "twice" \\ caf\u00e9 \u2603',
        ),
        PointResult(
            index=1, p=np.array([float("nan") + 0j, 0j]),
            solutions=ClassifiedSolutions(
                odd[None, 1:3], np.array([False]), np.array([True]),
                np.array([float("nan")]), np.array([1]),
            ),
            status=PointStatus.COMPLETE, retries_used=0, path_failures=0, diverged_paths=0,
        ),
    ]
    records = [serialize_record(pr) for pr in sorted(results, key=lambda r: r.index)]
    write_collected(tmp_path / "collected.dat", header, records)
    text = export_solutions_json(header, records)
    assert _bits(json.loads(text)) == _bits(_reference_doc(header, results))
    # one point per line, each its collected.dat record
    assert text.splitlines()[1:] == [r + "," for r in records[:-1]] + [records[-1], "]}"]
    back_header, back, lines = read_collected(tmp_path / "collected.dat")
    assert lines == records
    assert export_solutions_json(back_header, lines) == text
    assert [serialize_record(pr) for pr in back] == records
    empty = export_solutions_json(header, [])
    assert _bits(json.loads(empty)) == _bits(_reference_doc(header, []))


def test_failure_report_lists_singular_endpoint_without_retry(tmp_path, quad_system):
    # a target exactly on the discriminant: solutions merge, flagged
    # singular, but the point itself completes without retries
    rng = np.random.default_rng(5)
    r1 = step1(quad_system, TrackerConfig(), rng)
    sweep = run_parallel(
        quad_system, r1, [np.array([0j])], TrackerConfig(), 2, workers=1, rng=rng
    )
    pr = sweep.point_results[0]
    assert pr.retries_used == 0
    report = write_failure_report(sweep.point_results)
    assert "singular" in report
    assert "0 failed points" in report


def test_cube_discriminant_target_reported_not_retried(cube_system, tmp_path):
    rng = np.random.default_rng(9)
    cfg = TrackerConfig()
    r1 = step1(cube_system, cfg, rng)
    sweep = run_parallel(
        cube_system, r1, [np.array([1.0 + 0j, 0j])], cfg, 3, workers=1, rng=rng
    )
    pr = sweep.point_results[0]
    assert pr.retries_used == 0
    assert pr.status in (PointStatus.COMPLETE, PointStatus.HAD_FAILURES)
    assert any(pr.solutions.singular_flags)
    report = write_failure_report(sweep.point_results)
    assert "singular endpoints" in report
    assert "point 0" in report

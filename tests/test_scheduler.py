import dataclasses
import os
import struct
import threading
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from paramsweep.datafile import (
    CollectedHeader,
    read_collected,
    serialize_record,
    write_collected,
)
from paramsweep.mesh import MeshSpec, Range, generate_mesh
from paramsweep.paramhom import (
    FaultInjection,
    PointResult,
    PointStatus,
    step1,
    sweep_with_runner,
)
from paramsweep.scheduler import (
    WorkBatch,
    _merge_part_files,
    default_batch_size,
    run_parallel,
)
from paramsweep.tracker import ClassifiedSolutions, TrackerConfig
from conftest import set_distance

CFG = TrackerConfig()


@pytest.fixture(scope="module")
def quad_setup(quad_system):
    rng = np.random.default_rng(101)
    r1 = step1(quad_system, CFG, rng, seed=101)
    points = [p for p in generate_mesh(MeshSpec((Range(0.5, 3.0, 12),))).points]
    return quad_system, r1, points


def test_worker_count_invariance(quad_setup):
    sysq, r1, points = quad_setup
    runs = {}
    for workers in (1, 2, 4):
        sweep = run_parallel(
            sysq, r1, points, CFG, max_retries=0, workers=workers,
            rng=np.random.default_rng(1),
        )
        runs[workers] = sweep
    serial = run_parallel(
        sysq, r1, points, CFG, max_retries=0, workers=1, rng=np.random.default_rng(1)
    )
    for workers, sweep in runs.items():
        assert sweep.total_paths_tracked == serial.total_paths_tracked
        for pr_p, pr_s in zip(sweep.point_results, serial.point_results):
            assert pr_p.index == pr_s.index
            assert pr_p.status is pr_s.status
            assert (
                set_distance(pr_p.solutions.distinct, pr_s.solutions.distinct) < 1e-10
            )


def test_batch_larger_than_point_count(quad_setup):
    sysq, r1, points = quad_setup
    sweep = run_parallel(
        sysq, r1, points, CFG, max_retries=0, workers=2,
        rng=np.random.default_rng(1), batch_size=1000,
    )
    assert all(pr.status is PointStatus.COMPLETE for pr in sweep.point_results)
    assert sweep.total_paths_tracked == 2 + len(points) * 2


def test_timing_records_cover_all_points(quad_setup):
    sysq, r1, points = quad_setup
    sweep = run_parallel(
        sysq, r1, points, CFG, max_retries=0, workers=2,
        rng=np.random.default_rng(1),
    )
    assert len(sweep.timings) == len(points)
    assert sorted(t.index for t in sweep.timings) == list(range(len(points)))
    assert all(t.track_seconds >= 0 for t in sweep.timings)


def test_collected_file_deterministic_for_single_worker(quad_setup, tmp_path):
    sysq, r1, points = quad_setup
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_parallel(
            sysq, r1, points, CFG, max_retries=0, workers=1,
            rng=np.random.default_rng(1), out_dir=str(out),
        )
        assert [f.name for f in out.iterdir()] == ["collected.dat"]
        blobs.append((out / "collected.dat").read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "batch_size, fault",
    [(1, None), (None, None), (1000, None), (None, FaultInjection.at(0, 5))],
    ids=["batch1", "default", "whole", "default-fault"],
)
def test_collected_file_matches_across_worker_counts(quad_setup, tmp_path, batch_size, fault):
    # points of a batch are tracked as one stack, so the output must not
    # depend on how many share a batch; the reference solves one per batch.
    # With 40 points of 2 paths in 1 variable a default batch holds 20
    # points at 1 worker, 10 at 2 and 5 at 4.
    sysq, r1, _ = quad_setup
    points = list(generate_mesh(MeshSpec((Range(0.5, 3.0, 40),))).points)
    blobs = {}
    for workers, size in ((1, 1), (1, batch_size), (2, batch_size), (4, batch_size)):
        out = tmp_path / f"w{workers}-b{size}"
        sweep = run_parallel(
            sysq, r1, points, CFG, max_retries=2, workers=workers,
            rng=np.random.default_rng(1), batch_size=size, out_dir=str(out),
            fault_injection=fault,
        )
        assert sweep.unresolved_indices == []
        blobs[workers, size] = (out / "collected.dat").read_bytes()
    assert len(set(blobs.values())) == 1
    retried = [pr.index for pr in sweep.point_results if pr.retries_used]
    assert retried == ([0, 5] if fault else [])


def test_mitigation_parallel_resolves_injected_failures(quad_setup):
    sysq, r1, points = quad_setup
    sweep = run_parallel(
        sysq, r1, points, CFG, max_retries=2, workers=2,
        rng=np.random.default_rng(1),
        fault_injection=FaultInjection.at(0, 5),
    )
    for idx in (0, 5):
        pr = sweep.point_results[idx]
        assert pr.status is PointStatus.COMPLETE
        assert pr.retries_used == 1
    assert sweep.unresolved_indices == []


def test_crash_requeue_then_unresolved(quad_setup, tmp_path):
    sysq, r1, points = quad_setup
    out = tmp_path / "crash"
    sweep = run_parallel(
        sysq, r1, points, CFG, max_retries=0, workers=2,
        rng=np.random.default_rng(1), batch_size=2, out_dir=str(out),
        crash_injection=frozenset({3}),
    )
    crashed = sweep.point_results[3]
    assert crashed.status is PointStatus.UNRESOLVED
    assert "crash" in crashed.note
    assert 3 in sweep.unresolved_indices
    # the batch containing index 3 is sacrificed; everything else completes
    undamaged = [pr for pr in sweep.point_results if not pr.note]
    assert all(pr.status is PointStatus.COMPLETE for pr in undamaged)
    assert len(undamaged) >= len(points) - 2
    # merged output still contains one record per point
    _, records, _ = read_collected(out / "collected.dat")
    assert len(records) == len(points)


def test_crash_keeps_records_of_reported_batches(quad_setup, tmp_path):
    # the last index is dispatched last, after both workers have reported
    # one-point batches; the crashing worker's reports of those batches
    # must reach collected.dat
    sysq, r1, points = quad_setup
    last = len(points) - 1
    runs = {}
    for name, crash in (("clean", frozenset()), ("crash", frozenset({last}))):
        out = tmp_path / name
        run_parallel(
            sysq, r1, points, CFG, max_retries=0, workers=2,
            rng=np.random.default_rng(1), batch_size=1, out_dir=str(out),
            crash_injection=crash,
        )
        runs[name] = read_collected(out / "collected.dat")[1]
    clean, crashed = (list(map(serialize_record, runs[k])) for k in ("clean", "crash"))
    assert len(clean) == len(crashed) == len(points)
    assert crashed[:last] == clean[:last]
    assert "crash" in runs["crash"][last].note


def test_crash_during_a_report_blocks_no_other_worker(quad_setup, monkeypatch):
    # every write a worker makes to a pipe takes 0.2 s longer, so a worker
    # that crashes on the batch it got for its last report does so while
    # that report may still be under way; the other worker's reports must
    # still get through, and the sweep must end
    sysq, r1, points = quad_setup
    coordinator = os.getpid()
    send = Connection._send_bytes

    def slow_in_workers(self, buf):
        send(self, buf)
        if os.getpid() != coordinator:
            time.sleep(0.2)

    monkeypatch.setattr(Connection, "_send_bytes", slow_in_workers)
    swept = []
    sweep = threading.Thread(
        target=lambda: swept.append(run_parallel(
            sysq, r1, points[:6], CFG, max_retries=0, workers=2,
            rng=np.random.default_rng(1), batch_size=1, crash_injection=frozenset({2}),
        )),
        daemon=True,
    )
    sweep.start()
    sweep.join(timeout=60)
    assert not sweep.is_alive(), "the sweep stalled"
    assert [pr.index for pr in swept[0].point_results if pr.note] == [2]


def _cut_once_in_a_report(marker, kept=lambda buf: len(buf) // 2):
    """Connection._send_bytes, but a worker dies once while it sends a
    report: it writes the report's length and the first kept(buf) of its
    bytes, or nothing at all when kept is None."""
    coordinator = os.getpid()
    send = Connection._send_bytes

    def cut_once(self, buf):
        if os.getpid() != coordinator and not os.path.exists(marker):
            open(marker, "w").close()
            if kept is not None:
                self._send(struct.pack("!i", len(buf)) + bytes(buf)[: kept(buf)])
            os._exit(13)
        send(self, buf)

    return cut_once


def test_crash_inside_a_report_is_requeued(quad_setup, tmp_path, monkeypatch):
    # the coordinator reads a cut report as a crash: the batch is requeued
    # to a replacement worker, and the crash leaves no trace
    sysq, r1, points = quad_setup
    marker = str(tmp_path / "crashed")
    blobs = []
    for name in ("clean", "cut"):
        if name == "cut":
            monkeypatch.setattr(Connection, "_send_bytes", _cut_once_in_a_report(marker))
        out = tmp_path / name
        sweep = run_parallel(
            sysq, r1, points, CFG, max_retries=2, workers=2,
            rng=np.random.default_rng(1), batch_size=4, out_dir=str(out),
            fault_injection=FaultInjection.at(0, 5),
        )
        assert sweep.unresolved_indices == []
        blobs.append((out / "collected.dat").read_bytes())
    assert os.path.exists(marker)
    assert blobs[0] == blobs[1]


def test_crash_right_after_a_report_loses_no_report(quad_setup, tmp_path, monkeypatch):
    # every worker dies right after it sends a report, and the coordinator
    # sees the death before it reads the report: the report must still be
    # read, so that no batch is solved twice and given up as crashed twice
    sysq, r1, points = quad_setup
    import paramsweep.scheduler as sched

    coordinator = os.getpid()
    send, wait = Connection._send_bytes, sched.wait

    def send_then_die(self, buf):
        send(self, buf)
        if os.getpid() != coordinator:
            os._exit(13)

    def late_wait(objects):
        time.sleep(0.05)
        return wait(objects)

    blobs = []
    for name in ("clean", "dying"):
        if name == "dying":
            monkeypatch.setattr(Connection, "_send_bytes", send_then_die)
            monkeypatch.setattr(sched, "wait", late_wait)
        out = tmp_path / name
        sweep = run_parallel(
            sysq, r1, points, CFG, max_retries=0, workers=2,
            rng=np.random.default_rng(1), batch_size=4, out_dir=str(out),
        )
        assert sweep.unresolved_indices == []
        blobs.append((out / "collected.dat").read_bytes())
    assert blobs[0] == blobs[1]


def test_crash_of_an_idle_worker_charges_no_batch(quad_setup, tmp_path, monkeypatch):
    # both workers die while idle, before the round: no batch is sent to
    # them, so the one real crash (a replacement that dies before its
    # report) is the only one charged, and every point is solved
    sysq, r1, points = quad_setup
    import paramsweep.scheduler as sched

    marker = str(tmp_path / "crashed")
    monkeypatch.setattr(Connection, "_send_bytes", _cut_once_in_a_report(marker, None))
    pool = sched._Pool(sched._Job(sysq, CFG, None, frozenset()), 2, 4, points)
    try:
        for proc, _ in pool._workers.values():
            proc.kill()
            proc.join()
        results = pool.run_round(0, range(len(points)), r1.p0, r1.solutions.distinct)
    finally:
        pool.shutdown()
    assert os.path.exists(marker)
    assert sorted(results) == list(range(len(points)))
    assert [idx for idx, res in results.items() if isinstance(res, str)] == []


@pytest.mark.parametrize("sweep_kind", ["clean", "retry", "crash-requeued", "crash-twice"])
def test_merged_file_is_its_records_rewritten(quad_setup, tmp_path, monkeypatch, sweep_kind):
    # collected.dat must read back into the sweep's own results, which
    # write_collected turns into the same bytes, and a crash the requeue
    # recovers from must leave no trace
    sysq, r1, points = quad_setup
    marker = str(tmp_path / "crashed")
    if sweep_kind == "crash-requeued":
        # a worker dies once before it sends a single byte of a report
        monkeypatch.setattr(Connection, "_send_bytes", _cut_once_in_a_report(marker, None))
    out = tmp_path / sweep_kind
    sweep = run_parallel(
        sysq, r1, points, CFG, max_retries=2, workers=2,
        rng=np.random.default_rng(1), batch_size=4, out_dir=str(out),
        fault_injection=FaultInjection.at(0, 5) if sweep_kind == "retry" else None,
        crash_injection=frozenset({3}) if sweep_kind == "crash-twice" else frozenset(),
    )
    assert os.path.exists(marker) == (sweep_kind == "crash-requeued")
    merged = (out / "collected.dat").read_bytes()
    header, records, lines = read_collected(out / "collected.dat")
    assert sweep.records == lines
    write_collected(tmp_path / "again.dat", header, records)
    assert (tmp_path / "again.dat").read_bytes() == merged
    assert list(map(serialize_record, sweep.point_results)) == list(map(serialize_record, records))
    retried = {pr.index: pr.retries_used for pr in records if pr.retries_used}
    noted = {pr.index: pr.status for pr in records if pr.note}
    if sweep_kind == "retry":
        assert retried == {0: 1, 5: 1}
        assert noted == {}
    elif sweep_kind == "crash-twice":
        # the whole batch of four points is given up
        assert noted == dict.fromkeys(range(4), PointStatus.UNRESOLVED)
        assert records[3].note.startswith("worker crashed twice")
    else:
        assert retried == noted == {}
        assert all(pr.status is PointStatus.COMPLETE for pr in records)


def _attempt(index, rnd, failures=0):
    roots = np.array([[0.1 * index + 1j], [complex(rnd, -0.0)]])
    return PointResult(
        index=index, p=np.array([index + 0.5j]),
        solutions=ClassifiedSolutions(
            roots, np.array([False, True]), np.array([False, True]),
            np.array([1e-13, 3e-9]), np.array([1, 2]),
        ),
        status=PointStatus.UNRESOLVED if failures else PointStatus.COMPLETE,
        retries_used=0, path_failures=failures, diverged_paths=0,
        failure_kinds=(("min_step", failures),) if failures else (), round=rnd,
    )


def test_collected_file_holds_the_standing_results(quad_setup, tmp_path):
    # the collected file holds the newest attempt of each point under its
    # retries, and a crashed point's Unresolved record with the crash note
    sysq, r1, _ = quad_setup
    a0, a1, a1_retry, a2 = _attempt(0, 0), _attempt(1, 0, 1), _attempt(1, 1), _attempt(2, 0)
    points = [a.p for a in (a0, a1, a2)] + [np.array([3.5 + 0j])]
    reports = {
        0: {0: (a0, 0.5), 1: (a1, 0.5), 2: (a2, 0.5), 3: "worker crashed twice"},
        1: {1: (a1_retry, 0.5)},
    }
    results, _, _ = sweep_with_runner(
        sysq, r1, points, CFG, 2, np.random.default_rng(5),
        lambda round_no, indices, from_point, starts: reports[round_no],
    )
    header = CollectedHeader(
        n_vars=1, n_params=1, n_points=4, step1_paths=2, seed=None, max_retries=2,
        p0=np.array([0.25 + 0.5j]), param_names=("q",),
    )
    _merge_part_files(str(tmp_path / "collected.dat"), header, results)
    expected = [
        a0,
        dataclasses.replace(a1_retry, retries_used=1),
        a2,
        PointResult(
            index=3, p=points[3], solutions=ClassifiedSolutions.empty(1),
            status=PointStatus.UNRESOLVED, retries_used=0, path_failures=2,
            diverged_paths=0, note="worker crashed twice",
        ),
    ]
    write_collected(tmp_path / "expected.dat", header, expected)
    assert (tmp_path / "collected.dat").read_bytes() == (tmp_path / "expected.dat").read_bytes()
    assert list(map(serialize_record, results)) == list(map(serialize_record, expected))


def test_crash_injection_needs_two_workers(quad_setup):
    sysq, r1, points = quad_setup
    with pytest.raises(ValueError):
        run_parallel(
            sysq, r1, points, CFG, max_retries=0, workers=1,
            rng=np.random.default_rng(1), crash_injection=frozenset({0}),
        )


def test_sweep_starts_no_more_workers_than_points(quad_setup, monkeypatch):
    import paramsweep.scheduler as sched

    sysq, r1, points = quad_setup
    spawned = []
    real_spawn = sched._Pool._spawn

    def counted(pool):
        spawned.append(real_spawn(pool))
        return spawned[-1]

    monkeypatch.setattr(sched._Pool, "_spawn", counted)
    sweep = run_parallel(
        sysq, r1, points[:2], CFG, max_retries=0, workers=3, rng=np.random.default_rng(1)
    )
    assert len(spawned) == 2
    assert [pr.index for pr in sweep.point_results] == [0, 1]
    # one point runs in this process, which a simulated crash would end
    with pytest.raises(ValueError, match="two workers"):
        run_parallel(
            sysq, r1, points[:1], CFG, max_retries=0, workers=2,
            rng=np.random.default_rng(1), crash_injection=frozenset({0}),
        )
    assert len(spawned) == 2


def test_flush_failure_aborts_sweep(quad_setup, tmp_path, monkeypatch):
    sysq, r1, points = quad_setup
    out = tmp_path / "abort"

    import paramsweep.datafile as datafile

    class FullDisk:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, data):
            raise OSError("disk full")

    def open_on_full_disk(path, *args):
        return FullDisk() if str(path).endswith("collected.dat") else open(path, *args)

    # the collected data file refuses every write
    monkeypatch.setattr(datafile, "open", open_on_full_disk, raising=False)
    with pytest.raises(OSError, match="disk full"):
        run_parallel(
            sysq, r1, points, CFG, max_retries=0, workers=1,
            rng=np.random.default_rng(1), out_dir=str(out),
        )
    assert (out / "PARTIAL_OUTPUT").exists()
    # a successful re-run into the same directory is not partial
    monkeypatch.undo()
    run_parallel(
        sysq, r1, points, CFG, max_retries=0, workers=1,
        rng=np.random.default_rng(1), out_dir=str(out),
    )
    assert not (out / "PARTIAL_OUTPUT").exists()
    assert (out / "collected.dat").exists()


def test_aborted_sweep_leaves_its_marker(quad_setup, tmp_path, monkeypatch):
    import paramsweep.scheduler as sched

    sysq, r1, points = quad_setup
    out = tmp_path / "abort"

    def no_sweep(*args):
        raise RuntimeError("no round could run")

    monkeypatch.setattr(sched, "sweep_with_runner", no_sweep)
    with pytest.raises(RuntimeError, match="no round could run"):
        run_parallel(
            sysq, r1, points, CFG, max_retries=0, workers=2,
            rng=np.random.default_rng(1), out_dir=str(out),
        )
    assert (out / "PARTIAL_OUTPUT").read_text() == "sweep aborted: no round could run\n"
    assert not (out / "collected.dat").exists()
    # the next sweep into the directory removes the stale marker
    monkeypatch.undo()
    run_parallel(
        sysq, r1, points, CFG, max_retries=0, workers=1,
        rng=np.random.default_rng(1), out_dir=str(out),
    )
    assert not (out / "PARTIAL_OUTPUT").exists()
    assert (out / "collected.dat").exists()


def test_work_batch_validation():
    with pytest.raises(ValueError):
        WorkBatch(0, (), ())
    with pytest.raises(ValueError):
        WorkBatch(0, (1,), ())


def test_default_batch_size_counts_jacobian_entries():
    # the benchmark's workloads: cube-mesh's 625 points of 6 paths in 1
    # variable at 2 workers fill batches of 157; one point of 81 paths in 4
    # variables, monks-generic's at 2 workers and monks-g0's at 1, already
    # holds more than JAC_ENTRIES_PER_BATCH entries
    assert default_batch_size(625, 6, 1, 2) == 157
    assert default_batch_size(8, 81, 4, 2) == 1
    assert default_batch_size(2, 81, 4, 1) == 1
    # every worker gets at least two batches, and a batch at least a point
    assert default_batch_size(40, 2, 1, 2) == 10
    assert default_batch_size(1, 6, 1, 2) == 1
    # and no worker more than about eight: 216 wave-amplitude points run as
    # batches of 27 at 1 worker and of 6 at 4, not 216 batches of 1
    assert default_batch_size(216, 81, 4, 1) == 27
    assert default_batch_size(216, 81, 4, 4) == 6


@pytest.mark.parametrize("n_points, batch_size, n_paths, n_vars, n_batches", [
    (625, None, 6, 1, 4),     # cube-mesh's shape, here at 1 worker
    (8, None, 81, 4, 8),      # monks': one point per batch
    (625, 39, 6, 1, 17),      # not 16 of 39 and one of 1
    (40, 16, 2, 1, 3),
    (7, 7, 2, 1, 1),
    (1, None, 6, 1, 1),
    (1, 5, 6, 1, 1),
])
def test_round_is_cut_evenly(monkeypatch, n_points, batch_size, n_paths, n_vars, n_batches):
    import paramsweep.scheduler as sched

    batches = []

    def record(job, batch, from_point, starts):
        batches.append(batch.indices)
        return [], 0.0

    monkeypatch.setattr(sched, "_run_batch", record)
    points = [np.zeros(1)] * n_points
    pool = sched._Pool(None, 1, batch_size, points)
    pool.run_round(0, list(range(n_points)), np.zeros(1), np.zeros((n_paths, n_vars)))
    sizes = [len(b) for b in batches]
    assert [i for b in batches for i in b] == list(range(n_points))
    assert len(sizes) == n_batches
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= (batch_size or default_batch_size(n_points, n_paths, n_vars, 1))

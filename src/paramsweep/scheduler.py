"""Head-worker execution of the Step 2 sweep: the one round runner.

A single coordinator hands batches of parameter points to worker
processes on demand (a worker asks for more by reporting its finished
batch), each batch with its round's start point and its (l, N) array of
start solutions, and sends kill messages once the queue drains.  Workers
solve all points of a batch in one ``step2`` call, which returns each
attempt as a ``PointResult`` with its status; a worker stamps each with
its point index and round and writes it straight to a per-worker spill
file ``step2_worker<k>.part``; the file's own buffer is flushed before
the batch is reported done.  The report carries a ``PointSummary`` per
point (its status and timings), which is all the retry policy
(``paramhom.sweep_with_runner``) needs: the spill files are the only
store of the solutions.  A worker sends each report whole before it goes
on, so a worker that crashes between reports blocks no other worker's.
After the sweep the coordinator merges the spill files into the
collected data file: it copies the text of each point's standing record,
setting only the retries the policy decided, parses the merged records
once into the sweep's point results, and deletes the spill files.
With one worker no process is started, and the coordinator runs each
batch itself through the same batch function.

A crashed worker's in-flight batch is requeued once to a replacement
worker; if it crashes again, its points are marked Unresolved with a
diagnostic note.  All random draws happen at the coordinator, so the
solution sets are independent of worker count and scheduling order.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from paramsweep.datafile import (
    CollectedHeader,
    parse_records,
    serialize_record,
    set_retries,
    split_records,
    write_collected,
)
from paramsweep.paramhom import (
    FaultInjection,
    PointResult,
    PointStatus,
    PointSummary,
    PointVerdict,
    Step1Result,
    SweepResult,
    step2,
    sweep_with_runner,
)
from paramsweep.poly import ParamSystem
from paramsweep.tracker import ClassifiedSolutions, TrackerConfig

__all__ = [
    "WorkBatch",
    "check_sweep_settings",
    "default_batch_size",
    "run_parallel",
]

COLLECTED_NAME = "collected.dat"
PARTIAL_MARKER = "PARTIAL_OUTPUT"

_blas_limiter = None


def _limit_blas_threads() -> None:
    """Pin BLAS pools to one thread in sweep processes.

    The tracker's solves are tiny (N x N for small N), where BLAS
    threading only adds contention; process-level parallelism owns the
    cores instead.  Best effort: a missing threadpoolctl changes nothing.
    """
    global _blas_limiter
    if _blas_limiter is not None:
        return
    try:
        from threadpoolctl import threadpool_limits

        _blas_limiter = threadpool_limits(limits=1)
    except Exception:  # pragma: no cover - absent or exotic BLAS
        _blas_limiter = False


@dataclass(frozen=True)
class WorkBatch:
    round_no: int
    indices: tuple[int, ...]
    points: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("empty work batch")
        if len(self.indices) != len(self.points):
            raise ValueError("batch indices and points differ in length")


def default_batch_size(n_points: int, workers: int) -> int:
    return max(1, n_points // (8 * workers))


def check_sweep_settings(workers: int, max_retries: int, batch_size: int | None) -> None:
    """Raise ValueError, naming the setting, for a sweep no run can carry out."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


@dataclass(frozen=True)
class _Job:
    """What solving any batch of the sweep needs, besides its round's start."""

    sysm: ParamSystem
    cfg: TrackerConfig
    fault: FaultInjection | None
    crash_indices: frozenset


def _run_batch(
    job: _Job,
    batch: WorkBatch,
    from_point: np.ndarray,
    starts: np.ndarray,
    sink,
) -> list[PointSummary]:
    """Solve one batch, spill a record per point and summarize each point.

    The spill file is flushed before returning, because the coordinator
    takes a reported batch as stored: a worker that crashes later must not
    take the records of its finished batches with it.
    """
    first = batch.round_no == 0
    faulty = job.fault.indices if first and job.fault is not None else ()
    inject = [k for k, idx in enumerate(batch.indices) if idx in faulty]
    t0 = time.perf_counter()
    attempts = step2(
        job.sysm, from_point, starts, batch.points, job.cfg, force_first_failure=inject
    )
    t_track = (time.perf_counter() - t0) / len(attempts)
    summaries = []
    for idx, attempt in zip(batch.indices, attempts):
        if first and idx in job.crash_indices:
            os._exit(13)  # test hook: simulated worker crash
        t0 = time.perf_counter()
        attempt = replace(attempt, index=idx, round=batch.round_no)
        sink.write(serialize_record(attempt).encode())
        summaries.append(
            PointSummary(idx, attempt.status, t_track, time.perf_counter() - t0)
        )
    sink.flush()
    return summaries


class _ResultPipe:
    """The one channel from the workers to the coordinator.

    A worker sends each message whole, from its own thread, under a lock
    the workers share.  A multiprocessing.Queue would send from a feeder
    thread, which can still hold that lock when its worker dies (a crash
    right after a report), and then no other worker's report gets through.
    """

    def __init__(self, ctx):
        self._recv_end, self._send_end = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()

    def send(self, msg) -> None:
        with self._lock:
            self._send_end.send(msg)

    def recv(self, timeout: float):
        """The next message, or None if none arrives within ``timeout`` s."""
        return self._recv_end.recv() if self._recv_end.poll(timeout) else None


def _worker_main(
    wid: int,
    job: _Job,
    part_path: str,
    inbox,
    outbox: _ResultPipe,
):
    _limit_blas_threads()
    with open(part_path, "ab") as sink:
        while True:
            msg = inbox.get()
            if msg[0] == "kill":
                return
            _, batch, from_point, starts = msg
            try:
                summaries = _run_batch(job, batch, from_point, starts, sink)
            except OSError as exc:
                outbox.send(("fatal", wid, f"spill write failed: {exc}"))
                os._exit(3)
            outbox.send(("done", wid, summaries))


def _part_path(part_dir: str, wid: int | str) -> str:
    return os.path.join(part_dir, f"step2_worker{wid}.part")


class _Pool:
    """Coordinator side of the head-worker protocol.

    With one worker no process is started: each batch runs here, through
    the same ``_run_batch`` and into spill file 0.
    """

    def __init__(self, job, n_workers, part_dir, batch_size, points):
        self._job = job
        self._part_dir = part_dir
        self._batch_size = batch_size
        self._points = points
        self._n_target = n_workers
        self._workers: dict[int, tuple] = {}  # wid -> (process, inbox)
        self._next_wid = 0
        self._sink = None
        if n_workers == 1:
            _limit_blas_threads()
            self._sink = open(_part_path(part_dir, 0), "ab")
            return
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._outbox = _ResultPipe(self._ctx)
        for _ in range(n_workers):
            self._spawn()

    def _spawn(self) -> int:
        wid = self._next_wid
        self._next_wid += 1
        inbox = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, self._job, _part_path(self._part_dir, wid), inbox, self._outbox),
            daemon=True,
        )
        proc.start()
        self._workers[wid] = (proc, inbox)
        return wid

    def run_round(self, round_no, indices, from_point, starts) -> dict:
        size = self._batch_size or default_batch_size(len(indices), self._n_target)
        indices = list(indices)
        batches: deque[WorkBatch] = deque(
            WorkBatch(
                round_no,
                tuple(indices[lo : lo + size]),
                tuple(self._points[i] for i in indices[lo : lo + size]),
            )
            for lo in range(0, len(indices), size)
        )
        results: dict[int, PointSummary | str] = {}
        if self._sink is not None:
            for batch in batches:
                for summary in _run_batch(self._job, batch, from_point, starts, self._sink):
                    results[summary.index] = summary
            return results

        dispatch_counts: dict[tuple, int] = {}
        in_flight: dict[int, WorkBatch] = {}
        idle = list(self._workers)

        def dispatch():
            while idle and batches:
                wid = idle.pop()
                batch = batches.popleft()
                dispatch_counts[batch.indices] = dispatch_counts.get(batch.indices, 0) + 1
                in_flight[wid] = batch
                self._workers[wid][1].put(("batch", batch, from_point, starts))

        def reap_crashes():
            for wid in list(in_flight):
                proc, _ = self._workers[wid]
                if proc.is_alive():
                    continue
                batch = in_flight.pop(wid)
                del self._workers[wid]
                if wid in idle:
                    idle.remove(wid)
                if dispatch_counts[batch.indices] > 1:
                    diag = (
                        f"worker crashed twice while solving this batch "
                        f"(exit code {proc.exitcode})"
                    )
                    for idx in batch.indices:
                        results[idx] = diag
                else:
                    batches.appendleft(batch)
                idle.append(self._spawn())

        dispatch()
        while in_flight or batches:
            msg = self._outbox.recv(timeout=0.25)
            if msg is None:
                reap_crashes()
                dispatch()
                continue
            kind = msg[0]
            if kind == "done":
                _, wid, summaries = msg
                for summary in summaries:
                    results[summary.index] = summary
                if wid in in_flight:
                    del in_flight[wid]
                idle.append(wid)
                dispatch()
            elif kind == "fatal":
                _, wid, message = msg
                raise RuntimeError(f"worker {wid}: {message}")
        return results

    def shutdown(self):
        if self._sink is not None:
            self._sink.close()
            return
        for _, inbox in self._workers.values():
            try:
                inbox.put(("kill",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 10.0
        for proc, _ in self._workers.values():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)


def _merge_part_files(
    part_dir: str,
    header: CollectedHeader,
    points: list[np.ndarray],
    n_starts: int,
    verdicts: list[PointVerdict],
) -> list[PointResult]:
    """Fold the spill files into one collected data file and return its records.

    Per point, the text of the spill record of the newest round, which
    must be the round that stands, is copied into the collected file, with
    only the retry count the coordinator decided put into its ``P`` line.
    A crashed worker may have written some records of its last batch: a
    requeued batch writes the same records again, since the tracker is
    deterministic, and a record the crash cut short is dropped.  A point
    whose worker crashed is Unresolved, with no solutions and all
    ``n_starts`` paths failed.  The merged records are parsed once, into
    the returned results.
    """
    parts = sorted(glob.glob(_part_path(part_dir, "*")))
    latest: dict[int, tuple[int, str]] = {}  # index -> (round, record text)
    for path in parts:
        with open(path) as f:
            for index, rnd, text in split_records(f.read()):
                cur = latest.get(index)
                if cur is None or rnd > cur[0]:
                    latest[index] = (rnd, text)
    merged = []
    for v in verdicts:
        spill_round, text = latest.get(v.index, (None, ""))
        if isinstance(v.standing, str):
            merged.append(serialize_record(
                PointResult(
                    index=v.index,
                    p=points[v.index],
                    solutions=ClassifiedSolutions.empty(header.n_vars),
                    status=PointStatus.UNRESOLVED,
                    retries_used=v.retries_used,
                    path_failures=n_starts,
                    diverged_paths=0,
                    note=v.standing,
                    round=spill_round or 0,
                )
            ))
        elif spill_round != v.standing:
            raise RuntimeError(
                f"spill files hold no round {v.standing} record of point {v.index}"
            )
        else:
            merged.append(set_retries(text, v.retries_used))
    body = "".join(merged)
    write_collected(os.path.join(part_dir, COLLECTED_NAME), header, body)
    for path in parts:
        os.remove(path)
    return parse_records(body)


def run_parallel(
    sysm: ParamSystem,
    r1: Step1Result,
    points,
    cfg: TrackerConfig,
    max_retries: int,
    workers: int,
    rng: np.random.Generator,
    batch_size: int | None = None,
    out_dir: str | None = None,
    fault_injection: FaultInjection | None = None,
    crash_injection: frozenset = frozenset(),
    source: str = "mesh",
) -> SweepResult:
    """Step 2 sweep over the given parameter points, with ``workers``
    processes, but no more than there are points, or in this process when
    that is 1.

    The point results are read back from the merged spill files, and
    ``SweepResult.header`` is the header of the collected data file.  When
    ``out_dir`` is given, the merged ``collected.dat`` is left there;
    otherwise the sweep works in a temporary directory.
    ``crash_injection`` (test hook) simulates a worker crash at the given
    point indices and requires at least two workers and two points.
    """
    check_sweep_settings(workers, max_retries, batch_size)
    points = [np.asarray(p, dtype=complex) for p in points]
    # no process without a point; never 0, since the batch size divides by it
    workers = max(1, min(workers, len(points)))
    if crash_injection and workers < 2:
        raise ValueError("crash injection requires at least two workers")

    tmp = None
    if out_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="paramsweep_")
        part_dir = tmp.name
    else:
        os.makedirs(out_dir, exist_ok=True)
        part_dir = str(out_dir)
    # an earlier, aborted sweep left these: its spill files would be merged
    # into this sweep, and its marker would mark this sweep partial
    marker = os.path.join(part_dir, PARTIAL_MARKER)
    stale = glob.glob(_part_path(part_dir, "*"))
    if os.path.exists(marker):
        stale.append(marker)
    for path in stale:
        os.remove(path)
    header = CollectedHeader(
        n_vars=sysm.n_vars,
        n_params=sysm.n_params,
        n_points=len(points),
        step1_paths=r1.paths_tracked_step1,
        seed=r1.seed,
        max_retries=max_retries,
        p0=r1.p0,
        source=source,
        param_names=sysm.param_names,
    )

    job = _Job(sysm, cfg, fault_injection, crash_injection)
    pool = _Pool(job, workers, part_dir, batch_size, points)
    try:
        try:
            verdicts, total_paths, timings = sweep_with_runner(
                sysm, r1, points, cfg, max_retries, rng, pool.run_round
            )
        finally:
            pool.shutdown()
        point_results = _merge_part_files(
            part_dir, header, points, len(r1.solutions), verdicts
        )
    except Exception as exc:
        if out_dir is not None:
            with open(marker, "w") as f:
                f.write(f"sweep aborted: {exc}\n")
        raise
    finally:
        if tmp is not None:
            tmp.cleanup()
    return SweepResult(
        point_results=point_results,
        total_paths_tracked=total_paths,
        unresolved_indices=[
            pr.index for pr in point_results if pr.status is PointStatus.UNRESOLVED
        ],
        header=header,
        timings=timings,
    )

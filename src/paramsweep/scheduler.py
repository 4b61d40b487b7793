"""Head-worker execution of the Step 2 sweep: the one round runner.

A single coordinator hands batches of parameter points to worker
processes on demand (a worker asks for more by reporting its finished
batch), each batch with its round's start point and its (l, N) array of
start solutions, and sends each worker a stop message once the queue
drains.  Each worker has one duplex pipe of its own, which carries its
batches in and its reports out.  Workers solve all points of a batch in
one ``step2`` call, which returns each attempt as a ``PointResult`` with
its status; the report is those attempts, stamped with their point index
and round, and the batch's tracking time.  The retry policy
(``paramhom.sweep_with_runner``) keeps the newest attempt per point, and
after the sweep the coordinator writes them to the collected data file.
With one worker no process is started, and the coordinator runs each
batch itself through the same batch function.

A worker that dies is seen from its process sentinel, after any report
already in its pipe is read.  Its in-flight batch is requeued once to a
replacement worker; if it crashes again, its points are marked
Unresolved with a diagnostic note.  All random draws happen at the
coordinator, so the solution sets are independent of worker count and
scheduling order.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass, replace
from multiprocessing.connection import wait

import numpy as np

from paramsweep.datafile import CollectedHeader, write_collected
from paramsweep.paramhom import (
    FaultInjection,
    PointResult,
    PointStatus,
    Step1Result,
    SweepResult,
    step2,
    sweep_with_runner,
)
from paramsweep.poly import ParamSystem
from paramsweep.tracker import TrackerConfig

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
) -> tuple[list[PointResult], float]:
    """Solve one batch: its attempts, stamped with their point index and
    round, and each point's equal share of the tracking time."""
    first = batch.round_no == 0
    faulty = job.fault.indices if first and job.fault is not None else ()
    inject = [k for k, idx in enumerate(batch.indices) if idx in faulty]
    t0 = time.perf_counter()
    attempts = step2(
        job.sysm, from_point, starts, batch.points, job.cfg, force_first_failure=inject
    )
    t_track = (time.perf_counter() - t0) / len(attempts)
    if first and not job.crash_indices.isdisjoint(batch.indices):
        os._exit(13)  # test hook: simulated worker crash
    stamped = [
        replace(attempt, index=idx, round=batch.round_no)
        for idx, attempt in zip(batch.indices, attempts)
    ]
    return stamped, t_track


def _worker_main(job: _Job, conn) -> None:
    _limit_blas_threads()
    while True:
        msg = conn.recv()
        if msg is None:
            return
        conn.send(_run_batch(job, *msg))


class _Pool:
    """Coordinator side of the head-worker protocol.

    With one worker no process is started: each batch runs here, through
    the same ``_run_batch``.
    """

    def __init__(self, job, n_workers, batch_size, points):
        self._job = job
        self._batch_size = batch_size
        self._points = points
        self._n_target = n_workers
        self._workers: dict[int, tuple] = {}  # wid -> (process, pipe end)
        self._next_wid = 0
        if n_workers == 1:
            _limit_blas_threads()
            return
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        for _ in range(n_workers):
            self._spawn()

    def _spawn(self) -> int:
        wid = self._next_wid
        self._next_wid += 1
        conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_main, args=(self._job, child_conn), daemon=True)
        proc.start()
        # the worker's end stays open only in the worker, so its death
        # closes the pipe
        child_conn.close()
        self._workers[wid] = (proc, conn)
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
        results: dict[int, tuple[PointResult, float] | str] = {}

        def take(report):
            attempts, t_track = report
            for attempt in attempts:
                results[attempt.index] = (attempt, t_track)

        if not self._workers:
            for batch in batches:
                take(_run_batch(self._job, batch, from_point, starts))
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
                try:
                    self._workers[wid][1].send((batch, from_point, starts))
                except OSError:
                    pass  # the worker is dead: its sentinel says so

        def retire(wid):
            """Replace a dead worker, requeueing its batch once."""
            proc, conn = self._workers.pop(wid)
            conn.close()
            if wid in idle:
                idle.remove(wid)
            batch = in_flight.pop(wid, None)
            if batch is not None and dispatch_counts[batch.indices] > 1:
                proc.join()
                diag = (
                    f"worker crashed twice while solving this batch "
                    f"(exit code {proc.exitcode})"
                )
                for idx in batch.indices:
                    results[idx] = diag
            elif batch is not None:
                batches.appendleft(batch)
            idle.append(self._spawn())

        dispatch()
        while in_flight:
            owner = {}
            for wid, (proc, conn) in self._workers.items():
                owner[conn] = owner[proc.sentinel] = wid
            for wid in {owner[ready] for ready in wait(list(owner))}:
                conn = self._workers[wid][1]
                try:
                    report = conn.recv() if conn.poll() else None
                except (EOFError, OSError):  # died before the report was whole
                    report = None
                if report is None:
                    retire(wid)
                else:
                    take(report)
                    del in_flight[wid]
                    idle.append(wid)
            dispatch()
        return results

    def shutdown(self):
        for _, conn in self._workers.values():
            try:
                conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 10.0
        for proc, conn in self._workers.values():
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            conn.close()


def _merge_part_files(path: str, header: CollectedHeader, results: list[PointResult]) -> None:
    """Write the sweep's results to the collected data file at ``path``.

    The benchmark's tracer (``sweepbench/tracer.py``) times this step by
    this name.
    """
    write_collected(path, header, results)


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

    ``SweepResult.header`` is the header of the collected data file, which
    is written to ``out_dir`` when that is given; without ``out_dir``
    nothing is written.  ``crash_injection`` (test hook) simulates a worker
    crash at the given point indices and requires at least two workers and
    two points.
    """
    check_sweep_settings(workers, max_retries, batch_size)
    points = [np.asarray(p, dtype=complex) for p in points]
    # no process without a point; never 0, since the batch size divides by it
    workers = max(1, min(workers, len(points)))
    if crash_injection and workers < 2:
        raise ValueError("crash injection requires at least two workers")

    marker = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        # an earlier, aborted sweep left this: it would mark this sweep partial
        marker = os.path.join(out_dir, PARTIAL_MARKER)
        if os.path.exists(marker):
            os.remove(marker)
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
    pool = _Pool(job, workers, batch_size, points)
    try:
        try:
            point_results, total_paths, timings = sweep_with_runner(
                sysm, r1, points, cfg, max_retries, rng, pool.run_round
            )
        finally:
            pool.shutdown()
        if out_dir is not None:
            _merge_part_files(os.path.join(out_dir, COLLECTED_NAME), header, point_results)
    except Exception as exc:
        if marker is not None:
            with open(marker, "w") as f:
                f.write(f"sweep aborted: {exc}\n")
        raise
    return SweepResult(
        point_results=point_results,
        total_paths_tracked=total_paths,
        unresolved_indices=[
            pr.index for pr in point_results if pr.status is PointStatus.UNRESOLVED
        ],
        header=header,
        timings=timings,
    )

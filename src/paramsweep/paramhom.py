"""Two-step parameter sweep with automatic path-failure mitigation.

Step 1 solves the family once at a random complex start point via a
total-degree homotopy and keeps the nonsingular finite solutions.  Step 2
runs one parameter homotopy per requested point, reusing the Step 1
solutions as path starts; ``step2`` tracks the homotopies of a batch of
points in one lock-step call.  Points where paths fail hard (step
underflow, Newton failure, step budget) are retried from fresh random
start points, at most K rounds; divergent paths are reported but are not
by themselves retried, since they normally reflect genuine geometry of
the target.

The path accounting is the whole economy of the method: a sweep of k
points costs m + k*l paths (one generic solve of m paths plus l paths per
point) instead of k*m for repeated one-off solves.

A solved point is a ``PointResult`` from ``step2`` to the exports: the
worker's report, the collected data file and the sweep's results all
hold it, and ``step2`` gives each attempt its status (``attempt_status``).
The retry policy, ``sweep_with_runner``, keeps the newest attempt per
point and adds what no attempt knows: its retries, or the Unresolved
record of a point whose worker crashed.  ``scheduler.run_parallel`` is
the sweep entry point: it supplies the round runner and writes the
results to the collected data file.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, Collection, NamedTuple, Sequence

import numpy as np

from paramsweep.poly import ParamSystem, instantiate, variable_degrees
from paramsweep.startsys import build_homotopy, random_gamma, total_degree_start
from paramsweep.tracker import (
    ENDGAME_BOUNDARY,
    HARD_FAILURES,
    ClassifiedSolutions,
    Paths,
    PathStatus,
    TrackerConfig,
    classify_endpoints,
    crossing_check,
    track_many,
)

if TYPE_CHECKING:
    from paramsweep.datafile import CollectedHeader

__all__ = [
    "Step1Empty",
    "Step1Result",
    "PointStatus",
    "PointResult",
    "attempt_status",
    "PointSummary",
    "SweepResult",
    "FaultInjection",
    "random_parameter_point",
    "step1_draws",
    "step1",
    "verify_step1",
    "step2",
    "parameter_sweep_path_count",
    "repeated_homotopy_path_count",
]

log = logging.getLogger(__name__)

CROSSING_TOL = 1e-6


class Step1Empty(RuntimeError):
    """The generic solve produced no nonsingular finite solutions."""


@dataclass(frozen=True)
class Step1Result:
    p0: np.ndarray
    solutions: ClassifiedSolutions  # nonsingular finite points only
    paths_tracked_step1: int
    seed: int | None
    gamma: complex
    suspected_crossings: tuple[tuple[int, int], ...] = ()
    # Step 1 paths by PathStatus value, as sorted (value, count) pairs;
    # empty for an artifact written before the counts were recorded
    path_statuses: tuple[tuple[str, int], ...] = ()

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)


class PointStatus(Enum):
    COMPLETE = "Complete"
    HAD_FAILURES = "HadFailures"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class PointResult:
    """One attempt at one point, and once the retry policy has kept it,
    the point's result."""

    index: int
    p: np.ndarray
    solutions: ClassifiedSolutions
    status: PointStatus
    retries_used: int
    path_failures: int  # hard failures on the final attempt
    diverged_paths: int
    failure_kinds: tuple[tuple[str, int], ...] = ()
    note: str = ""
    round: int = 0  # the retry round of the attempt


def attempt_status(failures: int, diverged: int) -> PointStatus:
    """Hard path failures leave a point Unresolved; divergent paths alone
    make it HadFailures."""
    if failures > 0:
        return PointStatus.UNRESOLVED
    if diverged > 0:
        return PointStatus.HAD_FAILURES
    return PointStatus.COMPLETE


class PointSummary(NamedTuple):
    """The sweep's timing record of one attempt.

    ``track_seconds`` is the point's equal share of its batch's tracking
    time, since every point of a batch is tracked in one call.
    """

    index: int
    status: PointStatus
    track_seconds: float


@dataclass
class SweepResult:
    point_results: list[PointResult]
    total_paths_tracked: int
    unresolved_indices: list[int]
    header: CollectedHeader  # of the collected data file
    timings: list[PointSummary] = field(default_factory=list)


@dataclass(frozen=True)
class FaultInjection:
    """Test hook: force one MIN_STEP path failure on the first attempt
    at the given point indices."""

    indices: frozenset[int]

    @classmethod
    def at(cls, *indices: int) -> "FaultInjection":
        return cls(frozenset(indices))


def random_parameter_point(n_params: int, rng: np.random.Generator) -> np.ndarray:
    """Point in the complex unit hypercube: Re and Im uniform on [0, 1]."""
    if n_params < 1:
        raise ValueError("need at least one parameter")
    vals = rng.random(2 * n_params)
    return vals[0::2] + 1j * vals[1::2]


_HARD_CODES = [s.code for s in HARD_FAILURES]


def _status_counts(paths: Paths) -> np.ndarray:
    """Paths per status code of each target, shaped (targets, len(PathStatus))."""
    return (paths.status[..., None] == np.arange(len(PathStatus))).sum(axis=1)


def _by_value(counts: np.ndarray, statuses) -> tuple[tuple[str, int], ...]:
    """Sorted (status value, path count) pairs of the ``statuses`` with paths."""
    return tuple(sorted((s.value, int(counts[s.code])) for s in statuses if counts[s.code]))


def step1_draws(
    sys: ParamSystem, rng: np.random.Generator, p0: np.ndarray | None = None
) -> tuple[np.ndarray, complex]:
    """Step 1's random draws from ``rng``, in order: the start point p0,
    unless ``p0`` pins it, then gamma.

    A sweep from a saved Step 1 makes the same draws first, so that its
    retry rounds draw the p' values of the run that saved it.
    """
    if p0 is not None:
        p0 = np.asarray(p0, dtype=complex)
        if p0.shape != (sys.n_params,):
            raise ValueError(f"p0 must have length {sys.n_params}")
    else:
        p0 = random_parameter_point(sys.n_params, rng)
    return p0, random_gamma(rng)


def step1(
    sys: ParamSystem,
    cfg: TrackerConfig,
    rng: np.random.Generator,
    p0_override: np.ndarray | None = None,
    seed: int | None = None,
) -> Step1Result:
    """Generic solve at a random (or user-chosen) complex start point.

    Tracks all prod(d_i) total-degree paths and stores the nonsingular
    finite endpoints; only those can seed Step 2 paths.
    """
    p0, gamma = step1_draws(sys, rng, p0_override)

    start = total_degree_start(variable_degrees(sys))
    h = build_homotopy(instantiate(sys, p0), start, gamma)
    paths = track_many(h, start.solutions(), cfg)

    at_boundary = paths.boundary[~np.isnan(paths.boundary).any(axis=-1)]
    crossings = tuple(crossing_check(at_boundary, CROSSING_TOL))
    if crossings:
        log.warning(
            "step1: %d suspected path crossings at t=%g; consider re-running "
            "with a fresh seed", len(crossings), ENDGAME_BOUNDARY,
        )

    (counts,) = _status_counts(paths)
    statuses = _by_value(counts, PathStatus)
    hard = counts[_HARD_CODES].sum()
    if hard:
        log.warning(
            "step1: %d of %d paths succeeded and %d diverged; the other %d "
            "failed (%s)", counts[PathStatus.SUCCESS.code], start.n_solutions,
            counts[PathStatus.DIVERGED.code], hard,
            ", ".join(f"{k}:{v}" for k, v in statuses),
        )

    sols = classify_endpoints(paths)
    solutions = sols[~sols.singular_flags]
    if len(solutions) == 0:
        raise Step1Empty(
            "generic solve found no nonsingular finite solutions; "
            "the sweep cannot proceed"
        )
    return Step1Result(
        p0=p0,
        solutions=solutions,
        paths_tracked_step1=start.n_solutions,
        seed=seed,
        gamma=gamma,
        suspected_crossings=crossings,
        path_statuses=statuses,
    )


def verify_step1(
    sys: ParamSystem,
    cfg: TrackerConfig,
    r1: Step1Result,
    rng: np.random.Generator,
) -> bool:
    """Re-run the generic solve from a fresh point; True iff counts agree."""
    again = step1(sys, cfg, rng)
    ok = again.n_solutions == r1.n_solutions
    if not ok:
        log.warning(
            "step1 verification mismatch: %d vs %d solutions",
            r1.n_solutions,
            again.n_solutions,
        )
    return ok


def step2(
    sys: ParamSystem,
    from_point: np.ndarray,
    starts: np.ndarray,
    targets: Sequence[np.ndarray],
    cfg: TrackerConfig,
    force_first_failure: Collection[int] = (),
) -> list[PointResult]:
    """Parameter homotopies from_point -> each target, one path per row of
    the (l, N) array ``starts``.

    The paths of every target are tracked in one lock-step call, each with
    the result it gets when its target is solved alone.  Returns one
    attempt per target, in order, with its status; its index is its
    position in ``targets`` and its round 0, for the caller to replace.
    ``force_first_failure`` (test hook) holds positions in ``targets``
    whose first path's status is set to MIN_STEP.
    """
    h = build_homotopy([instantiate(sys, p) for p in targets], instantiate(sys, from_point))
    paths = track_many(h, starts, cfg)
    paths.status[list(force_first_failure), :1] = PathStatus.MIN_STEP.code
    counts = _status_counts(paths)
    attempts = []
    for k, target in enumerate(targets):
        diverged = int(counts[k, PathStatus.DIVERGED.code])
        failures = int(counts[k, _HARD_CODES].sum())
        attempts.append(
            PointResult(
                index=k,
                p=target,
                solutions=classify_endpoints(paths[k]),
                status=attempt_status(failures, diverged),
                retries_used=0,
                path_failures=failures,
                diverged_paths=diverged,
                failure_kinds=_by_value(counts[k], (PathStatus.DIVERGED, *HARD_FAILURES)),
            )
        )
    return attempts


# A round runner solves a set of targets from a common start point and
# its (l, N) array of start solutions.  It maps each index to its attempt,
# stamped with the index and the round, and the attempt's tracking
# seconds, or to a diagnostic string when the worker solving it crashed.
RoundRunner = Callable[[int, list[int], np.ndarray, np.ndarray], dict]


def sweep_with_runner(
    sys: ParamSystem,
    r1: Step1Result,
    points: Sequence[np.ndarray],
    cfg: TrackerConfig,
    max_retries: int,
    rng: np.random.Generator,
    round_runner: RoundRunner,
) -> tuple[list[PointResult], int, list[PointSummary]]:
    """The retry policy: the initial pass plus the mitigation loop.

    The random p' draws happen here, on the coordinating side, so the
    result is independent of how the round runner schedules its work.
    Returns the result per point, in index order, the total path count and
    the timings, one ``PointSummary`` per attempt.  A point's result is
    its newest attempt with its retries; a point whose worker crashed is
    Unresolved, with no solutions, all paths failed and the crash note,
    in the round whose batch crashed.
    """
    n_points = len(points)
    n_starts = len(r1.solutions)
    total_paths = r1.paths_tracked_step1
    standing: dict[int, PointResult] = {}
    retries = dict.fromkeys(range(n_points), 0)
    timings: list[PointSummary] = []

    def absorb(round_no: int, indices: list[int], result_map: dict) -> list[int]:
        """Record one round's reports; return the indices to retry."""
        nonlocal total_paths
        again = []
        for idx in indices:
            res = result_map[idx]
            if isinstance(res, str):  # crash diagnostic: reported, not retried
                standing[idx] = PointResult(
                    index=idx,
                    p=points[idx],
                    solutions=ClassifiedSolutions.empty(sys.n_vars),
                    status=PointStatus.UNRESOLVED,
                    retries_used=retries[idx],
                    path_failures=n_starts,
                    diverged_paths=0,
                    note=res,
                    round=round_no,
                )
                timings.append(PointSummary(idx, PointStatus.UNRESOLVED, 0.0))
                continue
            attempt, track_seconds = res
            # its retries are final: they grow only before a round that retries it
            if retries[idx]:
                attempt = replace(attempt, retries_used=retries[idx])
            standing[idx] = attempt
            total_paths += n_starts
            timings.append(PointSummary(idx, attempt.status, track_seconds))
            if attempt.status is PointStatus.UNRESOLVED:
                again.append(idx)
        return again

    targets = list(range(n_points))
    targets = absorb(0, targets, round_runner(0, targets, r1.p0, r1.solutions.distinct))

    k = 0
    while targets and k < max_retries:
        p_prime = random_parameter_point(sys.n_params, rng)
        prime = step2(sys, r1.p0, r1.solutions.distinct, [p_prime], cfg)[0]
        total_paths += n_starts
        k += 1
        s_prime = prime.solutions[~prime.solutions.singular_flags]
        if prime.status is not PointStatus.COMPLETE or len(s_prime) < n_starts:
            log.warning(
                "mitigation round %d: solve at fresh start point lost paths; skipped",
                k,
            )
            continue
        for idx in targets:
            retries[idx] += 1
        targets = absorb(k, targets, round_runner(k, targets, p_prime, s_prime.distinct))

    return [standing[i] for i in range(n_points)], total_paths, timings


def parameter_sweep_path_count(m: int, k: int, l: int) -> int:
    """Paths for one generic solve (m paths) plus k runs of l paths each."""
    return m + k * l


def repeated_homotopy_path_count(m: int, k: int) -> int:
    """Paths for k independent from-scratch solves of m paths each."""
    return k * m

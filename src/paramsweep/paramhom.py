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

A solved point is a ``PointResult`` only in the process that tracked
it: ``step2`` gives each attempt its status (``attempt_status``), and the
worker encodes the attempt as its record line
(``datafile.serialize_record``), the one form the point takes from the
worker's report to ``collected.dat``.  The retry policy
(``sweep_with_runner``) and the sweep entry point (``run_parallel``) are
in ``scheduler``.  ``verify_step1`` is the one check of a Step 1 result,
fresh or read back by ``datafile.load_step1``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Collection

import numpy as np

from paramsweep.poly import ParamSystem, variable_degrees
from paramsweep.startsys import (
    build_homotopy,
    random_gamma,
    total_degree_homotopy,
    total_degree_start,
)
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

__all__ = [
    "Step1Empty",
    "Step1Result",
    "PointStatus",
    "PointResult",
    "attempt_status",
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
    # Step 1 paths by PathStatus value, as sorted (value, count) pairs
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

    starts = total_degree_start(variable_degrees(sys))
    h = total_degree_homotopy(sys, p0, gamma)
    paths = track_many(h, starts, cfg)

    boundary = paths.boundary[0]  # the one target's; pairs name Step 1's paths
    reached = np.flatnonzero(~np.isnan(boundary).any(axis=1))
    crossings = tuple((int(reached[i]), int(reached[j]))
                      for i, j in crossing_check(boundary[reached], CROSSING_TOL))
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
            "failed (%s)", counts[PathStatus.SUCCESS.code], len(starts),
            counts[PathStatus.DIVERGED.code], hard,
            ", ".join(f"{k}:{v}" for k, v in statuses),
        )

    sols, _ = classify_endpoints(paths)  # the one target's
    solutions = sols[~sols.singular_flags]
    if len(solutions) == 0:
        raise Step1Empty(
            "generic solve found no nonsingular finite solutions; "
            "the sweep cannot proceed"
        )
    return Step1Result(
        p0=p0,
        solutions=solutions,
        paths_tracked_step1=len(starts),
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
) -> str | None:
    """Why the Step 1 result fails its check, or None: a hard path failure
    fails it, else a second generic solve from a fresh point must find as
    many solutions.  ``rng`` draws that point and its gamma; a sweep gives
    the check a generator of its own, so its retry rounds draw the same p'."""
    hard = sum(n for k, n in r1.path_statuses if k in {s.value for s in HARD_FAILURES})
    if hard:
        counts = ", ".join(f"{k}:{n}" for k, n in r1.path_statuses)
        return (f"{hard} of {r1.paths_tracked_step1} paths failed ({counts}), "
                "which divergence does not explain")
    again = step1(sys, cfg, rng)
    if again.n_solutions != r1.n_solutions:
        log.warning("step1 verification mismatch: %d vs %d solutions",
                    r1.n_solutions, again.n_solutions)
        return "solution counts differ"
    return None


def step2(
    sys: ParamSystem,
    from_point: np.ndarray,
    starts: np.ndarray,
    targets: np.ndarray,
    cfg: TrackerConfig,
    force_first_failure: Collection[int] = (),
) -> list[PointResult]:
    """Parameter homotopies from_point -> each row of the (k, M) array
    ``targets``, one path per row of the (l, N) array ``starts``.

    The paths of every target are tracked in one lock-step call and
    classified in one pass, each with the result it gets alone.  Returns one
    attempt per target, in order, with its status; its index is its
    position in ``targets`` and its round and retries are 0, for the
    caller to replace.
    ``force_first_failure`` (test hook) holds positions in ``targets``
    whose first path's status is set to MIN_STEP.
    """
    h = build_homotopy(sys, targets, from_point)
    paths = track_many(h, starts, cfg)
    paths.status[list(force_first_failure), :1] = PathStatus.MIN_STEP.code
    counts = _status_counts(paths)
    sols, bounds = classify_endpoints(paths)
    diverged = counts[:, PathStatus.DIVERGED.code].tolist()
    failures = counts[:, _HARD_CODES].sum(axis=1).tolist()
    return [
        PointResult(
            index=k,
            p=target,
            solutions=sols[bounds[k] : bounds[k + 1]],
            status=attempt_status(failures[k], diverged[k]),
            retries_used=0,
            path_failures=failures[k],
            diverged_paths=diverged[k],
            failure_kinds=_by_value(counts[k], (PathStatus.DIVERGED, *HARD_FAILURES)),
        )
        for k, target in enumerate(targets)
    ]


def parameter_sweep_path_count(m: int, k: int, l: int) -> int:
    """Paths for one generic solve (m paths) plus k runs of l paths each."""
    return m + k * l


def repeated_homotopy_path_count(m: int, k: int) -> int:
    """Paths for k independent from-scratch solves of m paths each."""
    return k * m

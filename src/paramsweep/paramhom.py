"""Two-step parameter sweep with automatic path-failure mitigation.

Step 1 solves the family once at a random complex start point via a
total-degree homotopy and keeps the nonsingular finite solutions.  Step 2
runs one parameter homotopy per requested point, reusing the Step 1
solutions as path starts.  Points where paths fail hard (step underflow,
Newton failure, step budget) are retried from fresh random start points,
at most K rounds; divergent paths are reported but are not by themselves
retried, since they normally reflect genuine geometry of the target.

The path accounting is the whole economy of the method: a sweep of k
points costs m + k*l paths (one generic solve of m paths plus l paths per
point) instead of k*m for repeated one-off solves.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from paramsweep.poly import ParamSystem, instantiate, variable_degrees
from paramsweep.startsys import build_homotopy, random_gamma, total_degree_start
from paramsweep.tracker import (
    HARD_FAILURES,
    ClassifiedSolutions,
    DEFAULT_DEDUP_TOL,
    DEFAULT_REAL_TOL,
    PathResult,
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
    "TimingRecord",
    "SweepResult",
    "FaultInjection",
    "random_parameter_point",
    "step1",
    "verify_step1",
    "step2_single",
    "run_sweep",
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
    index: int
    p: np.ndarray
    solutions: ClassifiedSolutions
    status: PointStatus
    retries_used: int
    path_failures: int  # hard failures on the final attempt
    diverged_paths: int
    failure_kinds: tuple[tuple[str, int], ...] = ()
    note: str = ""


class TimingRecord(NamedTuple):
    index: int
    track_seconds: float
    serialize_seconds: float


@dataclass
class SweepResult:
    point_results: list[PointResult]
    total_paths_tracked: int
    unresolved_indices: list[int]
    timings: list[TimingRecord] = field(default_factory=list)


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


def _restrict_nonsingular(cls: ClassifiedSolutions) -> ClassifiedSolutions:
    keep = [i for i, s in enumerate(cls.singular_flags) if not s]
    real = tuple(cls.real_flags[i] for i in keep)
    return ClassifiedSolutions(
        distinct=tuple(cls.distinct[i] for i in keep),
        singular_flags=tuple(False for _ in keep),
        real_flags=real,
        residuals=tuple(cls.residuals[i] for i in keep),
        multiplicities=tuple(cls.multiplicities[i] for i in keep),
        n_real=sum(real),
    )


def step1(
    sys: ParamSystem,
    cfg: TrackerConfig,
    rng: np.random.Generator,
    p0_override: np.ndarray | None = None,
    seed: int | None = None,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
    real_tol: float = DEFAULT_REAL_TOL,
) -> Step1Result:
    """Generic solve at a random (or user-chosen) complex start point.

    Tracks all prod(d_i) total-degree paths and stores the nonsingular
    finite endpoints; only those can seed Step 2 paths.
    """
    if p0_override is not None:
        p0 = np.asarray(p0_override, dtype=complex)
        if p0.shape != (sys.n_params,):
            raise ValueError(f"p0 must have length {sys.n_params}")
    else:
        p0 = random_parameter_point(sys.n_params, rng)
    gamma = random_gamma(rng)

    start = total_degree_start(variable_degrees(sys))
    h = build_homotopy(instantiate(sys, p0), start, gamma)
    results = track_many(h, start.solutions(), cfg)

    at_boundary = [r.boundary_point for r in results if r.boundary_point is not None]
    crossings = tuple(crossing_check(at_boundary, CROSSING_TOL))
    if crossings:
        log.warning(
            "step1: %d suspected path crossings at t=%g; consider re-running "
            "with a fresh seed", len(crossings), cfg.endgame_boundary,
        )

    statuses = Counter(r.status.value for r in results)
    hard = sum(statuses[s.value] for s in HARD_FAILURES)
    if hard:
        log.warning(
            "step1: %d of %d paths succeeded and %d diverged; the other %d "
            "failed (%s)", statuses[PathStatus.SUCCESS.value], start.n_solutions,
            statuses[PathStatus.DIVERGED.value], hard,
            ", ".join(f"{k}:{v}" for k, v in sorted(statuses.items())),
        )

    classified = classify_endpoints(results, dedup_tol=dedup_tol, real_tol=real_tol)
    solutions = _restrict_nonsingular(classified)
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
        path_statuses=tuple(sorted(statuses.items())),
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


class Step2Outcome(NamedTuple):
    solutions: ClassifiedSolutions
    failures: int  # hard (retry-worthy) path failures
    diverged: int
    paths_tracked: int
    failure_kinds: tuple[tuple[str, int], ...]


def _points_of(sols) -> list[np.ndarray]:
    if isinstance(sols, ClassifiedSolutions):
        return list(sols.distinct)
    return [np.asarray(s, dtype=complex) for s in sols]


_INJECTED_FAILURE = PathResult(
    status=PathStatus.MIN_STEP,
    endpoint=None,
    steps_taken=0,
    t_at_failure=0.5,
    final_residual=np.inf,
    condition_estimate=np.inf,
)


def step2_single(
    sys: ParamSystem,
    from_point: np.ndarray,
    from_solutions,
    target: np.ndarray,
    cfg: TrackerConfig,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
    real_tol: float = DEFAULT_REAL_TOL,
    force_first_failure: bool = False,
) -> Step2Outcome:
    """One parameter homotopy run: from_point -> target, |S| paths."""
    starts = _points_of(from_solutions)
    h = build_homotopy(instantiate(sys, target), instantiate(sys, from_point))
    results = track_many(h, starts, cfg)
    if force_first_failure and results:
        results = [_INJECTED_FAILURE] + results[1:]

    hard = [r for r in results if r.status in HARD_FAILURES]
    diverged = [r for r in results if r.status is PathStatus.DIVERGED]
    failures = len(hard) + (len(diverged) if cfg.divergence_is_failure else 0)
    kinds = Counter(r.status.value for r in hard)
    if diverged:
        kinds[PathStatus.DIVERGED.value] = len(diverged)
    classified = classify_endpoints(results, dedup_tol=dedup_tol, real_tol=real_tol)
    return Step2Outcome(
        solutions=classified,
        failures=failures,
        diverged=len(diverged),
        paths_tracked=len(starts),
        failure_kinds=tuple(sorted(kinds.items())),
    )


class _Attempt(NamedTuple):
    outcome: Step2Outcome
    track_seconds: float
    serialize_seconds: float


# A round runner solves a set of targets from a common start point.  The
# serial implementation below just loops; the scheduler substitutes a
# parallel one with the same contract.
RoundRunner = Callable[[int, list[int], np.ndarray, ClassifiedSolutions], dict]


def _serial_round_runner(
    sys: ParamSystem,
    points: Sequence[np.ndarray],
    cfg: TrackerConfig,
    dedup_tol: float,
    real_tol: float,
    fault: FaultInjection | None,
) -> RoundRunner:
    def run(round_no: int, indices: list[int], from_point, from_solutions) -> dict:
        out: dict[int, _Attempt] = {}
        for idx in indices:
            inject = fault is not None and round_no == 0 and idx in fault.indices
            t0 = time.perf_counter()
            outcome = step2_single(
                sys,
                from_point,
                from_solutions,
                points[idx],
                cfg,
                dedup_tol,
                real_tol,
                force_first_failure=inject,
            )
            out[idx] = _Attempt(outcome, time.perf_counter() - t0, 0.0)
        return out

    return run


def sweep_with_runner(
    sys: ParamSystem,
    r1: Step1Result,
    points: Sequence[np.ndarray],
    cfg: TrackerConfig,
    max_retries: int,
    rng: np.random.Generator,
    round_runner: RoundRunner,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
    real_tol: float = DEFAULT_REAL_TOL,
) -> SweepResult:
    """Shared sweep skeleton: the initial pass plus the mitigation loop.

    The random p' draws happen here, on the coordinating side, so the
    result is independent of how the round runner schedules its work.
    """
    n_points = len(points)
    total_paths = r1.paths_tracked_step1
    attempts: dict[int, Step2Outcome] = {}
    retries = dict.fromkeys(range(n_points), 0)
    notes = dict.fromkeys(range(n_points), "")
    timings: list[TimingRecord] = []

    def absorb(result_map: dict) -> None:
        nonlocal total_paths
        for idx, att in result_map.items():
            if isinstance(att.outcome, str):  # crash diagnostic from runner
                notes[idx] = att.outcome
                attempts[idx] = _empty_outcome(len(r1.solutions))
            else:
                attempts[idx] = att.outcome
            total_paths += attempts[idx].paths_tracked
            timings.append(TimingRecord(idx, att.track_seconds, att.serialize_seconds))

    absorb(round_runner(0, list(range(n_points)), r1.p0, r1.solutions))
    failed = {i for i in range(n_points) if attempts[i].failures > 0 or notes[i]}
    crashed = {i for i in range(n_points) if notes[i]}

    k = 0
    while failed - crashed and k < max_retries:
        p_prime = random_parameter_point(sys.n_params, rng)
        prime = step2_single(sys, r1.p0, r1.solutions, p_prime, cfg, dedup_tol, real_tol)
        total_paths += prime.paths_tracked
        k += 1
        s_prime = _restrict_nonsingular(prime.solutions)
        if prime.failures > 0 or prime.diverged > 0 or len(s_prime) < len(r1.solutions):
            log.warning(
                "mitigation round %d: solve at fresh start point lost paths; skipped",
                k,
            )
            continue
        targets = sorted(failed - crashed)
        result_map = round_runner(k, targets, p_prime, s_prime)
        for idx in targets:
            old = attempts.get(idx)
            retries[idx] += 1
            if old is not None:
                log.debug(
                    "retry %d of point %d: replacing %d solutions with %d",
                    k, idx, len(old.solutions), len(result_map[idx].outcome.solutions)
                    if not isinstance(result_map[idx].outcome, str)
                    else -1,
                )
        absorb(result_map)
        failed = {i for i in targets if attempts[i].failures > 0 or notes[i]}
        crashed |= {i for i in targets if notes[i]}

    results = []
    unresolved = []
    for i in range(n_points):
        out = attempts[i]
        if i in failed or i in crashed or out.failures > 0:
            status = PointStatus.UNRESOLVED
            unresolved.append(i)
        elif out.diverged > 0:
            status = PointStatus.HAD_FAILURES
        else:
            status = PointStatus.COMPLETE
        results.append(
            PointResult(
                index=i,
                p=np.asarray(points[i], dtype=complex),
                solutions=out.solutions,
                status=status,
                retries_used=retries[i],
                path_failures=out.failures,
                diverged_paths=out.diverged,
                failure_kinds=out.failure_kinds,
                note=notes[i],
            )
        )
    return SweepResult(
        point_results=results,
        total_paths_tracked=total_paths,
        unresolved_indices=unresolved,
        timings=timings,
    )


def _empty_outcome(n_paths: int) -> Step2Outcome:
    return Step2Outcome(
        solutions=ClassifiedSolutions((), (), (), (), (), 0),
        failures=n_paths,
        diverged=0,
        paths_tracked=0,
        failure_kinds=(),
    )


def run_sweep(
    sys: ParamSystem,
    r1: Step1Result,
    points: Sequence[np.ndarray],
    cfg: TrackerConfig,
    max_retries: int,
    rng: np.random.Generator,
    dedup_tol: float = DEFAULT_DEDUP_TOL,
    real_tol: float = DEFAULT_REAL_TOL,
    fault_injection: FaultInjection | None = None,
) -> SweepResult:
    """Serial sweep over the given parameter points."""
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    runner = _serial_round_runner(sys, points, cfg, dedup_tol, real_tol, fault_injection)
    return sweep_with_runner(
        sys, r1, points, cfg, max_retries, rng, runner, dedup_tol, real_tol
    )


def parameter_sweep_path_count(m: int, k: int, l: int) -> int:
    """Paths for one generic solve (m paths) plus k runs of l paths each."""
    return m + k * l


def repeated_homotopy_path_count(m: int, k: int) -> int:
    """Paths for k independent from-scratch solves of m paths each."""
    return k * m

"""Lock-step batched predictor-corrector path tracking from t=1 to t=0.

A classical fourth-order Runge-Kutta prediction along the path tangent,
followed by Newton correction, with adaptive step length: the step halves
whenever prediction or correction fails and grows after a run of
consecutive successes.  Tracking truncates at a small T_FINAL and the
endpoint is then sharpened by a few Newton iterations on the target
system itself.  There is no endgame: genuinely singular endpoints are
flagged, not refined.

The predictor integrates dz/dt = -J_z^{-1} dH/dt over the step with four
stages, each one evaluation of (dH/dt, J_z) and one solve, at t, twice at
the step's midpoint and at its end.  A row whose stage is singular or not
finite fails the attempt and skips the later stages.  Its error is of
order dt^5, not dt^2 as for a tangent (Euler) step, so most corrections
converge in one Newton iteration and the step stays at ``MAX_STEP`` far
more often.

The corrector has two tolerances, as Bertini separates its tracking
tolerances before and during the endgame from the final one.  A step
that ends above ``ENDGAME_BOUNDARY`` only has to stay near its path, so
its Newton update must fall below ``TRACK_TOL``.  The step that lands on
the boundary, every step inside the endgame zone, the final sharpening
and the endpoint residual test use the tighter ``NEWTON_TOL``.  A path's
boundary point and endpoint keep the accuracy of ``NEWTON_TOL``; the
steps far from t = 0 cost fewer Newton iterations and far fewer
rejections.

A long step can carry a prediction closer to a neighbouring path than to
its own.  Newton then converges onto the neighbour just as well, and the
path jumps without any failure to show for it.  So on the steps that track
at ``TRACK_TOL`` an attempt is also rejected when its first Newton update
exceeds ``PREDICT_TOL * (1 + |z_pred|_inf)``, and the step halves as after
any other rejection.  This keeps each prediction close to a path where the
path bends sharply, which is where paths come close to each other.  It
makes a jump rare, not impossible.

Every start point on every target of a homotopy (``startsys.Homotopy``,
whose rows weigh one term structure's blocks by their target and t)
advances together as one (B, N) array, B being targets x starts; each
row carries the index of its target.  Each path keeps its own t, step
length, success streak, attempt and step counts, boundary point and
status; a path that finishes or fails leaves the active set.  Every
evaluation, solve and norm is one numpy call on the active rows, and each
row of such a call is computed exactly as it would be alone, on its own
target's coefficients.

``track_many`` returns one ``Paths`` record, one array per field shaped
(targets, starts, ...), not an object per path.  All failure modes are
encoded in its status codes, never raised:

* ``DIVERGED``      -- the iterate's inf-norm exceeded ``MAX_NORM``
* ``MIN_STEP``      -- the step length fell below ``STEP_FLOOR``
* ``NEWTON_FAILURE``-- the sharpened endpoint failed the residual test
* ``MAX_STEPS``     -- attempt budget exhausted

Batch invariance and determinism: a path's result depends only on its
start point, its target's homotopy and the config, never on the other
paths of the batch, the other targets of the stack, their number or their
order.  It is bit-for-bit identical to tracking that start alone in a
batch of one on a homotopy of its target alone, and identical inputs give
identical results.

``classify_endpoints`` merges the successful endpoints of each target of a
stack in one pass, never across targets, into one ``ClassifiedSolutions``
record, also one array per field: the (n, N) distinct roots, target after
target, and their singular and real flags, residuals and multiplicities,
each (n,).  Indexing a record indexes every field, so target k's roots are
a slice, and ``sols[~sols.singular_flags]`` keeps the nonsingular roots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from paramsweep.poly import InstantiatedSystem
from paramsweep.startsys import Homotopy

__all__ = [
    "TrackerConfig",
    "PathStatus",
    "Paths",
    "ClassifiedSolutions",
    "track_many",
    "crossing_check",
    "classify_endpoints",
]

# condition estimate above which an endpoint counts as singular
SINGULAR_CONDITION = 1e12

# step length of a path's first attempt, and the longest step
INITIAL_STEP = 0.1
MAX_STEP = 0.1
# a path whose step length falls below this ends in MIN_STEP
STEP_FLOOR = 1e-12
# a path whose iterate's inf-norm exceeds this ends in DIVERGED
MAX_NORM = 1e5
# a step length halves after a failed attempt and doubles after
# GROW_AFTER accepted steps in a row, up to MAX_STEP
STEP_CUT = 0.5
STEP_GROWTH = 2.0
GROW_AFTER = 5
# attempts, accepted or rejected, before a path ends in MAX_STEPS
MAX_ATTEMPTS = 10_000
# tracking ends at T_FINAL; steps end on ENDGAME_BOUNDARY on the way
T_FINAL = 1e-8
ENDGAME_BOUNDARY = 0.1
# Newton update tolerance inside the endgame zone, of the final sharpening
# and (times 10) of the endpoint residual test
NEWTON_TOL = 1e-10
# Newton iterations that sharpen an endpoint on the target system
SHARPEN_ITERS = 5
# Newton update tolerance of a step ending above the endgame boundary
TRACK_TOL = 1e-6
# on such a step, the largest first Newton update, relative to
# 1 + |prediction|_inf, that does not reject the attempt as a path jump
PREDICT_TOL = 1e-4
# endpoints closer than this (inf-norm) are one solution
DEDUP_TOL = 1e-6
# a solution is real when every imaginary part is below this
REAL_TOL = 1e-6


@dataclass(frozen=True)
class TrackerConfig:
    max_newton_iters: int = 3

    def __post_init__(self):
        if self.max_newton_iters < 1:
            raise ValueError(f"max_newton_iters must be >= 1, got {self.max_newton_iters!r}")


class PathStatus(Enum):
    SUCCESS = "success"
    DIVERGED = "diverged"
    MIN_STEP = "min_step"
    NEWTON_FAILURE = "newton_failure"
    MAX_STEPS = "max_steps"

    @functools.cached_property
    def code(self) -> int:
        """The status's code in a ``Paths`` record: its index in ``tuple(PathStatus)``."""
        return tuple(PathStatus).index(self)


#: statuses that mark a parameter point as failed (candidates for retry);
#: DIVERGED is excluded since it usually reflects genuine geometry (fewer
#: finite solutions at the target).
HARD_FAILURES = (PathStatus.MIN_STEP, PathStatus.NEWTON_FAILURE, PathStatus.MAX_STEPS)


@dataclass(frozen=True)
class Paths:
    """Every path of a stack, one array per field, shaped (targets, starts, ...).

    ``status`` holds ``PathStatus.code``s.  ``endpoint`` (N values per
    path), ``residual``, ``condition`` and ``sharpened`` describe
    successful paths only; elsewhere they read nan, inf, inf and False.
    ``steps`` counts accepted attempts and ``rejected`` those whose
    prediction or correction failed; ``newton_iters`` counts the
    corrector's Newton iterations over all attempts (not the final
    sharpening).  ``min_dt`` is the smallest step length the controller
    attempted, before clamping to ``ENDGAME_BOUNDARY`` or ``T_FINAL``; it
    starts at ``INITIAL_STEP``.  ``t_end`` is the t where the path stopped
    (``T_FINAL`` when it reached the end).  ``boundary`` holds the path's
    point at ``ENDGAME_BOUNDARY``, nan for a path that never reached it.
    Indexing a record indexes every field: ``paths[k]`` is target k's.
    """

    status: np.ndarray
    endpoint: np.ndarray
    steps: np.ndarray
    rejected: np.ndarray
    newton_iters: np.ndarray
    min_dt: np.ndarray
    t_end: np.ndarray
    residual: np.ndarray
    condition: np.ndarray
    sharpened: np.ndarray
    boundary: np.ndarray

    def __getitem__(self, key) -> Paths:
        return Paths(*(getattr(self, f.name)[key] for f in fields(self)))


def _inf_norm(v: np.ndarray) -> np.ndarray:
    """Row-wise inf-norm of a (B, N) array."""
    return np.abs(v).max(axis=1)


def _solve(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve J x = rhs for a (B, N, N) stack and (B, N) right-hand sides.

    Returns ``(x, ok)``; ``ok[b]`` is False where J[b] is singular, and
    row b of x is then meaningless.  LAPACK rejects the whole stack when
    one matrix is singular; the stack is then split in halves, so that s
    singular matrices cost O(s log B) stacked solves, not B single ones.
    """
    try:
        x = np.linalg.solve(jac, rhs[..., None])[..., 0]
        return x, np.ones(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full(rhs.shape, np.nan, dtype=complex), np.zeros(1, dtype=bool)
    mid = len(rhs) // 2
    x_lo, ok_lo = _solve(jac[:mid], rhs[:mid])
    x_hi, ok_hi = _solve(jac[mid:], rhs[mid:])
    return np.concatenate([x_lo, x_hi]), np.concatenate([ok_lo, ok_hi])


def _predict(
    h: Homotopy, z: np.ndarray, t: np.ndarray, dt: np.ndarray, point: np.ndarray
):
    """Classical fourth-order Runge-Kutta step of length ``dt`` along
    dz/dt = -J_z^{-1} dH/dt, row by row, each row on the homotopy of its
    target ``point``.

    A stage solves J_z k = -dH/dt at its own (z, t); the prediction is
    z + dt/6 * (k1 + 2 k2 + 2 k3 + k4).  Returns ``(predicted, ok)``; ``ok``
    is False where a stage is singular or not finite, and such a row takes
    no part in the later stages.
    """
    live = np.arange(len(z))
    total = np.zeros_like(z)
    slope = np.zeros_like(z)
    for c, weight in ((0.0, 1.0), (0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        step = c * dt[live]
        dh_dt, jac = h.tangent_data(
            z[live] + step[:, None] * slope, t[live] + step, point[live]
        )
        slope, ok = _solve(jac, -dh_dt)
        ok &= np.isfinite(slope).all(axis=1)
        live, slope = live[ok], slope[ok]
        total[live] += weight * slope
    predicted = z + (dt / 6.0)[:, None] * total
    ok = np.zeros(len(z), dtype=bool)
    ok[live] = np.isfinite(predicted[live]).all(axis=1)
    return predicted, ok


def _newton_correct(
    sys_at_t: InstantiatedSystem, z: np.ndarray, t: np.ndarray, cfg: TrackerConfig
):
    """Newton iteration per row until the update norm drops below the row's
    tolerance.

    ``sys_at_t`` holds one column of coefficients per point, at the rows' times
    ``t``.  A row with t above ``ENDGAME_BOUNDARY`` has tolerance TRACK_TOL,
    any other row NEWTON_TOL.  A row above the boundary also fails when its
    first update exceeds PREDICT_TOL * (1 + |z|_inf), z being the
    prediction: a path jump.  Returns ``(points, converged, iterations)``.
    A row whose residual is already below its tolerance is returned
    unchanged with zero iterations; a singular Jacobian stops a row without
    counting that iteration.
    """
    structure, coeffs = sys_at_t.structure, sys_at_t.coeffs
    tracking = t > ENDGAME_BOUNDARY
    tol = np.where(tracking, TRACK_TOL, NEWTON_TOL)
    z = z.copy()
    iters = np.zeros(len(z), dtype=np.intp)
    f, jac = structure.eval_and_jac(coeffs, coeffs, z)
    converged = _inf_norm(f) < tol
    live = np.flatnonzero(~converged)
    f, jac = f[live], jac[live]
    for i in range(1, cfg.max_newton_iters + 1):
        if not live.size:
            break
        delta, ok = _solve(jac, -f)
        iters[live] = i
        if not ok.all():
            iters[live[~ok]] = i - 1
        z_new = z[live] + delta
        fin = ok & np.isfinite(z_new).all(axis=1)
        if i == 1:
            jump = _inf_norm(delta) > PREDICT_TOL * (1.0 + _inf_norm(z[live]))
            fin &= ~(tracking[live] & jump)
        live = live[fin]
        z[live] = z_new[fin]
        done = _inf_norm(delta[fin]) < tol[live]
        converged[live[done]] = True
        live = live[~done]
        if i < cfg.max_newton_iters and live.size:
            f, jac = structure.eval_and_jac(coeffs[:, live], coeffs[:, live], z[live])
    return z, converged, iters


def _sharpen(target: InstantiatedSystem, z: np.ndarray):
    """Final Newton polish of each row on its target system; never raises.

    ``target`` holds one column of coefficients per point.  Returns
    ``(points, converged)``.
    """
    structure, coeffs = target.structure, target.coeffs
    z = z.copy()
    converged = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    for _ in range(SHARPEN_ITERS):
        if not live.size:
            break
        f, jac = structure.eval_and_jac(coeffs[:, live], coeffs[:, live], z[live])
        exact = _inf_norm(f) == 0.0
        converged[live[exact]] = True
        live, f, jac = live[~exact], f[~exact], jac[~exact]
        delta, ok = _solve(jac, -f)
        z_new = z[live] + delta
        fin = ok & np.isfinite(z_new).all(axis=1)
        live = live[fin]
        z[live] = z_new[fin]
        done = _inf_norm(delta[fin]) < NEWTON_TOL
        converged[live[done]] = True
        live = live[~done]
    return z, converged


def track_many(h: Homotopy, starts, cfg: TrackerConfig) -> Paths:
    """Track every solution of H(., 1) = 0 in ``starts``, an (l, N) array,
    to t = 0, in lock-step, on every homotopy of the stack ``h``.

    Returns the ``Paths`` record of the stack: entry [k, i] of each field
    is start i tracked on target k.
    """
    z = np.asarray(starts, dtype=complex).reshape(-1, h.n_vars)
    shape = (h.n_points, len(z))
    # row b tracks start b % len(starts) on target point[b]
    point = np.repeat(np.arange(h.n_points), len(z))
    z = np.tile(z, (h.n_points, 1))
    n = len(z)
    t = np.ones(n)
    dt = np.full(n, INITIAL_STEP)
    steps = np.zeros(n, dtype=np.intp)
    attempts = np.zeros(n, dtype=np.intp)
    streak = np.zeros(n, dtype=np.intp)
    newton_iters = np.zeros(n, dtype=np.intp)
    min_dt = np.full(n, INITIAL_STEP)
    boundary = np.full(z.shape, np.nan, dtype=complex)
    status = np.full(n, -1, dtype=np.int8)  # -1 while the path runs
    eb, tf = ENDGAME_BOUNDARY, T_FINAL
    act = np.arange(n)
    while act.size:
        over = attempts[act] >= MAX_ATTEMPTS
        status[act[over]] = PathStatus.MAX_STEPS.code
        act = act[~over]
        if not act.size:
            break
        attempts[act] += 1
        t_a, dt_a = t[act], dt[act]

        # clamp so the path lands exactly on the endgame boundary (for
        # crossing checks) and exactly on T_FINAL (loop exit); the
        # boundary check comes first so a large step cannot jump past it
        t_next = t_a - dt_a
        t_next = np.where(
            (t_a > eb) & (t_next < eb), eb, np.where(t_next < tf, tf, t_next)
        )

        predicted, ok = _predict(h, z[act], t_a, t_next - t_a, point[act])
        rows = np.flatnonzero(ok)
        corrected, converged, iters = _newton_correct(
            h.at(t_next[rows], point[act[rows]]), predicted[rows],
            t_next[rows], cfg,
        )
        newton_iters[act[rows]] += iters
        ok[rows] = converged

        retry = act[~ok]
        if retry.size:
            streak[retry] = 0
            dt_retry = dt_a[~ok] * STEP_CUT
            dt[retry] = dt_retry
            under = dt_retry < STEP_FLOOR
            status[retry[under]] = PathStatus.MIN_STEP.code
            retry, dt_retry = retry[~under], dt_retry[~under]
            min_dt[retry] = np.minimum(min_dt[retry], dt_retry)

        good = act[ok]
        z[good] = corrected[converged]
        t[good] = t_next[ok]
        steps[good] += 1
        streak[good] += 1
        z_norm = _inf_norm(z[good])
        blown = ~np.isfinite(z_norm) | (z_norm > MAX_NORM)
        status[good[blown]] = PathStatus.DIVERGED.code
        good = good[~blown]
        on_boundary = good[t[good] == eb]
        boundary[on_boundary] = z[on_boundary]
        grow = good[streak[good] >= GROW_AFTER]
        dt[grow] = np.minimum(dt[grow] * STEP_GROWTH, MAX_STEP)
        streak[grow] = 0

        act = np.concatenate([retry, good[t[good] > tf]])
        act.sort()

    done = np.flatnonzero(status < 0)
    residual = np.full(n, np.inf)
    condition = np.full(n, np.inf)
    sharpened = np.zeros(n, dtype=bool)
    if done.size:
        target = h.at(np.zeros(done.size), point[done])
        z[done], sharpened[done] = _sharpen(target, z[done])
        f, jac = target.eval_and_jac(z[done])
        residual[done] = _inf_norm(f)
        passed = np.isfinite(z[done]).all(axis=1) & (residual[done] < 10 * NEWTON_TOL)
        status[done[~passed]] = PathStatus.NEWTON_FAILURE.code
        status[done[passed]] = PathStatus.SUCCESS.code
        condition[done[passed]] = np.linalg.cond(jac[passed], np.inf)
    failed = status != PathStatus.SUCCESS.code
    z[failed] = np.nan
    residual[failed] = np.inf
    sharpened[failed] = False
    per_row = (status, z, steps, attempts - steps, newton_iters, min_dt, t,
               residual, condition, sharpened, boundary)
    return Paths(*(a.reshape(shape + a.shape[1:]) for a in per_row))


def _close(p: np.ndarray, tol: float) -> np.ndarray:
    """(..., n, n) mask of the rows of each (n, N) array of ``p`` within
    ``tol`` of each other in the inf-norm."""
    dist = np.zeros(p.shape[:-1] + p.shape[-2:-1])
    for k in range(p.shape[-1]):
        np.maximum(dist, np.abs(p[..., :, None, k] - p[..., None, :, k]), out=dist)
    return dist < tol


def crossing_check(points, tol: float) -> list[tuple[int, int]]:
    """Index pairs (i < j, in row-major order) closer than tol in the
    inf-norm: suspected crossings, or endpoints to merge."""
    p = np.asarray(points, dtype=complex)
    if len(p) < 2:
        return []
    i, j = np.nonzero(np.triu(_close(p.reshape(len(p), -1), tol), k=1))
    return list(zip(i.tolist(), j.tolist()))


@dataclass(frozen=True)
class ClassifiedSolutions:
    """Deduplicated endpoints with singularity/reality flags, one array per field.

    ``distinct`` is (n, N) complex, one row per solution; ``singular_flags``
    and ``real_flags`` are (n,) bool, ``residuals`` (n,) float and
    ``multiplicities`` (n,) int.  Indexing a record indexes every field:
    ``sols[~sols.singular_flags]`` is the nonsingular solutions.
    """

    distinct: np.ndarray
    singular_flags: np.ndarray
    real_flags: np.ndarray
    residuals: np.ndarray
    multiplicities: np.ndarray

    @classmethod
    def empty(cls, n_vars: int) -> ClassifiedSolutions:
        """The record of no solutions in ``n_vars`` variables."""
        none = np.empty(0, dtype=bool)
        return cls(np.empty((0, n_vars), dtype=complex), none, none, np.empty(0),
                   np.empty(0, dtype=int))

    def __len__(self) -> int:
        return len(self.distinct)

    def __getitem__(self, key) -> ClassifiedSolutions:
        return ClassifiedSolutions(*(getattr(self, f.name)[key] for f in fields(self)))

    @property
    def n_real(self) -> int:
        return int(self.real_flags.sum())


def classify_endpoints(paths: Paths) -> tuple[ClassifiedSolutions, np.ndarray]:
    """Merge the successful endpoints of each target of the stack ``paths``
    and flag each survivor.

    Returns one record of every target's survivors, target after target, and
    the (targets + 1,) bounds of target k's, ``sols[bounds[k]:bounds[k + 1]]``.
    Endpoints of one target joined by a chain of endpoints within
    ``DEDUP_TOL`` (inf-norm) of each other collapse to the smallest-residual
    representative; endpoints of different targets never merge.  Survivors
    keep the order of their clusters' first paths.  A survivor is singular if
    its condition estimate exceeds ``SINGULAR_CONDITION``, if more than one
    path landed on it, or if endpoint sharpening failed to converge (covers
    multiple roots, whose Jacobian-based condition stays finite in low
    dimensions).  It is real when every imaginary part is below ``REAL_TOL``.
    """
    n_targets, n_starts = paths.status.shape
    ok = paths.status == PathStatus.SUCCESS.code
    close = _close(paths.endpoint, DEDUP_TOL) & ok[:, None, :]
    # each endpoint takes the smallest row-major index it is chained to
    # within its target: its cluster's first path
    n = ok.size
    label = np.arange(n).reshape(ok.shape)
    while True:
        merged = np.where(close, label[:, None, :], n).min(axis=2, initial=n)
        if np.array_equal(merged, label):
            break
        label = merged
    good, label = paths[ok], label[ok]
    # by cluster, residual, index: a cluster's first row is its representative
    order = np.lexsort((good.residual, label))
    first = np.flatnonzero(np.diff(label[order], prepend=-1))
    rep = order[first]
    mult = np.diff(np.r_[first, len(label)])
    singular = (mult > 1) | (good.condition[rep] > SINGULAR_CONDITION) | ~good.sharpened[rep]
    real = np.abs(good.endpoint[rep].imag).max(axis=1, initial=0.0) < REAL_TOL
    bounds = np.searchsorted(label[rep] // n_starts, np.arange(n_targets + 1))
    return ClassifiedSolutions(good.endpoint[rep], singular, real, good.residual[rep], mult), bounds

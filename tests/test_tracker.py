import dataclasses

import numpy as np
import pytest

from paramsweep.paramhom import step1
from paramsweep.poly import parse_system
from paramsweep.startsys import (
    build_homotopy,
    random_gamma,
    total_degree_homotopy,
    total_degree_start,
)
from paramsweep import tracker
from paramsweep.tracker import (
    DEDUP_TOL,
    ENDGAME_BOUNDARY,
    INITIAL_STEP,
    NEWTON_TOL,
    REAL_TOL,
    SINGULAR_CONDITION,
    STEP_FLOOR,
    T_FINAL,
    TRACK_TOL,
    PathStatus,
    TrackerConfig,
    _newton_correct,
    _predict,
    _solve,
    classify_endpoints,
    crossing_check,
    track_many,
)
from conftest import CUBE_TEXT, MONKS_TEXT, instantiate, set_distance, value_at

QUAD = parse_system("variable z; parameter p; function f; f = z^2 - p;")
SUCCESS = PathStatus.SUCCESS.code


def _quad_homotopy(p_target=4.0, p_source=1.0):
    return build_homotopy(QUAD, [[p_target]], [p_source])


def _predict_one(h, z, t, dt):
    """The batched predictor on a batch of one point."""
    point = np.zeros(1, dtype=np.intp)  # the row is on target 0
    z, ok = _predict(h, np.array([z]), np.array([t]), np.array([dt]), point)
    return z[0], bool(ok[0])


def _correct_rows(target, z, t, cfg):
    """The batched corrector on one row at z per time in ``t``, each on the
    ``(structure, coeffs)`` of ``target``."""
    structure, coeffs = target
    rows = np.tile(coeffs, (1, len(t)))
    return _newton_correct(structure, rows, np.tile(z, (len(t), 1)), np.array(t), cfg)


def _correct(target, z, cfg):
    """The batched corrector on a batch of one point at t = 0, where the
    tolerance is NEWTON_TOL."""
    z, converged, iters = _correct_rows(target, z, [0.0], cfg)
    return z[0], bool(converged[0]), int(iters[0])


def _track_one(h, start, cfg):
    """The record of one start tracked alone on the one target of ``h``."""
    return track_many(h, [start], cfg)[0, 0]


def _statuses(paths):
    """The PathStatus of each path of a record, in row-major order."""
    return [tuple(PathStatus)[code] for code in paths.status.ravel()]


def test_predict_hand_value():
    # H = z^2 - 4 + 3t, so dz/dt = -3 / (2z); the four Runge-Kutta stages
    # from z = 1 over dt = -0.5 are -3/2, -12/11, -33/28 and -84/89
    h = _quad_homotopy()
    z, ok = _predict_one(h, np.array([1.0 + 0j]), t=1.0, dt=-0.5)
    assert ok
    assert z[0] == pytest.approx(43363 / 27412, rel=1e-14)
    # within 8e-4 of the path's sqrt(2.5), where a tangent step gives 1.75
    assert abs(z[0] - np.sqrt(2.5)) < 1e-3


def test_predict_zero_dt():
    h = _quad_homotopy()
    z0 = np.array([1.0 + 0j])
    assert np.array_equal(_predict_one(h, z0, 1.0, 0.0)[0], z0)


def test_predict_exact_for_linear_homotopy():
    # z - (4 - 3t) has a path linear in t, so the step is exact
    lin = parse_system("variable z; parameter p; function f; f = z - p;")
    h = build_homotopy(lin, [[4.0]], [1.0])
    z, _ = _predict_one(h, np.array([1.0 + 0j]), t=1.0, dt=-0.4)
    assert abs(value_at(h, 0.6, z)[0]) < 1e-12


def test_predict_exact_for_quadratic_path():
    # z0 = p(t) is linear in t and z1 = z0^2 quadratic: the fourth-order
    # step lands on the path, where a tangent step misses z1 by 9 * 0.4^2
    sq = parse_system(
        "variable z0, z1; parameter p; function f0, f1; f0 = z0 - p; f1 = z1 - z0^2;"
    )
    h = build_homotopy(sq, [[4.0]], [1.0])
    z, ok = _predict_one(h, np.array([1.0 + 0j, 1.0 + 0j]), t=1.0, dt=-0.4)
    assert ok
    on_path = np.array([2.2, 2.2**2])  # p(0.6) = 4 - 3 * 0.6
    assert np.max(np.abs(z - on_path)) < 1e-12


def test_predict_singular_jacobian_flagged():
    h = _quad_homotopy()
    _, ok = _predict_one(h, np.array([0j]), 1.0, -0.1)
    assert not ok


def test_newton_correct_first_iterate_and_convergence():
    target = instantiate(QUAD, np.array([2.5 + 0j]))
    z, converged, _ = _correct(target, np.array([1.75 + 0j]), TrackerConfig(max_newton_iters=1))
    assert z[0] == pytest.approx(1.5892857142857142)
    assert not converged
    z, converged, _ = _correct(target, np.array([1.75 + 0j]), TrackerConfig(max_newton_iters=8))
    assert converged
    assert z[0] == pytest.approx(1.5811388300841898, abs=1e-10)


def test_newton_correct_exact_root_unchanged():
    target = instantiate(QUAD, np.array([4.0 + 0j]))
    z, converged, iters = _correct(target, np.array([2.0 + 0j]), TrackerConfig())
    assert converged
    assert iters == 0
    assert z[0] == 2.0 + 0j


def test_newton_correct_double_root_fails():
    target = instantiate(QUAD, np.array([0j]))  # z^2
    _, converged, _ = _correct(target, np.array([1.0 + 0j]), TrackerConfig(max_newton_iters=3))
    assert not converged


def test_newton_correct_tracks_loosely_only_before_the_endgame():
    # at z = 2 + 5e-7 the residual of z^2 - 4 is 2e-6, above TRACK_TOL, and
    # one Newton update is 5e-7: between NEWTON_TOL and TRACK_TOL
    target = instantiate(QUAD, np.array([4.0 + 0j]))
    cfg = TrackerConfig(max_newton_iters=1)
    eb = ENDGAME_BOUNDARY
    assert NEWTON_TOL < 5e-7 < TRACK_TOL
    z, converged, iters = _correct_rows(
        target, np.array([2.0 + 5e-7 + 0j]), [0.5, 2 * eb, eb, eb / 2, 0.0], cfg
    )
    assert converged.tolist() == [True, True, False, False, False]
    assert iters.tolist() == [1] * 5
    assert np.all(np.abs(z[:, 0] - 2.0) < 1e-12)
    # with room for a second iteration every row meets NEWTON_TOL
    _, converged, _ = _correct_rows(
        target, np.array([2.0 + 5e-7 + 0j]), [0.5, eb, 0.0], TrackerConfig()
    )
    assert converged.all()


@pytest.mark.parametrize("c", [0.76, -2.0, 1e-4, -1e-4])
def test_sextic_endpoints_match_closed_form_roots(c):
    # z^6 = c with c = 1 - x^6 - y^6; c = +-1e-4 lies near the discriminant
    # c = 0, where the six roots meet
    cube = parse_system(CUBE_TEXT)
    cfg = TrackerConfig()
    r1 = step1(cube, cfg, np.random.default_rng(7))
    x = 0.7
    y = np.sign(1 - x**6 - c) * abs(1 - x**6 - c) ** (1 / 6)
    c = 1 - x**6 - y**6
    h = build_homotopy(cube, [[x, y]], r1.p0)
    paths = track_many(h, list(r1.solutions.distinct), cfg)
    assert (paths.status == SUCCESS).all()
    roots = complex(c) ** (1 / 6) * np.exp(2j * np.pi * np.arange(6) / 6)
    expected = [np.array([r]) for r in roots]
    assert set_distance(paths.endpoint[0], expected) < 1e-12
    assert not any(classify_endpoints(paths)[0].singular_flags)


def test_track_path_both_roots():
    h = _quad_homotopy()
    cfg = TrackerConfig()
    up = _track_one(h, np.array([1.0 + 0j]), cfg)
    down = _track_one(h, np.array([-1.0 + 0j]), cfg)
    assert up.status == SUCCESS
    assert down.status == SUCCESS
    assert abs(up.endpoint[0] - 2.0) < 1e-8
    assert abs(down.endpoint[0] + 2.0) < 1e-8
    assert up.residual < 10 * NEWTON_TOL
    assert up.steps <= tracker.MAX_ATTEMPTS


def test_track_path_onto_discriminant_flags_singular():
    # target z^2 (double root at the origin): paths shrink to 0 and the
    # endpoint cannot be sharpened at Newton rate
    h = _quad_homotopy(p_target=0.0, p_source=1.0)
    cfg = TrackerConfig()
    paths = track_many(h, [np.array([1.0 + 0j]), np.array([-1.0 + 0j])], cfg)
    assert (paths.status == SUCCESS).all()
    assert (np.abs(paths.endpoint) < 1e-3).all()
    cls, _ = classify_endpoints(paths)
    assert all(cls.singular_flags)


def test_track_path_divergence():
    # z*p - 1 at p=0 has no finite solution: the path blows up
    lin = parse_system("variable z; parameter p; function f; f = p*z - 1;")
    h = build_homotopy(lin, [[0.0]], [1.0])
    res = _track_one(h, np.array([1.0 + 0j]), TrackerConfig())
    assert res.status in (PathStatus.DIVERGED.code, PathStatus.MIN_STEP.code)
    if res.status == PathStatus.DIVERGED.code:
        assert 0 < res.t_end <= 1
    assert np.isnan(res.endpoint).all()


def test_track_path_deterministic_bitwise():
    h = _quad_homotopy(p_target=2.0 + 1.5j, p_source=0.3 - 0.2j)
    cfg = TrackerConfig()
    # z = 1 is no root of H(., 1), so its path fails; the root's succeeds
    root = np.sqrt(np.array([0.3 - 0.2j]))
    for start in (np.array([1.0 + 0j]), root):
        a = _track_one(h, start, cfg)
        b = _track_one(h, start, cfg)
        assert _same_result(a, b)
    assert a.status == SUCCESS


def test_residual_bounded_after_corrections():
    # the boundary point is a corrected iterate, so it lies on the path
    h = _quad_homotopy(p_target=3.0 + 0.5j)
    cfg = TrackerConfig()
    res = _track_one(h, np.array([1.0 + 0j]), cfg)
    assert res.status == SUCCESS
    at_boundary = value_at(h, ENDGAME_BOUNDARY, res.boundary)
    assert abs(at_boundary[0]) < 100 * NEWTON_TOL


def test_boundary_point_recorded():
    h = _quad_homotopy()
    res = _track_one(h, np.array([1.0 + 0j]), TrackerConfig())
    assert np.isfinite(res.boundary).all()
    # on the path z(t) = sqrt(4 - 3t), at the endgame boundary t = 0.1
    assert abs(res.boundary[0] - np.sqrt(4 - 3 * 0.1)) < 1e-8


def _same_result(a, b):
    """Field-by-field, bit-for-bit equality of two Paths records, nan
    matching nan."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=True)
        for f in dataclasses.fields(a)
    )


# p*z^3 + z^2 - q from (p, q) = (0.8+0.6i, 1-0.5i) to (0, 4): two roots
# reach +-2 and the third goes to infinity; at z = 0 the Jacobian
# 3p z^2 + 2z vanishes, so every prediction from there fails
CUBIC = parse_system("variable z; parameter p, q; function f; f = p*z^3 + z^2 - q;")


def test_batch_invariance_mixed_batch(monkeypatch):
    p, q = 0.8 + 0.6j, 1.0 - 0.5j
    h = build_homotopy(CUBIC, [[0.0, 4.0]], [p, q])
    roots = np.roots([p, 1.0, 0.0, -q])
    starts = [np.array([r], dtype=complex) for r in roots] + [np.array([0j])]
    cfg = TrackerConfig()
    batch = track_many(h, starts, cfg)
    statuses = _statuses(batch)
    assert statuses.count(PathStatus.SUCCESS) == 2
    assert statuses.count(PathStatus.DIVERGED) == 1
    assert statuses[-1] is PathStatus.MIN_STEP  # the singular start
    for i, start in enumerate(starts):
        assert _same_result(batch[0, i], _track_one(h, start, cfg))
    # a budget that the converging paths fit in but the diverging one not
    monkeypatch.setattr(tracker, "MAX_ATTEMPTS", 40)
    batch = track_many(h, starts, cfg)
    statuses = _statuses(batch)
    assert statuses.count(PathStatus.SUCCESS) == 2
    assert statuses.count(PathStatus.MAX_STEPS) == 1
    assert statuses[-1] is PathStatus.MIN_STEP
    for i, start in enumerate(starts):
        assert _same_result(batch[0, i], _track_one(h, start, cfg))


@pytest.mark.parametrize("attempts", [10_000, 40])
def test_paths_record_invariants(monkeypatch, attempts):
    # two targets of the cubic, the first with paths of every kind: each
    # field is shaped (targets, starts, ...), only successful paths have an
    # endpoint, and every attempt is an accepted or a rejected step
    monkeypatch.setattr(tracker, "MAX_ATTEMPTS", attempts)
    predicted = []
    real_predict = tracker._predict

    def counted(h, z, *args):
        predicted.append(len(z))
        return real_predict(h, z, *args)

    monkeypatch.setattr(tracker, "_predict", counted)
    p, q = 0.8 + 0.6j, 1.0 - 0.5j
    h = build_homotopy(CUBIC, [(0, 4), (0.5, 2)], [p, q])
    starts = [np.array([r]) for r in np.roots([p, 1.0, 0.0, -q])] + [np.array([0j])]
    paths = track_many(h, starts, TrackerConfig())
    for f in dataclasses.fields(paths):
        assert getattr(paths, f.name).shape[:2] == (2, 4), f.name
    assert paths.endpoint.shape == paths.boundary.shape == (2, 4, 1)
    success = paths.status == SUCCESS
    assert set(_statuses(paths[0])) == {
        PathStatus.SUCCESS, PathStatus.MIN_STEP,
        PathStatus.DIVERGED if attempts == 10_000 else PathStatus.MAX_STEPS,
    }
    assert np.array_equal(np.isfinite(paths.endpoint).all(axis=-1), success)
    assert np.array_equal(np.isfinite(paths.residual), success)
    assert np.array_equal(np.isfinite(paths.condition), success)
    assert not paths.sharpened[~success].any()
    assert (paths.t_end[success] == T_FINAL).all()
    tried = paths.rejected + paths.steps
    assert tried.sum() == sum(predicted)
    assert (tried[paths.status == PathStatus.MAX_STEPS.code] == attempts).all()


def test_batch_order_invariance_wave_amplitude():
    sysm = parse_system(MONKS_TEXT)
    rng = np.random.default_rng(3)
    h = total_degree_homotopy(
        sysm, np.array([2.0 + 0.5j, 5.0 - 0.3j, 3.0 + 0.2j]), random_gamma(rng)
    )
    starts = total_degree_start([3, 3, 3, 3])[::9]
    cfg = TrackerConfig()
    forward = track_many(h, starts, cfg)
    backward = track_many(h, starts[::-1], cfg)[:, ::-1]
    assert _same_result(forward, backward)
    assert _same_result(forward[0, 4], _track_one(h, starts[4], cfg))


# wave-amplitude points, each tracked from the Step 1 solutions: two
# generic points; the g = 0 points (2, 2, 0), where 48 of 81 paths diverge,
# and (2, 8, 0), where 8 more end in NEWTON_FAILURE; and the mu = 0 edge
# point (0, 0, 7.63), where several paths meet at singular roots
WAVE_POINTS = [(3, 6, 7.63), (2, 2, 0), (0, 0, 7.63), (1.5, 4, 2), (2, 8, 0)]


@pytest.fixture(scope="module")
def wave_step1():
    sysm = parse_system(MONKS_TEXT)
    return sysm, step1(sysm, TrackerConfig(), np.random.default_rng(11))


@pytest.mark.parametrize("attempts", [10_000, 70])
def test_stack_invariance_wave_amplitude(wave_step1, monkeypatch, attempts):
    # the homotopies of several points stacked into one lock-step call give
    # every path the result it gets on a homotopy of its point alone
    sysm, r1 = wave_step1
    monkeypatch.setattr(tracker, "MAX_ATTEMPTS", attempts)
    cfg = TrackerConfig()
    # the last start is no root of H(., 1): no correction from it converges,
    # so it ends in MIN_STEP on every target
    starts = list(r1.solutions.distinct) + [np.ones(4, dtype=complex)]
    stacked = track_many(build_homotopy(sysm, WAVE_POINTS, r1.p0), starts, cfg)
    assert stacked.status.shape == (len(WAVE_POINTS), len(starts))
    statuses = set(_statuses(stacked))
    assert PathStatus.SUCCESS in statuses
    if attempts == 70:
        assert PathStatus.MAX_STEPS in statuses
    else:
        kinds = {PathStatus.DIVERGED, PathStatus.MIN_STEP, PathStatus.NEWTON_FAILURE}
        assert kinds < statuses
    for k, target in enumerate(WAVE_POINTS):
        alone = track_many(build_homotopy(sysm, [target], r1.p0), starts, cfg)
        assert _same_result(stacked[k], alone[0])


def _classes(cls):
    """A ClassifiedSolutions as one comparable tuple per survivor."""
    return [
        (tuple(pt.tolist()), *rest)
        for pt, *rest in zip(cls.distinct, cls.singular_flags.tolist(),
                             cls.real_flags.tolist(), cls.residuals.tolist(),
                             cls.multiplicities.tolist())
    ]


def _classify_by_loop(paths):
    """The classification as a union-find over the successful paths, one
    path and one cluster at a time: the reference for classify_endpoints."""
    good = paths[paths.status == SUCCESS]
    parent = list(range(len(good.status)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in crossing_check(good.endpoint, DEDUP_TOL):
        parent[find(i)] = find(j)
    clusters = {}
    for i in range(len(parent)):
        clusters.setdefault(find(i), []).append(i)
    out = []
    for members in sorted(clusters.values(), key=lambda ms: ms[0]):
        r = min(members, key=lambda i: good.residual[i])
        singular = (len(members) > 1 or good.condition[r] > SINGULAR_CONDITION
                    or not good.sharpened[r])
        real = bool(np.max(np.abs(good.endpoint[r].imag)) < REAL_TOL)
        out.append((tuple(good.endpoint[r].tolist()), singular, real,
                    float(good.residual[r]), len(members)))
    return out


def _per_target(paths):
    """The classification of the stack ``paths`` in one call, cut into
    one list of survivors per target."""
    cls, bounds = classify_endpoints(paths)
    assert bounds.shape == (len(paths.status) + 1,)
    assert bounds[0] == 0 and bounds[-1] == len(cls)
    return [_classes(cls[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def test_classify_matches_the_union_find_reference(wave_step1):
    # the wave-amplitude points hold clusters of 5 and 29 paths and
    # survivors of every flag; the whole stack is classified in one call
    sysm, r1 = wave_step1
    paths = track_many(
        build_homotopy(sysm, WAVE_POINTS, r1.p0), list(r1.solutions.distinct),
        TrackerConfig(),
    )
    classes = _per_target(paths)
    assert classes == [_classify_by_loop(paths[k]) for k in range(len(WAVE_POINTS))]
    assert {m for c in classes for *_, m in c} >= {1, 5, 29}
    assert {(sing, real) for c in classes for _, sing, real, *_ in c} == {
        (False, False), (False, True), (True, False), (True, True)
    }
    # a target whose paths all failed has no survivors, and the others keep
    # theirs; its endpoints stay finite here, so only the status drops them
    failed = dataclasses.replace(paths, status=paths.status.copy())
    failed.status[2] = PathStatus.MIN_STEP.code
    cls, bounds = classify_endpoints(failed)
    assert cls[bounds[2] : bounds[3]].distinct.shape == (0, 4)
    assert _per_target(failed) == classes[:2] + [[]] + classes[3:]


def test_classify_keeps_identical_targets_apart():
    # one target twice in a stack: each keeps its own two roots, with
    # multiplicity 1, though the other target's endpoints are equal to them
    h = build_homotopy(QUAD, [[4.0], [4.0]], [1.0])
    paths = track_many(h, np.array([[1 + 0j], [-1 + 0j]]), TrackerConfig())
    assert np.array_equal(paths.endpoint[0], paths.endpoint[1])
    cls, bounds = classify_endpoints(paths)
    assert bounds.tolist() == [0, 2, 4]
    assert cls.multiplicities.tolist() == [1, 1, 1, 1]
    assert cls.singular_flags.tolist() == [False] * 4
    assert _classes(cls[:2]) == _classes(cls[2:]) == _classify_by_loop(paths[0])


def test_generic_wave_amplitude_steps_per_path(wave_step1):
    # the fourth-order predictor and the loose tracking tolerance before the
    # endgame let most corrections converge in one Newton iteration: about
    # 17 accepted steps per path here, where a tangent predictor took about
    # 24, and a tangent predictor tracking at NEWTON_TOL about 61
    sysm, r1 = wave_step1
    h = build_homotopy(sysm, [WAVE_POINTS[0]], r1.p0)
    paths = track_many(h, list(r1.solutions.distinct), TrackerConfig())
    assert paths.status.shape == (1, 81)
    assert (paths.status == SUCCESS).all()
    assert paths.steps.mean() < 18


@pytest.mark.parametrize("seed, point", [
    (11, (10 / 9, 60 / 9, 7.63)),
    (11, (10 / 9, 10, 7.63)),
    (3, (7.76, 1.906, 5.849)),
])
def test_generic_wave_amplitude_keeps_every_root(seed, point):
    # generic points, so 81 distinct nonsingular roots.  With long steps and
    # no check of the first Newton update, paths of each seed-11 point jump
    # onto neighbours (73 roots, 4 flagged singular); at the seed-3 point a
    # check at 1e-3 in place of PREDICT_TOL still lets paths jump (65 roots,
    # 8 flagged singular)
    sysm = parse_system(MONKS_TEXT)
    r1 = step1(sysm, TrackerConfig(), np.random.default_rng(seed))
    h = build_homotopy(sysm, [point], r1.p0)
    cls, _ = classify_endpoints(track_many(h, list(r1.solutions.distinct), TrackerConfig()))
    assert len(cls) == 81
    assert not any(cls.singular_flags)


def _count_calls(monkeypatch, name):
    """Patch np.linalg.<name> to record each call; returns the record."""
    calls = []
    real = getattr(np.linalg, name)

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_stacked_solve_splits_around_a_singular_matrix(monkeypatch):
    # one exactly singular matrix in 1,024 costs at most 2*log2(1024) + 2
    # stacked solves, and every other row equals its own single solve; the
    # stacked condition estimate is inf there and each other row's own
    rng = np.random.default_rng(7)
    B, N, bad = 1024, 3, 637
    jac = rng.standard_normal((B, N, N)) + 1j * rng.standard_normal((B, N, N))
    rhs = rng.standard_normal((B, N)) + 1j * rng.standard_normal((B, N))
    jac[bad, 2] = 0.0
    good = np.arange(B) != bad
    alone_x = np.array([np.linalg.solve(j, r) for j, r in zip(jac[good], rhs[good])])
    alone_cond = np.array([
        np.abs(j).sum(axis=1).max() * np.abs(np.linalg.inv(j)).sum(axis=1).max()
        for j in jac[good]
    ])
    budget = 2 * int(np.log2(B)) + 2

    solves = _count_calls(monkeypatch, "solve")
    x, ok = _solve(jac, rhs)
    assert len(solves) <= budget
    assert ok.tolist() == good.tolist()
    assert np.array_equal(x[good], alone_x)

    cond = np.linalg.cond(jac, np.inf)
    assert cond[bad] == np.inf
    assert np.array_equal(cond[good], alone_cond)


def test_per_path_counters():
    h = _quad_homotopy()
    cfg = TrackerConfig()
    paths = track_many(h, [np.array([1.0 + 0j]), np.array([0j])], cfg)
    good, stuck = paths[0, 0], paths[0, 1]
    assert good.status == SUCCESS
    assert good.newton_iters >= 1
    assert good.min_dt <= INITIAL_STEP
    # every attempt from z = 0 fails on the singular Jacobian, halving dt
    # from 0.1 until it drops below STEP_FLOOR
    assert stuck.status == PathStatus.MIN_STEP.code
    assert stuck.steps == 0 and stuck.newton_iters == 0
    halvings = int(np.ceil(np.log2(INITIAL_STEP / STEP_FLOOR)))
    assert stuck.rejected == halvings
    assert stuck.min_dt == INITIAL_STEP * 0.5 ** (halvings - 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_univariate_total_degree_matches_polar_roots(d):
    rng = np.random.default_rng(100 + d)
    poly_d = parse_system(f"variable z; parameter p; function f; f = z^{d} - p;")
    c = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    h = total_degree_homotopy(poly_d, np.array([c]), random_gamma(rng))
    paths = track_many(h, total_degree_start([d]), TrackerConfig())
    assert (paths.status == SUCCESS).all()
    got = paths.endpoint[0]
    r, phi = abs(c), np.angle(c)
    expected = [
        np.array([r ** (1 / d) * np.exp(1j * (phi + 2 * np.pi * k) / d)])
        for k in range(d)
    ]
    assert set_distance(got, expected) < 1e-8


def test_crossing_check():
    a = np.array([1.0 + 0j])
    b = np.array([-1.0 + 0j])
    assert crossing_check([a, b], 1e-6) == []
    assert crossing_check([a, a.copy()], 1e-6) == [(0, 1)]


@pytest.mark.parametrize("stacked", [True, False])
def test_classified_solutions_are_arrays(stacked):
    # targets z^2 = 4, 2i and 0: two real roots, two nonreal ones and a
    # double root, whose two paths end on rows flagged singular
    h = build_homotopy(QUAD, [[4], [2j], [0]], [1])
    paths = track_many(h, np.array([[1 + 0j], [-1 + 0j]]), TrackerConfig())
    cls, bounds = classify_endpoints(paths if stacked else paths[:1])
    n = 6 if stacked else 2
    assert bounds.tolist() == list(range(0, n + 1, 2))
    expected = {
        "distinct": ((n, 1), np.complexfloating),
        "singular_flags": ((n,), np.bool_),
        "real_flags": ((n,), np.bool_),
        "residuals": ((n,), np.floating),
        "multiplicities": ((n,), np.integer),
    }
    assert [f.name for f in dataclasses.fields(cls)] == list(expected)
    for name, (shape, kind) in expected.items():
        value = getattr(cls, name)
        assert isinstance(value, np.ndarray) and value.shape == shape
        assert np.issubdtype(value.dtype, kind)
    assert len(cls) == n
    assert cls.n_real == cls.real_flags.sum() == (4 if stacked else 2)
    if stacked:
        assert cls.singular_flags.tolist() == [False] * 4 + [True] * 2
    # indexing a record indexes every field
    mask = np.arange(n) % 2 == 0
    part = cls[mask]
    for f in dataclasses.fields(cls):
        assert np.array_equal(getattr(part, f.name), getattr(cls, f.name)[mask])
    assert part.n_real == cls.real_flags[mask].sum()
    assert len(cls[:0]) == 0 and cls[:0].distinct.shape == (0, 1)


def test_classify_two_real_roots():
    h = _quad_homotopy()
    paths = track_many(h, [np.array([1.0 + 0j]), np.array([-1.0 + 0j])], TrackerConfig())
    cls, bounds = classify_endpoints(paths)
    assert bounds.tolist() == [0, 2]
    assert len(cls) == 2
    assert cls.singular_flags.tolist() == [False, False]
    assert cls.real_flags.tolist() == [True, True]
    assert cls.n_real == 2
    assert _classes(cls) == _classify_by_loop(paths[0])


def test_classify_sixth_roots_of_unity():
    sextic = parse_system("variable z; parameter p; function f; f = z^6 - p;")
    h = total_degree_homotopy(sextic, np.array([1.0 + 0j]), 1.0)
    cls, _ = classify_endpoints(track_many(h, total_degree_start([6]), TrackerConfig()))
    assert len(cls) == 6
    assert cls.n_real == 2  # only +1 and -1 are real


def _in_stack(paths, endpoint, **changes):
    """``paths``, a stack of 3 targets, with target 1's ``endpoint`` and
    other fields replaced by ``changes``: each an array per path of target 1."""
    fields = {"endpoint": endpoint, **changes}
    stack = dataclasses.replace(
        paths, **{name: getattr(paths, name).copy() for name in fields}
    )
    for name, value in fields.items():
        getattr(stack, name)[1] = value
    return stack


def test_classify_merges_transitive_chain():
    # a~b and b~c within DEDUP_TOL, a and c not: union-find merges all three.
    # Target 1 of a stack of 3 holds the chain; its neighbours, whose roots
    # lie within DEDUP_TOL of it, keep their own clusters
    h = build_homotopy(QUAD, [[4.0], [4.0], [9.0]], [1.0])
    base = track_many(h, np.array([[1 + 0j], [1 + 0j], [-1 + 0j]]), TrackerConfig())
    chain = _in_stack(
        base,
        base.endpoint[1, 0] + np.array([[0.0], [0.7e-6], [1.4e-6]]),
        residual=np.array([3e-16, 1e-16, 2e-16]),
        sharpened=np.ones(3, dtype=bool),
    )
    assert crossing_check(chain.endpoint[1], 1e-6) == [(0, 1), (1, 2)]
    cls, bounds = classify_endpoints(chain)
    assert bounds.tolist() == [0, 2, 3, 5]
    assert _per_target(chain) == [_classify_by_loop(chain[k]) for k in range(3)]
    assert cls.multiplicities.tolist() == [2, 1, 3, 2, 1]
    assert cls.singular_flags.tolist() == [True, False, True, True, False]
    assert np.array_equal(cls.distinct[2], chain.endpoint[1, 1])


def test_classify_merges_nearby_endpoints():
    h = build_homotopy(QUAD, [[4.0], [4.0], [2j]], [1.0])
    base = track_many(h, np.array([[1 + 0j], [-1 + 0j]]), TrackerConfig())
    # target 1's second path lands 1e-10 away from its first, with twice the
    # residual
    pair = _in_stack(
        base,
        base.endpoint[1, 0] + np.array([[0.0], [1e-10]]),
        residual=base.residual[1, 0] * np.array([1.0, 2.0]),
        sharpened=np.array([base.sharpened[1, 0], True]),
    )
    cls, bounds = classify_endpoints(pair)
    assert bounds.tolist() == [0, 2, 3, 5]
    assert _per_target(pair) == [_classify_by_loop(pair[k]) for k in range(3)]
    assert cls.multiplicities.tolist() == [1, 1, 2, 1, 1]
    assert cls.singular_flags.tolist() == [False, False, True, False, False]
    # representative is the smaller-residual endpoint
    assert np.array_equal(cls.distinct[2], base.endpoint[1, 0])


def test_config_validation():
    # the edge of the range below is accepted
    TrackerConfig(max_newton_iters=1)


@pytest.mark.parametrize("field, value", [
    ("max_newton_iters", 0),
    ("max_newton_iters", -2),
])
def test_config_rejects_settings_no_path_survives(field, value):
    # with no Newton iteration no correction converges: every path fails
    with pytest.raises(ValueError, match=field):
        TrackerConfig(**{field: value})

import logging
from dataclasses import replace

import numpy as np
import pytest

from paramsweep import paramhom
from paramsweep.paramhom import (
    FaultInjection,
    PointResult,
    PointStatus,
    PointSummary,
    Step1Empty,
    parameter_sweep_path_count,
    random_parameter_point,
    repeated_homotopy_path_count,
    step1,
    step1_draws,
    step2,
    sweep_with_runner,
    verify_step1,
)
from paramsweep.datafile import serialize_record
from paramsweep.poly import parse_system
from paramsweep.scheduler import run_parallel
from paramsweep.startsys import random_gamma
from paramsweep.tracker import ClassifiedSolutions, TrackerConfig, classify_endpoints
from conftest import set_distance

CFG = TrackerConfig()


def test_random_parameter_point_ranges_and_reproducibility():
    p1 = random_parameter_point(2, np.random.default_rng(3))
    p2 = random_parameter_point(2, np.random.default_rng(3))
    assert np.array_equal(p1, p2)
    assert p1.shape == (2,)
    for c in p1:
        assert 0.0 <= c.real <= 1.0
        assert 0.0 <= c.imag <= 1.0


def test_random_parameter_point_successive_draws_differ():
    rng = np.random.default_rng(4)
    a = random_parameter_point(3, rng)
    b = random_parameter_point(3, rng)
    assert not np.array_equal(a, b)


def test_random_parameter_point_imaginary_parts_nonzero():
    rng = np.random.default_rng(5)
    draws = [random_parameter_point(1, rng) for _ in range(10)]
    assert any(abs(p[0].imag) > 1e-6 for p in draws)


def test_step1_quadratic(quad_system):
    rng = np.random.default_rng(17)
    r1 = step1(quad_system, CFG, rng, seed=17)
    assert r1.paths_tracked_step1 == 2
    assert r1.n_solutions == 2
    root = np.sqrt(r1.p0[0])
    assert set_distance(r1.solutions.distinct, [[root], [-root]]) < 1e-8
    assert r1.seed == 17


def test_step1_cube(cube_system):
    rng = np.random.default_rng(23)
    r1 = step1(cube_system, CFG, rng)
    assert r1.paths_tracked_step1 == 6
    assert r1.n_solutions == 6
    # oracle: polar sixth roots of 1 - x^6 - y^6
    c = 1 - r1.p0[0] ** 6 - r1.p0[1] ** 6
    r, phi = abs(c), np.angle(c)
    expected = [
        [r ** (1 / 6) * np.exp(1j * (phi + 2 * np.pi * k) / 6)] for k in range(6)
    ]
    assert set_distance(r1.solutions.distinct, expected) < 1e-8


def test_step1_path_statuses_account_for_every_path(monks_system):
    r1 = step1(monks_system, CFG, np.random.default_rng(11))
    counts = dict(r1.path_statuses)
    assert sum(counts.values()) == r1.paths_tracked_step1 == 81
    assert counts["success"] >= r1.n_solutions


def test_step1_warns_on_unexplained_shortfall(quad_system, caplog, monkeypatch):
    # a one-attempt budget stops every path with MAX_STEPS, not divergence
    monkeypatch.setattr("paramsweep.tracker.MAX_ATTEMPTS", 1)
    with caplog.at_level(logging.WARNING, logger="paramsweep"):
        with pytest.raises(Step1Empty):
            step1(quad_system, CFG, np.random.default_rng(17))
    assert "0 of 2 paths succeeded" in caplog.text
    assert "max_steps:2" in caplog.text


def test_step1_user_supplied_p0(quad_system):
    rng = np.random.default_rng(2)
    p0 = np.array([2.0 + 1.0j])
    r1 = step1(quad_system, CFG, rng, p0_override=p0)
    assert np.array_equal(r1.p0, p0)
    root = np.sqrt(2.0 + 1.0j)
    assert set_distance(r1.solutions.distinct, [[root], [-root]]) < 1e-8


def test_step1_keeps_only_the_nonsingular_solutions(monkeypatch):
    # (z - p)^2 (z + 1): the two paths to the double root p end on rows
    # flagged singular, and only the simple root -1 seeds Step 2
    sysm = parse_system("variable z; parameter p; function f; f = (z - p)^2*(z + 1);")
    classified = []

    def spy(paths):
        classified.append(classify_endpoints(paths))
        return classified[-1]

    monkeypatch.setattr(paramhom, "classify_endpoints", spy)
    r1 = step1(sysm, CFG, np.random.default_rng(3))
    ((sols, bounds),) = classified
    assert bounds.tolist() == [0, len(sols)]
    assert sols.singular_flags.sum() == 2
    assert not r1.solutions.singular_flags.any()
    assert r1.solutions.distinct.shape == (1, 1)
    assert abs(r1.solutions.distinct[0, 0] + 1) < 1e-12
    assert r1.solutions.real_flags.tolist() == [True]


def test_step1_draws_p0_then_gamma(quad_system):
    # step1 makes these draws before it tracks, and no others
    rng = np.random.default_rng(4)
    r1 = step1(quad_system, CFG, rng)
    drawn = np.random.default_rng(4)
    p0, gamma = step1_draws(quad_system, drawn)
    assert np.array_equal(r1.p0, p0) and r1.gamma == gamma
    assert rng.random() == drawn.random()
    # a pinned p0 is not drawn
    pinned = np.array([2.0 + 1.0j])
    p0, gamma = step1_draws(quad_system, np.random.default_rng(4), pinned)
    assert np.array_equal(p0, pinned)
    assert gamma == random_gamma(np.random.default_rng(4))


def test_step1_empty_raises():
    # p*z - 1 at generic p has one solution, but every total-degree path
    # for p=0 target... instead use a system with no finite solutions at
    # any parameter: z*p - 1 with p fixed to 0 via override.
    sys = parse_system("variable z; parameter p; function f; f = p*z - 1;")
    rng = np.random.default_rng(1)
    with pytest.raises(Step1Empty):
        step1(sys, CFG, rng, p0_override=np.array([0j]))


def test_verify_step1_counts_match(quad_system):
    rng = np.random.default_rng(11)
    r1 = step1(quad_system, CFG, rng)
    assert verify_step1(quad_system, CFG, r1, rng) is None


def test_verify_step1_detects_mismatch(quad_system, monkeypatch):
    rng = np.random.default_rng(11)
    r1 = step1(quad_system, CFG, rng)
    import paramsweep.paramhom as ph

    smaller = ph.Step1Result(
        p0=r1.p0,
        solutions=r1.solutions,
        paths_tracked_step1=r1.paths_tracked_step1,
        seed=None,
        gamma=r1.gamma,
    )

    def fake_step1(*a, **k):
        return ph.Step1Result(
            p0=r1.p0,
            solutions=r1.solutions[:1],
            paths_tracked_step1=2,
            seed=None,
            gamma=r1.gamma,
        )

    monkeypatch.setattr(ph, "step1", fake_step1)
    assert ph.verify_step1(quad_system, CFG, smaller, rng) == "solution counts differ"


def test_verify_step1_fails_a_hard_failure_without_a_second_solve(quad_system, monkeypatch):
    r1 = step1(quad_system, CFG, np.random.default_rng(11))
    failed = replace(r1, path_statuses=(("max_steps", 1), ("success", 1)))

    def no_second_solve(*a, **k):
        raise AssertionError("a hard failure needs no second generic solve")

    monkeypatch.setattr(paramhom, "step1", no_second_solve)
    assert verify_step1(quad_system, CFG, failed, np.random.default_rng(1)) == (
        "1 of 2 paths failed (max_steps:1, success:1), "
        "which divergence does not explain"
    )
    # divergent paths alone pass to the count check
    diverged = replace(r1, path_statuses=(("diverged", 1), ("success", 1)))
    with pytest.raises(AssertionError, match="second generic solve"):
        verify_step1(quad_system, CFG, diverged, np.random.default_rng(1))


def test_step2_single_quadratic(quad_system):
    rng = np.random.default_rng(31)
    r1 = step1(quad_system, CFG, rng)
    (out,) = step2(quad_system, r1.p0, r1.solutions.distinct, [np.array([4.0 + 0j])], CFG)
    assert out.status is PointStatus.COMPLETE
    assert out.path_failures == 0
    assert set_distance(out.solutions.distinct, [[2.0], [-2.0]]) < 1e-8


def test_step2_single_cube_to_origin(cube_system):
    rng = np.random.default_rng(37)
    r1 = step1(cube_system, CFG, rng)
    (out,) = step2(
        cube_system, r1.p0, r1.solutions.distinct, [np.zeros(2, dtype=complex)], CFG
    )
    assert out.path_failures == 0
    assert len(out.solutions) == 6
    assert out.solutions.n_real == 2  # z^6 = 1


def test_step2_single_cube_discriminant_point(cube_system):
    # (x, y) = (1, 0) puts the target exactly on the discriminant: z^6 = 0
    rng = np.random.default_rng(41)
    r1 = step1(cube_system, CFG, rng)
    (out,) = step2(
        cube_system, r1.p0, r1.solutions.distinct, [np.array([1.0 + 0j, 0j])], CFG
    )
    assert out.path_failures == 0
    assert all(out.solutions.singular_flags)
    for pt in out.solutions.distinct:
        assert abs(pt[0]) < 0.05  # collapsed toward the sextuple root at 0


def test_step2_forced_failure_changes_only_its_target(quad_system):
    # the injected failure lands on the first path of target 1 alone: an
    # injection on the wrong axis would change another target's record
    r1 = step1(quad_system, CFG, np.random.default_rng(31))
    targets = [np.array([c]) for c in (4.0 + 0j, 2.0 + 1j, 9.0 + 0j)]
    plain = step2(quad_system, r1.p0, r1.solutions.distinct, targets, CFG)
    forced = step2(
        quad_system, r1.p0, r1.solutions.distinct, targets, CFG, force_first_failure={1}
    )
    assert plain[1].status is PointStatus.COMPLETE
    assert forced[1].failure_kinds == (("min_step", 1),)
    assert forced[1].status is PointStatus.UNRESOLVED
    assert forced[1].path_failures == 1
    assert len(forced[1].solutions) == len(plain[1].solutions) - 1
    for k in (0, 2):
        assert serialize_record(forced[k]) == serialize_record(plain[k])


def test_run_sweep_three_points_accounting(quad_system):
    rng = np.random.default_rng(43)
    r1 = step1(quad_system, CFG, rng)
    points = [np.array([complex(v)]) for v in (1.0, 2.0, 3.0)]
    sweep = run_parallel(quad_system, r1, points, CFG, max_retries=0, workers=1, rng=rng)
    assert [pr.status for pr in sweep.point_results] == [PointStatus.COMPLETE] * 3
    for pr, v in zip(sweep.point_results, (1.0, 2.0, 3.0)):
        assert set_distance(pr.solutions.distinct, [[np.sqrt(v)], [-np.sqrt(v)]]) < 1e-8
    assert sweep.total_paths_tracked == 2 + 3 * 2
    assert sweep.unresolved_indices == []
    assert len(sweep.timings) == 3


def test_run_sweep_injected_failure_resolved(quad_system):
    rng = np.random.default_rng(47)
    r1 = step1(quad_system, CFG, rng)
    points = [np.array([complex(v)]) for v in (1.0, 2.0, 3.0)]
    sweep = run_parallel(
        quad_system,
        r1,
        points,
        CFG,
        max_retries=2,
        workers=1,
        rng=rng,
        fault_injection=FaultInjection.at(1),
    )
    hit = sweep.point_results[1]
    assert hit.status is PointStatus.COMPLETE
    assert hit.retries_used == 1
    assert set_distance(hit.solutions.distinct, [[np.sqrt(2)], [-np.sqrt(2)]]) < 1e-8
    others = [sweep.point_results[i] for i in (0, 2)]
    assert all(pr.retries_used == 0 for pr in others)
    # 2 step1 + 3*2 first pass + 2 p' solve + 2 re-solve
    assert sweep.total_paths_tracked == 2 + 6 + 2 + 2


def test_run_sweep_unresolved_after_k_rounds(quad_system):
    rng = np.random.default_rng(53)
    r1 = step1(quad_system, CFG, rng)
    points = [np.array([1.0 + 0j])]
    sweep = run_parallel(
        quad_system,
        r1,
        points,
        CFG,
        max_retries=0,
        workers=1,
        rng=rng,
        fault_injection=FaultInjection.at(0),
    )
    assert sweep.point_results[0].status is PointStatus.UNRESOLVED
    assert sweep.unresolved_indices == [0]
    assert sweep.point_results[0].path_failures == 1
    assert dict(sweep.point_results[0].failure_kinds)["min_step"] == 1


def test_run_sweep_retry_bound_respected(quad_system):
    rng = np.random.default_rng(59)
    r1 = step1(quad_system, CFG, rng)
    points = [np.array([complex(v)]) for v in (1.0, 4.0)]
    for k in (0, 1, 3):
        sweep = run_parallel(quad_system, r1, points, CFG, max_retries=k, workers=1, rng=np.random.default_rng(7))
        assert all(pr.retries_used <= k for pr in sweep.point_results)


def test_retry_policy_against_a_scripted_round_runner(quad_system):
    # what the runner reports, per round and index; a string is the
    # diagnostic of a crashed worker
    U, H, C = PointStatus.UNRESOLVED, PointStatus.HAD_FAILURES, PointStatus.COMPLETE
    script = {
        0: {0: U, 1: H, 2: "crashed", 3: U, 4: C, 5: U},
        1: {0: C, 3: U, 5: "crashed"},
        2: {3: U},
    }
    r1 = step1(quad_system, CFG, np.random.default_rng(43))
    m, l = r1.paths_tracked_step1, len(r1.solutions)
    points = [np.array([complex(v)]) for v in range(1, 7)]
    calls = []

    def attempt(i, round_no, status, **kw):
        return PointResult(
            index=i, p=points[i], solutions=ClassifiedSolutions.empty(1), status=status,
            retries_used=0, path_failures=int(status is U), diverged_paths=0,
            round=round_no, **kw,
        )

    def runner(round_no, indices, from_point, starts):
        calls.append(round_no)
        assert indices == list(script[round_no])
        assert len(starts) == l
        if round_no == 0:
            assert from_point is r1.p0 and starts is r1.solutions.distinct
        return {
            i: res if isinstance(res, str) else (attempt(i, round_no, res), 0.5)
            for i, res in script[round_no].items()
        }

    results, total_paths, timings = sweep_with_runner(
        quad_system, r1, points, CFG, 2, np.random.default_rng(5), runner
    )
    assert calls == [0, 1, 2]
    # the newest attempt under its retries; a crashed point is Unresolved,
    # all paths failed, in the round whose batch crashed
    crashed = dict(path_failures=l, note="crashed")
    expected = [
        replace(attempt(0, 1, C), retries_used=1),
        attempt(1, 0, H),
        replace(attempt(2, 0, U), **crashed),
        replace(attempt(3, 2, U), retries_used=2),
        attempt(4, 0, C),
        replace(attempt(5, 1, U), retries_used=1, **crashed),
    ]
    assert list(map(serialize_record, results)) == list(map(serialize_record, expected))
    reported = sum(not isinstance(res, str) for rnd in script.values() for res in rnd.values())
    assert total_paths == m + l * reported + l * 2  # two p' solves
    # one timing record per attempt, in round order
    assert timings == [
        PointSummary(i, U, 0.0) if isinstance(res, str) else PointSummary(i, res, 0.5)
        for rnd in script.values() for i, res in rnd.items()
    ]


def test_path_count_formulas():
    assert parameter_sweep_path_count(m=10_000, k=1000, l=10) == 20_000
    assert repeated_homotopy_path_count(m=10_000, k=1000) == 10_000_000
    assert parameter_sweep_path_count(2, 100, 2) == 202


def test_solutions_independent_of_start_point(cube_system):
    # the same target solved from two different generic starts agrees
    cfgs = np.random.default_rng(61)
    r1a = step1(cube_system, CFG, cfgs)
    r1b = step1(cube_system, CFG, cfgs)
    assert not np.array_equal(r1a.p0, r1b.p0)
    target = np.array([0.3 + 0j, -0.2 + 0j])
    (out_a,) = step2(cube_system, r1a.p0, r1a.solutions.distinct, [target], CFG)
    (out_b,) = step2(cube_system, r1b.p0, r1b.solutions.distinct, [target], CFG)
    assert set_distance(out_a.solutions.distinct, out_b.solutions.distinct) < 1e-8


def test_generic_solution_count_constant(quad_system):
    # desk-scale look at generic constancy: z^2 - p has 2 finite
    # nonsingular solutions at every sampled p != 0
    rng = np.random.default_rng(67)
    r1 = step1(quad_system, CFG, rng)
    for _ in range(25):
        p = random_parameter_point(1, rng) + 0.1  # keep away from 0
        (out,) = step2(quad_system, r1.p0, r1.solutions.distinct, [p], CFG)
        assert len(out.solutions) == 2
        assert not any(out.solutions.singular_flags)

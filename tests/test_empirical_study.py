"""Sample-size convergence study of the maximin improvement value."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fairgain import empirical_study, risk_models, solvers
from fairgain.core import ConvergenceError
from fairgain.empirical_study import (
    ConvergenceResult,
    _draw,
    _population_target,
    _trial_gap,
    fit_rate_slope,
    run_convergence,
)
from fairgain.solvers import SolverConfig, minimax, minimax_batch, solve
from tests.conftest import cube_spec

CFG = SolverConfig(tol=1e-6)


def test_exact_power_law_recovers_slope():
    ns = (100, 400, 1600, 6400)
    gaps = np.array([[3.0 * n**-0.5] * 7 for n in ns])
    assert fit_rate_slope(ns, gaps) == pytest.approx(-0.5, abs=1e-12)
    faster = np.array([[2.0 / n] * 7 for n in ns])
    assert fit_rate_slope(ns, faster) == pytest.approx(-1.0, abs=1e-12)


def test_zero_gaps_hit_floor_not_log_of_zero():
    ns = (100, 400)
    gaps = np.zeros((2, 5))
    slope = fit_rate_slope(ns, gaps)
    assert np.isfinite(slope)
    assert slope == pytest.approx(0.0, abs=1e-9)


def test_run_convergence_shapes_and_determinism(motivating):
    a = run_convergence(motivating, (150, 600), trials=8, seed=21, cfg=CFG)
    b = run_convergence(motivating, (150, 600), trials=8, seed=21, cfg=CFG)
    assert a.sample_sizes == (150, 600)
    assert a.gaps.shape == (2, 8)
    assert a.trials == 8 and a.seed == 21
    np.testing.assert_array_equal(a.gaps, b.gaps)
    assert a.fitted_slope == b.fitted_slope
    assert a.population_value == pytest.approx(56.0 / 81.0, abs=1e-5)
    assert all(r >= 0 for r in a.rejected)
    assert np.all(a.gaps >= 0)


def test_different_seeds_differ(motivating):
    a = run_convergence(motivating, (150, 600), trials=4, seed=1, cfg=CFG)
    b = run_convergence(motivating, (150, 600), trials=4, seed=2, cfg=CFG)
    assert not np.array_equal(a.gaps, b.gaps)


def test_single_size_rejected(motivating):
    with pytest.raises(ValueError):
        run_convergence(motivating, (150,), trials=4, seed=1, cfg=CFG)


def test_an_uncertified_solve_stops_the_study(motivating):
    # every ri solve of this study stops near a gap of 5e-14, above this tol
    tight = SolverConfig(tol=1e-300)
    with pytest.raises(ConvergenceError, match="population ri solve stopped at gap"):
        run_convergence(motivating, (100, 400), trials=2, seed=0, cfg=tight)
    target = _population_target(motivating, CFG)
    emp, frame, _ = _draw(motivating, 400, 1, 0, 0.5 * float(target[1].gap_array().min()))
    solved = minimax_batch("ri", [emp], [frame], motivating.radius, tight, target[3], target[4])[0]
    with pytest.raises(ConvergenceError, match="solve of trial 1 at n = 400 stopped at gap"):
        _trial_gap(400, 1, solved, tight, target)



def test_a_study_raises_for_its_first_failing_trial(motivating, monkeypatch):
    # trials are drawn before they are solved, yet an uncertified solve of
    # trial 0 still stops the study before a failed draw of trial 1 does
    real_draw, real_batch = empirical_study._draw, empirical_study.minimax_batch

    def draw(spec, n, trial, *args):
        if trial == 1:
            raise ConvergenceError(f"could not draw a usable sample of size {n} in 200 attempts")
        return real_draw(spec, n, trial, *args)

    def batch(*args):
        (theta, upper, _, evals, weights), *rest = real_batch(*args)
        return [(theta, upper, upper - 1.0, evals, weights), *rest]

    monkeypatch.setattr(empirical_study, "_draw", draw)
    with pytest.raises(ConvergenceError, match="could not draw a usable sample of size 100"):
        run_convergence(motivating, (100, 400), trials=2, seed=0, cfg=CFG)
    monkeypatch.setattr(empirical_study, "minimax_batch", batch)
    with pytest.raises(ConvergenceError, match="solve of trial 0 at n = 100 stopped at gap 1.000e"):
        run_convergence(motivating, (100, 400), trials=2, seed=0, cfg=CFG)

def test_trials_start_warm_at_the_population_point(motivating, monkeypatch):
    point, weights = _population_target(motivating, CFG)[3:]
    starts, opened, batches = [], [], []
    real, real_batch = empirical_study.minimax, empirical_study.minimax_batch

    def spy(*args, warm=(), weights=None):
        starts.append(warm)
        opened.append(weights)
        return real(*args, warm=warm, weights=weights)

    def batch_spy(method, models, frames, ball, cfg, point, weights):
        batches.append((len(models), point, weights))
        return real_batch(method, models, frames, ball, cfg, point, weights)

    monkeypatch.setattr(empirical_study, "minimax", spy)
    monkeypatch.setattr(empirical_study, "minimax_batch", batch_spy)
    monkeypatch.setattr(solvers, "minimax", spy)  # a batch item that stays open solves through it
    run_convergence(motivating, (100, 400), trials=2, seed=0, cfg=CFG)
    # the population target's solve runs cold, then one batch resumes every trial from its point
    assert starts[0] == () and opened[0] is None
    assert [size for size, _, _ in batches] == [4]
    assert batches[0][1].tobytes() == point.tobytes()
    assert all(len(warm) == 1 and warm[0].tobytes() == point.tobytes() for warm in starts[1:])
    # and from the weights behind its lower bound, bit for bit
    assert batches[0][2].tobytes() == weights.tobytes()
    assert all(w.tobytes() == weights.tobytes() for w in opened[1:])


def test_a_trial_solve_makes_one_weighted_minimization(motivating, three_group, monkeypatch):
    # resumed from the population point and weights, the opening Newton try's
    # one weighted minimization certifies each trial, and the uniform dual
    # evaluation is skipped; started from the point alone, each trial made two
    real, counts = empirical_study.minimax_batch, []

    def counted(model, calls):
        minimize = model.minimize

        def count(w, radius):
            calls.append(1)
            return minimize(w, radius)

        model.minimize = count

    def spy(method, models, *args):
        calls = [[] for _ in models]
        for model, seen in zip(models, calls):  # the frames are built: only the solve counts
            counted(model, seen)
        out = real(method, models, *args)
        counts.extend(len(seen) for seen in calls)
        return out

    monkeypatch.setattr(empirical_study, "minimax_batch", spy)
    for spec in (motivating, three_group):
        counts.clear()
        run_convergence(spec, (100, 400, 1600), trials=5, seed=0, cfg=CFG)
        assert counts == [1] * 15, counts


def test_a_study_without_a_stacked_lstsq_gets_the_same_gaps(motivating, monkeypatch):
    # numpy 1.x has no private lstsq gufunc, and its public wrapper takes no
    # stack: the batch then solves its Newton systems one by one, with the
    # same bits; in this ball some of cube's trials (d = 3) step out of it and
    # take the sphere's row on
    for spec in (motivating, cube_spec(0.8)):
        want = run_convergence(spec, (100, 400, 1600), trials=5, seed=0, cfg=CFG)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_lstsq", solvers._lstsq_public)
            got = run_convergence(spec, (100, 400, 1600), trials=5, seed=0, cfg=CFG)
        assert got.gaps.tobytes() == want.gaps.tobytes()


@pytest.mark.parametrize(
    "args, name",
    [
        (([100.7, 400.2], 2, 0), "sample_sizes"),
        (([100, True], 2, 0), "sample_sizes"),
        ((np.array([100.0, 400.0]), 2, 0), "sample_sizes"),
        (((100, 400), 2.5, 0), "trials"),
        (((100, 400), True, 0), "trials"),
        (((100, 400), 2, 0.5), "seed"),
        (((100, 400), 2, False), "seed"),
        (((100, 400), 2, "0"), "seed"),
    ],
)
def test_run_convergence_refuses_what_it_would_truncate(motivating, args, name):
    # int(100.7) would run n = 100 without a word, and range(2.5) or
    # SeedSequence(0.5) would raise a TypeError naming neither argument
    with pytest.raises(ValueError, match=name):
        run_convergence(motivating, *args, cfg=CFG)


def test_run_convergence_takes_numpy_integers(motivating):
    res = run_convergence(motivating, np.array([100, 400]), np.int64(2), np.uint8(3), cfg=CFG)
    want = run_convergence(motivating, (100, 400), 2, 3, cfg=CFG)
    assert res.sample_sizes == (100, 400) and (res.trials, res.seed) == (2, 3)
    assert all(type(v) is int for v in (*res.sample_sizes, res.trials, res.seed))
    assert res.gaps.tobytes() == want.gaps.tobytes()


def test_population_value_is_the_reported_ri_objective(motivating, three_group):
    # f = (R - b) / gap is exactly -rho, so -upper is the ri objective at the point
    for spec in (motivating, three_group):
        model, frame, value, point, weights = _population_target(spec, CFG)
        report = solve("ri", model, frame, spec.radius, CFG)
        assert value == report.objective_value
        assert point.tobytes() == np.asarray(report.parameter).tobytes()
        # the weights are those minimax returns as its fifth entry
        assert weights.tobytes() == minimax("ri", model, frame, spec.radius, CFG)[4].tobytes()


def test_gap_decreases_with_n(motivating):
    res = run_convergence(motivating, (100, 400, 1600, 6400), trials=64, seed=3, cfg=CFG)
    q = np.quantile(res.gaps, 0.75, axis=1)
    assert len(q) == 4
    # 75th percentile of the gap falls as the sample grows
    assert np.all(np.diff(q) <= 1e-15)
    assert res.fitted_slope < -0.3


def test_certificate_matches_numpy_quantiles(motivating):
    res = run_convergence(motivating, (100, 400), trials=10, seed=9, cfg=CFG)
    expect = np.quantile(res.gaps, 0.9, axis=1)
    np.testing.assert_allclose(res.quantiles, expect, atol=1e-15)
    assert res.quantile_non_increasing == bool(np.all(np.diff(expect) <= 1e-15))


def test_shuffled_gaps_fail_certificate(motivating):
    res = run_convergence(
        motivating, (100, 400, 1600, 6400), trials=64, seed=3, cfg=CFG
    )
    assert np.all(np.diff(np.quantile(res.gaps, 0.75, axis=1)) <= 1e-15)
    # reversing the size axis makes the quantile sequence increase
    fake = dataclasses.replace(res, gaps=res.gaps[::-1].copy())
    assert not np.all(np.diff(np.quantile(fake.gaps, 0.75, axis=1)) <= 1e-15)


def test_replaced_gaps_carry_their_own_summary(motivating):
    res = run_convergence(motivating, (100, 400, 1600), trials=8, seed=2, cfg=CFG)
    reversed_gaps = res.gaps[::-1].copy()
    replaced = dataclasses.replace(res, gaps=reversed_gaps)
    fresh = ConvergenceResult(
        sample_sizes=res.sample_sizes,
        gaps=reversed_gaps,
        trials=res.trials,
        seed=res.seed,
        rejected=res.rejected,
        population_value=res.population_value,
    )
    summary = ("fitted_slope", "quantiles", "quantile_non_increasing")
    assert [getattr(replaced, k) for k in summary] == [getattr(fresh, k) for k in summary]
    assert replaced.fitted_slope == fit_rate_slope(res.sample_sizes, reversed_gaps)
    assert replaced.fitted_slope != res.fitted_slope


def test_single_trial_gap_is_small_at_large_n(motivating):
    res = run_convergence(motivating, (100_000, 1_000_000), trials=1, seed=11, cfg=CFG)
    assert 0.0 <= res.gaps[1, 0] < 0.01


def test_run_convergence_draws_no_rows(motivating, monkeypatch):
    def no_rows(cls, features, labels):
        raise AssertionError("the study built a model from rows")

    monkeypatch.setattr(risk_models.QuadraticGroupRisks, "from_rows", classmethod(no_rows))
    res = run_convergence(motivating, (100, 25600), trials=4, seed=5, cfg=CFG)
    assert np.all(np.isfinite(res.gaps))

"""Sample-size convergence study of the maximin improvement value."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from fairgain import risk_models
from fairgain.empirical_study import (
    fit_rate_slope,
    gap_certificate,
    run_convergence,
)
from fairgain.solvers import SolverConfig

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


def test_gap_decreases_with_n(motivating):
    res = run_convergence(motivating, (100, 400, 1600, 6400), trials=64, seed=3, cfg=CFG)
    cert = gap_certificate(res, delta=0.25)
    assert len(cert.quantiles) == 4
    # 75th percentile of the gap falls as the sample grows
    assert cert.non_increasing
    assert res.fitted_slope < -0.3


def test_certificate_matches_numpy_quantiles(motivating):
    res = run_convergence(motivating, (100, 400), trials=10, seed=9, cfg=CFG)
    cert = gap_certificate(res, delta=0.1)
    expect = np.quantile(res.gaps, 0.9, axis=1)
    np.testing.assert_allclose(cert.quantiles, expect, atol=1e-15)


def test_shuffled_gaps_fail_certificate(motivating):
    res = run_convergence(
        motivating, (100, 400, 1600, 6400), trials=64, seed=3, cfg=CFG
    )
    cert = gap_certificate(res, delta=0.25)
    assert cert.non_increasing
    # reversing the size axis makes the quantile sequence increase
    fake = dataclasses.replace(
        res, gaps=res.gaps[::-1].copy(), fitted_slope=-res.fitted_slope
    )
    assert not gap_certificate(fake, delta=0.25).non_increasing


def test_single_trial_gap_is_small_at_large_n(motivating):
    res = run_convergence(motivating, (100_000, 1_000_000), trials=1, seed=11, cfg=CFG)
    assert 0.0 <= res.gaps[1, 0] < 0.01


def test_run_convergence_draws_no_rows(motivating, monkeypatch):
    def no_rows(self):
        raise AssertionError("the study built a GroupedDataset")

    monkeypatch.setattr(risk_models.GroupedDataset, "__post_init__", no_rows)
    res = run_convergence(motivating, (100, 25600), trials=4, seed=5, cfg=CFG)
    assert np.all(np.isfinite(res.gaps))

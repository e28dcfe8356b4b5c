"""Population and empirical risk models, fits, and file formats."""

from __future__ import annotations

import numpy as np
import pytest

from fairgain.core import ConvergenceError, DegenerateFrameError
from fairgain.risk_models import (
    ConstantPredictor,
    GroupedDataset,
    GroupLinearModel,
    LinearPredictor,
    ProblemSpec,
    default_baseline,
    draw_dataset,
    empirical_frame,
    empirical_risk,
    fit_group_optimal,
    group_ideal_risk,
    load_dataset_csv,
    load_problem_spec,
    minimize_quadratic_ball,
    population_frame,
    population_risk,
    population_risks,
    save_problem_spec,
    write_dataset_csv,
)
from tests.conftest import motivating_spec, random_problem_spec


def test_population_risk_closed_form(motivating):
    # R_g(theta) = (theta - beta_g)^2 Sigma + sigma_g^2 in one dimension
    r = population_risk(motivating, np.array([3.0]))
    assert r.values[0] == pytest.approx(2.0)
    assert r.values[1] == pytest.approx(25.0)


def test_population_risks_batch(motivating):
    thetas = np.array([[0.0], [2.0], [7.0]])
    risks = population_risks(motivating, thetas)
    np.testing.assert_allclose(risks[:, 0], [5.0, 1.0, 26.0])
    np.testing.assert_allclose(risks[:, 1], [58.0, 34.0, 9.0])


def test_population_frame_motivating(motivating):
    frame = population_frame(motivating)
    assert frame.baseline_risks == (5.0, 58.0)
    assert frame.ideal_risks == (1.0, 9.0)


def test_ideal_risks_respect_small_ball():
    # radius 0.1 keeps both betas out of reach
    spec = ProblemSpec(
        groups=motivating_spec().groups,
        radius=0.1,
    )
    frame = population_frame(spec)
    assert frame.ideal_risks[0] == pytest.approx((0.1 - 2.0) ** 2 + 1.0)
    assert frame.ideal_risks[1] == pytest.approx((0.1 - 7.0) ** 2 + 9.0)


def test_ball_minimizer_matches_grid():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = rng.integers(1, 4)
        f = rng.normal(size=(d, d))
        A = f @ f.T + 0.01 * np.eye(d)
        c = rng.normal(size=d) * 2.0
        radius = rng.uniform(0.2, 3.0)
        theta, value = minimize_quadratic_ball(A, c, radius)
        assert np.linalg.norm(theta) <= radius + 1e-9
        # random probes never beat the reported minimum
        probes = rng.normal(size=(4000, d))
        probes *= (rng.uniform(0, 1, size=(4000, 1)) ** (1.0 / d)) * radius / np.linalg.norm(
            probes, axis=1, keepdims=True
        )
        vals = np.einsum("nd,de,ne->n", probes, A, probes) - 2.0 * probes @ c
        assert value <= vals.min() + 1e-9


def test_ball_minimizer_singular_matrix():
    # flat direction: any point along it is optimal, value must still be right
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    c = np.array([1.0, 0.0])
    theta, value = minimize_quadratic_ball(A, c, 5.0)
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert theta[0] == pytest.approx(1.0, abs=1e-9)


def test_group_ideal_matches_monte_carlo():
    rng = np.random.default_rng(9)
    model = GroupLinearModel(
        beta=np.array([0.8, -0.4]),
        sigma2=0.5,
        cov=np.array([[1.0, 0.3], [0.3, 0.7]]),
    )
    theta, ideal = group_ideal_risk(model, radius=0.6)
    # simulate the generative model and score theta by sample average
    f = np.linalg.cholesky(model.cov)
    X = rng.normal(size=(100_000, 2)) @ f.T
    y = X @ model.beta + rng.normal(size=100_000) * np.sqrt(model.sigma2)
    mc = float(np.mean((X @ theta - y) ** 2))
    assert mc == pytest.approx(ideal, abs=0.05)


def test_degenerate_spec_raises():
    spec = ProblemSpec(
        groups=(
            GroupLinearModel(beta=np.array([0.0]), sigma2=1.0, cov=np.array([[1.0]])),
            GroupLinearModel(beta=np.array([7.0]), sigma2=9.0, cov=np.array([[1.0]])),
        ),
        radius=10.0,
    )
    with pytest.raises(DegenerateFrameError):
        population_frame(spec)


def test_spec_validation():
    good = GroupLinearModel(beta=np.array([1.0]), sigma2=1.0, cov=np.array([[1.0]]))
    with pytest.raises(ValueError):
        ProblemSpec(groups=(good,), radius=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(groups=(good, good), radius=0.0)
    with pytest.raises(ValueError):
        GroupLinearModel(beta=np.array([1.0]), sigma2=0.0, cov=np.array([[1.0]]))
    with pytest.raises(ValueError):
        GroupLinearModel(beta=np.array([1.0]), sigma2=1.0, cov=np.array([[-1.0]]))


def test_spec_json_round_trip(tmp_path, motivating):
    path = tmp_path / "spec.json"
    save_problem_spec(motivating, path)
    back = load_problem_spec(path)
    assert back.radius == motivating.radius
    for a, b in zip(back.groups, motivating.groups):
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.cov, b.cov)
        assert a.sigma2 == b.sigma2


def test_spec_json_default_identity_cov(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        '{"radius": 2.0, "groups": ['
        '{"beta": [1.0, 0.0], "sigma2": 1.0},'
        '{"beta": [0.0, 1.0], "sigma2": 2.0}]}'
    )
    spec = load_problem_spec(path)
    np.testing.assert_array_equal(spec.groups[0].cov, np.eye(2))


def test_empirical_risk_three_point_example():
    # single group, three points, squared loss; average at theta = 3
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 7.0, 8.0])
    ds = GroupedDataset(
        features=(X, X),
        labels=(y, y),
        loss="squared",
        radius=10.0,
    )
    r = empirical_risk(ds, LinearPredictor(np.array([3.0])))
    # residuals 1, -1, 1 -> mean squared 1
    assert r.values[0] == pytest.approx(1.0)

    X2 = np.array([[1.0], [2.0], [3.0]])
    y2 = np.array([0.0, 2.0, 10.0])
    ds2 = GroupedDataset(features=(X2, X2), labels=(y2, y2), radius=10.0)
    r2 = empirical_risk(ds2, LinearPredictor(np.array([3.0])))
    # residuals 3, 4, -1 -> (9 + 16 + 1) / 3
    assert r2.values[0] == pytest.approx(26.0 / 3.0)


def test_fit_group_optimal_beats_probes():
    rng = np.random.default_rng(21)
    spec = random_problem_spec(rng, m=2, d=3, radius=2.0)
    ds = draw_dataset(spec, n_per_group=400, rng=rng)
    for g in range(2):
        pred, risk = fit_group_optimal(ds, g)
        theta = pred.theta
        assert np.linalg.norm(theta) <= ds.radius + 1e-9
        probes = rng.normal(size=(10_000, 3))
        probes *= (
            (rng.uniform(0, 1, size=(10_000, 1)) ** (1.0 / 3.0))
            * ds.radius
            / np.linalg.norm(probes, axis=1, keepdims=True)
        )
        Xg, yg = ds.features[g], ds.labels[g]
        vals = np.mean((probes @ Xg.T - yg) ** 2, axis=1)
        assert risk <= vals.min() + 1e-9


def test_unconstrained_fit_matches_lstsq():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 2))
    y = X @ np.array([0.3, -0.2]) + rng.normal(size=50) * 0.1
    ds = GroupedDataset(features=(X, X), labels=(y, y), radius=100.0)
    pred, _ = fit_group_optimal(ds, 0)
    expect, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(pred.theta, expect, atol=1e-8)


def test_default_baseline_squared_is_zero_predictor():
    X = np.ones((4, 1))
    ds = GroupedDataset(features=(X, X), labels=(np.ones(4), np.zeros(4)), radius=1.0)
    base = default_baseline(ds)
    assert isinstance(base, ConstantPredictor)
    assert base.value == 0.0
    r = empirical_risk(ds, base)
    assert r.values == (1.0, 0.0)


def test_logistic_baseline_and_fit():
    rng = np.random.default_rng(4)
    X1 = rng.normal(size=(500, 2))
    X2 = rng.normal(size=(500, 2)) + 0.2
    w = np.array([1.2, -0.8])
    y1 = (rng.uniform(size=500) < 1.0 / (1.0 + np.exp(-X1 @ w))).astype(float)
    y2 = (rng.uniform(size=500) < 1.0 / (1.0 + np.exp(-X2 @ w))).astype(float)
    ds = GroupedDataset(
        features=(X1, X2), labels=(y1, y2), loss="logistic", radius=5.0
    )
    base = default_baseline(ds)
    frame = empirical_frame(ds, base)
    # fitting helps both groups, so every gap is positive
    assert all(b > i for b, i in zip(frame.baseline_risks, frame.ideal_risks))
    # theta = 0 scores log 2 per example
    r0 = empirical_risk(ds, LinearPredictor(np.zeros(2)))
    assert r0.values[0] == pytest.approx(np.log(2.0))


def test_logistic_fit_residual_is_small():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(300, 2))
    y = (rng.uniform(size=300) < 0.5).astype(float)
    ds = GroupedDataset(features=(X, X), labels=(y, y), loss="logistic", radius=3.0)
    pred, risk = fit_group_optimal(ds, 0)
    # optimum must not be improvable by small ball-feasible steps
    eps = 1e-4
    for direction in np.eye(2):
        for s in (+eps, -eps):
            cand = pred.theta + s * direction
            if np.linalg.norm(cand) > ds.radius:
                continue
            v = empirical_risk(ds, LinearPredictor(cand)).values[0]
            assert v >= risk - 1e-7


def test_logistic_fit_non_convergence_raises():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 2))
    y = (rng.uniform(size=200) < 0.4).astype(float)
    from fairgain.risk_models import _fit_logistic

    with pytest.raises(ConvergenceError) as err:
        _fit_logistic(X, y, radius=2.0, max_iters=0)
    assert err.value.residual is not None and err.value.residual > 1e-8


def test_dataset_validation():
    X = np.ones((4, 1))
    y = np.ones(4)
    with pytest.raises(ValueError):
        GroupedDataset(features=(X,), labels=(y,))
    with pytest.raises(ValueError):
        GroupedDataset(features=(X, X), labels=(y, np.ones(3)))
    with pytest.raises(ValueError):
        GroupedDataset(features=(X, np.ones((4, 2))), labels=(y, y))
    with pytest.raises(ValueError):
        GroupedDataset(features=(X, X), labels=(y, y * 0.5), loss="logistic")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    spec = random_problem_spec(rng, m=3, d=2, radius=1.5)
    ds = draw_dataset(spec, n_per_group=25, rng=rng)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    back = load_dataset_csv(path, loss="squared", radius=1.5)
    assert back.group_names == ds.group_names
    for a, b in zip(back.features, ds.features):
        np.testing.assert_allclose(a, b, atol=1e-12)
    # label offsets may differ in representation but decoded labels agree
    for a, b, in zip(back.labels, ds.labels):
        np.testing.assert_allclose(
            a + back.label_offset, b + ds.label_offset, atol=1e-12
        )


def test_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("group,y,z1\na,1.0,2.0\nb,1.0,2.0\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)


def test_empirical_frame_tracks_population(motivating):
    rng = np.random.default_rng(99)
    ds = draw_dataset(motivating, n_per_group=200_000, rng=rng)
    frame = empirical_frame(ds)
    pop = population_frame(motivating)
    np.testing.assert_allclose(
        frame.baseline_array(), pop.baseline_array(), rtol=0.05
    )
    np.testing.assert_allclose(frame.ideal_array(), pop.ideal_array(), rtol=0.05)

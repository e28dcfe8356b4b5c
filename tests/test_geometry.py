"""Frontier tracing, risk-set sampling, and convexity checks."""

from __future__ import annotations

import numpy as np
import pytest

from fairgain import geometry
from fairgain.core import UnsupportedDimensionError, relative_improvements
from fairgain.geometry import (
    DiagonalNotBracketedError,
    FrontierTrace,
    count_diagonal_crossings,
    diagonal_intersection,
    hull_pareto_check,
    sample_risk_set,
    trace_frontier,
    weighted_improvement_argmax,
)
from fairgain.risk_models import (
    GroupLinearModel,
    LogisticGroupRisks,
    ProblemSpec,
    QuadraticGroupRisks,
    population_frame,
)
from tests.conftest import (
    LOGISTIC_RADIUS,
    centred_risks,
    planar_spec,
    random_logistic_dataset,
    random_problem_spec,
    three_group_spec,
)


def _trace(spec: ProblemSpec, n_weights: int):
    model = QuadraticGroupRisks.from_problem_spec(spec)
    return trace_frontier(model, population_frame(spec), spec.radius, n_weights)


def _sample(spec: ProblemSpec, grid: int):
    return sample_risk_set(QuadraticGroupRisks.from_problem_spec(spec), spec.radius, grid)


def _grid_slack(spec: ProblemSpec, sample) -> float:
    # how far a grid point's risks can sit from those of the nearest ball point
    model = QuadraticGroupRisks.from_problem_spec(spec)
    return sample.spacing * model.lipschitz_bound(spec.radius)


def test_trace_is_monotone_and_feasible(motivating):
    trace = _trace(motivating, 120)
    assert np.all(np.diff(trace.points[:, 0]) > 0)
    # second group's improvement falls as the first rises along the frontier
    assert np.all(np.diff(trace.points[:, 1]) < 1e-10)
    frame = population_frame(motivating)
    model = QuadraticGroupRisks.from_problem_spec(motivating)
    thetas = [weighted_improvement_argmax(model, frame, lam, motivating.radius) for lam in trace.lambdas]
    np.testing.assert_allclose(model.values(np.array(thetas)), trace.risks, atol=1e-9)


def test_trace_touches_equal_improvement_point(motivating):
    trace = _trace(motivating, 200)
    target = 56.0 / 81.0
    d = np.hypot(trace.points[:, 0] - target, trace.points[:, 1] - target)
    assert d.min() <= 1e-3


def test_trace_passes_near_regret_point(motivating):
    trace = _trace(motivating, 200)
    # regret balancing lands on the frontier at rho = (-0.5625, 0.87245)
    phi = np.interp(-0.5625, trace.points[:, 0], trace.points[:, 1])
    assert phi == pytest.approx(0.8724489795918368, abs=1e-3)


def test_extreme_weight_favours_group_one(motivating):
    frame = population_frame(motivating)
    model = QuadraticGroupRisks.from_problem_spec(motivating)
    theta = weighted_improvement_argmax(model, frame, 1.0 - 1e-8, motivating.radius)
    risks = model.values(theta)
    rho1 = (5.0 - risks[0]) / 4.0
    rho2 = (58.0 - risks[1]) / 49.0
    assert rho1 == pytest.approx(1.0, abs=1e-6)
    assert rho2 == pytest.approx(24.0 / 49.0, abs=1e-6)


def test_single_diagonal_crossing(motivating):
    trace = _trace(motivating, 150)
    assert count_diagonal_crossings(trace) == 1
    rho_star, point = diagonal_intersection(trace)
    assert rho_star == pytest.approx(56.0 / 81.0, abs=1e-4)
    assert point[1] == pytest.approx(rho_star, abs=1e-6)


def test_trace_invariant_under_group_affine_rescale(motivating):
    # scaling a group's risk by c and shifting by a rescales risks but leaves
    # improvement coordinates untouched
    c, a = 3.7, 2.1
    g0 = motivating.groups[0]
    scaled = ProblemSpec(
        groups=(
            GroupLinearModel(beta=g0.beta, sigma2=c * g0.sigma2 + a, cov=c * g0.cov),
            motivating.groups[1],
        ),
        radius=motivating.radius,
    )
    t1 = _trace(motivating, 80)
    t2 = _trace(scaled, 80)
    assert t1.lambdas == t2.lambdas
    np.testing.assert_allclose(t1.points, t2.points, atol=1e-9)
    np.testing.assert_allclose(c * t1.risks[:, 0] + a, t2.risks[:, 0], atol=1e-8)


def test_trace_keeps_the_smallest_weight_of_each_rho1_cluster(monkeypatch):
    # in one dimension a range of weights lands on the same ball boundary
    # point, so their rho_1 values differ by rounding only
    spec = random_problem_spec(np.random.default_rng(40), m=2, d=1, radius=3.0)
    model = QuadraticGroupRisks.from_problem_spec(spec)
    frame = population_frame(spec)
    argmax = geometry.weighted_improvement_argmax
    seen = []

    def recording(model, frame, lam, radius):
        seen.append(lam)
        return argmax(model, frame, lam, radius)

    monkeypatch.setattr(geometry, "weighted_improvement_argmax", recording)
    trace = trace_frontier(model, frame, spec.radius, 200)
    rho1 = {
        lam: relative_improvements(model.values(argmax(model, frame, lam, spec.radius)), frame)[0]
        for lam in seen
    }
    # a cluster: the weights within 1e-12 in rho_1 of its lowest member
    clusters = []
    for lam in sorted(seen, key=rho1.get):
        if clusters and rho1[lam] - rho1[clusters[-1][0]] <= 1e-12:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    assert max(len(c) for c in clusters) > 1
    assert trace.lambdas == tuple(min(c) for c in clusters)
    assert np.all(np.diff(trace.lambdas) > 0)


def test_diagonal_not_bracketed():
    pts = np.array([[0.1, 0.9], [0.3, 0.8], [0.5, 0.7]])
    trace = FrontierTrace(
        lambdas=(0.2, 0.5, 0.8), points=pts, risks=np.zeros((3, 2))
    )
    with pytest.raises(DiagonalNotBracketedError):
        diagonal_intersection(trace)
    assert count_diagonal_crossings(trace) == 0


def test_zero_runs_at_both_ends_each_count_once():
    # identical groups trace the single point (1, 1), on the diagonal
    twin = GroupLinearModel(beta=np.array([1.0, 0.5]), sigma2=1.0, cov=np.eye(2))
    trace = _trace(ProblemSpec(groups=(twin, twin), radius=3.0), 50)
    np.testing.assert_array_equal(trace.points, [[1.0, 1.0]])
    assert count_diagonal_crossings(trace) == 1
    # gaps rho_2 - rho_1 of 0, 0.2, -0.1, 0: two touches and one crossing
    rho1 = np.array([0.1, 0.2, 0.3, 0.4])
    pts = np.column_stack([rho1, rho1 + np.array([0.0, 0.2, -0.1, 0.0])])
    trace = FrontierTrace(lambdas=(0.1, 0.2, 0.3, 0.4), points=pts, risks=np.zeros((4, 2)))
    assert count_diagonal_crossings(trace) == 3


def test_trace_needs_two_groups(three_group):
    with pytest.raises(UnsupportedDimensionError):
        _trace(three_group, 50)


def test_riskset_grid_shapes(motivating, planar):
    s1 = _sample(motivating, grid=101)
    assert s1.thetas.shape == (101, 1)
    assert s1.risks.shape == (101, 2)
    s2 = _sample(planar, grid=31)
    assert s2.thetas.shape == (31 * 31, 2)
    spec3 = ProblemSpec(
        groups=(
            GroupLinearModel(beta=np.array([0.5, 0, 0]), sigma2=1.0, cov=np.eye(3)),
            GroupLinearModel(beta=np.array([0, 0.5, 0]), sigma2=1.0, cov=np.eye(3)),
        ),
        radius=1.0,
    )
    s3 = _sample(spec3, grid=7)
    assert s3.thetas.shape == (7 * 7 * 7, 3)
    assert np.all(np.linalg.norm(s3.thetas, axis=1) <= 1.0 + 1e-9)


def test_riskset_grid_rejects_high_dimension():
    spec4 = ProblemSpec(
        groups=(
            GroupLinearModel(
                beta=np.array([0.5, 0, 0, 0]), sigma2=1.0, cov=np.eye(4)
            ),
            GroupLinearModel(
                beta=np.array([0, 0.5, 0, 0]), sigma2=1.0, cov=np.eye(4)
            ),
        ),
        radius=1.0,
    )
    with pytest.raises(UnsupportedDimensionError):
        _sample(spec4, grid=5)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_ball_point_lies_within_spacing_of_the_grid(d):
    from scipy.spatial import cKDTree

    radius = 1.7
    spec = random_problem_spec(np.random.default_rng(d), 2, d)
    model = QuadraticGroupRisks.from_problem_spec(spec)
    rng = np.random.default_rng(29)
    dirs = rng.normal(size=(4000, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # half the probes inside the ball, half on its sphere, where the angular steps are widest
    probes = dirs * radius * np.concatenate([rng.random(2000) ** (1.0 / d), np.ones(2000)])[:, None]
    for grid in range(2, 42):
        sample = sample_risk_set(model, radius, grid)
        dists, _ = cKDTree(sample.thetas).query(probes)
        assert dists.max() <= sample.spacing, (grid, dists.max() / sample.spacing)


def test_riskset_minima_approach_ideals(planar):
    frame = population_frame(planar)
    sample = _sample(planar, grid=101)
    slack = _grid_slack(planar, sample)
    mins = sample.risks.min(axis=0)
    assert np.all(mins >= frame.ideal_array() - 1e-9)
    assert np.all(mins <= frame.ideal_array() + slack)


def test_lipschitz_bound_dominates_differences(planar):
    rng = np.random.default_rng(4)
    L = QuadraticGroupRisks.from_problem_spec(planar).lipschitz_bound(planar.radius)
    t = rng.normal(size=(200, 2))
    t /= np.maximum(np.linalg.norm(t, axis=1, keepdims=True), 1.0)
    u = rng.normal(size=(200, 2))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1.0)
    rt = centred_risks(planar, t)
    ru = centred_risks(planar, u)
    num = np.abs(rt - ru).max(axis=1)
    den = np.linalg.norm(t - u, axis=1)
    keep = den > 1e-9
    assert np.all(num[keep] <= L * den[keep] + 1e-9)


def test_logistic_lipschitz_bound_dominates_gradients():
    model = LogisticGroupRisks.from_dataset(random_logistic_dataset(np.random.default_rng(3)))
    L = model.lipschitz_bound(LOGISTIC_RADIUS)
    rng = np.random.default_rng(5)
    t = rng.normal(size=(2000, model.dim))
    t *= LOGISTIC_RADIUS / np.maximum(np.linalg.norm(t, axis=1, keepdims=True), 1.0)
    norms = [np.linalg.norm(model.gradients(theta), axis=1).max() for theta in t]
    assert max(norms) <= L


def _arc() -> np.ndarray:
    # a quarter circle bulging away from its hull's efficient face
    t = np.linspace(0.0, np.pi / 2.0, 400)
    return np.column_stack([np.cos(t), np.sin(t)])


@pytest.mark.parametrize(
    "sample, faces, checked, violation",
    [
        (lambda: _sample(planar_spec(), grid=61), 33, 1056, 0.013047547637944754),
        (lambda: _sample(three_group_spec(), grid=25), 147, 3087, 4.769025965650151),
        (_arc, 1, 32, 0.2925272015644409),
    ],
    ids=["planar_grid_61", "three_group_grid_25", "arc"],
)
def test_hull_check_matches_recorded_facets(sample, faces, checked, violation):
    # the values of the former monotone-chain (two groups) and qhull (three
    # groups) enumerators, which the one qhull path must keep
    report = hull_pareto_check(sample())
    assert (report.n_faces, report.n_checked) == (faces, checked)
    assert report.max_violation == pytest.approx(violation, abs=1e-12)


def _sigma2_only_spec(beta, sigma2s) -> ProblemSpec:
    # groups that differ only in noise: their risks differ by constants, so the
    # sample lies on a line
    d = len(beta)
    return ProblemSpec(
        groups=tuple(
            GroupLinearModel(beta=np.array(beta), sigma2=s, cov=np.eye(d)) for s in sigma2s
        ),
        radius=3.0,
    )


def test_hull_check_reports_on_flat_samples():
    three = hull_pareto_check(_sample(_sigma2_only_spec([2.0, 1.0], [1.0, 2.0, 3.0]), grid=15), 0.05)
    assert three.ok and three.n_faces == 0
    two = hull_pareto_check(_sample(_sigma2_only_spec([2.0], [1.0, 3.0]), grid=41), 0.05)
    assert two.ok and two.n_faces == 0
    # a trade-off line: its one efficient face is probed on the joggled hull
    line = np.array([(i / 49, 2.0 - 2.0 * i / 49) for i in range(50)])
    assert hull_pareto_check(line).max_violation == pytest.approx(0.02208098726958334, abs=1e-12)
    # fewer rows than a simplex needs leave no facet to probe
    assert hull_pareto_check(np.array([[0.0, 1.0], [1.0, 0.0]])).n_faces == 0


def test_hull_check_accepts_convex_risk_set(planar):
    sample = _sample(planar, grid=61)
    tol = 2.0 * _grid_slack(planar, sample)
    report = hull_pareto_check(sample, tolerance=tol)
    assert report.ok
    assert report.max_violation < tol
    assert report.n_faces >= 1


def test_hull_check_flags_concave_arc():
    report = hull_pareto_check(_arc(), tolerance=0.05)
    assert not report.ok
    assert report.max_violation == pytest.approx(np.sqrt(2.0) / 2.0 * (np.sqrt(2.0) - 1.0), abs=1e-3)


def test_hull_check_three_groups(three_group):
    sample = _sample(three_group, grid=25)
    tol = 2.0 * _grid_slack(three_group, sample)
    report = hull_pareto_check(sample, tolerance=tol)
    assert report.ok, f"violation {report.max_violation} vs {tol}"

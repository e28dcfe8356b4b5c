"""Population and empirical risk models, fits, and file formats."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from scipy.special import expit

from fairgain import risk_models
from fairgain.core import ConvergenceError, DegenerateFrameError
from fairgain.empirical_study import run_convergence
from fairgain.risk_models import (
    GroupLinearModel,
    LogisticGroupRisks,
    ProblemSpec,
    QuadraticGroupRisks,
    draw_moments,
    load_dataset_csv,
    load_problem_spec,
    minimize_quadratic_ball,
    population_frame,
    sigmoid,
)
from tests.conftest import (
    LOGISTIC_RADIUS,
    draw_dataset,
    motivating_spec,
    planar_spec,
    random_logistic_dataset,
    random_problem_spec,
    save_problem_spec,
    three_group_spec,
    write_dataset_csv,
)


def test_population_risk_closed_form(motivating):
    # R_g(theta) = (theta - beta_g)^2 Sigma + sigma_g^2 in one dimension
    r = QuadraticGroupRisks.from_problem_spec(motivating).values(np.array([3.0]))
    assert r[0] == pytest.approx(2.0)
    assert r[1] == pytest.approx(25.0)


def test_population_risks_batch(motivating):
    thetas = np.array([[0.0], [2.0], [7.0]])
    risks = QuadraticGroupRisks.from_problem_spec(motivating).values(thetas)
    np.testing.assert_allclose(risks[:, 0], [5.0, 1.0, 26.0])
    np.testing.assert_allclose(risks[:, 1], [58.0, 34.0, 9.0])


def test_model_values_rows_do_not_depend_on_the_batch():
    # the streamed oracle grid relies on this: a row scores the same in a
    # block of any size, one row included
    rng = np.random.default_rng(17)
    cases = []
    for d in (1, 2, 3):
        for m in (2, 3, 4):
            spec = random_problem_spec(rng, m=m, d=d)
            cases.append((QuadraticGroupRisks.from_problem_spec(spec), spec.radius, 1000))
    for d, m in ((1, 2), (2, 3), (3, 2)):
        model = LogisticGroupRisks(*random_logistic_dataset(rng, m=m, d=d, n=60))
        cases.append((model, LOGISTIC_RADIUS, 200))
    for model, radius, n in cases:
        batch = rng.uniform(-radius, radius, size=(n, model.dim))
        risks = model.values(batch)
        assert risks.shape == (n, model.num_groups)
        for size in (1, 2, 3):
            for i in range(n - size + 1):
                np.testing.assert_array_equal(model.values(batch[i : i + size]), risks[i : i + size])
        if isinstance(model, LogisticGroupRisks):
            # the logistic batch is the one-point path row by row
            for i in range(n):
                np.testing.assert_array_equal(model.values(batch[i]), risks[i])


def _einsum_values(model, thetas):
    # the batch form the elementwise kernel replaced, kept as its reference
    q = np.einsum("gjk,nk->ngj", model.A, thetas) - 2.0 * model.c
    return np.einsum("ngj,nj->ng", q, thetas) + model.k


def test_model_values_batch_matches_the_einsum_form():
    rng = np.random.default_rng(23)
    for d in (1, 2, 3):
        for m in (2, 3, 4):
            F = rng.normal(size=(m, d, d))
            A = F @ F.transpose(0, 2, 1)
            beta = rng.normal(size=(m, d))
            c = np.einsum("gjk,gk->gj", A, beta)
            k = np.einsum("gj,gj->g", beta, c) + rng.uniform(0.3, 12.0, size=m)
            model = QuadraticGroupRisks(A, c, k)
            thetas = rng.uniform(-3.0, 3.0, size=(2000, d))
            risks = model.values(thetas)
            assert risks.flags.f_contiguous
            if d <= 2:
                np.testing.assert_array_equal(risks, _einsum_values(model, thetas))
            else:
                # three coordinates are summed in another order than einsum's
                np.testing.assert_allclose(risks, _einsum_values(model, thetas), rtol=1e-12, atol=0)


def _wrapper_minimize(model, w, radius):
    # QuadraticGroupRisks.minimize and minimize_quadratic_ball as written with
    # numpy's wrapper calls, kept as the reference for their bits
    A = np.tensordot(w, model.A, axes=1)
    s, V = np.linalg.eigh(A)
    s = np.clip(s, 0.0, None)
    c = w @ model.c
    smax = s.max() if s.size else 0.0
    if smax <= 0.0:
        theta, quad = np.zeros_like(c), 0.0
    else:
        b = V.T @ c
        live = s > 1e-10 * smax
        theta_eig = np.where(live, b / np.where(live, s, 1.0), 0.0)
        if np.linalg.norm(theta_eig) > radius:
            lo, hi = 0.0, float(np.linalg.norm(b) / radius)
            lam = max(hi / 2.0, 1e-16)
            target = radius**2
            for _ in range(200):
                h = float(np.sum((b / (s + lam)) ** 2)) - target
                if abs(h) <= 2.0 * 1e-10 * target:
                    break
                if h > 0:
                    lo = lam
                else:
                    hi = lam
                dh = -2.0 * float(np.sum(b**2 / (s + lam) ** 3))
                step = lam - h / dh if dh != 0 else None
                lam = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
            theta_eig = b / (s + lam)
        quad = float(np.sum(s * theta_eig**2) - 2.0 * np.sum(b * theta_eig))
        theta = V @ theta_eig
    value = quad + float(w @ model.k)
    return theta, value, value


def _bits(out) -> tuple:
    # every byte of (theta, value, lower): -0.0 and 0.0 differ here
    theta, *values = out
    return (theta.tobytes(), *(float(v).hex() for v in values))


def test_minimize_matches_the_wrapper_calls_bit_for_bit():
    rng = np.random.default_rng(31)
    branches = set()
    # full-rank draws at d = 1-3; every group on one line (so each weighting's A
    # has rank 1) at d = 2, 3; c = 0 with A != 0; and definite d = 4-6 matrices,
    # the kind the logistic Newton step passes
    cases = [(d, m, "full") for d in (1, 2, 3) for m in (2, 3, 4)]
    cases += [(d, m, "rank 1") for d in (2, 3) for m in (2, 3)]
    cases += [(d, m, "c = 0") for d in (1, 2, 3) for m in (2, 3)]
    cases += [(d, m, "full") for d in (4, 5, 6) for m in (2, 3)]
    for d, m, kind in cases:
        for _ in range(8):
            if kind == "rank 1":
                u = rng.normal(size=(d, 1))
                A = (u @ u.T) * rng.uniform(0.2, 3.0, size=(m, 1, 1))
            else:
                F = rng.normal(size=(m, d, d))
                A = F @ F.transpose(0, 2, 1) / d + 0.05 * np.eye(d)
            beta = rng.normal(size=(m, d)) * rng.uniform(0.3, 4.0) * (kind != "c = 0")
            c = np.einsum("gjk,gk->gj", A, beta)
            k = np.einsum("gj,gj->g", beta, c) + rng.uniform(0.3, 12.0, size=m)
            model = QuadraticGroupRisks(A, c, k)
            weights = [rng.dirichlet(np.ones(m)), np.eye(m)[rng.integers(m)], np.zeros(m)]
            for w in weights:
                free = np.linalg.lstsq(np.tensordot(w, A, axes=1), w @ c, rcond=None)[0]
                reach = float(np.linalg.norm(free))
                # radii on both sides of the free minimizer, just in and just out
                near = (reach * (1.0 + 1e-6), reach * (1.0 - 1e-6)) if reach > 0.0 else ()
                for radius in (np.inf, 0.05, 1.0, 50.0, *near):
                    assert _bits(model.minimize(w, radius)) == _bits(_wrapper_minimize(model, w, radius))
                    if not w.any():
                        branches.add("zero")
                    elif radius == np.inf:
                        branches.add("no ball")
                    else:
                        inside = reach <= radius
                        branches.add(("interior" if inside else "boundary", kind, d > 3))
    assert {"zero", "no ball"} < branches
    for kind, large in (("full", False), ("rank 1", False), ("full", True)):
        assert {("interior", kind, large), ("boundary", kind, large)} < branches
    assert ("interior", "c = 0", False) in branches
    # many random radii inside the free minimizer's reach: radius**2 and radius * radius
    # round apart for about 1 radius in 1,000, and the multiplier search reads the former
    for d in (1, 2):
        F = rng.normal(size=(2, d, d))
        A = F @ F.transpose(0, 2, 1) + 0.05 * np.eye(d)
        model = QuadraticGroupRisks(A, np.einsum("gjk,gk->gj", A, 3.0 + rng.normal(size=(2, d))), np.ones(2))
        w = rng.dirichlet(np.ones(2))
        reach = float(np.linalg.norm(np.linalg.solve(np.tensordot(w, A, axes=1), w @ model.c)))
        for radius in reach * rng.uniform(0.01, 0.99, size=2500):
            assert _bits(model.minimize(w, float(radius))) == _bits(_wrapper_minimize(model, w, float(radius)))


def test_the_kernels_eigh_gufunc_gives_np_linalg_eighs_bits():
    # minimize_quadratic_ball calls the gufunc that np.linalg.eigh wraps; a numpy
    # whose wrapper parts from it fails here, not in a benchmark digest
    rng = np.random.default_rng(37)
    for d in range(2, 7):
        for _ in range(300):
            F = rng.normal(size=(d, int(rng.integers(1, d + 1))))
            A = F @ F.T * rng.uniform(0.01, 100.0)
            s, V = risk_models._eigh(A, signature="d->dd")
            want_s, want_V = np.linalg.eigh(A)  # a plain pair before numpy 2.0's EighResult
            assert s.tobytes() == want_s.tobytes()
            assert V.tobytes() == want_V.tobytes()


def test_minimize_refuses_non_finite_coefficients_and_a_radius_not_above_zero():
    # a float clamp would read the NaN eigenvalue of [[nan, 0], [0, 1]] as 0.0
    # and return a finite, wrong minimum; the parent returned theta = 0, value NaN
    bad = (
        ([[np.nan, 0.0], [0.0, 1.0]], [0.0, 1.0]),
        ([[1.0, np.inf], [np.inf, 1.0]], [0.0, 1.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.inf, 0.0]),
        ([[np.nan]], [1.0]),
        ([[2.0]], [-np.inf]),
    )
    for A, c in bad:
        for radius in (np.inf, 1.0):
            with pytest.raises(ValueError, match="finite"):
                minimize_quadratic_ball(np.array(A), np.array(c), radius)
    for radius in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            minimize_quadratic_ball(np.eye(2), np.ones(2), radius)
    one = np.ones((2, 1, 1))
    for A, c, k in ((one * np.inf, np.ones((2, 1)), np.ones(2)),
                    (one, np.array([[np.nan], [0.0]]), np.ones(2)),
                    (one, np.ones((2, 1)), np.array([1.0, np.inf]))):
        with pytest.raises(ValueError, match="moments must be finite"):
            QuadraticGroupRisks(A, c, k)


def test_minimize_raises_linalgerror_when_eigh_does_not_converge(monkeypatch):
    # LAPACK's failure comes back as NaN eigenpairs; the kernel raises, and warns of nothing
    def unconverged(A, signature):
        d = A.shape[0]
        return np.full(d, np.nan), np.full((d, d), np.nan)

    monkeypatch.setattr(risk_models, "_eigh", unconverged)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radius in (np.inf, 1.0):
            with pytest.raises(np.linalg.LinAlgError):
                minimize_quadratic_ball(np.eye(3), np.ones(3), radius)


def test_minimize_bounds_the_values_it_scores_for_an_asymmetric_a(tmp_path):
    # the kernel's eigh reads one triangle of A and values reads all of it; a
    # dual bound is sound only when both read one quadratic. A skew part K
    # leaves theta' A theta alone, and the loader admits an asymmetry of
    # 1e-10 of cov's scale
    rng = np.random.default_rng(41)
    models = []
    for i in range(100):
        m, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        F = rng.normal(size=(m, d, d))
        S = F @ F.transpose(0, 2, 1) / d + 0.05 * np.eye(d)
        K = rng.normal(size=(m, d, d))
        beta = rng.normal(size=(m, d)) * rng.uniform(0.5, 4.0)
        c = np.einsum("gjk,gk->gj", S, beta)
        k = np.einsum("gj,gj->g", beta, c) + rng.uniform(0.3, 12.0, size=m)
        A = S + K - K.transpose(0, 2, 1)
        models.append((QuadraticGroupRisks(A, c, k), A))
        scale = np.maximum(1.0, np.abs(S).max(axis=(1, 2)))[:, None, None]
        cov = S + 0.99e-10 * scale * np.triu(np.ones((d, d)), 1)
        groups = [{"beta": b.tolist(), "sigma2": 1.0, "cov": C.tolist()} for b, C in zip(beta, cov)]
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps({"radius": 3.0, "groups": groups}))
        models.append((QuadraticGroupRisks.from_problem_spec(load_problem_spec(path)), cov))
    eps, count = np.finfo(float).eps, 0
    for model, A in models:
        m = model.num_groups
        for w in (*np.eye(m), *rng.dirichlet(np.ones(m), size=m)):
            for radius in (0.5, 3.0, 50.0):
                theta, _, lower = model.minimize(w, radius)
                # 128 ulps of the terms that values adds, and no other slack
                terms = np.abs(np.einsum("j,gjk,k->g", theta, A, theta))
                terms += 2.0 * np.abs(model.c @ theta) + np.abs(model.k)
                assert lower <= float(w @ model.values(theta)) + 128.0 * eps * float(w @ terms)
                count += 1
    assert count > 3000


def test_spec_values_match_the_centred_form_for_an_asymmetric_cov():
    # A is cov's symmetric part S, and c and k read the same S, so values is
    # (theta - beta)' S (theta - beta) + sigma2 expanded; at 0.99e-10 of the
    # loader's asymmetry limit it keeps within a few ulps of its terms
    rng = np.random.default_rng(43)
    eps = np.finfo(float).eps
    for _ in range(200):
        m, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        F = rng.normal(size=(m, d, d))
        S = F @ F.transpose(0, 2, 1) / d + 0.05 * np.eye(d)
        beta = rng.normal(size=(m, d)) * rng.uniform(0.5, 4.0)
        sigma2 = rng.uniform(0.3, 12.0, size=m)
        scale = np.maximum(1.0, np.abs(S).max(axis=(1, 2)))[:, None, None]
        cov = S + 0.99e-10 * scale * np.triu(np.ones((d, d)), 1)
        groups = tuple(GroupLinearModel(beta=b, sigma2=s, cov=C) for b, s, C in zip(beta, sigma2, cov))
        model = QuadraticGroupRisks.from_problem_spec(ProblemSpec(groups=groups, radius=3.0))
        sym = (cov + cov.transpose(0, 2, 1)) / 2.0
        for theta in rng.normal(size=(20, d)) * 3.0:
            diff = theta - beta
            centred = np.einsum("gj,gjk,gk->g", diff, sym, diff) + sigma2
            # every product values adds, in absolute value
            terms = np.einsum("j,gjk,k->g", np.abs(theta), np.abs(model.A), np.abs(theta))
            terms += 2.0 * np.abs(model.c) @ np.abs(theta) + np.abs(model.k)
            assert np.all(np.abs(model.values(theta) - centred) <= 4.0 * eps * terms)


def test_d1_minimize_and_convergence_study_call_no_lapack(monkeypatch, motivating):
    model = QuadraticGroupRisks.from_problem_spec(motivating)
    calls = [(w, r) for w in (np.array([0.3, 0.7]), np.eye(2)[1], np.zeros(2)) for r in (np.inf, 1.0, 10.0)]
    want = [_bits(model.minimize(w, r)) for w, r in calls]
    want_study = run_convergence(motivating, (100, 400), trials=2, seed=5)

    def no_lapack(*args, **kwargs):
        raise AssertionError("an eigendecomposition ran at d = 1")

    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    monkeypatch.setattr(risk_models, "_eigh", no_lapack)
    assert [_bits(model.minimize(w, r)) for w, r in calls] == want
    study = run_convergence(motivating, (100, 400), trials=2, seed=5)
    assert study.gaps.tobytes() == want_study.gaps.tobytes()
    assert (study.rejected, study.fitted_slope, study.population_value) == (
        want_study.rejected, want_study.fitted_slope, want_study.population_value
    )


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
    risks = QuadraticGroupRisks.from_problem_spec(ProblemSpec(groups=(model, model), radius=0.6))
    theta, ideal, _ = risks.minimize(np.array([1.0, 0.0]), 0.6)
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


def test_empty_beta_is_rejected():
    with pytest.raises(ValueError, match="beta must have at least one entry"):
        GroupLinearModel(beta=np.array([]), sigma2=1.0, cov=np.zeros((0, 0)))


def test_covariance_factor_reproduces_cov():
    # F F' = cov, also where cov has zero eigenvalues; features Z F' then
    # have second moments cov
    rng = np.random.default_rng(8)
    covs = [np.diag([2.0, 0.5, 0.0]), np.zeros((2, 2)), np.array([[4.0]])]
    for d, r in ((3, 3), (4, 2), (5, 1)):
        f = rng.normal(size=(d, r))
        covs.append(f @ f.T / r)
    for cov in covs:
        model = GroupLinearModel(beta=np.ones(len(cov)), sigma2=1.0, cov=cov)
        F = model.factor
        assert F.shape == cov.shape
        np.testing.assert_allclose(F @ F.T, cov, rtol=0.0, atol=1e-14 * max(1.0, np.abs(cov).max()))


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
    r = QuadraticGroupRisks.from_rows((X, X), (y, y)).values(np.array([3.0]))
    # residuals 1, -1, 1 -> mean squared 1
    assert r[0] == pytest.approx(1.0)

    X2 = np.array([[1.0], [2.0], [3.0]])
    y2 = np.array([0.0, 2.0, 10.0])
    r2 = QuadraticGroupRisks.from_rows((X2, X2), (y2, y2)).values(np.array([3.0]))
    # residuals 3, 4, -1 -> (9 + 16 + 1) / 3
    assert r2[0] == pytest.approx(26.0 / 3.0)


def test_frame_ideals_beat_probes():
    rng = np.random.default_rng(21)
    spec = random_problem_spec(rng, m=2, d=3, radius=2.0)
    features, labels = draw_dataset(spec, n_per_group=400, rng=rng)
    model = QuadraticGroupRisks.from_rows(features, labels)
    frame = model.frame(spec.radius)
    for g in range(2):
        theta = model.minimize(np.eye(2)[g], spec.radius)[0]
        assert np.linalg.norm(theta) <= spec.radius + 1e-9
        probes = rng.normal(size=(10_000, 3))
        probes *= (
            (rng.uniform(0, 1, size=(10_000, 1)) ** (1.0 / 3.0))
            * spec.radius
            / np.linalg.norm(probes, axis=1, keepdims=True)
        )
        # each probe's mean squared residual, straight from the rows
        Xg, yg = features[g], labels[g]
        vals = np.mean((probes @ Xg.T - yg) ** 2, axis=1)
        assert frame.ideal_risks[g] <= vals.min() + 1e-9


def test_unconstrained_fit_matches_lstsq():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 2))
    y = X @ np.array([0.3, -0.2]) + rng.normal(size=50) * 0.1
    model = QuadraticGroupRisks.from_rows((X, X), (y, -y))
    expect, *_ = np.linalg.lstsq(X, y, rcond=None)
    theta, value, _ = model.minimize(np.array([1.0, 0.0]), np.inf)
    np.testing.assert_allclose(theta, expect, atol=1e-8)
    # over an infinite radius the frame's ideals are the least-squares residuals
    residual = float(np.mean((y - X @ expect) ** 2))
    np.testing.assert_allclose(model.frame(np.inf).ideal_array(), [residual, residual], rtol=1e-12)
    assert value == model.frame(np.inf).ideal_risks[0]


def test_squared_baseline_is_the_zero_predictor():
    X = np.ones((4, 1))
    model = QuadraticGroupRisks.from_rows((X, X), (np.ones(4), np.full(4, 2.0)))
    frame = model.frame(1.0)
    assert frame.baseline_risks == (1.0, 4.0)
    assert frame.baseline_risks == tuple(model.values(np.zeros(1)))
    # the ball holds group 0's fit theta = 1 but not group 1's theta = 2
    assert frame.ideal_risks == pytest.approx((0.0, 1.0), abs=1e-12)


def test_sigmoid_matches_expit_without_overflow():
    z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-np.inf, np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = sigmoid(z)
    assert float(np.abs(p - expit(z)).max()) <= 2.3e-16


def test_logistic_baseline_and_fit():
    rng = np.random.default_rng(4)
    X1 = rng.normal(size=(500, 2))
    X2 = rng.normal(size=(500, 2)) + 0.2
    w = np.array([1.2, -0.8])
    y1 = (rng.uniform(size=500) < 1.0 / (1.0 + np.exp(-X1 @ w))).astype(float)
    y2 = (rng.uniform(size=500) < 1.0 / (1.0 + np.exp(-X2 @ w))).astype(float)
    model = LogisticGroupRisks((X1, X2), (y1, y2))
    frame = model.frame(5.0)
    # fitting helps both groups, so every gap is positive
    assert all(b > i for b, i in zip(frame.baseline_risks, frame.ideal_risks))
    # theta = 0 scores log 2 per example
    assert model.values(np.zeros(2))[0] == pytest.approx(np.log(2.0))


def test_logistic_fit_residual_is_small():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(300, 2))
    y = (rng.uniform(size=300) < 0.5).astype(float)
    model = LogisticGroupRisks((X, X), (y, y))
    theta = model.minimize(np.array([1.0, 0.0]), 3.0)[0]
    risk = model.frame(3.0).ideal_risks[0]
    # optimum must not be improvable by small ball-feasible steps
    eps = 1e-4
    for direction in np.eye(2):
        for s in (+eps, -eps):
            cand = theta + s * direction
            if np.linalg.norm(cand) > 3.0:
                continue
            assert model.values(cand)[0] >= risk - 1e-7


def test_logistic_minimize_fits_the_weighted_groups_alone():
    features, labels = random_logistic_dataset(np.random.default_rng(3), m=4, d=2, n=150, radius=2.0)
    model = LogisticGroupRisks(features, labels)
    alone = LogisticGroupRisks(features[1::2], labels[1::2])
    w = np.array([0.0, 0.7, 0.0, 0.3])
    for radius in (2.0, np.inf):
        theta, *bounds = model.minimize(w, radius)
        alone_theta, *alone_bounds = alone.minimize(w[1::2], radius)
        np.testing.assert_array_equal(theta, alone_theta)
        assert bounds == alone_bounds
    for g, ideal in enumerate(model.frame(2.0).ideal_risks):
        group = LogisticGroupRisks(features[g : g + 1], labels[g : g + 1])
        assert ideal == group.minimize(np.ones(1), 2.0)[1]
    # no group carries weight: theta = 0 is already stationary
    theta, value, lower = model.minimize(np.zeros(4), 2.0)
    assert not theta.any() and value == lower == 0.0


def test_derivatives_give_the_bits_of_values_and_the_closed_forms():
    # one pass gives the risks with the bits of values(theta), 2 (A theta - c)
    # and 2 A for quadratic risks, and for logistic ones X'(p - y)/n and
    # X' diag(p (1 - p)) X / n with p (1 - p) floored at 1e-12
    rng = np.random.default_rng(8)
    quadratic = QuadraticGroupRisks.from_problem_spec(random_problem_spec(rng, m=3, d=3))
    logistic = LogisticGroupRisks(*random_logistic_dataset(rng, m=3, d=3))
    for theta in rng.normal(scale=2.0, size=(20, 3)):
        risks, grads, hess = quadratic.derivatives(theta)
        assert risks.tobytes() == quadratic.values(theta).tobytes()
        assert grads.tobytes() == (2.0 * (quadratic.A @ theta - quadratic.c)).tobytes()
        assert hess.tobytes() == (2.0 * quadratic.A).tobytes()
        with pytest.raises(ValueError, match="read-only"):  # one stored array serves every call
            hess[0, 0, 0] = 1.0
        risks, grads, hess = logistic.derivatives(theta)
        assert risks.tobytes() == logistic.values(theta).tobytes()
        for g, (X, y) in enumerate(zip(logistic.features, logistic.labels)):
            p = sigmoid(X @ theta)
            assert grads[g].tobytes() == (X.T @ (p - y) / len(X)).tobytes()
            h = np.maximum(p * (1.0 - p), 1e-12)
            assert hess[g].tobytes() == ((X * h[:, None]).T @ X / len(X)).tobytes()


def test_logistic_fit_non_convergence_raises(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 2))
    y = (rng.uniform(size=200) < 0.4).astype(float)
    model = LogisticGroupRisks((X,), (y,))
    monkeypatch.setattr(risk_models, "_NEWTON_ITERS", 0)
    with pytest.raises(ConvergenceError) as err:
        model.minimize(np.ones(1), radius=2.0)
    # the message carries the residual the fit stopped at
    assert float(str(err.value).rsplit(" ", 1)[1]) > 1e-8


def test_csv_round_trip(tmp_path):
    # squared loss reads the moments of the rows with pooled-mean-centred
    # labels, logistic loss the rows themselves, groups in file order
    rng = np.random.default_rng(17)
    spec = random_problem_spec(rng, m=3, d=2, radius=1.5)
    features, labels = draw_dataset(spec, n_per_group=25, rng=rng)
    path = tmp_path / "data.csv"
    write_dataset_csv((features, labels), path)
    back = load_dataset_csv(path, loss="squared")
    offset = np.concatenate(labels).mean()
    expect = QuadraticGroupRisks.from_rows(features, [y - offset for y in labels])
    for a, b in ((back.A, expect.A), (back.c, expect.c), (back.k, expect.k)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    binary = [(y > 0).astype(float) for y in labels]
    write_dataset_csv((features, binary), path)
    back = load_dataset_csv(path, loss="logistic")
    for a, b in zip(back.features + back.labels, features + binary):
        np.testing.assert_array_equal(a, b)


def test_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("group,y,z1\na,1.0,2.0\nb,1.0,2.0\n")
    with pytest.raises(ValueError):
        load_dataset_csv(path)


def test_csv_loss_name_is_checked(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("group,y,x1\na,1.0,2.0\nb,0.0,2.0\n")
    with pytest.raises(ValueError, match="loss must be 'squared' or 'logistic', got 'hinge'"):
        load_dataset_csv(path, loss="hinge")


def test_sample_frame_tracks_population(motivating):
    rng = np.random.default_rng(99)
    rows = draw_dataset(motivating, n_per_group=200_000, rng=rng)
    frame = QuadraticGroupRisks.from_rows(*rows).frame(motivating.radius)
    pop = population_frame(motivating)
    np.testing.assert_allclose(
        frame.baseline_array(), pop.baseline_array(), rtol=0.05
    )
    np.testing.assert_allclose(frame.ideal_array(), pop.ideal_array(), rtol=0.05)


def _zero_eigenvalue_spec() -> ProblemSpec:
    # d = 3 with cov of rank 2 in both groups, so n = 1, 2 fall below d
    return ProblemSpec(
        groups=(
            GroupLinearModel(
                beta=np.array([1.0, -0.5, 0.3]), sigma2=0.7, cov=np.diag([2.0, 0.5, 0.0])
            ),
            GroupLinearModel(
                beta=np.array([0.2, 0.4, -1.0]),
                sigma2=1.5,
                cov=np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.0]]),
            ),
        ),
        radius=2.0,
    )


def _stacked_moments(model: QuadraticGroupRisks) -> np.ndarray:
    return np.concatenate([model.A.ravel(), model.c.ravel(), model.k])


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize(
    "spec", [three_group_spec(), _zero_eigenvalue_spec()], ids=["three_group", "zero_eigenvalue"]
)
def test_draw_moments_matches_moments_of_drawn_rows(spec, n):
    # every entry of (A, c, k): the mean is exact (E[A] = cov, E[c] = cov beta,
    # E[k] = beta' cov beta + sigma2), and mean and variance agree with
    # from_rows(*draw_dataset(...)), each within 5 Monte Carlo standard errors
    draws = 2000
    rng = np.random.default_rng(100 + n)
    fast = np.array([_stacked_moments(draw_moments(spec, n, rng)) for _ in range(draws)])
    rows = np.array(
        [
            _stacked_moments(QuadraticGroupRisks.from_rows(*draw_dataset(spec, n, rng)))
            for _ in range(draws)
        ]
    )
    exact = _stacked_moments(QuadraticGroupRisks.from_problem_spec(spec))

    def mean_se(x):
        return x.std(axis=0) / np.sqrt(draws)

    def var_se(x):
        return ((x - x.mean(axis=0)) ** 2).std(axis=0) / np.sqrt(draws)

    slack = 1e-12  # entries a zero eigenvalue pins near 0 on both sides
    assert np.all(np.abs(fast.mean(axis=0) - exact) <= 5.0 * mean_se(fast) + slack)
    mean_bound = 5.0 * np.hypot(mean_se(fast), mean_se(rows)) + slack
    assert np.all(np.abs(fast.mean(axis=0) - rows.mean(axis=0)) <= mean_bound)
    var_bound = 5.0 * np.hypot(var_se(fast), var_se(rows)) + slack
    assert np.all(np.abs(fast.var(axis=0) - rows.var(axis=0)) <= var_bound)


def _triu_draw_moments(spec, n, rng):
    # draw_moments with np.triu, np.arange and np.stack per group, as it once read
    A, c, k = [], [], []
    for g in spec.groups:
        r = min(n, g.dim)
        R = np.triu(rng.standard_normal((r, g.dim)), 1)
        R[np.arange(r), np.arange(r)] = np.sqrt(rng.chisquare(n - np.arange(r)))
        B = g.factor @ R.T
        qy = B.T @ g.beta + rng.normal(0.0, np.sqrt(g.sigma2), r)
        rest = g.sigma2 * rng.chisquare(n - r) if n > r else 0.0
        A.append(B @ B.T / n)
        c.append(B @ qy / n)
        k.append((float(qy @ qy) + rest) / n)
    return QuadraticGroupRisks(np.stack(A), np.stack(c), np.array(k))


def test_draw_moments_gives_the_bits_of_the_triu_form(motivating):
    # the cached masks leave every moment, and the stream after the draw,
    # bit for bit those of the per-group np.triu form, at n below and above d
    specs = (motivating, planar_spec(), three_group_spec(), _zero_eigenvalue_spec())
    for spec in specs:
        for n in (1, 2, 3, 5, 400):
            for seed in range(5):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                model = draw_moments(spec, n, rng)
                want = _triu_draw_moments(spec, n, ref)
                for got, exp in zip((model.A, model.c, model.k), (want.A, want.c, want.k)):
                    assert got.tobytes() == exp.tobytes(), (spec.dim, n, seed)
                assert rng.random() == ref.random()


def test_draw_moments_needs_a_sample(motivating):
    rng = np.random.default_rng(0)
    for n in (0, -3):
        with pytest.raises(ValueError):
            draw_moments(motivating, n, rng)

"""Continuous solvers: reference solutions, invariants, certificates."""

from __future__ import annotations

import numpy as np
import pytest

from fairgain.core import DegenerateBargainError, criterion_value
from fairgain.risk_models import population_frame, population_risks
from fairgain.solvers import (
    _MU_CAP,
    METHODS,
    QuadraticGroupRisks,
    SolverConfig,
    _best_weights,
    _lp_master,
    group_risk_model,
    objective_and_supergradient,
    solve,
    solve_leximin_ri,
    solve_nash,
)
from tests.conftest import random_problem_spec

CFG = SolverConfig(tol=1e-6)


def _setup(spec):
    return QuadraticGroupRisks.from_problem_spec(spec), population_frame(spec)


def test_maximin_ri_motivating(motivating):
    model, frame = _setup(motivating)
    rep = solve("ri", model, frame, motivating.radius, CFG)
    assert rep.certified(1e-5)
    assert rep.parameter[0] == pytest.approx(28.0 / 9.0, abs=2e-3)
    assert rep.objective_value == pytest.approx(56.0 / 81.0, abs=1e-5)
    rho = rep.improvement_profile.as_array()
    assert abs(rho[0] - rho[1]) < 1e-5


def test_gdro_motivating(motivating):
    model, frame = _setup(motivating)
    rep = solve("gdro", model, frame, motivating.radius, CFG)
    assert rep.parameter[0] == pytest.approx(5.3, abs=2e-3)
    assert rep.objective_value == pytest.approx(11.89, abs=1e-4)


def test_mmv_motivating(motivating):
    model, frame = _setup(motivating)
    rep = solve("mmv", model, frame, motivating.radius, CFG)
    assert rep.parameter[0] == pytest.approx(2.0, abs=2e-3)
    # worst absolute gain equals group 1's full gap at theta = beta_1
    assert rep.objective_value == pytest.approx(4.0, abs=1e-5)


def test_mmr_motivating(motivating):
    model, frame = _setup(motivating)
    rep = solve("mmr", model, frame, motivating.radius, CFG)
    assert rep.parameter[0] == pytest.approx(4.5, abs=2e-3)
    assert rep.objective_value == pytest.approx(6.25, abs=1e-5)
    rho = rep.improvement_profile.as_array()
    assert rho[0] == pytest.approx(-0.5625, abs=1e-4)
    assert rho[1] == pytest.approx(0.8724489795918368, abs=1e-4)


def test_nash_motivating(motivating):
    model, frame = _setup(motivating)
    rep = solve_nash(model, frame, motivating.radius, CFG)
    assert rep.parameter[0] == pytest.approx(2.559236, abs=2e-3)
    gains = frame.baseline_array() - rep.risk_profile.as_array()
    assert np.all(gains > 0)
    assert float(np.prod(gains)) == pytest.approx(107.9614, abs=1e-2)


def test_leximin_equals_maximin_with_two_groups(motivating):
    model, frame = _setup(motivating)
    a = solve("ri", model, frame, motivating.radius, CFG)
    b = solve_leximin_ri(model, frame, motivating.radius, CFG)
    assert b.objective_value == pytest.approx(a.objective_value, abs=1e-5)
    assert b.parameter[0] == pytest.approx(a.parameter[0], abs=2e-3)


def test_leximin_lifts_slack_group(three_group):
    model, frame = _setup(three_group)
    base = solve("ri", model, frame, three_group.radius, CFG)
    rep = solve_leximin_ri(model, frame, three_group.radius, CFG)
    rho = rep.improvement_profile.as_array()
    # crossing of groups 1 and 2 sits at theta_1 = 124/41 with value 1240/1681
    assert base.objective_value == pytest.approx(1240.0 / 1681.0, abs=1e-5)
    assert rep.objective_value == pytest.approx(1240.0 / 1681.0, abs=1e-5)
    assert min(rho[0], rho[1]) == pytest.approx(1240.0 / 1681.0, abs=1e-4)
    # group 3 rides a free coordinate, leximin should push it to its ideal
    assert rho[2] >= 0.999


def test_equal_improvement_on_separated_pairs():
    rng = np.random.default_rng(42)
    for k in range(30):
        spec = random_problem_spec(rng, m=2, d=2, radius=3.0, separated=True)
        model, frame = _setup(spec)
        rep = solve("ri", model, frame, spec.radius, CFG)
        assert rep.certified(1e-5), f"case {k} uncertified"
        rho = rep.improvement_profile.as_array()
        assert rho.min() >= -1e-5
        # with separated targets neither group reaches 1, so the optimum
        # equalizes improvements
        if rho.max() < 1.0 - 1e-3:
            assert abs(rho[0] - rho[1]) <= 1e-4, f"case {k}: {rho}"


def test_maximin_never_harms():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m = int(rng.integers(2, 5))
        spec = random_problem_spec(rng, m=m, d=int(rng.integers(1, 4)))
        model, frame = _setup(spec)
        rep = solve("ri", model, frame, spec.radius, CFG)
        assert rep.improvement_profile.as_array().min() >= -1e-5


def test_regret_criterion_can_harm():
    # heterogeneous noise floors let regret balancing push one group past
    # its status quo
    rng = np.random.default_rng(2)
    found = False
    for _ in range(60):
        spec = random_problem_spec(rng, m=2, d=2, separated=True)
        model, frame = _setup(spec)
        rep = solve("mmr", model, frame, spec.radius, CFG)
        if rep.improvement_profile.as_array().min() < -0.1:
            found = True
            break
    assert found


def test_value_monotone_in_ball_with_fixed_frame():
    rng = np.random.default_rng(8)
    for _ in range(10):
        spec = random_problem_spec(rng, m=2, d=2, radius=2.0, separated=True)
        big = type(spec)(groups=spec.groups, radius=4.0)
        frame = population_frame(big)  # one frame for both feasible sets
        model = QuadraticGroupRisks.from_problem_spec(spec)
        lo = solve("ri", model, frame, 2.0, CFG)
        hi = solve("ri", model, frame, 4.0, CFG)
        assert hi.objective_value >= lo.objective_value - 1e-5


def test_solution_unique_across_random_starts(motivating):
    model, frame = _setup(motivating)
    reps = [
        solve("ri", model, frame, motivating.radius, SolverConfig(seed=s))
        for s in (1, 2, 7)
    ]
    for rep in reps[1:]:
        assert np.allclose(rep.parameter, reps[0].parameter, atol=1e-4)


def test_uncertified_when_budget_is_tiny(motivating):
    model, frame = _setup(motivating)
    cfg = SolverConfig(tol=1e-6, max_iters=40, master_iters=1)
    rep = solve("ri", model, frame, motivating.radius, cfg)
    assert not rep.certified(1e-6)
    assert rep.certificate_gap > 1e-6


def test_flat_minimizers_certify_on_criterion_3_specs():
    # solves of the seed-7 no-harm catalogue where no weighted minimizer
    # closes the primal side; only a dual-weighted combination of them does
    rng = np.random.default_rng(7)
    specs = []
    for _ in range(55):
        m = int(rng.integers(2, 5))
        specs.append(random_problem_spec(rng, m=m, d=2, radius=3.0))
    for method, i in (("gdro", 0), ("leximin", 4), ("leximin", 9), ("leximin", 54)):
        model, frame = _setup(specs[i])
        rep = solve(method, model, frame, specs[i].radius)
        assert rep.certified(SolverConfig().tol), (method, i, rep.certificate_gap)


@pytest.mark.parametrize("n_pin", [0, 2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_master_dual_weights_bound_the_recovered_point(seed, n_pin):
    rng = np.random.default_rng(seed)
    m_free = int(rng.integers(2, 5))
    cuts = list(rng.normal(size=(int(rng.integers(3, 12)), m_free + n_pin)))
    _, _, master_val, alpha = _best_weights(cuts, m_free, n_pin, _MU_CAP)
    assert alpha.min() >= 0.0
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
    assert float((alpha @ np.asarray(cuts))[:m_free].max()) <= master_val + 1e-12


def _segment_cut_sets():
    # (intercept, slope) of each cut along the segment: seeded random sets and
    # the degenerate shapes a cutting-plane master meets
    rng = np.random.default_rng(5)
    sets = [rng.normal(size=(int(rng.integers(1, 16)), 2)) for _ in range(300)]
    sets += [
        np.zeros((1, 2)),                                     # the theta = 0 cut alone
        np.array([[0.0, 0.0], [-0.5, 1.0], [0.8, -1.0]]),     # flat optimum on [0.5, 0.8]
        np.array([[0.3, 1.0], [0.3, 1.0], [1.0, -2.0]]),      # duplicate cuts
        np.array([[0.0, 0.5], [0.4, 0.5], [-0.1, 0.5]]),      # parallel rising cuts
        np.array([[0.0, -0.5], [0.4, -0.5], [-0.1, -0.5]]),   # parallel falling cuts
        np.array([[0.0, 1e-13], [0.1, -1e-13], [0.0, 0.0]]),  # slopes near zero
        np.array([[0.2, 1e-300], [0.5, -3.0]]),
        np.array([[0.7, 2.0]]),                               # a single cut
        np.array([[-0.4, -1.0]]),
    ]
    return sets


@pytest.mark.parametrize("m_free,n_pin", [(2, 0), (1, 1)])
def test_segment_master_matches_linprog(m_free, n_pin):
    # the exact envelope walk against HiGHS on one-dimensional masters
    for lines in _segment_cut_sets():
        a, b = lines[:, 0], lines[:, 1]
        # two free groups: cut . (s, 1 - s) = a + b s; one free, one pin: cut . (1, s)
        cuts = np.column_stack([a + b, a] if m_free == 2 else [a, b])
        lam, mu, value, alpha = _best_weights(list(cuts), m_free, n_pin, _MU_CAP)
        _, _, lp_value, _ = _lp_master(list(cuts), m_free, n_pin, _MU_CAP)
        scale = max(1.0, abs(lp_value))
        assert abs(value - lp_value) <= 1e-12 * scale, (lines, value, lp_value)
        assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-15)
        assert len(mu) == n_pin and np.all((0.0 <= mu) & (mu <= _MU_CAP))
        achieved = float((cuts @ np.concatenate([lam, mu])).min())
        assert abs(achieved - lp_value) <= 1e-12 * scale
        assert alpha.min() >= 0.0
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert float((alpha @ cuts)[:m_free].max()) <= value + 1e-12


def test_two_group_solves_certify():
    # every cutting-plane master here is one-dimensional; a master that reads
    # its point off a flat active cut (the theta = 0 cut of ri) fails to certify
    rng = np.random.default_rng(11)
    specs = [random_problem_spec(rng, m=2, d=2, radius=3.0, separated=True) for _ in range(100)]
    rng = np.random.default_rng(7)
    for _ in range(60):
        spec = random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0)
        if len(spec.groups) == 2:
            specs.append(spec)
    for i, spec in enumerate(specs):
        model, frame = _setup(spec)
        for method in ("ri", "leximin", "gdro", "mmv", "mmr"):
            rep = solve(method, model, frame, spec.radius, CFG)
            assert rep.certified(CFG.tol), (i, method, rep.certificate_gap)


def test_nash_degenerate_when_no_common_gain():
    # two groups pulling in exactly opposite directions on a thin ball:
    # any gain for one is a loss for the other
    from fairgain.risk_models import GroupLinearModel, ProblemSpec

    spec = ProblemSpec(
        groups=(
            GroupLinearModel(beta=np.array([1.0]), sigma2=1.0, cov=np.array([[1.0]])),
            GroupLinearModel(beta=np.array([-1.0]), sigma2=1.0, cov=np.array([[1.0]])),
        ),
        radius=0.5,
    )
    model, frame = _setup(spec)
    with pytest.raises(DegenerateBargainError):
        solve_nash(model, frame, spec.radius, CFG)


def test_dispatcher_and_method_list(motivating):
    model, frame = _setup(motivating)
    for method in METHODS:
        rep = solve(method, model, frame, motivating.radius, CFG)
        assert rep.risk_profile.as_array().shape == (2,)
    with pytest.raises(ValueError):
        solve("unknown", model, frame, motivating.radius, CFG)


def test_group_risk_model_matches_population(motivating):
    model = group_risk_model(motivating)
    rng = np.random.default_rng(3)
    thetas = rng.normal(size=(20, 1)) * 3.0
    np.testing.assert_allclose(
        np.array([model.values(t) for t in thetas]),
        population_risks(motivating, thetas),
        atol=1e-10,
    )


def test_logistic_model_solvable():
    rng = np.random.default_rng(6)
    from fairgain.risk_models import GroupedDataset, empirical_frame

    X1 = rng.normal(size=(400, 2))
    X2 = rng.normal(size=(400, 2)) * 1.4 + 0.3
    w = np.array([1.0, -0.6])
    y1 = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-X1 @ w))).astype(float)
    y2 = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-(X2 @ w) - 0.4))).astype(float)
    ds = GroupedDataset(features=(X1, X2), labels=(y1, y2), loss="logistic", radius=4.0)
    frame = empirical_frame(ds)
    model = group_risk_model(ds)
    rep = solve("ri", model, frame, 4.0, CFG)
    rho = rep.improvement_profile.as_array()
    assert rho.min() >= -1e-4
    assert rep.certificate_gap < 1e-4


def test_gradients_match_finite_differences(motivating):
    model, frame = _setup(motivating)
    rng = np.random.default_rng(0)
    h = 1e-6
    for method in ("ri", "gdro", "mmv", "mmr", "nash"):
        checked = 0
        while checked < 25:
            theta = (
                np.array([rng.uniform(0.5, 3.5)])
                if method == "nash"
                else rng.normal(size=1) * 2.0
            )
            val, grad = objective_and_supergradient(method, model, frame, theta)
            num = (
                objective_and_supergradient(method, model, frame, theta + h)[0]
                - objective_and_supergradient(method, model, frame, theta - h)[0]
            ) / (2.0 * h)
            assert abs(num - grad[0]) <= 1e-6 * max(1.0, abs(num))
            checked += 1


def test_seeded_runs_are_deterministic(motivating):
    model, frame = _setup(motivating)
    cfg = SolverConfig(seed=123)
    a = solve("ri", model, frame, motivating.radius, cfg)
    b = solve("ri", model, frame, motivating.radius, cfg)
    assert a.parameter == b.parameter
    assert a.objective_value == b.objective_value


@pytest.mark.parametrize("fixture", ["motivating", "three_group", "planar"])
def test_criterion_value_matches_reported_objective(fixture, request):
    spec = request.getfixturevalue(fixture)
    model, frame = _setup(spec)
    for method in METHODS:
        rep = solve(method, model, frame, spec.radius, CFG)
        value = criterion_value(method, frame, rep.risk_profile.as_array())
        if method == "leximin":
            # the reported objective is the first stage, pinned within 10 * tol
            assert abs(value - rep.objective_value) <= 10.0 * CFG.tol
            continue
        assert value == rep.objective_value
        theta = np.asarray(rep.parameter)
        assert objective_and_supergradient(method, model, frame, theta)[0] == value

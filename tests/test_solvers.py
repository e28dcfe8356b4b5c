"""Continuous solvers: reference solutions, invariants, certificates."""

from __future__ import annotations

import gc
import importlib.util
import itertools
import sys
import types
import weakref

import numpy as np
import pytest
from scipy.optimize import linprog

from fairgain.core import (
    BargainingFrame,
    ConvergenceError,
    DegenerateBargainError,
    DegenerateFrameError,
    criterion_scores,
    criterion_value,
    relative_improvements,
)
from fairgain import cli, risk_models, solvers
from fairgain.risk_models import (
    GroupLinearModel,
    LogisticGroupRisks,
    ProblemSpec,
    population_frame,
    project_ball,
)
from fairgain.solvers import (
    METHODS,
    QuadraticGroupRisks,
    SolverConfig,
    _GameMaster,
    group_risk_model,
    minimax,
    solve,
)
from tests.conftest import (
    LOGISTIC_RADIUS,
    _random_psd,
    assert_oracle_within_certificate,
    centred_risks,
    cube_spec,
    draw_dataset,
    lex_spec,
    motivating_spec,
    objective_and_supergradient,
    planar_spec,
    rank_deficient_spec,
    random_logistic_dataset,
    random_problem_spec,
    three_group_spec,
)

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
    rep = solve("nash", model, frame, motivating.radius, CFG)
    assert rep.parameter[0] == pytest.approx(2.559236, abs=2e-3)
    gains = frame.baseline_array() - rep.risk_profile.as_array()
    assert np.all(gains > 0)
    assert float(np.prod(gains)) == pytest.approx(107.9614, abs=1e-2)


def test_leximin_equals_maximin_with_two_groups(motivating):
    model, frame = _setup(motivating)
    a = solve("ri", model, frame, motivating.radius, CFG)
    b = solve("leximin", model, frame, motivating.radius, CFG)
    assert b.objective_value == pytest.approx(a.objective_value, abs=1e-5)
    assert b.parameter[0] == pytest.approx(a.parameter[0], abs=2e-3)


def test_leximin_lifts_slack_group(three_group):
    model, frame = _setup(three_group)
    base = solve("ri", model, frame, three_group.radius, CFG)
    rep = solve("leximin", model, frame, three_group.radius, CFG)
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


def test_uncertified_when_budget_is_tiny(monkeypatch):
    # spec 14 of the seed-7 stream with m cycling through 2, 3, 4: with four
    # groups over two features no Newton try opens the loop, one round and its
    # tries leave ri's gap at 0.32, and the full budget certifies it. Each solve
    # gets a model built for it, so the ri memo holds no solve made under the
    # other budget
    rng = np.random.default_rng(7)
    spec = [random_problem_spec(rng, m=(2, 3, 4)[i % 3], d=2, radius=3.0) for i in range(15)][14]
    monkeypatch.setattr(solvers, "_MAX_ITERS", 1)
    rep = solve("ri", *_setup(spec), spec.radius, CFG)
    assert not rep.certified(1e-6)
    assert rep.certificate_gap > 1e-6
    monkeypatch.undo()
    assert solve("ri", *_setup(spec), spec.radius, CFG).certified(1e-6)


def test_solver_config_rejects_a_tol_no_gap_can_meet():
    # a NaN tol fails every gap test, so a solve would run its whole budget
    for tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)


@pytest.mark.parametrize("fixture", ["motivating", "three_group"])
def test_certificates_hold_on_a_frame_whose_ideals_are_not_the_balls_minima(fixture, request):
    # the frame's ideals are the minima over the ball of radius 1, and the
    # solves run over the spec's own larger ball, where improvements pass 1
    # and regrets fall below 0: no bound read off the frame holds there (one
    # such bound certified motivating gdro at 15.25, where the grid reaches 11.89)
    spec = request.getfixturevalue(fixture)
    model = QuadraticGroupRisks.from_problem_spec(spec)
    frame = model.frame(1.0)
    methods = ("ri", "leximin", "gdro", "mmv", "mmr")
    reports = {method: solve(method, model, frame, spec.radius, CFG) for method in methods}
    for method, rep in reports.items():
        assert rep.certified(CFG.tol), (method, rep.certificate_gap)
    oracle = cli._oracle_objectives(model, frame, spec.radius, spec.radius / 400, methods)
    for method, value in oracle.items():
        rep = reports[method]
        assert_oracle_within_certificate(method, rep.objective_value, rep.certificate_gap, value)


def test_solve_refuses_a_ball_that_is_not_a_positive_finite_radius(motivating, monkeypatch):
    # without a ball a logistic dual bound is -inf, and no dual bound could
    # set the minimax master's shift; every method refuses before it minimizes
    quadratic = QuadraticGroupRisks.from_problem_spec(motivating)
    logistic = LogisticGroupRisks(*random_logistic_dataset(np.random.default_rng(0)))
    for model in (quadratic, logistic):
        frame, calls = model.frame(3.0), []
        monkeypatch.setattr(model, "minimize", lambda w, radius: calls.append(radius))
        for ball in (None, np.inf, -np.inf, np.nan, 0.0, -1.0):
            for method in METHODS:
                with pytest.raises(ValueError, match="ball"):
                    solve(method, model, frame, ball, CFG)
        assert calls == []


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


def _reference_master(cuts: np.ndarray, m_free: int, n_pin: int) -> tuple[float, float] | None:
    """HiGHS's bracket on the cutting-plane master; None when mu is unbounded.

    The master is max t over lam on the simplex and mu >= 0 subject to
    t <= cut_i . (lam, mu). The worst cut at HiGHS's multipliers is the lower
    end and the worst free group under its dual weights on the cuts the upper
    end; even at HiGHS's tightest tolerances and without presolve the two sit
    up to about 5e-11 apart on cuts 1e-9 apart, so its value alone is no
    reference at 1e-12.
    """
    n = m_free + n_pin
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :m_free] = 1.0
    res = linprog(
        cost,
        A_ub=np.column_stack([-cuts, np.ones(len(cuts))]),
        b_ub=np.zeros(len(cuts)),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=[(0.0, None)] * n + [(None, None)],
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
            "presolve": False,
        },
    )
    if res.status == 3:
        return None
    assert res.success, res.message
    lam = np.maximum(res.x[:m_free], 0.0)
    x = np.concatenate([lam / lam.sum(), np.maximum(res.x[m_free:n], 0.0)])
    alpha = np.maximum(-res.ineqlin.marginals, 0.0)
    alpha /= alpha.sum()
    return float((cuts @ x).min()), float((alpha @ cuts)[:m_free].max())


def _master(m_free: int, n_pin: int, cuts: np.ndarray) -> _GameMaster:
    # the worst free entry bounds the master value from below (mu = 0 and any lam)
    return _GameMaster(m_free, n_pin, float(cuts[:, :m_free].min()))


def _master_value(cuts: np.ndarray, lam: np.ndarray, mu: np.ndarray) -> float:
    # the master value at the returned weights, min_i cut_i . (lam, mu)
    return float((cuts @ np.concatenate([lam, mu])).min())


def _check_master(picked, cuts: np.ndarray, m_free: int, n_pin: int, reference) -> None:
    assert (picked is None) == (reference is None), (cuts, picked, reference)
    if picked is None:
        return
    lam, mu, alpha = picked
    low, high = reference
    scale = max(1.0, abs(low))
    assert lam.min() >= 0.0 and lam.sum() == pytest.approx(1.0, abs=1e-15)
    assert len(mu) == n_pin and np.all(mu >= 0.0)
    value = _master_value(cuts, lam, mu)
    assert low - 1e-12 * scale <= value <= high + 1e-12 * scale, (cuts, value, reference)
    assert alpha.min() >= 0.0
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
    # the dual weights meet every pin, so their worst free group bounds the master
    assert float((alpha @ cuts)[m_free:].max(initial=0.0)) <= 1e-12
    assert float((alpha @ cuts)[:m_free].max()) <= value + 1e-12


@pytest.mark.parametrize("n_pin", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_master_dual_weights_bound_the_recovered_point(seed, n_pin):
    # cuts arrive a few at a time as in the cutting-plane loop, so every solve
    # after the first starts from the last basis; a recovered point's cut
    # repeats a stored one up to 1e-9, which brings bases close to singular
    rng = np.random.default_rng(seed)
    for m_free in range(1, 5):
        n = m_free + n_pin
        cuts = rng.normal(size=(int(rng.integers(3, 12)), n))
        twins = cuts[rng.integers(0, len(cuts), size=4)]
        twins += 1e-9 * rng.choice([-1.0, 1.0], size=twins.shape)
        cuts = np.concatenate([cuts, twins])[rng.permutation(len(cuts) + 4)]
        master = _master(m_free, n_pin, cuts)
        for k in [*range(3, len(cuts), 3), len(cuts)]:
            reference = _reference_master(cuts[:k], m_free, n_pin)
            picked = master.solve(list(cuts[:k]))
            _check_master(picked, cuts[:k], m_free, n_pin, reference)


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
    # masters whose multipliers form a segment, against HiGHS; with one pin, a
    # set where every cut rises along mu (every stored point violates the pin)
    # leaves mu unbounded, and both report that
    for lines in _segment_cut_sets():
        a, b = lines[:, 0], lines[:, 1]
        # two free groups: cut . (s, 1 - s) = a + b s; one free, one pin: cut . (1, s)
        cuts = np.column_stack([a + b, a] if m_free == 2 else [a, b])
        picked = _master(m_free, n_pin, cuts).solve(list(cuts))
        _check_master(picked, cuts, m_free, n_pin, _reference_master(cuts, m_free, n_pin))


def test_master_solves_of_mmr_on_a_logistic_dataset_match_highs(monkeypatch):
    # every master solve of the mmr loop on a four-group, two-feature logistic
    # dataset returns HiGHS's optimum; with more groups than d + 1 no Newton try
    # opens the loop, so the master runs (4 solves, each within HiGHS's bracket
    # here, although the warm tableau carries rounding from solve to solve)
    real, calls = _GameMaster.solve, []

    def spy(self, cuts):
        picked = real(self, cuts)
        calls.append((np.array(cuts), picked, self.m_free, len(self.warm[0])))
        return picked

    monkeypatch.setattr(_GameMaster, "solve", spy)
    model = LogisticGroupRisks(*random_logistic_dataset(np.random.default_rng(0), m=4, d=2))
    solve("mmr", model, model.frame(LOGISTIC_RADIUS), LOGISTIC_RADIUS, CFG)
    assert calls
    for cuts, (lam, mu, alpha), m_free, n in calls:
        low, high = _reference_master(cuts, m_free, n - m_free)
        value = _master_value(cuts, lam, mu)
        assert low - 1e-11 <= value <= high + 1e-11, (value, low, high)
        assert float((alpha @ cuts)[:m_free].max()) <= value + 1e-9


def _witness_draws() -> dict[int, object]:
    # the rank-deficient draws (seed 123, counting None draws) where the
    # master with a fresh basis inverse per pivot stopped a worst-group solve
    # uncertified
    draws = np.random.default_rng(123)
    specs = [rank_deficient_spec(draws) for _ in range(270)]
    return {k: specs[k] for k in (9, 19, 41, 47, 54, 106, 134, 219, 250, 269)}


def test_every_master_solve_agrees_with_highs_on_the_witness_draws(monkeypatch):
    # each master solve of ri, gdro, mmv and mmr on the witness draws and the
    # other draws among the stream's first 60, and of mmr on the four-group
    # logistic dataset above, lies within 1e-8 of HiGHS's bracket and returns
    # None only where mu is unbounded (the Newton endgame leaves the witnesses
    # alone under 500 solves)
    real, calls = _GameMaster.solve, []

    def spy(self, cuts):
        picked = real(self, cuts)
        calls.append((np.array(cuts), picked, self.m_free, len(self.warm[0])))
        return picked

    monkeypatch.setattr(_GameMaster, "solve", spy)
    model = LogisticGroupRisks(*random_logistic_dataset(np.random.default_rng(0), m=4, d=2))
    solve("mmr", model, model.frame(LOGISTIC_RADIUS), LOGISTIC_RADIUS, CFG)
    witnesses, draws = _witness_draws(), np.random.default_rng(123)
    others = [rank_deficient_spec(draws) for _ in range(60)]
    others = [spec for k, spec in enumerate(others) if spec is not None and k not in witnesses]
    for spec in [*witnesses.values(), *others]:
        model, frame = _setup(spec)
        for method in ("ri", "gdro", "mmv", "mmr"):
            solve(method, model, frame, spec.radius, CFG)
    assert len(calls) > 1000
    for cuts, picked, m_free, n in calls:
        reference = _reference_master(cuts, m_free, n - m_free)
        assert (picked is None) == (reference is None), (cuts, picked, reference)
        if picked is not None:
            low, high = reference
            scale = max(1.0, abs(low))
            value = _master_value(cuts, *picked[:2])
            assert low - 1e-8 * scale <= value <= high + 1e-8 * scale, (value, reference)


def test_worst_group_solves_certify_on_the_master_witnesses():
    # the rank-deficient witness draws and the criterion-3 specs (seed 7) where
    # the master with a fresh basis inverse per pivot left worst-group solves
    # uncertified; leximin's own witnesses follow
    specs = list(_witness_draws().items())
    rng = np.random.default_rng(7)
    c3 = [random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0) for _ in range(169)]
    specs += [(f"c3-{i}", c3[i]) for i in (92, 101, 121, 123, 140, 153, 168)]
    for k, spec in specs:
        model, frame = _setup(spec)
        for method in ("ri", "gdro", "mmv", "mmr"):
            rep = solve(method, model, frame, spec.radius, CFG)
            assert rep.certified(CFG.tol), (k, method, rep.certificate_gap)


def test_a_master_out_of_pivots_stops_the_minimax_with_a_sound_report(monkeypatch):
    # the second draw of the many-group seeding 100 + 7m + d at m = d = 32:
    # under mmv the master's simplex runs out of pivots at 40 cuts, and the
    # loop stops on the master's None with what the dual evaluations certified
    real, outcomes = _GameMaster._pivot, []

    def spy(self, basis, tableau):
        found = real(self, basis, tableau)
        outcomes.append(found is None)
        return found

    monkeypatch.setattr(_GameMaster, "_pivot", spy)
    rng = np.random.default_rng(100 + 7 * 32 + 32)
    random_problem_spec(rng, m=32, d=32, radius=3.0)
    spec = random_problem_spec(rng, m=32, d=32, radius=3.0)
    model, frame = _setup(spec)
    rep = solve("mmv", model, frame, spec.radius, CFG)
    assert any(outcomes)
    assert np.linalg.norm(rep.parameter) <= spec.radius
    assert rep.objective_value == criterion_value("mmv", frame, rep.risk_profile.as_array())
    # the bench gate's soundness check: the certified bound beats every other method's point
    bound = rep.objective_value + rep.certificate_gap
    for method in ("ri", "gdro", "mmr"):
        theta = np.asarray(solve(method, model, frame, spec.radius, CFG).parameter)
        assert criterion_value("mmv", frame, model.values(theta)) <= bound, method


def test_leximin_certifies_where_a_warm_point_on_a_pin_stalled():
    # criterion-3 specs (seed 7), rank-deficient draw 490 (counting None draws)
    # and spec 72 of the seed-5 stream with m in 2-5 and d in 1-4, where a
    # pinned stage starting warm from a point on an earlier pin's cap stopped
    # uncertified
    rng = np.random.default_rng(7)
    c3 = [random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0) for _ in range(968)]
    specs = [c3[i] for i in (75, 91, 335, 351, 360, 474, 516, 550, 608, 636, 674, 809, 943, 967)]
    draws = np.random.default_rng(123)
    specs.append([rank_deficient_spec(draws) for _ in range(491)][490])
    rng = np.random.default_rng(5)
    for _ in range(73):
        m, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        spec = random_problem_spec(rng, m=m, d=d)
    specs.append(spec)
    # spec 86 of the seed-7 stream with m cycling through 2, 3, 4, where the
    # cutting plane alone stopped leximin at gap 0.037 after 62 evaluations
    rng = np.random.default_rng(7)
    cycled = [random_problem_spec(rng, m=(2, 3, 4)[i % 3], d=2, radius=3.0) for i in range(87)]
    specs.append(cycled[86])
    for k, spec in enumerate(specs):
        model, frame = _setup(spec)
        rep = solve("leximin", model, frame, spec.radius, CFG)
        assert rep.certified(CFG.tol), (k, rep.certificate_gap)


def test_leximin_goes_on_where_the_master_stalls_below_the_lower_bound_or_at_the_floor():
    # two rank-deficient draws of the seed-123 stream, where a stop on the
    # master's saturation once ended leximin uncertified (gaps 0.13 and
    # 6.4e-6). Draw 603 (counting None draws) with its risks scaled by
    # 1 + 2^-52: the last stage's first master solve returned an a priori
    # floor, -1.0, while the lower bound was still that floor. The 866th draw
    # that is not None: the endgame lifted the last stage's lower bound above
    # the first master value
    draws = np.random.default_rng(123)
    specs = [rank_deficient_spec(draws) for _ in range(1000)]
    base = QuadraticGroupRisks.from_problem_spec(specs[603])
    scale = 1.0 + 2.0**-52
    scaled = QuadraticGroupRisks(base.A * scale, base.c * scale, base.k * scale)
    spec = [s for s in specs if s is not None][865]
    cases = ((scaled, specs[603].radius), (QuadraticGroupRisks.from_problem_spec(spec), spec.radius))
    for model, radius in cases:
        rep = solve("leximin", model, model.frame(radius), radius, CFG)
        assert rep.certified(CFG.tol), rep.certificate_gap


def test_one_feature_two_group_ri_solves_certify_without_a_master_solve(monkeypatch):
    # the convergence study's shape: two groups, one feature, sampled moments,
    # plus the population spec of the convergence benchmark's second study.
    # The cutting plane alone took 11-13 evaluations on 18 of the draws; the
    # KKT Newton try at the uniform dual evaluation closes both bounds before
    # any master round, so each solve counts theta = 0, that evaluation and
    # the try's, and builds no master at all. On the study's spec the try
    # passes through weights (6.5, -5.5) on its way to (0.91, 0.09): a try
    # dropped for a negative weight would leave the work to the master
    real, real_init, calls, built = _GameMaster.solve, _GameMaster.__init__, [], []

    def spy(self, cuts):
        calls.append(len(cuts))
        return real(self, cuts)

    def init_spy(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(_GameMaster, "solve", spy)
    monkeypatch.setattr(_GameMaster, "__init__", init_spy)
    groups = tuple(
        GroupLinearModel(beta=np.array([b]), sigma2=s, cov=np.eye(1))
        for b, s in ((5.1, 9.15), (0.52, 9.86))
    )
    study = ProblemSpec(groups=groups, radius=10.0)
    cases = [(*_setup(study), study.radius)]
    rng = np.random.default_rng(3)
    while len(cases) < 21:
        betas, sigma2 = rng.uniform(0.5, 8.0, 2), rng.uniform(0.5, 10.0, 2)
        groups = tuple(
            GroupLinearModel(beta=np.array([b]), sigma2=float(s), cov=np.eye(1))
            for b, s in zip(betas, sigma2)
        )
        spec = ProblemSpec(groups=groups, radius=10.0)
        model = risk_models.draw_moments(spec, int(rng.choice([100, 400, 1600, 6400, 25600])), rng)
        try:
            cases.append((model, model.frame(spec.radius), spec.radius))
        except DegenerateFrameError:
            continue
    for k, (model, frame, radius) in enumerate(cases):
        rep = solve("ri", model, frame, radius, CFG)
        assert rep.certified(CFG.tol), (k, rep.certificate_gap)
        assert rep.iterations <= 3, (k, rep.iterations)
        assert not calls, (k, calls)
        assert not built, (k, built)


def test_kkt_newton_takes_the_sphere_on_once_a_step_leaves_the_ball():
    # R_g = |theta - beta_g|^2 with beta (4, 0) and (0, 6): the two tie on the
    # line 2 theta_1 - 3 theta_2 + 5 = 0, whose closest point, (2, 3), lies
    # outside the ball of radius 2. From theta = 0, inside the ball, the steps
    # must bring the sphere's row in and end on the sphere with the groups
    # tied; projecting (2, 3) onto the sphere would leave them 8.9 apart
    beta = np.array([[4.0, 0.0], [0.0, 6.0]])
    model = QuadraticGroupRisks(np.stack([np.eye(2)] * 2), beta, (beta**2).sum(axis=1))
    shifts, scales, theta = np.zeros(2), np.ones(2), np.zeros(2)
    f = model.values(theta)
    out = solvers._kkt_newton(
        model, shifts, scales, theta, float(f.max()), np.array([0.5, 0.5]),
        np.array([0, 1]), 2, np.array([]), 2.0,
    )
    assert out is not None
    point, y = out
    risks = model.values(point)
    assert abs(float(np.linalg.norm(point)) - 2.0) <= 1e-9, point
    assert abs(float(risks[0] - risks[1])) <= 1e-9, risks
    assert np.all(y >= 0.0) and abs(float(y.sum()) - 1.0) <= 1e-9, y


def test_kkt_newton_bounds_are_sound_and_its_accepted_points_feasible(monkeypatch):
    # the weights of every dual evaluation an endgame makes form a dual point
    # (free weights on the simplex in normalized units, pin weights >= 0), and
    # the bound they give is at most the upper bound its minimax reports, up to
    # the rounding of its terms; every Newton point lies in the ball, and one the
    # minimax returns meets each pin within _FEAS_TOL (40 criterion-3 specs and
    # 40 rank-deficient draws)
    real_minimax, real_newton = solvers._dual_minimax, solvers._kkt_newton
    real_minimize = QuadraticGroupRisks.minimize
    calls: list[list] = []
    dual_next = []
    seen = {"bounds": 0, "pinned": 0, "accepted": 0}

    def newton(model, shifts, scales, theta, t, y, idx, n_free, caps, ball):
        out = real_newton(model, shifts, scales, theta, t, y, idx, n_free, caps, ball)
        if out is not None:
            calls[-1].append(("point", out[0]))
        # the endgame evaluates the dual next unless it dropped the try or no
        # free weight survives clipping
        dual_next.append(out is not None and np.maximum(out[1][:n_free], 0.0).sum() > 0.0)
        return out

    def minimize(self, w, radius):
        out = real_minimize(self, w, radius)
        if dual_next and dual_next.pop():
            calls[-1].append(("bound", np.asarray(w, dtype=float), out[2]))
        return out

    def minimax(model, shifts, scales, ball, cfg, warm=(), pin_idx=None, pin_caps=None, opening=None):
        calls.append([])
        out = real_minimax(model, shifts, scales, ball, cfg, warm, pin_idx, pin_caps, opening)
        theta, hi = out[:2]
        pins = np.array([] if pin_idx is None else pin_idx, dtype=int)
        caps = np.array([] if pin_caps is None else pin_caps, dtype=float)
        free = np.setdiff1d(np.arange(model.num_groups), pins)
        for kind, *rest in calls.pop():
            if kind == "point":
                assert np.linalg.norm(rest[0]) <= ball * (1.0 + 1e-12)
                if rest[0] is theta:
                    f = (model.values(theta) - shifts) / scales
                    assert np.all(f[pins] - caps <= solvers._FEAS_TOL), (f[pins] - caps)
                    seen["accepted"] += 1
                continue
            w, lower = rest
            assert np.all(w >= 0.0) and abs(float(w[free] @ scales[free]) - 1.0) <= 1e-12, w
            const = -float(w[free] @ shifts[free]) - float(w[pins] @ (shifts[pins] + scales[pins] * caps))
            # the bound as the minimax takes it: the caps raised by _FEAS_TOL, the
            # slack its incumbent may take, and the sum's rounding taken off
            const -= solvers._FEAS_TOL * float(w[pins] @ scales[pins])
            bound = lower + const - 128.0 * solvers._EPS * (abs(lower) + abs(const))
            assert bound <= hi, (bound, hi)
            seen["bounds"] += 1
            seen["pinned"] += len(pins) > 0
        return out

    monkeypatch.setattr(solvers, "_dual_minimax", minimax)
    monkeypatch.setattr(solvers, "_kkt_newton", newton)
    monkeypatch.setattr(QuadraticGroupRisks, "minimize", minimize)
    rng = np.random.default_rng(7)
    specs = [random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0) for _ in range(40)]
    draws = np.random.default_rng(123)
    while len(specs) < 80:
        spec = rank_deficient_spec(draws)
        if spec is not None:
            specs.append(spec)
    for spec in specs:
        model, frame = _setup(spec)
        for method in ("ri", "leximin", "gdro", "mmv", "mmr"):
            solve(method, model, frame, spec.radius, CFG)
    assert not calls and not dual_next
    # 490 bounds, 45 of them in pinned stages, and 278 returned Newton points
    assert seen["bounds"] > 300 and seen["pinned"] > 30 and seen["accepted"] > 150, seen


def _in_ball(report, radius: float) -> bool:
    # a weighted minimizer meets the sphere only to the ball solve's
    # tolerance; a report is its projection, which rounds by a few ulps at most
    return float(np.linalg.norm(report.parameter)) <= radius * (1.0 + 4.0 * solvers._EPS)


def test_two_group_solves_certify():
    # every solve of the seed-11 two-group specs and of the first 60 no-harm
    # specs certifies; a master that reads its point off a flat active cut
    # (the theta = 0 cut of ri) fails here, and so does a simplex master that
    # keeps its 1e-12 reduced-cost tolerance on near-singular bases, where it
    # cycles (no-harm spec 17 mmr among ten solves). nash refuses 12 no-harm
    # specs, each where the ri certificate shows that no point gains for all
    rng = np.random.default_rng(11)
    specs = [random_problem_spec(rng, m=2, d=2, radius=3.0, separated=True) for _ in range(100)]
    rng = np.random.default_rng(7)
    specs += [
        random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0) for _ in range(60)
    ]
    # nash's Newton from the ri point takes at most 7 steps here, and its
    # iterations (the steps and one weighted minimization) sum to 660
    refused = []
    for i, spec in enumerate(specs):
        model, frame = _setup(spec)
        for method in METHODS:
            try:
                rep = solve(method, model, frame, spec.radius, CFG)
            except DegenerateBargainError:
                assert method == "nash", (i, method)
                assert ri.objective_value + ri.certificate_gap <= CFG.tol, i
                refused.append(i)
                continue
            assert rep.certified(CFG.tol), (i, method, rep.certificate_gap)
            assert _in_ball(rep, spec.radius), (i, method)
            if method == "ri":
                ri = rep
            if method == "nash":
                assert rep.iterations <= 10, (i, rep.iterations)
    assert len(refused) == 12 and min(refused) >= 100


# criterion-3 draws (seed 7, d = 2) with four groups where no point improves
# every group: all four tie at 0 at theta = 0, a vertex with more ties than d + 1
_DEGENERATE_VERTICES = (13, 17, 31, 38, 41, 80, 82, 85, 101, 129, 133, 165, 177, 181)


def _criterion_3_specs(n: int) -> list:
    rng = np.random.default_rng(7)
    return [random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0) for _ in range(n)]


def test_worst_group_solves_close_fast_at_a_degenerate_vertex():
    # the endgame's first d + 1 tied groups can carry a negative multiplier
    # there; moving on to the next choice of them closed these in 8-9
    # evaluations, where keeping the first took 26-39
    specs = _criterion_3_specs(182)
    for i in _DEGENERATE_VERTICES:
        assert len(specs[i].groups) == 4, i
        model, frame = _setup(specs[i])
        for method in ("ri", "mmv"):
            rep = solve(method, model, frame, specs[i].radius, CFG)
            assert rep.objective_value == 0.0, (i, method, rep.objective_value)
            assert rep.certified(CFG.tol), (i, method, rep.certificate_gap)
            assert rep.iterations <= 12, (i, method, rep.iterations)


def test_nash_refuses_from_the_ri_certificate_in_either_order(monkeypatch):
    # at a degenerate vertex the ri solve's lower bound already shows that no
    # point gains above tol, so nash after ri refuses without a weighted
    # minimization of its own; alone, it refuses just the same
    specs = _criterion_3_specs(182)
    message = "no point gives every group a gain: every worst improvement is <= 1.0e-06"
    real_minimize = QuadraticGroupRisks.minimize
    calls = []

    def minimize(self, w, radius):
        calls.append(w)
        return real_minimize(self, w, radius)

    for i in _DEGENERATE_VERTICES:
        model, frame = _setup(specs[i])
        with pytest.raises(DegenerateBargainError) as alone:
            solve("nash", model, frame, specs[i].radius, CFG)
        assert str(alone.value) == message, i
        model, frame = _setup(specs[i])
        solve("ri", model, frame, specs[i].radius, CFG)
        calls.clear()
        with monkeypatch.context() as patch, pytest.raises(DegenerateBargainError) as after:
            patch.setattr(QuadraticGroupRisks, "minimize", minimize)
            solve("nash", model, frame, specs[i].radius, CFG)
        assert str(after.value) == message, i
        assert not calls, (i, len(calls))
    # where every group can gain, nash's report does not depend on whether ri ran first
    for i in (0, 1, 4, 5):
        model, frame = _setup(specs[i])
        alone = solve("nash", model, frame, specs[i].radius, CFG)
        model, frame = _setup(specs[i])
        solve("ri", model, frame, specs[i].radius, CFG)
        after = solve("nash", model, frame, specs[i].radius, CFG)
        assert alone.certified(CFG.tol) and repr(alone) == repr(after), i


def test_nash_certificate_holds_against_a_solve_from_a_moved_start(monkeypatch):
    # criterion-3 spec 148: from the ri point moved by 1e-9 to 1e-6, nash stops
    # up to 2.8e-11 below its solve from the ri point itself, where rounding
    # hides any rise in phi; h = w . b - lower cancels there (w . b is 2.8e5,
    # h is 2), and without a rounding allowance every such stop reported 0.0
    spec = _criterion_3_specs(149)[148]
    model, frame = _setup(spec)
    reference = solve("nash", model, frame, spec.radius, CFG)
    ri_minimax = solvers._ri_minimax
    theta, hi, lo, evals, weights = ri_minimax("ri", model, frame, spec.radius, CFG)
    for size, axis in itertools.product((1e-9, 1e-8, 1e-7, 1e-6), (0, 1)):
        for sign in (1.0, -1.0):
            moved = theta + sign * size * np.eye(2)[axis]
            monkeypatch.setattr(solvers, "_ri_minimax", lambda *args: (moved, hi, lo, evals, weights))
            rep = solve("nash", model, frame, spec.radius, CFG)
            assert rep.certified(CFG.tol), (size, axis, sign, rep.certificate_gap)
            assert rep.objective_value + rep.certificate_gap >= reference.objective_value, (size, axis, sign)
            assert reference.objective_value + reference.certificate_gap >= rep.objective_value, (size, axis, sign)


def test_nash_takes_its_certificate_once_at_its_stationary_point(monkeypatch):
    # after ri, nash climbs by Newton steps alone and makes one weighted
    # minimization, at w = 1/gains of its last point; iterations counts the
    # steps and that minimization
    real_minimize, real_newton = QuadraticGroupRisks.minimize, solvers.newton_ball
    calls, steps = [], []

    def minimize(self, w, radius):
        calls.append(np.asarray(w, dtype=float))
        return real_minimize(self, w, radius)

    def newton_ball(*args):
        out = real_newton(*args)
        steps.append(out[3])
        return out

    certified = 0
    for i, spec in enumerate(_criterion_3_specs(60)):
        model, frame = _setup(spec)
        solve("ri", model, frame, spec.radius, CFG)
        calls.clear()
        steps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(QuadraticGroupRisks, "minimize", minimize)
            patch.setattr(solvers, "newton_ball", newton_ball)
            try:
                rep = solve("nash", model, frame, spec.radius, CFG)
            except DegenerateBargainError:
                assert not calls and not steps, i
                continue
        gains = frame.baseline_array() - model.values(np.array(rep.parameter))
        assert len(calls) == 1 and calls[0].tobytes() == (1.0 / gains).tobytes(), i
        assert rep.iterations == steps[0] + 1 and rep.certified(CFG.tol), (i, rep.certificate_gap)
        certified += 1
    assert certified >= 30, certified


@pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
@pytest.mark.parametrize("make", [motivating_spec, planar_spec, three_group_spec])
def test_nash_certifies_whatever_the_parameters_scale(make, scale):
    # betas, ball and noise scaled together by s move every gain's log by the
    # same 2 log s, so nash's point scales by s and its gap stays put. Run in
    # theta units, newton_ball's 1e-8 stop would meet the ri start at s = 1e8
    # (gap 0.2) and stop short at 1e6 (gaps up to 5e-5)
    spec = make()
    groups = [GroupLinearModel(beta=g.beta * scale, sigma2=g.sigma2 * scale**2, cov=g.cov) for g in spec.groups]
    scaled = ProblemSpec(groups=tuple(groups), radius=spec.radius * scale)
    model, frame = _setup(spec)
    reference = solve("nash", model, frame, spec.radius, CFG)
    model, frame = _setup(scaled)
    rep = solve("nash", model, frame, scaled.radius, CFG)
    assert rep.certified(CFG.tol), rep.certificate_gap
    assert rep.objective_value == pytest.approx(reference.objective_value + frame.num_groups * 2.0 * np.log(scale), abs=1e-8)
    np.testing.assert_allclose(np.array(rep.parameter) / scale, reference.parameter, rtol=0.0, atol=1e-5)


def test_nash_budget_stop_without_a_positive_point_is_a_convergence_error(monkeypatch):
    # on no-harm spec 9 two rounds leave the ri solve short of its bound, at a
    # point where some group loses: nash has no start with every gain positive
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0)
    model, frame = _setup(spec)
    with monkeypatch.context() as patch, pytest.raises(ConvergenceError):
        patch.setattr(solvers, "_MAX_ITERS", 2)
        solve("nash", model, frame, spec.radius, CFG)
    # the ri memo is keyed by the model's identity: a fresh model solves ri anew
    model, frame = _setup(spec)
    assert solve("nash", model, frame, spec.radius, CFG).certified(CFG.tol)


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
        solve("nash", model, frame, spec.radius, CFG)
    # a slight shared direction gives both a gain (best worst relative
    # improvement 1.2e-5, 12 tol), which nash must certify instead of refusing
    spec = ProblemSpec(
        groups=(
            GroupLinearModel(beta=np.array([1.0, 0.003]), sigma2=1.0, cov=np.eye(2)),
            GroupLinearModel(beta=np.array([-1.0, 0.003]), sigma2=1.0, cov=np.eye(2)),
        ),
        radius=0.5,
    )
    model, frame = _setup(spec)
    assert solve("nash", model, frame, spec.radius, CFG).certified(CFG.tol)


def test_dispatcher_and_method_list(motivating):
    model, frame = _setup(motivating)
    for method in METHODS:
        rep = solve(method, model, frame, motivating.radius, CFG)
        assert rep.risk_profile.as_array().shape == (2,)
    with pytest.raises(ValueError):
        solve("unknown", model, frame, motivating.radius, CFG)


def test_group_risk_model_matches_population(motivating, planar):
    rng = np.random.default_rng(3)
    for spec in (motivating, planar):
        model = group_risk_model(spec)
        thetas = rng.normal(size=(20, spec.dim)) * 3.0
        reference = centred_risks(spec, thetas)
        np.testing.assert_allclose(np.array([model.values(t) for t in thetas]), reference, atol=1e-10)
        np.testing.assert_allclose(model.values(thetas), reference, atol=1e-10)


def test_logistic_model_solvable():
    rng = np.random.default_rng(6)
    X1 = rng.normal(size=(400, 2))
    X2 = rng.normal(size=(400, 2)) * 1.4 + 0.3
    w = np.array([1.0, -0.6])
    y1 = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-X1 @ w))).astype(float)
    y2 = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-(X2 @ w) - 0.4))).astype(float)
    model = LogisticGroupRisks((X1, X2), (y1, y2))
    frame = model.frame(4.0)
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


def _seeded_specs() -> list[ProblemSpec]:
    """The first 30 criterion-3 specs (seed 7) and the first 30 rank-deficient draws (seed 123)."""
    rng = np.random.default_rng(7)
    specs = [random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0) for _ in range(30)]
    draws = np.random.default_rng(123)
    drawn = (rank_deficient_spec(draws) for _ in itertools.count())
    return specs + list(itertools.islice(filter(None, drawn), 30))


@pytest.mark.parametrize("fixture", ["motivating", "three_group", "planar", "seeded"])
def test_criterion_value_matches_reported_objective(fixture, request):
    # every report reads its objective and improvements off its clamped risks
    specs = _seeded_specs() if fixture == "seeded" else [request.getfixturevalue(fixture)]
    for i, spec in enumerate(specs):
        model, frame = _setup(spec)
        for method in METHODS:
            try:
                rep = solve(method, model, frame, spec.radius, CFG)
            except DegenerateBargainError:
                assert method == "nash", (i, method)
                continue
            risks = rep.risk_profile.as_array()
            value = criterion_value(method, frame, risks)
            assert value == rep.objective_value, (i, method)
            assert rep.improvement_profile.rhos == tuple(relative_improvements(risks, frame))
            if method == "leximin":
                continue
            theta = np.asarray(rep.parameter)
            assert objective_and_supergradient(method, model, frame, theta)[0] == value


def test_leximin_reports_the_objective_at_its_point():
    # the later stages may give up part of the pin band below the first
    # stage's value; the report reads the point and the gap covers the band
    rng = np.random.default_rng(7)
    for i in range(60):
        spec = random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0)
        model, frame = _setup(spec)
        ri = solve("ri", model, frame, spec.radius, CFG)
        rep = solve("leximin", model, frame, spec.radius, CFG)
        assert rep.objective_value == float(rep.improvement_profile.as_array().min()), i
        assert rep.objective_value + rep.certificate_gap >= ri.objective_value, i
        assert rep.certified(1e-6), (i, rep.certificate_gap)


def test_leximin_stages_start_feasible_and_each_pins_a_group(monkeypatch, three_group):
    # three_group_spec, criterion-3 specs 92, 140 and 176 and rank-deficient
    # draws 47, 134 and 290 (counting None draws), where the ri master or a
    # later stage's master stops early
    rng = np.random.default_rng(7)
    c3 = [random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0) for _ in range(177)]
    draws = np.random.default_rng(123)
    rd = [rank_deficient_spec(draws) for _ in range(291)]
    specs = [three_group, c3[92], c3[140], c3[176], rd[47], rd[134], rd[290]]
    real, calls = solvers._dual_minimax, []

    def spy(model, shifts, scales, ball, cfg, warm=(), pin_idx=None, pin_caps=None, opening=None):
        if pin_idx is not None and len(pin_idx):
            # stage k's warm point, stage k-1's, clears every pin by band * 2**-k
            # less the feasibility tolerance it met stage k-1's caps to; stage 0
            # has no pin, nor a warm point
            f = (model.values(warm[0]) - shifts) / scales
            margin = cfg.tol / 4.0 * 0.5 ** len(calls)
            assert np.all(f[pin_idx] - pin_caps <= solvers._FEAS_TOL - margin), pin_idx
        out = real(model, shifts, scales, ball, cfg, warm, pin_idx, pin_caps, opening)
        calls.append((pin_idx, out))
        return out

    monkeypatch.setattr(solvers, "_dual_minimax", spy)
    for k, spec in enumerate(specs):
        model, frame = _setup(spec)
        ri = solve("ri", model, frame, spec.radius, CFG)
        calls.clear()
        # leximin on the ri model would reuse the memoized ri solve as its stage
        # 0; a fresh model makes the spy see stage 0 run again
        fresh, _ = _setup(spec)
        solve("leximin", fresh, frame, spec.radius, CFG)
        theta, hi, lo, evals, _ = calls[0][1]
        first = (tuple(theta), -hi + 0.0, hi - lo, evals)
        assert first == (ri.parameter, ri.objective_value, ri.certificate_gap, ri.iterations), k
        # stage 0 runs through the ri solve, which passes no pins at all
        pinned = [set(() if pin_idx is None else pin_idx.tolist()) for pin_idx, _ in calls]
        assert not pinned[0] and all(a < b for a, b in zip(pinned, pinned[1:])), k
        assert len(calls) <= frame.num_groups, k


def _master_rounds(monkeypatch) -> list:
    real, rounds = _GameMaster.solve, []

    def spy(self, cuts):
        rounds.append(1)
        return real(self, cuts)

    monkeypatch.setattr(_GameMaster, "solve", spy)
    return rounds


def test_pinned_leximin_stages_open_without_crawling_through_master_rounds(monkeypatch):
    # the first 25 criterion-3 specs, ri then leximin: opened with the pins'
    # multipliers at 0, pinned stages took 113 master rounds in all, 16, 15, 21,
    # 15, 10, 14 and 18 on specs 1, 4, 5, 8, 9, 12 and 14; opened from the
    # previous stage's weights they take 6, and specs 5 and 14 take one each in
    # their last stage, whose three pins in d = 2 leave no tangent space
    rounds = _master_rounds(monkeypatch)
    per_spec = []
    for i, spec in enumerate(_criterion_3_specs(25)):
        model, frame = _setup(spec)
        solve("ri", model, frame, spec.radius, CFG)
        rounds.clear()
        rep = solve("leximin", model, frame, spec.radius, CFG)
        assert rep.certified(CFG.tol), (i, rep.certificate_gap)
        per_spec.append(len(rounds))
    assert sum(per_spec) <= 60, per_spec
    assert not any(per_spec[i] for i in (1, 4, 8, 9, 12)), per_spec
    assert per_spec[5] <= 1 and per_spec[14] <= 1, per_spec


def test_reported_lower_bounds_are_the_dual_values_at_the_returned_weights(monkeypatch):
    # every minimax returns the weights behind its lower bound: one weighted
    # minimization there, with the constant and the 128-ulp allowance formed
    # as the solve forms them, gives the reported bound bit for bit (or the
    # upper bound, where rounding lifts the dual value above it); for ri, gdro,
    # mmv, mmr and every leximin stage on 60 criterion-3 specs and 60
    # rank-deficient draws
    real, stages = solvers._dual_minimax, []

    def spy(model, shifts, scales, ball, cfg, warm=(), pin_idx=None, pin_caps=None, opening=None):
        out = real(model, shifts, scales, ball, cfg, warm, pin_idx, pin_caps, opening)
        stages.append((model, shifts, scales, ball, pin_idx, pin_caps, out))
        return out

    def dual_value(model, shifts, scales, ball, pin_idx, pin_caps, weights):
        pins = np.array([] if pin_idx is None else pin_idx, dtype=int)
        caps = np.array([] if pin_caps is None else pin_caps, dtype=float)
        free = np.setdiff1d(np.arange(model.num_groups), pins)
        inv = 1.0 / scales
        assert np.all(weights >= 0.0) and abs(float(weights[free].sum()) - 1.0) <= 1e-12, weights
        const = -float(weights[free] @ (shifts[free] * inv[free]))
        const -= float(weights[pins] @ (shifts[pins] * inv[pins] + (caps + solvers._FEAS_TOL)))
        low = model.minimize(weights * inv, ball)[2]
        return low + const - 128.0 * solvers._EPS * (abs(low) + abs(const))

    monkeypatch.setattr(solvers, "_dual_minimax", spy)
    draws = np.random.default_rng(123)
    deficient = (s for s in (rank_deficient_spec(draws) for _ in itertools.count()) if s is not None)
    checked = pinned = 0
    for spec in _criterion_3_specs(60) + list(itertools.islice(deficient, 60)):
        model, frame = _setup(spec)
        for method in WORST_GROUP_METHODS:
            theta, hi, lo, _, weights = minimax(method, model, frame, spec.radius, CFG)
            shifts, scales, _ = solvers.WORST_GROUP[method](frame)
            assert min(dual_value(model, shifts, scales, spec.radius, None, None, weights), hi) == lo
            checked += 1
        stages.clear()
        solve("leximin", _setup(spec)[0], frame, spec.radius, CFG)
        for stage_model, shifts, scales, ball, pin_idx, pin_caps, out in stages:
            _, hi, lo, _, weights = out
            assert min(dual_value(stage_model, shifts, scales, ball, pin_idx, pin_caps, weights), hi) == lo
            checked += 1
            pinned += pin_idx is not None
    assert checked > 600 and pinned > 50, (checked, pinned)


def _ball_points(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    u = rng.normal(size=(n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u * radius * rng.uniform(size=(n, 1)) ** (1.0 / d)


@pytest.mark.parametrize("fixture", ["motivating", "three_group", "planar"])
def test_quadratic_minimize_is_exact(fixture, request):
    # the quadratic side of the minimize contract, on the population risks and
    # on a squared-loss sample of them: lower is the exact value, no ball probe
    # beats it, the one-hot values are the frame's ideals bit for bit, and the
    # frame's baseline is the zero predictor's risk
    spec = request.getfixturevalue(fixture)
    m = spec.num_groups
    rng = np.random.default_rng(31)
    population, frame = _setup(spec)
    sample = QuadraticGroupRisks.from_rows(*draw_dataset(spec, 50, rng))
    probes = _ball_points(rng, 2000, spec.dim, spec.radius)
    weights = [rng.uniform(size=m) * 10.0 ** rng.uniform(-1, 1) for _ in range(6)]
    weights += list(np.eye(m))
    for model in (population, sample):
        probe_vals = model.values(probes)
        for w in weights:
            theta, value, lower = model.minimize(w, spec.radius)
            assert np.linalg.norm(theta) <= spec.radius * (1.0 + 1e-9)
            assert lower == value
            assert value == pytest.approx(float(w @ model.values(theta)), rel=1e-12, abs=1e-12)
            assert value <= float((probe_vals @ w).min())
        ideal = tuple(model.minimize(w, spec.radius)[1] for w in np.eye(m))
        assert model.frame(spec.radius).ideal_risks == ideal
        assert model.frame(spec.radius).baseline_risks == tuple(model.values(np.zeros(spec.dim)))
    assert frame == population.frame(spec.radius)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_one_newton_routine_serves_fits_and_dual_evaluations(m, monkeypatch):
    rng = np.random.default_rng(20 + m)
    features, labels = random_logistic_dataset(rng, m=m)
    model, radius = LogisticGroupRisks(features, labels), LOGISTIC_RADIUS
    probes = _ball_points(rng, 2000, model.dim, radius)
    probe_vals = model.values(probes)
    weights = [rng.uniform(size=m) * 10.0 ** rng.uniform(-1, 1) for _ in range(6)]
    weights += list(np.eye(m))
    # a few Newton steps, also where the minimizer sits on the sphere
    monkeypatch.setattr(risk_models, "_NEWTON_ITERS", 20)
    for w in weights:
        theta, value, lower = model.minimize(w, radius)
        assert value == float(w @ model.values(theta))
        grad = w @ model.derivatives(theta)[1]
        assert np.linalg.norm(theta - project_ball(theta - grad, radius)) <= 1e-8
        # the linearization bound at theta, min over the ball of value + grad . (x - theta)
        assert lower == value - radius * float(np.linalg.norm(grad)) - float(grad @ theta)
        assert value - 1e-7 <= lower <= value
        assert value <= float((probe_vals @ w).min())
    monkeypatch.undo()
    frame = model.frame(radius)
    for g in range(m):
        # the frame's ideal is the one-hot minimize, bit for bit
        assert frame.ideal_risks[g] == model.minimize(np.eye(m)[g], radius)[1]
        # over an infinite radius the fit is stationary unprojected; half its norm binds
        theta, value, lower = model.minimize(np.eye(m)[g], np.inf)
        grad = np.eye(m)[g] @ model.derivatives(theta)[1]
        assert np.linalg.norm(grad) <= 1e-8
        # over an infinite radius the bound is value at an exact zero gradient, else -inf
        assert lower == (value if not grad.any() else -np.inf)
        half = 0.5 * float(np.linalg.norm(theta))
        assert np.linalg.norm(model.minimize(np.eye(m)[g], half)[0]) == pytest.approx(half)
    # the baseline predicts the pooled share p of positive labels for every
    # row: a group with share q_g scores -q_g log p - (1 - q_g) log(1 - p)
    p = float(np.concatenate(labels).mean())
    q = np.array([y.mean() for y in labels])
    pooled = -q * np.log(p) - (1.0 - q) * np.log(1.0 - p)
    np.testing.assert_allclose(frame.baseline_array(), pooled, rtol=1e-13)


def test_logistic_solves_certify():
    # six seeded datasets with boundary ideals; nash may refuse only where
    # the ri certificate shows that no point gives every group a gain
    for seed in range(6):
        model = LogisticGroupRisks(*random_logistic_dataset(np.random.default_rng(seed)))
        frame = model.frame(LOGISTIC_RADIUS)
        reports = {}
        for method in METHODS:
            try:
                reports[method] = solve(method, model, frame, LOGISTIC_RADIUS, CFG)
            except DegenerateBargainError:
                assert method == "nash", (seed, method)
                ri = reports["ri"]
                assert ri.objective_value + ri.certificate_gap <= CFG.tol, seed
                continue
            gap = reports[method].certificate_gap
            assert reports[method].certified(CFG.tol), (seed, method, gap)


def test_newton_stops_halving_once_rounding_hides_the_drop(monkeypatch):
    # a halving search run past the value's rounding made 56 values passes
    # in one weighted minimization of this solve; each trial step is one
    # derivatives pass now
    model = LogisticGroupRisks(*random_logistic_dataset(np.random.default_rng(2), m=3, d=4, n=1000))
    frame = model.frame(LOGISTIC_RADIUS)
    cls = risk_models.LogisticGroupRisks
    values, derivatives, minimize = cls.values, cls.derivatives, cls.minimize
    passes, per_call = [0], []

    def counted_values(self, theta):
        passes[0] += 1
        return values(self, theta)

    def counted_derivatives(self, theta):
        passes[0] += 1
        return derivatives(self, theta)

    def counted_minimize(self, w, radius):
        # a call restricted to the active groups counts once more, with the same passes
        start = passes[0]
        out = minimize(self, w, radius)
        per_call.append(passes[0] - start)
        return out

    monkeypatch.setattr(cls, "values", counted_values)
    monkeypatch.setattr(cls, "derivatives", counted_derivatives)
    monkeypatch.setattr(cls, "minimize", counted_minimize)
    report = solve("leximin", model, frame, LOGISTIC_RADIUS, CFG)
    assert report.certified(CFG.tol)
    assert per_call and max(per_call) <= 10, max(per_call)


def test_newton_takes_the_full_step_where_rounding_hides_every_drop():
    # phi shifted by 1e12 has an ulp of 1.2e-4, above every drop of this fit,
    # so no halved step can lower it: the search stops at once and takes the
    # full step, the same point the unshifted fit accepts. A search that
    # halved until t * g . step reached 0 would take over 2,000 passes here
    model = LogisticGroupRisks(*random_logistic_dataset(np.random.default_rng(2), m=3, d=4, n=1000))
    w = np.array([0.5, 0.3, 0.2])
    fits = {}
    for shift in (0.0, 1e12):
        passes = [0]

        def counted(theta):
            passes[0] += 1
            return model.derivatives(theta)

        def phi(R):
            return shift + float(w @ R), w, np.zeros_like(w)

        theta, _, _, steps, resid = risk_models.newton_ball(counted, phi, np.zeros(model.dim), LOGISTIC_RADIUS)
        assert resid <= 1e-8 and passes[0] == steps + 1, (shift, passes[0], steps)
        fits[shift] = theta.tobytes()
    assert fits[0.0] == fits[1e12]


def test_nash_certifies_logistic_seeds_6_to_11():
    # U is scale-free but the logistic minimize's stationarity stop is not:
    # on seed 7, at a weighting scaled to max w = 1, h is 4.5e-3 and
    # m (value - lower) / h leaves a gap of 2.7e-6. At w = 1/gains of a Newton
    # iterate h >= m, and U at the stationary point leaves 6.9e-11 after 6 Newton steps
    for seed in range(6, 12):
        model = LogisticGroupRisks(*random_logistic_dataset(np.random.default_rng(seed)))
        frame = model.frame(LOGISTIC_RADIUS)
        ri = solve("ri", model, frame, LOGISTIC_RADIUS, CFG)
        try:
            report = solve("nash", model, frame, LOGISTIC_RADIUS, CFG)
        except DegenerateBargainError:
            assert seed != 7 and ri.objective_value + ri.certificate_gap <= CFG.tol, seed
            continue
        assert report.certified(CFG.tol), (seed, report.certificate_gap)
        assert report.iterations <= 10, (seed, report.iterations)


def _nash_bound(model, frame, w: np.ndarray, ball: float) -> float:
    # U(w) = m log(h(w)/m) - sum_g log w_g with h(w) = w.b - lower(w)
    _, _, lower = model.minimize(w, ball)
    h = float(w @ frame.baseline_array()) - lower
    return len(w) * np.log(h / len(w)) - float(np.log(w).sum())


def _probe_scores(method: str, radius: float, model, frame, rng) -> np.ndarray:
    probes = _ball_points(rng, 2000, model.dim, radius)
    return criterion_scores(method, frame, model.values(probes))


def test_nash_dual_bound_is_sound(motivating, three_group, planar):
    # at random weightings, and at the solve's own certificate, U bounds the
    # log-gain sum of every probe point, for quadratic and for logistic risks
    rng = np.random.default_rng(5)
    problems = [(*_setup(spec), spec.radius) for spec in (motivating, three_group, planar)]
    for seed in range(6):
        model = LogisticGroupRisks(*random_logistic_dataset(np.random.default_rng(seed)))
        problems.append((model, model.frame(LOGISTIC_RADIUS), LOGISTIC_RADIUS))
    for model, frame, radius in problems:
        top = float(_probe_scores("nash", radius, model, frame, rng).max())
        for _ in range(6):
            w = np.exp(rng.normal(scale=2.0, size=frame.num_groups))
            assert _nash_bound(model, frame, w, radius) >= top
        rep = solve("nash", model, frame, radius, CFG)
        assert rep.certified(CFG.tol) and rep.objective_value + rep.certificate_gap >= top


def test_rank_deficient_specs_report_or_refuse():
    # group covariances of random rank 1..d (m 2-5, d 1-6): the first 40
    # draws and draw 134, whose ri and leximin masters meet a basis that
    # rounding makes singular
    draws, rng = np.random.default_rng(123), np.random.default_rng(0)
    for k in range(135):
        spec = rank_deficient_spec(draws)
        if spec is None or (k >= 40 and k != 134):
            continue
        model, frame = _setup(spec)
        reports = {m: solve(m, model, frame, spec.radius, CFG) for m in METHODS if m != "nash"}
        for method, rep in reports.items():
            assert np.isfinite(rep.objective_value) and rep.certificate_gap >= 0.0, (k, method)
            assert rep.certified(CFG.tol), (k, method, rep.certificate_gap)
            assert _in_ball(rep, spec.radius), (k, method)
        if spec.dim <= 2:
            step = spec.radius / (400 if spec.dim == 2 else 4000)
            oracle = cli._oracle_objectives(model, frame, spec.radius, step, reports)
            for method, value in oracle.items():
                rep = reports[method]
                assert_oracle_within_certificate(
                    method, rep.objective_value, rep.certificate_gap, value
                )
        worst_ri = _probe_scores("ri", spec.radius, model, frame, rng)
        ri = reports["ri"]
        assert ri.objective_value + ri.certificate_gap >= float(worst_ri.max()), k
        try:
            rep = solve("nash", model, frame, spec.radius, CFG)
        except DegenerateBargainError:
            # the refusal's weighting bounds every point's worst improvement by tol
            assert max(ri.objective_value, float(worst_ri.max())) <= CFG.tol, k
            continue
        assert 0.0 <= rep.certificate_gap <= CFG.tol, (k, rep.certificate_gap)
        assert _in_ball(rep, spec.radius), k
        top = float(_probe_scores("nash", spec.radius, model, frame, rng).max())
        assert rep.objective_value + rep.certificate_gap >= top, k


def test_three_dimensional_census_specs_stay_within_the_grid_oracle():
    # the d = 3 specs of the seed-5 census stream against --oracle-grid 0.1;
    # nash is left out where its solve refuses or no grid row gains for every group
    rng = np.random.default_rng(5)
    checked, refused, gridless = 0, 0, 0
    for k in range(300):
        spec = random_problem_spec(rng, m=int(rng.integers(2, 6)), d=int(rng.integers(1, 4)))
        if spec.dim != 3:
            continue
        model, frame = _setup(spec)
        reports = {}
        for method in METHODS:
            try:
                reports[method] = solve(method, model, frame, spec.radius, CFG)
            except DegenerateBargainError:
                refused += 1
        try:
            oracle = cli._oracle_objectives(model, frame, spec.radius, 0.1, reports)
        except DegenerateBargainError:
            gridless += 1
            reports.pop("nash")
            oracle = cli._oracle_objectives(model, frame, spec.radius, 0.1, reports)
        for method, value in oracle.items():
            rep = reports[method]
            assert rep.certified(CFG.tol), (k, method)
            assert_oracle_within_certificate(method, rep.objective_value, rep.certificate_gap, value)
        checked += len(oracle)
    assert (checked, refused, gridless) == (631, 18, 11)


def test_free_groups_are_the_groups_not_pinned(monkeypatch):
    # the master holds one weight per free group, and is built at the first
    # round, after one dual evaluation, which weighs the free groups uniformly
    # in normalized units. The master is built only for a round, and a tol no
    # gap meets, its 128-ulp allowance included, makes every pin pattern run one
    cfg = SolverConfig(tol=1e-300)
    spec = random_problem_spec(np.random.default_rng(2), m=4, d=2)
    model, frame = _setup(spec)
    shifts, scales, _ = solvers.WORST_GROUP["ri"](frame)
    real_minimize, real_master, seen, sizes = model.minimize, solvers._GameMaster, [], []

    def minimize(w, radius):
        seen.append(np.asarray(w, dtype=float))
        return real_minimize(w, radius)

    def master(m_free, n_pin, low):
        sizes.append((m_free, len(seen)))
        return real_master(m_free, n_pin, low)

    monkeypatch.setattr(model, "minimize", minimize)
    monkeypatch.setattr(solvers, "_GameMaster", master)
    monkeypatch.setattr(solvers, "_MAX_ITERS", 1)
    for n_pin in range(4):
        for pins in itertools.permutations(range(4), n_pin):
            free = np.setdiff1d(np.arange(4), np.array(pins, dtype=int)).tolist()
            seen.clear()
            sizes.clear()
            solvers._dual_minimax(
                model, shifts, scales, spec.radius, cfg,
                pin_idx=np.array(pins, dtype=int), pin_caps=np.full(n_pin, 1e9),
            )
            uniform = np.zeros(4)
            uniform[free] = 1.0 / (len(free) * scales[free])
            assert sizes == [(len(free), 1)], pins
            np.testing.assert_allclose(seen[0], uniform, rtol=1e-15, atol=0.0)


def test_a_numpy_without_the_private_gufuncs_gets_the_same_bits(monkeypatch):
    # numpy 1.x runs lstsq through gufuncs named lstsq_m and lstsq_n, so a
    # module copy loaded where numpy.linalg._umath_linalg lacks the names binds
    # the public wrappers, which run the same gufuncs: same bits on the KKT
    # systems of a few solves and on 2 x 2 and 3 x 3 ball minimizations
    real, systems = solvers._lstsq, []

    def record(a, b, rcond, signature):
        systems.append((a.copy(), b.copy(), rcond))
        return real(a, b, rcond, signature=signature)

    monkeypatch.setattr(solvers, "_lstsq", record)
    rng = np.random.default_rng(9)
    for spec in (three_group_spec(), *(random_problem_spec(rng, m=m, d=2) for m in (2, 3, 4))):
        model, frame = _setup(spec)
        for method in ("ri", "gdro", "mmr"):
            solve(method, model, frame, spec.radius, CFG)
    assert len(systems) >= 20
    monkeypatch.setattr(np.linalg, "_umath_linalg", types.SimpleNamespace())
    copies = []
    for module in (solvers, risk_models):
        name = f"{module.__name__}_without_gufuncs"
        loader = importlib.util.spec_from_file_location(name, module.__file__)
        copy = importlib.util.module_from_spec(loader)
        monkeypatch.setitem(sys.modules, name, copy)
        loader.loader.exec_module(copy)
        copies.append(copy)
    bare_solvers, bare_models = copies
    assert bare_solvers._lstsq is bare_solvers._lstsq_public
    assert bare_models._eigh is bare_models._eigh_public
    for a, b, rcond in systems:
        got = bare_solvers._lstsq(a, b, rcond, signature="ddd->ddid")[0]
        assert got.tobytes() == real(a, b, rcond, signature="ddd->ddid")[0].tobytes()
    for d in (2, 3):
        for _ in range(50):
            F = rng.normal(size=(d, int(rng.integers(1, d + 1))))
            A, c = F @ F.T, F @ rng.normal(size=F.shape[1])
            for radius in (0.1, 1.0, 100.0):
                got = bare_models.minimize_quadratic_ball(A, c, radius)
                want = risk_models.minimize_quadratic_ball(A, c, radius)
                assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def _affine_model(model, a, b):
    # group g's risk becomes a_g R_g + b_g
    return QuadraticGroupRisks(
        model.A * a[:, None, None], model.c * a[:, None], model.k * a + b
    )


def test_affine_group_rescaling_moves_ri_and_leximin_only_within_the_gaps():
    # Kalai-Smorodinsky scale invariance on the continuous solver: mapping each
    # group's risk to a_g R_g + b_g and recomputing the frame leaves every relative
    # improvement unchanged, so ri and leximin may move only by their gaps, while
    # the risk-, gain- and regret-based criteria move
    rng = np.random.default_rng(5)
    moved = {"gdro": 0, "mmv": 0, "mmr": 0}
    for _ in range(60):
        m, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        spec = random_problem_spec(rng, m=m, d=d)
        a, b = rng.uniform(0.1, 10.0, m), rng.uniform(0.0, 5.0, m)
        model = QuadraticGroupRisks.from_problem_spec(spec)
        models = model, _affine_model(model, a, b)
        frames = [mdl.frame(spec.radius) for mdl in models]
        for method in ("ri", "leximin", *moved):
            one, two = (solve(method, *pair, spec.radius, CFG) for pair in zip(models, frames))
            shift = abs(one.objective_value - two.objective_value)
            gaps = one.certificate_gap + two.certificate_gap
            if method in moved:
                moved[method] += shift > gaps
            else:
                assert shift <= gaps, (method, shift, gaps)
    assert all(moved.values()), moved


def _counting_model(spec):
    # the spec's population risks, with a list that grows by one per weighted minimization
    model, count = QuadraticGroupRisks.from_problem_spec(spec), []
    real = model.minimize

    def minimize(w, radius):
        count.append(1)
        return real(w, radius)

    model.minimize = minimize
    return model, count


def _fields(rep):
    return (
        rep.parameter, rep.objective_value, rep.certificate_gap,
        rep.risk_profile, rep.improvement_profile, rep.iterations,
    )


def test_leximin_shares_the_ri_solve_bit_for_bit():
    # ri is leximin's stage 0: leximin after ri on one model reuses that solve,
    # so it returns what leximin on a fresh model returns, with exactly the ri
    # solve's weighted minimizations fewer; ri after leximin shares it too
    rng = np.random.default_rng(7)
    specs = [random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0) for _ in range(40)]
    draws = np.random.default_rng(123)
    specs += [s for s in (rank_deficient_spec(draws) for _ in range(60)) if s is not None]
    for k, spec in enumerate(specs):
        frame = population_frame(spec)
        (shared, count), (fresh, fresh_count) = _counting_model(spec), _counting_model(spec)
        ri = solve("ri", shared, frame, spec.radius, CFG)
        stage0 = len(count)
        after = solve("leximin", shared, frame, spec.radius, CFG)
        alone = solve("leximin", fresh, frame, spec.radius, CFG)
        assert _fields(after) == _fields(alone), k
        assert len(fresh_count) - (len(count) - stage0) == stage0, k
        before = len(fresh_count)
        assert _fields(solve("ri", fresh, frame, spec.radius, CFG)) == _fields(ri), k
        assert len(fresh_count) == before, k


def test_the_ri_memo_reuses_equal_inputs_and_recomputes_changed_ones():
    # the memo keys the model by identity and the frame, ball and config by
    # value; its theta is read-only, so no caller can change what the next gets
    spec = random_problem_spec(np.random.default_rng(3), m=3, d=2)
    model, count = _counting_model(spec)
    frame, ball = population_frame(spec), spec.radius
    equal = [
        (BargainingFrame(frame.baseline_risks, frame.ideal_risks), ball, SolverConfig(tol=CFG.tol)),
        (frame, float(ball), SolverConfig(tol=CFG.tol)),
    ]
    changed = [
        (frame, ball, SolverConfig(tol=1e-7)),
        (frame, ball, SolverConfig(tol=CFG.tol, seed=4)),
        (frame, 0.5 * ball, CFG),
        (model.frame(0.5 * ball), ball, CFG),
    ]
    for k, args in enumerate(equal + changed):
        first = solve("ri", model, frame, ball, CFG)
        n = len(count)
        rep = solve("ri", model, *args)
        if k < len(equal):
            assert len(count) == n and _fields(rep) == _fields(first), k
        else:
            assert len(count) > n, k
            assert _fields(rep) == _fields(solve("ri", _counting_model(spec)[0], *args)), k
    theta = solvers._ri_minimax("ri", model, frame, ball, CFG)[0]
    with pytest.raises(ValueError, match="read-only"):
        theta[0] = 0.0


def test_the_ri_memo_keeps_only_the_last_model_alive():
    spec = random_problem_spec(np.random.default_rng(4), m=2, d=2)
    frame = population_frame(spec)
    model = QuadraticGroupRisks.from_problem_spec(spec)
    solve("ri", model, frame, spec.radius, CFG)
    last = weakref.ref(model)
    del model
    gc.collect()
    assert last() is not None
    solve("ri", QuadraticGroupRisks.from_problem_spec(spec), frame, spec.radius, CFG)
    gc.collect()
    assert last() is None


WORST_GROUP_METHODS = ("ri", "gdro", "mmv", "mmr")


def test_minimax_without_warm_points_is_the_solve():
    for i, spec in enumerate(_criterion_3_specs(60)):
        model, frame = _setup(spec)
        for method in WORST_GROUP_METHODS:
            theta, hi, lo, evals, _ = minimax(method, model, frame, spec.radius, CFG)
            rep = solve(method, model, frame, spec.radius, CFG)
            assert rep.parameter == tuple(theta), (i, method)
            assert (rep.certificate_gap, rep.iterations) == (hi - lo, evals), (i, method)


def test_minimax_certifies_from_any_warm_point():
    # warm at the cold solve's point, at a seeded point inside the ball and at
    # one 10 radii out, every solve certifies inside the ball; ri's bracket
    # meets the cold solve's (mmv's need not: ROADMAP item 1's false bound)
    draws = np.random.default_rng(123)
    deficient = (s for s in (rank_deficient_spec(draws) for _ in itertools.count()) if s is not None)
    specs = _criterion_3_specs(100) + list(itertools.islice(deficient, 100))
    for i, spec in enumerate(specs):
        model, frame = _setup(spec)
        ball = spec.radius
        u = np.random.default_rng(i).normal(size=model.dim)
        u /= np.linalg.norm(u)
        for method in WORST_GROUP_METHODS:
            cold = minimax(method, model, frame, ball, CFG)
            for warm in (cold[0], 0.5 * ball * u, 10.0 * ball * u):
                theta, hi, lo, _, _ = minimax(method, model, frame, ball, CFG, warm=(warm,))
                assert hi - lo <= CFG.tol and np.linalg.norm(theta) <= ball * (1.0 + 1e-12), (i, method)
                if method == "ri":
                    assert lo <= cold[1] and cold[2] <= hi, (i, warm)


def test_minimax_refuses_a_warm_point_that_is_not_a_finite_vector(motivating):
    model, frame = _setup(motivating)
    for warm in (np.array([np.nan]), np.array([np.inf]), np.zeros(2), np.zeros((1, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="warm point"):
            minimax("ri", model, frame, motivating.radius, CFG, warm=(warm,))
    with pytest.raises(ValueError, match="minimax takes one of"):
        minimax("leximin", model, frame, motivating.radius, CFG)
    # minimax freezes the point it returns, but a warm point at the optimum,
    # which it returns, stays the caller's to write
    warm = np.array(minimax("gdro", model, frame, motivating.radius, CFG)[0])
    theta = minimax("gdro", model, frame, motivating.radius, CFG, warm=(warm,))[0]
    assert not theta.flags.writeable and theta.tobytes() == warm.tobytes()
    warm[0] = 0.0


def test_minimax_refuses_weights_it_cannot_open_from(motivating, three_group):
    model, frame = _setup(three_group)
    ball, warm = three_group.radius, (np.zeros(model.dim),)
    for weights in (np.ones(2), np.ones((3, 1)), np.array([0.5, np.nan, 0.5]),
                    np.array([0.5, np.inf, 0.5]), np.array([1.0, -0.5, 0.5]), np.zeros(3)):
        with pytest.raises(ValueError, match="weights"):
            minimax("ri", model, frame, ball, CFG, warm=warm, weights=weights)
    with pytest.raises(ValueError, match="weights"):
        minimax("ri", model, frame, ball, CFG, weights=np.ones(3))
    # minimax copies the weights it opens from and freezes the ones it returns
    model, frame = _setup(motivating)
    theta, _, _, _, cold = minimax("ri", model, frame, motivating.radius, CFG)
    weights = np.array(cold)
    out = minimax("ri", model, frame, motivating.radius, CFG, warm=(theta,), weights=weights)
    assert weights.flags.writeable and weights.tobytes() == cold.tobytes()
    assert not out[4].flags.writeable
    weights[0] = 0.0


def test_a_resumed_minimax_certifies(monkeypatch):
    # resumed from the cold solve's point and weights, from 10 radii out with
    # uniform weights, and from half a radius in with all weight on group 0,
    # every solve certifies inside the ball, and ri's bracket meets the cold
    # solve's (mmv's need not: ROADMAP item 1's false bound). Resuming from
    # the cold point and weights takes fewer evaluations than from the point
    # alone: 1,660 evaluations against 2,316 on these specs, and 456 master
    # rounds against 698
    draws = np.random.default_rng(123)
    deficient = (s for s in (rank_deficient_spec(draws) for _ in itertools.count()) if s is not None)
    specs = _criterion_3_specs(50) + list(itertools.islice(deficient, 50))
    rounds = _master_rounds(monkeypatch)
    evals, masters = {"point": 0, "resumed": 0}, {"point": 0, "resumed": 0}
    for i, spec in enumerate(specs):
        model, frame = _setup(spec)
        ball, m = spec.radius, model.num_groups
        u = np.random.default_rng(i).normal(size=model.dim)
        u /= np.linalg.norm(u)
        for method in WORST_GROUP_METHODS:
            cold = minimax(method, model, frame, ball, CFG)
            rounds.clear()
            evals["point"] += minimax(method, model, frame, ball, CFG, warm=(cold[0],))[3]
            masters["point"] += len(rounds)
            rounds.clear()
            for k, (warm, weights) in enumerate(
                ((cold[0], cold[4]), (10.0 * ball * u, np.full(m, 1.0 / m)), (0.5 * ball * u, np.eye(m)[0]))
            ):
                theta, hi, lo, used, _ = minimax(method, model, frame, ball, CFG, warm=(warm,), weights=weights)
                assert hi - lo <= CFG.tol and np.linalg.norm(theta) <= ball * (1.0 + 1e-12), (i, method, k)
                if method == "ri":
                    assert lo <= cold[1] and cold[2] <= hi, (i, k)
                if k == 0:
                    evals["resumed"] += used
                    masters["resumed"] += len(rounds)
    assert evals["resumed"] < evals["point"] and masters["resumed"] < masters["point"], (evals, masters)


def _trials(spec, sizes, trials):
    """The population ri solve, and the empirical models and frames of draws from spec."""
    model, frame = _setup(spec)
    cold = minimax("ri", model, frame, spec.radius, CFG)
    models, frames = [], []
    for n in sizes:
        for trial in range(trials):
            emp = risk_models.draw_moments(spec, n, np.random.default_rng([n, trial]))
            try:
                frames.append(emp.frame(spec.radius))
            except DegenerateFrameError:
                continue
            models.append(emp)
    return cold, models, frames


def test_a_batch_certifies_each_trial_within_its_minimax_bracket(monkeypatch):
    # the motivating, three-group, cube (d = 3) and lex specs' trials, and
    # cube's in a ball of radius 0.8, which some trials' steps leave, and of
    # radius 0.5, whose optimum lies on the sphere, resumed from the
    # population point and weights: each closes in the stacked try, and its
    # bracket meets that of its own minimax
    fallbacks, real = [], solvers.minimax
    monkeypatch.setattr(solvers, "minimax", lambda *a, **k: fallbacks.append(a) or real(*a, **k))
    for spec in (motivating_spec(), three_group_spec(), cube_spec(), cube_spec(0.8), cube_spec(0.5), lex_spec()):
        cold, models, frames = _trials(spec, (100, 400, 1600, 6400, 25600), 10)
        assert len(models) >= 45
        fallbacks.clear()
        got = solvers.minimax_batch("ri", models, frames, spec.radius, CFG, cold[0], cold[4])
        # the stacked try closes all but a few: 0, 0, 0, 0, 0 and 1 of these 50
        assert len(got) == len(models) and len(fallbacks) <= 2, len(fallbacks)
        # an item closed in the try made one dual evaluation after its two starting points
        assert sum(out[3] != 3 for out in got) == len(fallbacks)
        for model, frame, (theta, hi, lo, _, weights) in zip(models, frames, got):
            want = real("ri", model, frame, spec.radius, CFG, warm=(cold[0],), weights=cold[4])
            assert hi - lo <= CFG.tol and lo <= want[1] and want[2] <= hi
            assert np.linalg.norm(theta) <= spec.radius * (1.0 + 4.0 * solvers._EPS)
            assert not theta.flags.writeable and not weights.flags.writeable
            assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-12


def test_a_batch_item_left_open_returns_minimax_bit_for_bit(monkeypatch):
    # tol 1e-300 leaves every item's gap open, and weights on group 3 of the
    # three-group spec, slack at the optimum, open a try whose dual bound is
    # group 3's ideal, far below the maximin value
    fallbacks, real = [], solvers.minimax
    monkeypatch.setattr(solvers, "minimax", lambda *a, **k: fallbacks.append(a) or real(*a, **k))
    for spec, weights, cfg in (
        (motivating_spec(), None, SolverConfig(tol=1e-300)),
        (three_group_spec(), np.array([0.0, 0.0, 1.0]), CFG),
    ):
        cold, models, frames = _trials(spec, (100, 1600), 3)
        weights = cold[4] if weights is None else weights
        fallbacks.clear()
        got = solvers.minimax_batch("ri", models, frames, spec.radius, cfg, cold[0], weights)
        assert len(fallbacks) == len(models) == 6
        for model, frame, out in zip(models, frames, got):
            want = real("ri", model, frame, spec.radius, cfg, warm=(cold[0],), weights=weights)
            assert out[1:4] == want[1:4]
            assert out[0].tobytes() == want[0].tobytes() and out[4].tobytes() == want[4].tobytes()


def test_minimax_batch_refuses_what_it_cannot_stack():
    cold, models, frames = _trials(motivating_spec(), (100,), 2)
    _, planar, planar_frames = _trials(planar_spec(), (100,), 1)
    three_frames = _trials(three_group_spec(), (100,), 1)[2]
    rows = random_logistic_dataset(np.random.default_rng(0), m=2, d=1)
    logistic = LogisticGroupRisks(*rows)
    ball, point, weights = 10.0, cold[0], cold[4]
    for args, match in (
        (("ri", models + planar, frames + planar_frames, ball, CFG, point, weights), "one shape"),
        (("ri", models, frames[:1] + three_frames, ball, CFG, point, weights), "one shape"),
        (("ri", models + [logistic], frames + [logistic.frame(ball)], ball, CFG, point, weights), "quadratic"),
        (("ri", models, frames[:1], ball, CFG, point, weights), "one frame per model"),
        (("nash", models, frames, ball, CFG, point, weights), "takes one of"),
        (("ri", models, frames, ball, CFG, np.zeros(2), weights), "warm point"),
        (("ri", models, frames, ball, CFG, point, np.zeros(2)), "weights"),
    ):
        with pytest.raises(ValueError, match=match):
            solvers.minimax_batch(*args)
    assert solvers.minimax_batch("ri", [], [], ball, CFG, point, weights) == []


def test_a_larger_ball_that_keeps_one_ideal_never_hurts_the_other_group():
    # Kalai-Smorodinsky individual monotonicity on the continuous solver: group
    # j's beta lies inside the unit ball, so its ideal stays put as the ball
    # grows, and group i's lies outside it. With the frame recomputed, group i's
    # ri risk may rise by no more than the two gaps in its risk units
    rng = np.random.default_rng(11)
    for k in range(300):
        i = int(rng.integers(2))
        betas = [rng.uniform(0.2, 0.9), rng.uniform(0.2, 0.9)]
        betas[i] = rng.uniform(1.2, 3.0)
        groups = []
        for norm in betas:
            u = rng.normal(size=2)
            groups.append(GroupLinearModel(
                beta=u * norm / np.linalg.norm(u), sigma2=rng.uniform(0.3, 5.0), cov=_random_psd(rng, 2)
            ))
        model = QuadraticGroupRisks.from_problem_spec(ProblemSpec(groups=tuple(groups), radius=1.0))
        radii = 1.0, rng.uniform(1.2, 4.0)
        frames = [model.frame(r) for r in radii]
        kept = [f.ideal_risks[1 - i] for f in frames]
        assert kept[1] == pytest.approx(kept[0], rel=1e-12), k
        small, large = (solve("ri", model, f, r, CFG) for f, r in zip(frames, radii))
        rise = large.risk_profile.values[i] - small.risk_profile.values[i]
        slack = small.certificate_gap * frames[0].gap_array()[i] + large.certificate_gap * frames[1].gap_array()[i]
        assert rise <= slack, (k, rise, slack)

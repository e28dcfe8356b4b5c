"""End-to-end acceptance gate.

Each test prints exactly one ACCEPTANCE line (PASS or FAIL with elapsed time)
so a run of this module doubles as the sign-off report:

    pytest tests/test_acceptance.py -v -s
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

from conftest import (
    motivating_spec,
    objective_and_supergradient,
    planar_spec,
    random_logistic_dataset,
    random_problem_spec,
    save_problem_spec,
)
from fairgain import bargain_discrete as bd
from fairgain import cli
from fairgain.core import BargainingFrame
from fairgain.empirical_study import gap_certificate, run_convergence
from fairgain.geometry import sample_risk_set, trace_frontier
from fairgain.risk_models import (
    LogisticGroupRisks,
    ProblemSpec,
    population_frame,
)
from fairgain.solvers import (
    QuadraticGroupRisks,
    SolverConfig,
    solve,
)
from oracles import (
    count_diagonal_crossings,
    diagonal_intersection,
    hull_pareto_check,
    quadratic_lipschitz_bound,
)

TOL = SolverConfig().tol


@contextmanager
def criterion(num: int, headline: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num}: FAIL ({elapsed:.2f}s) {headline} :: {exc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.2f}s) {headline}")


def _cli_json(args: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    assert code == 0, f"cli exit {code}"
    return json.loads(buf.getvalue())


def test_criterion_01_worked_example_solutions(tmp_path):
    with criterion(1, "worked two-group example: MMR vs maximin-RI via the CLI, < 1s"):
        path = tmp_path / "motivating.json"
        save_problem_spec(motivating_spec(), path)
        start = time.perf_counter()
        report = _cli_json(["solve", "--spec", str(path), "--methods", "ri,mmr"])
        elapsed = time.perf_counter() - start
        ri = report["methods"]["ri"]
        mmr = report["methods"]["mmr"]
        assert abs(ri["parameter"][0] - 28.0 / 9.0) <= 1e-3
        assert abs(mmr["parameter"][0] - 4.5) <= 1e-3
        np.testing.assert_allclose(ri["improvements"], [0.6914, 0.6914], atol=1e-3)
        np.testing.assert_allclose(mmr["improvements"], [-0.5625, 0.87245], atol=1e-3)
        assert elapsed < 1.0, f"solve took {elapsed:.2f}s"


def test_criterion_02_achievable_reductions_exact(tmp_path):
    with criterion(2, "frame reports achievable risk reductions (4, 49) exactly"):
        path = tmp_path / "motivating.json"
        save_problem_spec(motivating_spec(), path)
        report = _cli_json(["solve", "--spec", str(path), "--methods", "ri"])
        base = report["frame"]["baseline_risks"]
        ideal = report["frame"]["ideal_risks"]
        gaps = [b - i for b, i in zip(base, ideal)]
        assert gaps == [4.0, 49.0], gaps


def test_criterion_03_no_harm_sweep():
    with criterion(3, "maximin-RI never harms on 200 random specs; MMR does, < 30s"):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        min_rho = np.inf
        mmr_harm = 0
        for i in range(200):
            m = int(rng.integers(2, 5))
            spec = random_problem_spec(rng, m=m, d=2, radius=3.0)
            model = QuadraticGroupRisks.from_problem_spec(spec)
            frame = population_frame(spec)
            rep = solve("ri", model, frame, spec.radius)
            min_rho = min(min_rho, float(rep.improvement_profile.as_array().min()))
            if i < 60:
                mrep = solve("mmr", model, frame, spec.radius)
                if float(mrep.improvement_profile.as_array().min()) < -0.1:
                    mmr_harm += 1
        elapsed = time.perf_counter() - start
        assert min_rho >= -1e-5, f"worst improvement {min_rho:.3e}"
        assert mmr_harm > 0, "no MMR harm witness surfaced"
        assert elapsed < 30.0, f"{elapsed:.1f}s"


def test_criterion_04_diagonal_equals_maximin():
    headline = "frontier diagonal crossing equals the maximin solve on 100 specs and 6 classifiers"
    with criterion(4, headline + ", < 60s"):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        problems = []
        for _ in range(100):
            spec = random_problem_spec(rng, m=2, d=2, radius=3.0, separated=True)
            problems.append((QuadraticGroupRisks.from_problem_spec(spec), population_frame(spec)))
        # the paper's own case, the Kalai-Smorodinsky reading on a logistic classifier
        rng = np.random.default_rng(5)
        for _ in range(6):
            model = LogisticGroupRisks(*random_logistic_dataset(rng, m=2, d=2, n=300, radius=3.0))
            problems.append((model, model.frame(3.0)))
        worst = 0.0
        for i, (model, frame) in enumerate(problems):
            rep = solve("ri", model, frame, 3.0)
            trace = trace_frontier(model, frame, 3.0, 200)
            rho_star, _ = diagonal_intersection(trace)
            worst = max(worst, abs(rep.objective_value - rho_star))
            assert count_diagonal_crossings(trace) == 1, i
        elapsed = time.perf_counter() - start
        assert worst <= 2e-3, f"worst deviation {worst:.3e}"
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_05_continuous_matches_discrete_oracle(tmp_path):
    with criterion(5, "every continuous objective matches the discrete grid oracle, < 2min"):
        start = time.perf_counter()
        jobs = (
            ("motivating.json", motivating_spec(), "1e-4"),
            ("planar.json", planar_spec(), "1e-3"),
        )
        for name, spec, grid in jobs:
            spec_path = tmp_path / name
            out_path = tmp_path / (name + ".csv")
            save_problem_spec(spec, spec_path)
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main([
                    "compare", "--spec", str(spec_path),
                    "--methods", "ri,leximin,gdro,mmv,mmr,nash",
                    "--oracle-grid", grid, "--out", str(out_path),
                ])
            assert code == 0
            rows = out_path.read_text().strip().splitlines()
            header = rows[0].split(",")
            i_obj = header.index("objective")
            i_oracle = header.index("oracle_objective")
            for row in rows[1:]:
                parts = row.split(",")
                diff = abs(float(parts[i_obj]) - float(parts[i_oracle]))
                assert diff <= 1e-3, f"{name} {parts[0]}: {diff:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"{elapsed:.1f}s"


def _random_discrete_set(rng: np.random.Generator, m: int) -> bd.DiscreteFeasibleSet:
    base = rng.uniform(3.0, 6.0, m)
    ideal = rng.uniform(0.4, 1.2, m)
    n = int(rng.integers(3, 12))
    risks = rng.uniform(ideal - 0.2, base + 0.5, size=(n, m))
    frame = BargainingFrame(tuple(base), tuple(ideal))
    return bd.DiscreteFeasibleSet(risks, frame)


def test_criterion_06_bargaining_axioms():
    with criterion(6, "axiom suite: scale invariance, symmetry, monotonicity, IIA, < 60s"):
        start = time.perf_counter()

        # (a) scale invariance: per-group affine rescaling leaves the winners alone
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            s = _random_discrete_set(rng, m)
            a = rng.uniform(0.1, 5.0, m)
            b = rng.uniform(0.0, 3.0, m)  # frames reject negative risks
            scaled = bd.DiscreteFeasibleSet(
                s.risks * a + b,
                BargainingFrame(
                    tuple(a * s.frame.baseline_array() + b),
                    tuple(a * s.frame.ideal_array() + b),
                ),
            )
            idx, _ = bd.pick(s, "ri")
            idx_scaled, _ = bd.pick(scaled, "ri")
            assert idx == idx_scaled
            drift = np.abs(s.improvements()[idx] - scaled.improvements()[idx_scaled])
            assert float(drift.max()) <= 1e-9
        # and the same rescaling flips a scale-sensitive criterion on a witness
        frame = BargainingFrame((4.0, 4.0), (0.0, 0.0))
        menu = np.array([[2.0, 4.0], [3.0, 3.0]])
        before, _ = bd.pick(bd.DiscreteFeasibleSet(menu, frame), "gdro")
        squeezed = bd.DiscreteFeasibleSet(
            menu * np.array([1.0, 0.1]), BargainingFrame((4.0, 0.4), (0.0, 0.0))
        )
        after, _ = bd.pick(squeezed, "gdro")
        assert before != after

        # (b) symmetry: mirrored sets give mirrored solutions
        rng = np.random.default_rng(17)
        for _ in range(50):
            base = float(rng.uniform(3.0, 6.0))
            ideal = float(rng.uniform(0.3, 1.0))
            frame = BargainingFrame((base, base), (ideal, ideal))
            risks = rng.uniform(ideal, base, size=(int(rng.integers(3, 10)), 2))
            mirrored = risks[:, ::-1]
            _, won = bd.pick(bd.DiscreteFeasibleSet(risks, frame), "ri")
            _, won_mirrored = bd.pick(bd.DiscreteFeasibleSet(mirrored, frame), "ri")
            assert won_mirrored.values == won.values[::-1]

        # (c) monotonicity: growing the ball under a fixed frame never hurts a group
        rng = np.random.default_rng(19)
        for _ in range(50):
            spec = random_problem_spec(rng, m=2, d=2, radius=2.0, separated=True)
            big = ProblemSpec(groups=spec.groups, radius=4.0)
            frame = population_frame(big)
            model = QuadraticGroupRisks.from_problem_spec(spec)
            small_rho = solve("ri", model, frame, 2.0).improvement_profile.as_array()
            big_rho = solve("ri", model, frame, 4.0).improvement_profile.as_array()
            assert float((small_rho - big_rho).max()) <= 10.0 * TOL

        # (d) IIA: dropping a losing option never moves the Nash winner,
        # while the KS winner moves on a witness whose ideal point shifts
        rng = np.random.default_rng(23)
        for _ in range(50):
            frame = BargainingFrame((4.0, 4.0), (0.5, 0.7))
            risks = rng.uniform([0.6, 0.8], [3.9, 3.9], size=(int(rng.integers(4, 10)), 2))
            s = bd.DiscreteFeasibleSet(risks, frame)
            idx, won = bd.pick(s, "nash")
            losers = [i for i in range(risks.shape[0]) if i != idx]
            drop = int(rng.choice(losers))
            kept = np.delete(risks, drop, axis=0)
            _, won_after = bd.pick(bd.DiscreteFeasibleSet(kept, frame), "nash")
            assert won_after.values == won.values
        witness = np.array([[0.2, 0.55], [0.5, 0.2], [0.05, 0.9]])
        full = bd.DiscreteFeasibleSet(
            witness, BargainingFrame((1.0, 1.0), tuple(witness.min(axis=0)))
        )
        sub = bd.DiscreteFeasibleSet(
            witness[:2], BargainingFrame((1.0, 1.0), tuple(witness[:2].min(axis=0)))
        )
        idx_full, _ = bd.pick(full, "ri")
        idx_sub, _ = bd.pick(sub, "ri")
        assert idx_full == 0 and idx_sub == 1

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_07_closure_invariance():
    with criterion(7, "comprehensive-closure leximin equals plain leximin on 100 sets"):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            base = rng.uniform(3.0, 6.0, m)
            ideal = rng.uniform(0.4, 1.2, m)
            n = int(rng.integers(3, 10))
            risks = rng.uniform(ideal - 0.2, base + 0.5, size=(n, m))
            risks = np.vstack([risks, base])  # closure needs the disagreement row
            s = bd.DiscreteFeasibleSet(risks, BargainingFrame(tuple(base), tuple(ideal)))
            assert bd.pick(s, "leximin")[0] == bd.comprehensive_closure_leximin(s)[0]


def test_criterion_08_hull_pareto_geometry():
    with criterion(8, "risk-set hull is efficient-convex on the planar grid; crescent flagged"):
        spec = planar_spec()
        model = QuadraticGroupRisks.from_problem_spec(spec)
        sample = sample_risk_set(model, spec.radius, grid=201)
        tol = 2.0 * sample.spacing * quadratic_lipschitz_bound(model, spec.radius)
        report = hull_pareto_check(sample, tolerance=tol)
        assert report.ok, f"violation {report.max_violation:.3e} > {tol:.3e}"
        # hollow negative control: a quarter circle bulging away from the hull
        t = np.linspace(0.0, np.pi / 2.0, 400)
        arc = np.column_stack([np.cos(t), np.sin(t)])
        flagged = hull_pareto_check(arc, tolerance=0.05)
        assert not flagged.ok
        assert abs(flagged.max_violation - (1.0 - np.sqrt(0.5))) <= 1e-3


def test_criterion_09_convergence_rate():
    with criterion(9, "empirical gap shrinks at the root-n rate with monotone quantiles, < 5min"):
        start = time.perf_counter()
        result = run_convergence(
            motivating_spec(),
            sample_sizes=(100, 400, 1600, 6400, 25600),
            trials=50,
            seed=0,
        )
        cert = gap_certificate(result, delta=0.1)
        elapsed = time.perf_counter() - start
        assert -0.65 <= result.fitted_slope <= -0.35, result.fitted_slope
        assert cert.non_increasing, cert.quantiles
        assert elapsed < 300.0, f"{elapsed:.1f}s"


def _stable_worst_group(method: str, model, frame, thetas) -> bool:
    """True when the argmax/argmin group is the same at every probe point."""
    picks = []
    base = frame.baseline_array()
    gaps = frame.gap_array()
    ideal = frame.ideal_array()
    for theta in thetas:
        vals = model.values(theta)
        if method == "ri":
            picks.append(int(((base - vals) / gaps).argmin()))
        elif method == "gdro":
            picks.append(int(vals.argmax()))
        elif method == "mmv":
            picks.append(int((base - vals).argmin()))
        elif method == "mmr":
            picks.append(int((vals - ideal).argmax()))
    return len(set(picks)) <= 1


def test_criterion_10_supergradients_match_finite_differences():
    with criterion(10, "supergradients match central differences at 100 points per objective"):
        h = 1e-5
        specs = [(motivating_spec(), 60), (planar_spec(), 40)]
        for method in ("ri", "gdro", "mmv", "mmr", "nash"):
            checked = 0
            rng = np.random.default_rng(29)
            for spec, quota in specs:
                model = QuadraticGroupRisks.from_problem_spec(spec)
                frame = population_frame(spec)
                dim = spec.dim
                ri_center = None
                if method == "nash":
                    ri_center = np.asarray(
                        solve("ri", model, frame, spec.radius).parameter
                    )
                accepted = 0
                attempts = 0
                while accepted < quota and attempts < 20_000:
                    attempts += 1
                    if method == "nash":
                        theta = ri_center + rng.normal(0.0, 0.05 * spec.radius, dim)
                    else:
                        theta = rng.uniform(-0.8 * spec.radius, 0.8 * spec.radius, dim)
                    u = rng.normal(size=dim)
                    u /= np.linalg.norm(u)
                    lo, hi = theta - h * u, theta + h * u
                    if method == "nash":
                        gains_ok = all(
                            (frame.baseline_array() - model.values(p)).min() > 1e-3
                            for p in (lo, theta, hi)
                        )
                        if not gains_ok:
                            continue
                    elif not _stable_worst_group(method, model, frame, (lo, theta, hi)):
                        continue  # kinked between probes: one-sided derivative only
                    f_hi, _ = objective_and_supergradient(method, model, frame, hi)
                    f_lo, _ = objective_and_supergradient(method, model, frame, lo)
                    _, grad = objective_and_supergradient(method, model, frame, theta)
                    fd = (f_hi - f_lo) / (2.0 * h)
                    analytic = float(grad @ u)
                    assert abs(analytic - fd) <= 1e-4 * max(1.0, abs(fd)), (
                        f"{method}: {analytic} vs {fd}"
                    )
                    accepted += 1
                assert accepted == quota, f"{method}: only {accepted} stable points found"
                checked += accepted
            assert checked == 100

"""Self-test of the benchmark; not part of the package's test suite.

    python3 -m pytest -q bench/selftest.py

Every workload runs one unit, untraced and traced, and must print every
metric BENCHMARK.json names with its declared unit. The correctness gate must
accept the program's real outputs and reject corrupted ones (negative
controls), and the benchmark must refuse to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    res = result_of(run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                              "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == declared
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name


def test_same_seed_same_digest():
    digests = []
    for _ in range(2):
        proc = run_bench("--workload", "sweep", "--seed", "5", "--seconds", "0", "--trace", "0")
        result_of(proc)
        record = json.loads(proc.stdout.strip().splitlines()[-2].removeprefix("record: "))
        digests.append(record["outputs_digest"])
    assert digests[0] == digests[1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def solve_all(spec: inputs.Spec):
    """A spec solved by every method, as gate inputs, plus the methods that refused."""
    from fairgain import risk_models, solvers
    from fairgain.core import DegenerateBargainError

    ps = risk_models.ProblemSpec(
        groups=tuple(risk_models.GroupLinearModel(beta=b, sigma2=float(s), cov=c)
                     for b, c, s in zip(spec.betas, spec.covs, spec.sigma2)),
        radius=spec.radius,
    )
    frame = risk_models.population_frame(ps)
    model = solvers.group_risk_model(ps)
    reports, refused = {}, []
    for method in solvers.METHODS:
        try:
            rep = solvers.solve(method, model, frame, spec.radius)
        except DegenerateBargainError:
            refused.append(method)
            continue
        reports[method] = {"parameter": list(rep.parameter), "objective_value": rep.objective_value,
                           "certificate_gap": rep.certificate_gap}
    return spec, frame.baseline_array(), frame.ideal_array(), reports, refused


@pytest.fixture(scope="module")
def solved():
    """A sweep spec with a common gain, where no method refuses."""
    out = solve_all(inputs.sweep_specs(0, 2)[1])
    assert not out[4]
    return out[:4]


def gate_problems(solved, reports) -> dict[str, list[str]]:
    spec, base, ideal, _ = solved
    return gate.check_solves(reports, lambda th: inputs.spec_risks(spec, th), base, ideal,
                             spec.radius, 1e-6)


def corrupted(reports: dict, method: str, **changes) -> dict:
    out = {m: dict(r) for m, r in reports.items()}
    out[method].update(changes)
    return out


def test_gate_accepts_real_solves(solved):
    assert not any(gate_problems(solved, solved[3]).values())


@pytest.mark.parametrize("method,change", [
    ("ri", "objective"),        # objective no longer the value at the point
    ("gdro", "gap"),            # negative certificate gap
    ("mmr", "parameter"),       # point moved outside the ball
    ("ri", "unsound"),          # gap too small: another method's point beats the bound
])
def test_gate_rejects_corrupted_report(solved, method, change):
    spec, _, _, reports = solved
    rep = reports[method]
    if change == "objective":
        bad = corrupted(reports, method, objective_value=rep["objective_value"] + 1e-3)
    elif change == "gap":
        bad = corrupted(reports, method, certificate_gap=-1e-3)
    elif change == "parameter":
        bad = corrupted(reports, method, parameter=list(np.asarray(rep["parameter"]) * 2 * spec.radius
                                                       / max(np.linalg.norm(rep["parameter"]), 1e-9)))
    else:
        # self-consistent at the status quo, but the other methods' points beat it
        bad = corrupted(reports, method, parameter=[0.0, 0.0], objective_value=0.0,
                        certificate_gap=0.0)
    problems = gate_problems(solved, bad)[method]
    assert problems
    if change == "unsound":
        assert all("beyond the certified bound" in p for p in problems)


def test_gate_accepts_only_earned_refusals(solved):
    _, _, _, reports = solved
    # a spec without a common gain, where nash rightly refuses
    spec, base, ideal, degenerate, refused = solve_all(inputs.sweep_specs(0, 3)[2])
    assert refused == ["nash"]
    problems = gate.check_solves(degenerate, lambda th: inputs.spec_risks(spec, th), base, ideal,
                                 spec.radius, 1e-6)
    assert not gate.check_refusals(refused, degenerate, problems, 1e-6)
    # negative controls: a refusal from another method, or where ri shows a common gain
    assert gate.check_refusals(["gdro"], degenerate, problems, 1e-6)["gdro"]
    assert gate.check_refusals(["nash"], reports, {}, 1e-6)["nash"]
    # a nash refusal cannot lean on an ri solve that failed its own checks
    assert gate.check_refusals(["nash"], degenerate, {"ri": ["unsound"]}, 1e-6)["nash"]


def test_gate_rejects_bad_cli_outputs(tmp_path):
    base, ideal = inputs.spec_frame(inputs.PLANAR)
    risk_fn = lambda th: inputs.spec_risks(inputs.PLANAR, th)  # noqa: E731
    theta = np.array([0.2, 0.1])
    r = risk_fn(theta)
    rho = (base - r) / (base - ideal)
    row = ["gdro"] + [repr(float(v)) for v in (*theta, *r, *rho, rho.min(), r.max(),
                                                 (r - ideal).max(), r.max())]
    header = "method,theta_1,theta_2,r_1,r_2,rho_1,rho_2,min_rho,max_risk,max_regret,objective,oracle_objective"
    good = header + "\n" + ",".join(row + [repr(float(r.max() + 5e-4))]) + "\n"
    off = header + "\n" + ",".join(row + [repr(float(r.max() + 5e-3))]) + "\n"
    assert not gate.check_compare_csv(good, risk_fn, base, ideal, 1.0, 1e-6)
    assert gate.check_compare_csv(off, risk_fn, base, ideal, 1.0, 1e-6)
    assert gate.check_frontier_csv("lambda,rho1,rho2,r1,r2\n0.5,0.2,0.1,1,1\n0.6,0.1,0.3,1,1\n",
                                   base, ideal)

"""End-to-end command line runs against temp files."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fairgain import risk_models
from fairgain.cli import main
from fairgain.core import ConvergenceError
from fairgain.risk_models import (
    GroupedDataset,
    draw_dataset,
    save_problem_spec,
    write_dataset_csv,
)
from tests.conftest import motivating_spec, planar_spec

SCHEMA_PATH = (
    Path(__file__).resolve().parents[1]
    / "src"
    / "fairgain"
    / "schema"
    / "solve_report.schema.json"
)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    save_problem_spec(motivating_spec(), path)
    return str(path)


@pytest.fixture
def planar_file(tmp_path):
    path = tmp_path / "planar.json"
    save_problem_spec(planar_spec(), path)
    return str(path)


def test_solve_report_validates_against_schema(spec_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "solve",
            "--spec",
            spec_file,
            "--methods",
            "ri,leximin,gdro,mmv,mmr,nash",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(report, schema)
    assert set(report["methods"]) == {"ri", "leximin", "gdro", "mmv", "mmr", "nash"}
    assert report["frame"]["baseline_risks"] == [5.0, 58.0]
    assert report["frame"]["ideal_risks"] == [1.0, 9.0]
    ri = report["methods"]["ri"]
    assert ri["certified"]
    assert ri["objective_value"] == pytest.approx(56.0 / 81.0, abs=1e-5)


def test_solve_reruns_byte_identical(spec_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["solve", "--spec", spec_file, "--seed", "5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_writes_stdout_without_out(spec_file, capsys):
    assert main(["solve", "--spec", spec_file, "--methods", "ri"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "solve"


def test_exit_code_config_errors(tmp_path, spec_file):
    assert main(["solve", "--spec", str(tmp_path / "missing.json")]) == 2
    assert main(["solve"]) == 2
    assert main(["solve", "--spec", spec_file, "--data", "x.csv"]) == 2
    assert main(["solve", "--spec", spec_file, "--methods", "bogus"]) == 2
    assert main(["solve", "--spec", spec_file, "--tol", "-1"]) == 2
    assert main(["solve", "--spec", spec_file, "--tol", "0"]) == 2
    assert main(["converge", "--spec", spec_file, "--trials", "0"]) == 2
    assert main(["frontier", "--spec", spec_file, "--weights", "0"]) == 2
    assert main(["frontier", "--spec", spec_file, "--weights", "1"]) == 2
    assert main(["riskset", "--spec", spec_file, "--grid", "0"]) == 2
    assert main(["compare", "--spec", spec_file, "--oracle-grid", "0"]) == 2
    assert main(["compare", "--spec", spec_file, "--oracle-grid", "-0.1"]) == 2
    assert main(["bogus-command"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--spec", str(bad)]) == 2


def test_exit_code_degenerate(tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(
        '{"radius": 10.0, "groups": ['
        '{"beta": [0.0], "sigma2": 1.0},'
        '{"beta": [7.0], "sigma2": 9.0}]}'
    )
    assert main(["solve", "--spec", str(path)]) == 3


def test_exit_code_dimension(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(
        '{"radius": 1.0, "groups": ['
        '{"beta": [0.5, 0.0, 0.0, 0.0], "sigma2": 1.0},'
        '{"beta": [0.0, 0.5, 0.0, 0.0], "sigma2": 1.0}]}'
    )
    assert main(["riskset", "--spec", str(path)]) == 4
    assert main(["compare", "--spec", str(path), "--oracle-grid", "0.5"]) == 4


def test_exit_code_convergence(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(5)
    ds = draw_dataset(motivating_spec(), n_per_group=50, rng=rng)
    labels = tuple((y > 0).astype(float) for y in ds.labels)
    data = tmp_path / "labels.csv"
    write_dataset_csv(GroupedDataset(ds.features, labels, loss="logistic"), data)

    def stalled(X, y, radius, max_iters=500):
        raise ConvergenceError("logistic fit stalled with stationarity residual 1.000e-03")

    monkeypatch.setattr(risk_models, "_fit_logistic", stalled)
    code = main(["solve", "--data", str(data), "--loss", "logistic", "--methods", "ri"])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: logistic fit stalled")


def test_frontier_row_near_equal_improvement(spec_file, tmp_path):
    out = tmp_path / "frontier.csv"
    assert main(["frontier", "--spec", spec_file, "--weights", "200", "--out", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    target = 56.0 / 81.0
    dist = np.hypot(rows["rho1"] - target, rows["rho2"] - target)
    assert dist.min() <= 1e-3
    assert np.all(np.diff(rows["rho1"]) > 0)


def test_frontier_rejects_three_groups(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(
        '{"radius": 5.0, "groups": ['
        '{"beta": [2.0, 0.0], "sigma2": 1.0},'
        '{"beta": [7.0, 0.0], "sigma2": 9.0},'
        '{"beta": [0.0, 2.0], "sigma2": 1.0}]}'
    )
    assert main(["frontier", "--spec", str(path)]) == 4


def test_riskset_grid_row_count(planar_file, tmp_path):
    out = tmp_path / "riskset.csv"
    assert main(["riskset", "--spec", planar_file, "--grid", "101", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta_1,theta_2,r_1,r_2"
    assert len(lines) == 1 + 101 * 101


def test_compare_oracle_agreement(spec_file, tmp_path):
    out = tmp_path / "compare.csv"
    code = main(
        [
            "compare",
            "--spec",
            spec_file,
            "--methods",
            "ri,gdro,mmv,mmr,nash",
            "--oracle-grid",
            "1e-3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    i_obj = header.index("objective")
    i_oracle = header.index("oracle_objective")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[i_obj]) == pytest.approx(float(cells[i_oracle]), abs=1e-3)


def test_compare_prints_an_exact_zero_unsigned(tmp_path, capsys):
    # both groups share their optimum, so mmr reaches zero regret exactly
    path = tmp_path / "shared.json"
    path.write_text(
        '{"radius": 1.0, "groups": ['
        '{"beta": [0.5], "sigma2": 1.0},'
        '{"beta": [0.5], "sigma2": 2.0, "cov": [[4.0]]}]}'
    )
    assert main(["compare", "--spec", str(path), "--methods", "mmr", "--oracle-grid", "0.5"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["max_regret"] == "0.0"
    assert cells["oracle_objective"] == "0.0"


def test_solve_reports_a_zero_worst_group_unsigned(tmp_path, capsys):
    # opposing groups on a unit ball: the best worst group sits exactly at its baseline
    path = tmp_path / "opposing.json"
    path.write_text(
        '{"radius": 1.0, "groups": ['
        '{"beta": [1.0], "sigma2": 1.0}, {"beta": [-1.0], "sigma2": 1.0}]}'
    )
    assert main(["solve", "--spec", str(path), "--methods", "ri,mmv"]) == 0
    out = capsys.readouterr().out
    assert out.count('"objective_value": 0.0,') == 2
    assert main(["compare", "--spec", str(path), "--methods", "ri,mmv"]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["objective"] == cells["min_rho"] == "0.0"


def test_compare_oracle_needs_spec(tmp_path):
    rng = np.random.default_rng(0)
    ds = draw_dataset(motivating_spec(), n_per_group=50, rng=rng)
    data = tmp_path / "tiny.csv"
    write_dataset_csv(ds, data)
    code = main(
        ["compare", "--data", str(data), "--radius", "10", "--oracle-grid", "0.1"]
    )
    assert code == 2


def test_converge_outputs(spec_file, tmp_path):
    out = tmp_path / "gaps.csv"
    code = main(
        [
            "converge",
            "--spec",
            spec_file,
            "--ns",
            "100,400",
            "--trials",
            "4",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,trial,gap"
    assert len(lines) == 1 + 2 * 4
    summary = json.loads((tmp_path / "gaps.csv.summary.json").read_text())
    assert summary["sample_sizes"] == [100, 400]
    assert summary["trials"] == 4
    assert summary["population_value"] == pytest.approx(56.0 / 81.0, abs=1e-5)
    assert len(summary["quantiles"]) == 2
    assert isinstance(summary["quantile_non_increasing"], bool)


def test_solve_from_dataset_csv(tmp_path):
    rng = np.random.default_rng(33)
    ds = draw_dataset(motivating_spec(), n_per_group=5000, rng=rng)
    data = tmp_path / "toy.csv"
    write_dataset_csv(ds, data)
    out = tmp_path / "report.json"
    code = main(
        [
            "solve",
            "--data",
            str(data),
            "--radius",
            "10",
            "--methods",
            "ri,gdro",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))
    # 10k samples put the empirical equal-improvement value near 56/81
    assert report["methods"]["ri"]["objective_value"] == pytest.approx(
        56.0 / 81.0, abs=0.05
    )
    assert report["ball"] == 10.0


def test_solve_from_dataset_default_ball(tmp_path):
    rng = np.random.default_rng(34)
    ds = draw_dataset(motivating_spec(), n_per_group=400, rng=rng)
    data = tmp_path / "toy.csv"
    write_dataset_csv(ds, data)
    out = tmp_path / "report.json"
    assert main(["solve", "--data", str(data), "--methods", "ri", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # twice the largest single-group fit comfortably covers both betas
    assert 7.0 <= report["ball"] <= 20.0

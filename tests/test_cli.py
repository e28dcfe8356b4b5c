"""End-to-end command line runs against temp files."""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fairgain import cli, risk_models
from fairgain.cli import main
from fairgain.core import ConvergenceError, criterion_scores, criterion_value
from fairgain.empirical_study import run_convergence
from fairgain.risk_models import (
    GroupedDataset,
    draw_dataset,
    load_problem_spec,
    population_frame,
    save_problem_spec,
    write_dataset_csv,
)
from fairgain.solvers import METHODS, SolverConfig, group_risk_model
from tests.conftest import (
    assert_oracle_within_certificate,
    centred_risks,
    motivating_spec,
    planar_spec,
    random_logistic_dataset,
    three_group_spec,
)

OPPOSING_SPEC = (
    '{"radius": 1.0, "groups": ['
    '{"beta": [1.0], "sigma2": 1.0}, {"beta": [-1.0], "sigma2": 1.0}]}'
)

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


def test_out_naming_a_directory_leaves_no_temp_file(spec_file, tmp_path, capsys):
    target = tmp_path / "report"
    target.mkdir()
    assert main(["solve", "--spec", spec_file, "--methods", "ri", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.glob(".report.*.tmp")) == []
    assert target.is_dir() and not any(target.iterdir())


def test_solve_writes_stdout_without_out(spec_file, capsys):
    assert main(["solve", "--spec", spec_file, "--methods", "ri"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "solve"


def test_exit_code_config_errors(tmp_path, spec_file, capsys):
    assert main(["solve", "--spec", str(tmp_path / "missing.json")]) == 2
    assert main(["solve"]) == 2
    assert main(["solve", "--spec", spec_file, "--data", "x.csv"]) == 2
    assert main(["solve", "--spec", spec_file, "--methods", "bogus"]) == 2
    assert main(["solve", "--spec", spec_file, "--tol", "-1"]) == 2
    assert main(["solve", "--spec", spec_file, "--tol", "0"]) == 2
    assert main(["converge", "--spec", spec_file, "--trials", "0"]) == 2
    # the slope fit needs two distinct sizes and the quantile check reads in size order
    for ns in ("100,100", "400,100"):
        assert main(["converge", "--spec", spec_file, "--ns", ns]) == 2, ns
    assert main(["frontier", "--spec", spec_file, "--weights", "0"]) == 2
    assert main(["frontier", "--spec", spec_file, "--weights", "1"]) == 2
    assert main(["riskset", "--spec", spec_file, "--grid", "0"]) == 2
    assert main(["compare", "--spec", spec_file, "--oracle-grid", "0"]) == 2
    assert main(["compare", "--spec", spec_file, "--oracle-grid", "-0.1"]) == 2
    # flags a --spec run or the subcommand would ignore
    assert main(["solve", "--spec", spec_file, "--radius", "0.1"]) == 2
    assert main(["solve", "--spec", spec_file, "--loss", "logistic"]) == 2
    assert main(["compare", "--spec", spec_file, "--radius", "0.1"]) == 2
    assert main(["compare", "--spec", spec_file, "--loss", "squared"]) == 2
    for command in ("frontier", "riskset"):
        assert main([command, "--spec", spec_file, "--seed", "5"]) == 2, command
        assert main([command, "--spec", spec_file, "--tol", "3"]) == 2, command
    data = tmp_path / "data.csv"
    write_dataset_csv(draw_dataset(motivating_spec(), 20, np.random.default_rng(0)), data)
    for radius in ("-1", "0", "nan", "inf"):
        assert main(["solve", "--data", str(data), "--radius", radius]) == 2, radius
    assert main(["bogus-command"]) == 2
    # argparse rejects these: usage, then one error line naming the flag
    flag_errors = [
        (["compare", "--spec", spec_file, "--oracle-grid", "0"], "--oracle-grid"),
        (["compare", "--spec", spec_file, "--oracle-grid", "nan"], "--oracle-grid"),
        (["compare", "--spec", spec_file, "--oracle-grid", "inf"], "--oracle-grid"),
        (["compare", "--data", str(data), "--radius", "inf"], "--radius"),
        (["frontier"], "--spec"),
        (["riskset", "--out", str(tmp_path / "never.csv")], "--spec"),
        (["converge", "--trials", "2"], "--spec"),
        (["converge", "--spec", spec_file, "--ns", "1,x"], "--ns"),
        (["converge", "--spec", spec_file, "--ns", ""], "--ns"),
        (["solve", "--spec", spec_file, "--methods", ","], "--methods"),
        (["solve", "--spec", spec_file, "--methods", ""], "--methods"),
        (["compare", "--spec", spec_file, "--methods", "ri,bogus"], "--methods"),
        # a repeated name would write one solve entry but two compare rows
        (["solve", "--spec", spec_file, "--methods", "ri,ri"], "--methods"),
        (["compare", "--spec", spec_file, "--methods", "gdro,ri,gdro"], "--methods"),
    ]
    for argv, flag in flag_errors:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fairgain {argv[0]}"), argv
        error = err.splitlines()[-1]
        assert ": error: " in error and flag in error, (argv, error)
    assert not (tmp_path / "never.csv").exists()
    # the library's own range check: a NaN tol would never meet a gap test
    capsys.readouterr()
    assert main(["solve", "--spec", spec_file, "--tol", "nan"]) == 2
    assert capsys.readouterr().err == "error: tol must be positive\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--spec", str(bad)]) == 2
    group = '{"beta": [1.0], "sigma2": 1.0}'
    for text in (
        '{"radius": 1.0, "groups": 5}',
        '{"radius": 1.0, "groups": [1, 2]}',
        '{"radius": null, "groups": [%s, %s]}' % (group, group),
        '{"radius": 1.0, "groups": [{"beta": [1.0], "sigma2": null}, %s]}' % group,
        # JSON booleans and strings are not numbers, though float() reads them
        '{"radius": true, "groups": [%s, %s]}' % (group, group),
        '{"radius": "1.0", "groups": [%s, %s]}' % (group, group),
        '{"radius": 1.0, "groups": [{"beta": [true], "sigma2": 1.0}, %s]}' % group,
        '{"radius": 1.0, "groups": [{"beta": ["1.0"], "sigma2": 1.0}, %s]}' % group,
        '{"radius": 1.0, "groups": [{"beta": [1.0], "sigma2": false}, %s]}' % group,
        '{"radius": 1.0, "groups": [{"beta": [1.0], "sigma2": "1"}, %s]}' % group,
        '{"radius": 1.0, "groups": [{"beta": [1.0], "sigma2": 1.0, "cov": [[true]]}, %s]}' % group,
        '{"radius": 1.0, "groups": [{"beta": [1.0, 2.0], "sigma2": 1.0, "cov": [[1, 0], [0, "1"]]}, %s]}'
        % group,
    ):
        bad.write_text(text)
        assert main(["solve", "--spec", str(bad)]) == 2, text
    for cov in ("null", "[[NaN]]", "[[Infinity]]"):
        bad.write_text('{"radius": 1.0, "groups": [{"beta": [1.0], "sigma2": 1.0, "cov": %s}, %s]}' % (cov, group))
        capsys.readouterr()
        assert main(["solve", "--spec", str(bad)]) == 2, cov
        assert "cov" in capsys.readouterr().err, cov


# each subcommand's option strings: a change here adds or drops a CLI option
SUBCOMMAND_OPTIONS = {
    "solve": [
        "--data", "--help", "--loss", "--methods", "--out", "--radius", "--seed", "--spec",
        "--tol", "-h",
    ],
    "compare": [
        "--data", "--help", "--loss", "--methods", "--oracle-grid", "--out", "--radius", "--seed",
        "--spec", "--tol", "-h",
    ],
    "frontier": ["--help", "--out", "--spec", "--weights", "-h"],
    "riskset": ["--grid", "--help", "--out", "--spec", "-h"],
    "converge": ["--help", "--ns", "--out", "--seed", "--spec", "--tol", "--trials", "-h"],
}


def test_infinite_tol_is_a_config_error(spec_file, capsys):
    # every gap meets an infinite tol, so one iteration would read as certified
    for command in ("solve", "compare", "converge"):
        capsys.readouterr()
        assert main([command, "--spec", spec_file, "--tol", "inf"]) == 2, command
        assert capsys.readouterr().err == "error: tol must be finite\n", command


def test_spec_object_where_an_array_belongs_is_a_config_error(tmp_path, capsys):
    group = '{"beta": [1.0], "sigma2": 1.0}'
    bad = tmp_path / "bad.json"
    for entry, field in (
        ('{"beta": {}, "sigma2": 1.0}', "'beta'"),
        ('{"beta": [1.0], "sigma2": 1.0, "cov": {"a": 1}}', "'cov'"),
    ):
        bad.write_text('{"radius": 1.0, "groups": [%s, %s]}' % (group, entry))
        capsys.readouterr()
        assert main(["solve", "--spec", str(bad)]) == 2, entry
        assert capsys.readouterr().err.startswith(f"error: group 1: {field} "), entry


def test_empty_beta_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"radius": 1.0, "groups": [{"beta": [], "sigma2": 1.0}, {"beta": [1.0], "sigma2": 1.0}]}'
    )
    assert main(["solve", "--spec", str(bad)]) == 2
    assert capsys.readouterr().err == "error: group 0: 'beta' must have at least one entry\n"


def test_help_for_every_subcommand(capsys):
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subcommands.choices) == set(SUBCOMMAND_OPTIONS)
    helps = {}
    for command, options in SUBCOMMAND_OPTIONS.items():
        assert sorted(subcommands.choices[command]._option_string_actions) == options, command
        assert main([command, "--help"]) == 0, command
        helps[command] = " ".join(capsys.readouterr().out.split())
        assert helps[command].startswith(f"usage: fairgain {command}"), command
    assert "(default 100,400,1600,6400,25600)" in helps["converge"]


def test_exit_code_degenerate(tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(
        '{"radius": 10.0, "groups": ['
        '{"beta": [0.0], "sigma2": 1.0},'
        '{"beta": [7.0], "sigma2": 9.0}]}'
    )
    assert main(["solve", "--spec", str(path)]) == 3


def test_exit_code_dimension(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(
        '{"radius": 1.0, "groups": ['
        '{"beta": [0.5, 0.0, 0.0, 0.0], "sigma2": 1.0},'
        '{"beta": [0.0, 0.5, 0.0, 0.0], "sigma2": 1.0}]}'
    )
    assert main(["riskset", "--spec", str(path)]) == 4
    assert capsys.readouterr().err == "error: grid sampling covers d <= 3, got d = 4\n"
    assert main(["compare", "--spec", str(path), "--oracle-grid", "0.5"]) == 4


def _logistic_csv(tmp_path) -> str:
    rng = np.random.default_rng(5)
    ds = draw_dataset(motivating_spec(), n_per_group=50, rng=rng)
    labels = tuple((y > 0).astype(float) for y in ds.labels)
    data = tmp_path / "labels.csv"
    write_dataset_csv(GroupedDataset(ds.features, labels, loss="logistic"), data)
    return str(data)


def _stalled(self, w, radius):
    raise ConvergenceError("logistic minimization stalled with stationarity residual 1.000e-03")


def test_exit_code_convergence(tmp_path, monkeypatch, capsys):
    data = _logistic_csv(tmp_path)
    monkeypatch.setattr(risk_models.LogisticGroupRisks, "minimize", _stalled)
    code = main(["solve", "--data", data, "--loss", "logistic", "--methods", "ri"])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: logistic minimization stalled")


def test_exit_code_convergence_in_a_dual_evaluation(tmp_path, monkeypatch, capsys):
    # the frame fits converge; the first weighted minimization of the solve stalls
    data = _logistic_csv(tmp_path)
    fit_frame = risk_models.LogisticGroupRisks.frame

    def fit_then_stall(self, radius):
        frame = fit_frame(self, radius)
        monkeypatch.setattr(risk_models.LogisticGroupRisks, "minimize", _stalled)
        return frame

    monkeypatch.setattr(risk_models.LogisticGroupRisks, "frame", fit_then_stall)
    code = main(["solve", "--data", data, "--loss", "logistic", "--methods", "ri"])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: logistic minimization stalled")


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
    path.write_text(OPPOSING_SPEC)
    assert main(["solve", "--spec", str(path), "--methods", "ri,mmv"]) == 0
    out = capsys.readouterr().out
    assert out.count('"objective_value": 0.0,') == 2
    assert main(["compare", "--spec", str(path), "--methods", "ri,mmv"]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["objective"] == cells["min_rho"] == "0.0"


def test_oracle_grid_without_a_point_in_the_ball_is_a_config_error(planar_file, capsys):
    # step 5 on the unit ball leaves only (-1, -1), which lies outside it
    assert main(["compare", "--spec", planar_file, "--oracle-grid", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --oracle-grid step 5.0 leaves no grid point")


def _assert_no_oracle_beats_its_certificate(reports: dict, compare_csv: str) -> None:
    header, *rows = compare_csv.strip().split("\n")
    assert len(rows) == len(reports)
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        rep = reports[cells["method"]]
        assert rep["certified"], cells["method"]
        assert_oracle_within_certificate(
            cells["method"],
            rep["objective_value"],
            rep["certificate_gap"],
            float(cells["oracle_objective"]),
        )


def test_one_dimensional_oracle_grid_stays_in_the_ball(tmp_path, capsys):
    # at step 0.3 the radius-1 axis runs on to 1.1, closer to both betas than
    # any point of the ball; no oracle may score a point there
    path = tmp_path / "beyond.json"
    path.write_text(
        '{"radius": 1.0, "groups": ['
        '{"beta": [2.0], "sigma2": 1.0}, {"beta": [3.0], "sigma2": 1.0}]}'
    )
    assert main(["solve", "--spec", str(path)]) == 0
    reports = json.loads(capsys.readouterr().out)["methods"]
    assert main(["compare", "--spec", str(path), "--oracle-grid", "0.3"]) == 0
    _assert_no_oracle_beats_its_certificate(reports, capsys.readouterr().out)
    # at step 1e-3 the axis ends at 1.0000000000000018
    assert np.abs(np.concatenate(list(cli._oracle_grid_blocks(1, 1.0, 1e-3)))).max() <= 1.0


def test_oracle_grid_blocks_cover_the_grid_in_order(monkeypatch):
    for ball, step in ((1.0, 0.02), (1.0, 0.3), (1.0, 1.0), (5.0, 0.05)):
        axis = np.arange(-ball, ball + step / 2.0, step)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        plane = np.column_stack([xx.ravel(), yy.ravel()])
        plane = plane[np.linalg.norm(plane, axis=1) <= ball]
        # block 7 slices the x-rows of every grid but the coarsest two
        line = axis[np.abs(axis) <= ball][:, None]
        for block in (1, 7, 64, cli._ORACLE_BLOCK):
            monkeypatch.setattr(cli, "_ORACLE_BLOCK", block)
            for dim, grid in ((1, line), (2, plane)):
                blocks = list(cli._oracle_grid_blocks(dim, ball, step))
                np.testing.assert_array_equal(np.concatenate(blocks), grid)
                assert max(map(len, blocks)) <= block


def test_oracle_blocks_change_no_output(tmp_path, monkeypatch):
    # at the default block each of these grids is one block: the whole grid at once
    opposing = tmp_path / "opposing.json"
    opposing.write_text(OPPOSING_SPEC)
    specs = {}
    for name, spec in (
        ("motivating", motivating_spec()),
        ("planar", planar_spec()),
        ("three_group", three_group_spec()),
    ):
        specs[name] = tmp_path / f"{name}.json"
        save_problem_spec(spec, specs[name])
    runs = [
        (specs["motivating"], "1e-3", ",".join(METHODS)),
        (specs["planar"], "0.02", ",".join(METHODS)),
        (specs["three_group"], "0.05", ",".join(METHODS)),
        # ri and leximin tie at 0 in every block; nash finds no row helping both
        (opposing, "0.5", "ri,leximin,gdro,mmv,mmr"),
        (opposing, "0.5", ",".join(METHODS)),
    ]
    seen = {}
    for block in (1, 7, 64, cli._ORACLE_BLOCK):
        monkeypatch.setattr(cli, "_ORACLE_BLOCK", block)
        for i, (path, step, methods) in enumerate(runs):
            out = tmp_path / f"run{i}-{block}.csv"
            argv = ["compare", "--spec", str(path), "--oracle-grid", step, "--methods", methods]
            code = main(argv + ["--out", str(out)])
            got = (code, out.read_bytes() if out.exists() else None)
            assert seen.setdefault(i, got) == got, (path.name, step, block)
    assert [seen[i][0] for i in range(len(runs))] == [0, 0, 0, 0, 3]


def test_oracle_column_is_each_criterion_best_over_the_grid(tmp_path, capsys):
    # the whole in-ball grid at once, scored with the centred reference risks
    opposing = tmp_path / "opposing.json"
    opposing.write_text(OPPOSING_SPEC)
    runs = [
        (motivating_spec(), 1e-2, METHODS),
        (planar_spec(), 0.02, METHODS),
        (three_group_spec(), 0.05, METHODS),
        # no grid point helps both opposing groups, so nash has no oracle value
        (load_problem_spec(opposing), 0.5, METHODS[:-1]),
    ]
    for i, (spec, step, methods) in enumerate(runs):
        path = tmp_path / f"spec{i}.json"
        save_problem_spec(spec, path)
        argv = ["compare", "--spec", str(path), "--oracle-grid", str(step)]
        assert main(argv + ["--methods", ",".join(methods)]) == 0, i
        header, *rows = capsys.readouterr().out.strip().split("\n")
        oracle = {}
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            oracle[cells["method"]] = cells["oracle_objective"]
        ball = spec.radius
        axis = np.arange(-ball, ball + step / 2.0, step)
        grid = np.stack(np.meshgrid(*[axis] * spec.dim, indexing="ij"), axis=-1)
        grid = grid.reshape(-1, spec.dim)
        risks = centred_risks(spec, grid[np.linalg.norm(grid, axis=1) <= ball])
        frame = population_frame(spec)
        for method in methods:
            best = risks[np.argmax(criterion_scores(method, frame, risks))]
            expected = criterion_value(method, frame, best)
            assert float(oracle[method]) == pytest.approx(expected, abs=1e-9), (i, method)
        assert oracle["leximin"] == oracle["ri"], i


def test_oracle_memory_is_bounded_by_the_block():
    # planar: 785K points in the ball, which take 69 MB to score all at once;
    # logistic: 10K points, whose scores against each group's 500 rows, taken
    # all at once, would hold 41 MB
    spec = planar_spec()
    logistic = group_risk_model(
        random_logistic_dataset(np.random.default_rng(0), m=2, d=2, n=500, radius=2.0)
    )
    jobs = (
        (group_risk_model(spec), population_frame(spec), spec.radius, 2e-3),
        (logistic, logistic.frame(2.0), 2.0, 0.035),
    )
    for model, frame, ball, step in jobs:
        tracemalloc.start()
        try:
            cli._oracle_objectives(model, frame, ball, step, METHODS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MB"


def test_compare_oracle_on_data(tmp_path, capsys):
    # the oracle scores the grid with the data's own risk model, under either
    # loss; no grid point may beat a certified continuous objective
    squared = draw_dataset(planar_spec(), n_per_group=200, rng=np.random.default_rng(0))
    logistic = random_logistic_dataset(np.random.default_rng(0), m=2, d=2, n=200, radius=2.0)
    for ds, radius in ((squared, "1"), (logistic, "2")):
        data = tmp_path / f"{ds.loss}.csv"
        write_dataset_csv(ds, data)
        source = ["--data", str(data), "--loss", ds.loss, "--radius", radius]
        assert main(["solve"] + source) == 0, ds.loss
        reports = json.loads(capsys.readouterr().out)["methods"]
        assert main(["compare"] + source + ["--oracle-grid", "0.02"]) == 0, ds.loss
        _assert_no_oracle_beats_its_certificate(reports, capsys.readouterr().out)


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


def test_converge_reaches_a_million_per_group(spec_file, tmp_path):
    # moments are drawn without rows, so n = 10^6 costs what n = 100 does
    out = tmp_path / "decades.csv"
    ns = "10000,100000,1000000"
    code = main(["converge", "--spec", spec_file, "--ns", ns, "--trials", "4", "--out", str(out)])
    assert code == 0
    gaps = np.array([float(line.split(",")[2]) for line in out.read_text().split()[1:]])
    assert gaps.shape == (12,)
    assert np.all(np.isfinite(gaps)) and np.all(gaps >= 0.0)


def test_converge_seed_seeds_only_the_draws(tmp_path):
    # --seed keys the Monte Carlo draws and adds no random warm point to the
    # trials' solves, so the gaps are run_convergence's at that seed, bit for bit
    spec = tmp_path / "three.json"
    save_problem_spec(three_group_spec(), spec)
    out = tmp_path / "gaps.csv"
    argv = ["--spec", str(spec), "--ns", "100,400", "--trials", "4", "--seed", "3"]
    assert main(["converge"] + argv + ["--out", str(out)]) == 0
    gaps = [float(line.split(",")[2]) for line in out.read_text().split()[1:]]
    study = run_convergence(load_problem_spec(spec), [100, 400], 4, 3, SolverConfig())
    assert gaps == study.gaps.ravel().tolist()


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


def test_a_request_too_large_for_memory_exits_2(planar_file):
    # a 10^6 grid on a d = 2 spec asks numpy for 10^12 rows; the child's address
    # space is capped, so the allocation fails under any overcommit setting
    cap = 1 << 31
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "fairgain.cli", "riskset", "--spec", planar_file, "--grid", "1000000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=120,
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: Unable to allocate"), run.stderr
    assert "Traceback" not in run.stderr and run.stdout == ""


def test_cli_import_loads_no_scipy():
    # scipy serves the hull check and the tests only; the CLI starts on numpy alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys, fairgain.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=120,
    )
    assert run.stdout.strip() == "[]"


def test_solve_and_compare_load_no_numpy_ma(spec_file):
    # np.unique, and so np.setdiff1d, imports numpy.ma on first use, which costs a
    # CLI process over 10 ms. The probe runs without --seed, which loads numpy.random
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for command in ("solve", "compare"):
        probe = (
            "import contextlib, io, sys\n"
            "from fairgain.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main([{command!r}, '--spec', {spec_file!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            timeout=120,
        )
        assert run.stdout.strip() == "0 False", command

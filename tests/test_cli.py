"""End-to-end command line runs against temp files."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fairgain import cli, risk_models
from fairgain.cli import main
from fairgain.core import (
    ConvergenceError,
    DegenerateBargainError,
    criterion_scores,
    criterion_value,
)
from fairgain.empirical_study import run_convergence
from fairgain.risk_models import (
    GroupLinearModel,
    LogisticGroupRisks,
    ProblemSpec,
    load_problem_spec,
    population_frame,
)
from fairgain.solvers import METHODS, SolverConfig, group_risk_model
from tests.conftest import (
    assert_oracle_within_certificate,
    centred_risks,
    draw_dataset,
    motivating_spec,
    planar_spec,
    random_logistic_dataset,
    random_problem_spec,
    save_problem_spec,
    three_group_spec,
    write_dataset_csv,
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


def test_out_files_get_the_mode_a_plain_open_leaves(spec_file, tmp_path):
    # a new target gets 0o666 less the umask; an existing target keeps its mode
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    runs, summary = tmp_path / "runs.csv", tmp_path / "runs.csv.summary.json"
    old.write_text("{}")
    old.chmod(0o660)
    umask = os.umask(0o022)
    try:
        for out in (new, old):
            assert main(["solve", "--spec", spec_file, "--methods", "ri", "--out", str(out)]) == 0
        argv = ["converge", "--spec", spec_file, "--trials", "2", "--ns", "100,200"]
        assert main([*argv, "--out", str(runs)]) == 0
    finally:
        os.umask(umask)
    for path, mode in ((new, 0o644), (old, 0o660), (runs, 0o644), (summary, 0o644)):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path
    assert json.loads(old.read_text())["command"] == "solve"


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
    for command in ("solve", "compare"):
        assert main([command, "--spec", spec_file, "--seed", "-1"]) == 2, command
    # run_convergence checks its seed itself, so the message names it
    capsys.readouterr()
    assert main(["converge", "--spec", spec_file, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
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
        # nested past the recursion limit, for the JSON parser and for the number check
        '{"radius": 1.0, "groups": %s}' % ("[" * 200_000 + "]" * 200_000),
        '{"radius": 1.0, "groups": [{"beta": %s, "sigma2": 1.0}, %s]}' % ("[" * 900 + "1" + "]" * 900, group),
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
    "frontier": ["--data", "--help", "--loss", "--out", "--radius", "--spec", "--weights", "-h"],
    "riskset": ["--data", "--grid", "--help", "--loss", "--out", "--radius", "--spec", "-h"],
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


_ONE_D = {"beta": [1.0], "sigma2": 1.0}
_TWO_D = {"beta": [1.0, 2.0], "sigma2": 1.0}


@pytest.mark.parametrize(
    "name, content, error",
    [
        (
            "spec.json",
            {"radius": 1.0, "groups": [_ONE_D, {"beta": [[1.0, 2.0]], "sigma2": 1.0}]},
            "group 1: beta must be a vector",
        ),
        (
            "spec.json",
            {"radius": 1.0, "groups": [_TWO_D, {**_TWO_D, "cov": [[1.0]]}]},
            "group 1: cov must be 2x2, got (1, 1)",
        ),
        (
            "spec.json",
            {"radius": 1.0, "groups": [_TWO_D, {**_TWO_D, "cov": [[1, 0.5], [0, 1]]}]},
            "group 1: cov must be symmetric",
        ),
        (
            "spec.json",
            {"radius": 1.0, "groups": [_ONE_D, {"beta": [float("nan")], "sigma2": 1.0}]},
            "group 1: beta must be finite",
        ),
        (
            "spec.json",
            {"radius": 1.0, "groups": [_ONE_D, _TWO_D]},
            "all groups must share the feature dimension",
        ),
        ("spec.json", {"groups": [_ONE_D, _ONE_D]}, "problem spec JSON needs 'radius' and 'groups'"),
        ("data.csv", "grp,y,x1\na,1.0,0.5\nb,0.0,1.0\n", "{path}: header must be group,y,x1,...,xd"),
    ],
    ids=["beta-matrix", "cov-shape", "cov-asymmetric", "beta-nan", "mixed-dims", "no-radius", "csv-header"],
)
def test_an_input_check_exits_2_with_one_error_line(tmp_path, capsys, name, content, error):
    # a group model's own check is prefixed with the group, as the loader's checks are
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    source = "--data" if name.endswith(".csv") else "--spec"
    assert main(["solve", source, str(path)]) == 2
    assert capsys.readouterr().err == "error: " + error.format(path=path) + "\n"


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
    assert capsys.readouterr().err == "error: --oracle-grid covers d <= 3, got d = 4\n"


def _logistic_csv(tmp_path) -> str:
    rng = np.random.default_rng(5)
    features, labels = draw_dataset(motivating_spec(), n_per_group=50, rng=rng)
    data = tmp_path / "labels.csv"
    write_dataset_csv((features, [(y > 0).astype(float) for y in labels]), data)
    return str(data)


def _stalled(self, w, radius):
    raise ConvergenceError("logistic minimization stalled with stationarity residual 1.000e-03")


def test_exit_code_convergence(tmp_path, monkeypatch, capsys):
    data = _logistic_csv(tmp_path)
    monkeypatch.setattr(risk_models.LogisticGroupRisks, "minimize", _stalled)
    code = main(["solve", "--data", data, "--loss", "logistic", "--methods", "ri"])
    assert code == 5
    assert capsys.readouterr().err.startswith("error: logistic minimization stalled")


def test_exit_code_convergence_in_an_uncertified_study(spec_file, capsys):
    # every ri solve of this study stops near a gap of 5e-14, which no tol of 1e-300 admits
    argv = ["converge", "--spec", spec_file, "--ns", "100,400", "--trials", "3", "--tol", "1e-300"]
    assert main(argv) == 5
    assert capsys.readouterr().err.startswith("error: the population ri solve stopped at gap")


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


def test_frontier_and_riskset_on_data(tmp_path, capsys):
    # both read a dataset as solve does, squared or logistic, over solve's
    # default ball when --radius is absent; each row reads the data's own risks
    squared = draw_dataset(planar_spec(), n_per_group=200, rng=np.random.default_rng(0))
    logistic = random_logistic_dataset(np.random.default_rng(0), m=2, d=2, n=200, radius=2.0)
    for loss, sample in (("squared", squared), ("logistic", logistic)):
        data = tmp_path / f"{loss}.csv"
        write_dataset_csv(sample, data)
        model = risk_models.load_dataset_csv(str(data), loss=loss)
        for radius in (None, "1.5"):
            source = ["--data", str(data), "--loss", loss]
            source += [] if radius is None else ["--radius", radius]
            assert main(["solve", "--methods", "ri"] + source) == 0, loss
            ball = json.loads(capsys.readouterr().out)["ball"]
            frame = model.frame(ball)
            assert main(["frontier", "--weights", "20"] + source) == 0, loss
            header, *rows = capsys.readouterr().out.strip().split("\n")
            assert header == "lambda,rho1,rho2,r1,r2"
            rows = np.array([[float(v) for v in row.split(",")] for row in rows])
            assert len(rows) >= 20 and np.all(np.diff(rows[:, 1]) > 0), loss
            rho = (frame.baseline_array() - rows[:, 3:]) / frame.gap_array()
            assert np.allclose(rho, rows[:, 1:3], rtol=0.0, atol=1e-12), loss
            assert main(["riskset", "--grid", "11"] + source) == 0, loss
            header, *rows = capsys.readouterr().out.strip().split("\n")
            assert header == "theta_1,theta_2,r_1,r_2" and len(rows) == 11 * 11
            rows = np.array([[float(v) for v in row.split(",")] for row in rows])
            assert np.max(np.linalg.norm(rows[:, :2], axis=1)) == pytest.approx(ball, rel=1e-12)
            assert np.array_equal(model.values(rows[:, :2]), rows[:, 2:]), loss
    # three groups have no two-group frontier, and a spec takes no --radius
    data = tmp_path / "three.csv"
    write_dataset_csv(draw_dataset(three_group_spec(), 50, np.random.default_rng(0)), data)
    capsys.readouterr()
    assert main(["frontier", "--data", str(data)]) == 4
    assert capsys.readouterr().err == "error: frontier tracing needs exactly two groups, got 3\n"
    path = tmp_path / "planar.json"
    save_problem_spec(planar_spec(), path)
    for command in ("frontier", "riskset"):
        assert main([command, "--spec", str(path), "--radius", "1"]) == 2, command
        assert main([command, "--spec", str(path), "--data", str(data)]) == 2, command


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
    assert np.abs(_tiled_grid(1, 1.0, 1e-3)).max() <= 1.0


def _ball_grid(dim: int, ball: float, step: float) -> np.ndarray:
    # the oracle's grid: the axis's meshgrid("ij") points in the ball, in order
    axis = np.arange(-ball, ball + step / 2.0, step)
    grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    return grid[np.linalg.norm(grid, axis=1) <= ball]


def _tiled_grid(dim: int, ball: float, step: float) -> np.ndarray:
    # every tile's points in the ball, in the order of their grid index
    axis, tiles = cli._oracle_tiles(dim, ball, step)
    assert (np.prod(tiles[..., 1] - tiles[..., 0] + 1, axis=1) <= cli._TILE_POINTS).all()
    pieces = [cli._tile_points(axis, ball, tile) for tile in tiles]
    points = np.concatenate([p for p, _ in pieces])
    index = np.concatenate([i for _, i in pieces])
    assert len(np.unique(index)) == len(index)
    return points[np.argsort(index)]


def test_oracle_tiles_cover_the_grid_in_order(monkeypatch):
    # tiles of 1 point, and of 50 and 512 points (7 and 22 a side at d = 2,
    # 3 and 8 at d = 3), which cut the axes of the finer grids
    grids = [(1.0, 0.02), (1.0, 0.3), (1.0, 1.0), (5.0, 0.05)]
    cubes = [(1.0, 0.1), (1.0, 0.3), (1.0, 1.0), (2.0, 0.1)]
    for points in (1, 50, 512, cli._TILE_POINTS):
        monkeypatch.setattr(cli, "_TILE_POINTS", points)
        for dim, ball, step in [(d, *g) for d in (1, 2) for g in grids] + [(3, *g) for g in cubes]:
            grid = _ball_grid(dim, ball, step)
            np.testing.assert_array_equal(_tiled_grid(dim, ball, step), grid, (dim, ball, step))


def test_oracle_tiles_change_no_output(tmp_path, monkeypatch):
    # tiles of 1 point bound single points, of 49 (7 a side at d = 2, 3 at
    # d = 3) and 512 cut every axis, and 4,096 is the default
    opposing = tmp_path / "opposing.json"
    opposing.write_text(OPPOSING_SPEC)
    specs = {}
    for name, spec in (
        ("motivating", motivating_spec()),
        ("planar", planar_spec()),
        ("three_group", three_group_spec()),
        ("cubic", random_problem_spec(np.random.default_rng(3), m=3, d=3, radius=3.0)),
    ):
        specs[name] = tmp_path / f"{name}.json"
        save_problem_spec(spec, specs[name])
    runs = [
        (specs["motivating"], "1e-3", ",".join(METHODS)),
        (specs["planar"], "0.02", ",".join(METHODS)),
        (specs["three_group"], "0.05", ",".join(METHODS)),
        # ri and leximin tie at 0 in every tiling; nash finds no row helping both
        (opposing, "0.5", "ri,leximin,gdro,mmv,mmr"),
        (opposing, "0.5", ",".join(METHODS)),
        # a step just under 2r/21: at 7 a side a visited tile holds no in-ball point
        (specs["three_group"], "0.4761", ",".join(METHODS)),
        (specs["cubic"], "0.2", ",".join(METHODS)),
    ]
    tile_points, empty = cli._tile_points, []

    def spy(axis, ball, tile):
        thetas, index = tile_points(axis, ball, tile)
        empty.append(not len(thetas))
        return thetas, index

    monkeypatch.setattr(cli, "_tile_points", spy)
    seen = {}
    for points in (1, 49, 512, cli._TILE_POINTS):
        monkeypatch.setattr(cli, "_TILE_POINTS", points)
        for i, (path, step, methods) in enumerate(runs):
            out = tmp_path / f"run{i}-{points}.csv"
            argv = ["compare", "--spec", str(path), "--oracle-grid", step, "--methods", methods]
            code = main(argv + ["--out", str(out)])
            got = (code, out.read_bytes() if out.exists() else None)
            assert seen.setdefault(i, got) == got, (path.name, step, points)
    assert [seen[i][0] for i in range(len(runs))] == [0, 0, 0, 0, 3, 0, 0]
    assert any(empty)


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


def test_oracle_memory_is_bounded_by_the_tile():
    # planar: 785K points in the ball, which take 69 MB to score all at once;
    # logistic: 10K points, whose scores against each group's 500 rows, taken
    # all at once, would hold 41 MB; cubic: 113M points in the ball, whose
    # tiles held 54 MB at 64 points a side
    spec = planar_spec()
    logistic = LogisticGroupRisks(
        *random_logistic_dataset(np.random.default_rng(0), m=2, d=2, n=500, radius=2.0)
    )
    cubic = random_problem_spec(np.random.default_rng(4), m=3, d=3, radius=3.0)
    jobs = (
        (group_risk_model(spec), population_frame(spec), spec.radius, 2e-3),
        (logistic, logistic.frame(2.0), 2.0, 0.035),
        (group_risk_model(cubic), population_frame(cubic), cubic.radius, 0.01),
    )
    for model, frame, ball, step in jobs:
        tracemalloc.start()
        try:
            cli._oracle_objectives(model, frame, ball, step, METHODS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MB"


def _exhaustive_oracle(model, frame, ball: float, step: float) -> dict[str, str]:
    # every in-ball grid point scored at once, each criterion's first best row; no nash where it refuses
    risks = model.values(_ball_grid(model.dim, ball, step))
    out = {}
    for method in METHODS:
        scores = criterion_scores("ri" if method == "leximin" else method, frame, risks)
        if scores.max() > -np.inf:
            out[method] = criterion_value(method, frame, risks[np.argmax(scores)]).hex()
    return out


def _assert_oracle_matches_an_exhaustive_scan(jobs) -> tuple[int, int]:
    # the oracle's bits against the scan's for every method, and a nash refusal
    # where the scan has no nash row; returns (values matched, refusals)
    matched = refusals = 0
    for i, (model, frame, ball, step) in enumerate(jobs):
        expected = _exhaustive_oracle(model, frame, ball, step)
        if "nash" not in expected:
            refusals += 1
            with pytest.raises(DegenerateBargainError):
                cli._oracle_objectives(model, frame, ball, step, METHODS)
        got = cli._oracle_objectives(model, frame, ball, step, tuple(expected))
        assert {method: value.hex() for method, value in got.items()} == expected, i
        matched += len(got)
    return matched, refusals


def test_oracle_matches_an_exhaustive_scan_bit_for_bit(tmp_path):
    # the first 30 specs of acceptance criterion 3
    rng = np.random.default_rng(7)
    specs = [
        (random_problem_spec(rng, m=int(rng.integers(2, 5)), d=2, radius=3.0), 0.01)
        for _ in range(30)
    ]
    opposing = tmp_path / "opposing.json"
    opposing.write_text(OPPOSING_SPEC)
    # both groups' unconstrained optima lie outside the ball
    outside = (
        GroupLinearModel(np.array([3.0, 0.5]), 1.0, np.eye(2)),
        GroupLinearModel(np.array([-0.5, 4.0]), 2.0, np.diag([2.0, 0.5])),
    )
    # an eigenvalue of -9e-11 and an asymmetry of 5e-11, which the loader admits
    off = 1.0 + 9e-11
    concave = (
        GroupLinearModel(np.array([1.0, 0.0]), 1.0, np.eye(2)),
        GroupLinearModel(np.array([0.0, 2.0]), 1.0, np.array([[1.0, off + 5e-11], [off, 1.0]])),
    )
    specs += [
        (motivating_spec(), 1e-4),
        # ri and leximin tie at 0, and no point helps both groups
        (load_problem_spec(opposing), 1e-3),
        (ProblemSpec(outside, 1.0), 0.01),
        (ProblemSpec(concave, 2.0), 0.01),
    ]
    jobs = [(group_risk_model(spec), population_frame(spec), spec.radius, step) for spec, step in specs]
    for seed in (0, 2):
        model = LogisticGroupRisks(
            *random_logistic_dataset(np.random.default_rng(seed), m=3, d=2, n=200, radius=2.0)
        )
        jobs.append((model, model.frame(2.0), 2.0, 0.05))
    _, refusals = _assert_oracle_matches_an_exhaustive_scan(jobs)
    assert 0 < refusals < len(jobs)


def test_three_dimensional_oracle_matches_an_exhaustive_scan_bit_for_bit():
    rng = np.random.default_rng(5)
    jobs = []
    for _ in range(40):
        spec = random_problem_spec(rng, m=int(rng.integers(2, 5)), d=3, radius=3.0)
        step = float(rng.choice([0.1, 0.15, 0.29]))
        jobs.append((group_risk_model(spec), population_frame(spec), spec.radius, step))
    for seed in range(3):
        model = LogisticGroupRisks(
            *random_logistic_dataset(np.random.default_rng(seed), m=2, d=3, n=60, radius=2.0)
        )
        jobs.append((model, model.frame(2.0), 2.0, 0.25))
    quadratic = _assert_oracle_matches_an_exhaustive_scan(jobs[:40])
    logistic = _assert_oracle_matches_an_exhaustive_scan(jobs[40:])
    assert (quadratic, logistic) == ((234, 6), (17, 1))


def test_oracle_scores_a_small_share_of_the_planar_grid():
    # the benchmark's planar request: 3,141,529 grid points lie in the ball
    spec = planar_spec()
    model = group_risk_model(spec)
    values, rows = model.values, []
    model.values = lambda thetas: rows.append(len(thetas)) or values(thetas)
    cli._oracle_objectives(model, population_frame(spec), spec.radius, 1e-3, METHODS)
    assert sum(rows) <= 0.05 * 3_141_529, sum(rows)


def test_compare_oracle_on_data(tmp_path, capsys):
    # the oracle scores the grid with the data's own risk model, under either
    # loss; no grid point may beat a certified continuous objective
    squared = draw_dataset(planar_spec(), n_per_group=200, rng=np.random.default_rng(0))
    logistic = random_logistic_dataset(np.random.default_rng(0), m=2, d=2, n=200, radius=2.0)
    for loss, sample, radius in (("squared", squared, "1"), ("logistic", logistic, "2")):
        data = tmp_path / f"{loss}.csv"
        write_dataset_csv(sample, data)
        source = ["--data", str(data), "--loss", loss, "--radius", radius]
        assert main(["solve"] + source) == 0, loss
        reports = json.loads(capsys.readouterr().out)["methods"]
        assert main(["compare"] + source + ["--oracle-grid", "0.02"]) == 0, loss
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
    data = tmp_path / "toy.csv"
    write_dataset_csv(draw_dataset(motivating_spec(), n_per_group=5000, rng=rng), data)
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
    data = tmp_path / "toy.csv"
    write_dataset_csv(draw_dataset(motivating_spec(), n_per_group=400, rng=rng), data)
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
    # scipy serves the tests only; the CLI starts on numpy alone, and loads
    # geometry and the convergence study only for the commands that run them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        "import sys, fairgain.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m in ('fairgain.geometry', 'fairgain.empirical_study')))"
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


def test_every_command_runs_without_scipy(spec_file, tmp_path):
    # the package depends on numpy alone: with scipy unimportable, each
    # command runs to exit 0, a CSV's squared and logistic fits too (CI's
    # numpy-only step runs them all)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    logit = tmp_path / "logit.csv"
    logit.write_text(
        "group,y,x1,x2\na,1,1.0,0.5\na,0,-1.0,0.2\na,1,0.8,-0.3\na,0,-0.5,-1.0\na,1,0.3,1.2\n"
        "b,1,0.2,1.0\nb,0,0.4,-1.1\nb,1,-0.6,0.9\nb,0,1.1,-0.4\nb,0,-0.2,-0.7\n"
    )
    commands = [
        ["solve", "--spec", spec_file],
        ["solve", "--data", str(logit)],
        ["solve", "--data", str(logit), "--loss", "logistic"],
        ["compare", "--spec", spec_file, "--oracle-grid", "0.05"],
        ["frontier", "--spec", spec_file, "--weights", "20"],
        ["riskset", "--spec", spec_file, "--grid", "11"],
        ["converge", "--spec", spec_file, "--ns", "100,400", "--trials", "3"],
    ]
    commands = [[*argv, "--out", str(tmp_path / f"out{i}")] for i, argv in enumerate(commands)]
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from fairgain.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    print(main(argv))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert run.stdout.split() == ["0"] * len(commands), run.stderr


def test_solve_and_compare_load_no_numpy_ma(spec_file):
    # np.unique, and so np.setdiff1d, imports numpy.ma on first use, which costs a
    # CLI process over 10 ms, and numpy.random's import costs about as much; a
    # seeded run draws its warm point with the standard library's generator
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for command, seed in itertools.product(("solve", "compare"), ([], ["--seed", "5"])):
        probe = (
            "import contextlib, io, sys\n"
            "from fairgain.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main([{command!r}, '--spec', {spec_file!r}, *{seed!r}])\n"
            "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            timeout=120,
        )
        assert run.stdout.strip() == "0 False False", (command, seed)


@pytest.mark.parametrize(
    "text, loss, error",
    [
        ("", "squared", "{path}: empty file"),
        ("group,y,x1\na,1,2\nb,1\n", "squared", "{path}:3: expected 3 fields, got 2"),
        (
            "group,y,x1\na,1,2\nb,one,2\n",
            "squared",
            "{path}:3: non-numeric value (could not convert string to float: 'one')",
        ),
        ("group,y,x1\na,1,2\na,2,1\n", "squared", "{path}: needs at least two groups"),
        # float() reads nan and inf; centring would spread a NaN label to every group
        ("group,y,x1\na,1,2\nb,nan,2\n", "squared", "{path}:3: non-finite value"),
        ("group,y,x1\na,1,2\n\nb,0,-inf\n", "squared", "{path}:4: non-finite value"),
        (
            "group,y,x1\na,1,2\na,0,1\nb,0.5,1\nb,1,3\n",
            "logistic",
            "{path}:4: logistic labels must be 0 or 1, got 0.5",
        ),
        # Excel's "CSV UTF-8" starts with a byte order mark
        ("\ufeffgroup,y,x1\na,1,2\na,2,1\nb,0,1\nb,1,3\n", "squared", None),
    ],
    ids=[
        "empty", "fields", "non-numeric", "one-group", "nan-label", "inf-feature", "logistic-label", "bom",
    ],
)
def test_dataset_csv_errors_exit_2_naming_the_file_and_line(tmp_path, capsys, text, loss, error):
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    argv = ["solve", "--data", str(data), "--loss", loss, "--radius", "2", "--methods", "ri"]
    code = main(argv + ["--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    if error is None:
        assert (code, err) == (0, "")
        return
    assert (code, err) == (2, f"error: {error.format(path=data)}\n")


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize(
    "text, error",
    [
        # a byte order mark, as Windows editors save UTF-8
        ('\ufeff{"radius": 10.0, "groups": [{"beta": [2.0], "sigma2": 1.0}, {"beta": [7.0], "sigma2": 9.0}]}', None),
        ('{"radius": 10.0, "groups": [', "{path}: Expecting value: line 1 column 29 (char 28)"),
    ],
    ids=["bom", "syntax"],
)
def test_spec_json_errors_exit_2_naming_the_file(tmp_path, capsys, command, text, error):
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    argv = [command, "--spec", str(spec), "--out", str(tmp_path / "out")]
    code = main(argv + (["--ns", "100,400", "--trials", "2"] if command == "converge" else []))
    err = capsys.readouterr().err
    if error is None:
        assert (code, err) == (0, "")
        return
    assert (code, err) == (2, f"error: {error.format(path=spec)}\n")


def test_data_whose_moments_overflow_exits_2_with_one_error_line(tmp_path, capsys):
    # x1 * x1 = 1e400 and y * y overflow, so the squared-loss moments are inf;
    # in the second file the labels' pooled mean, which centres them, overflows
    # first. Both are refused as non-finite with one error line and no
    # RuntimeWarning, in process (where warnings are errors) and in a child
    # that only prints them
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for i, text in enumerate(
        (
            "group,y,x1,x2\na,1e200,1e200,1\na,1.0,0.5,0.2\na,2.0,0.1,0.9\nb,0.5,0.3,0.3\nb,1.5,0.7,0.1\n",
            "group,y,x1\na,1e308,1\na,1e308,2\nb,1,0.5\nb,2,0.3\n",
        )
    ):
        data = tmp_path / f"overflow{i}.csv"
        data.write_text(text)
        assert main(["solve", "--data", str(data), "--radius", "2"]) == 2, i
        err = capsys.readouterr().err
        assert err == "error: quadratic risk moments must be finite\n", i
        for flags in ([], ["-W", "error::RuntimeWarning"]):
            run = subprocess.run(
                [sys.executable, *flags, "-m", "fairgain.cli", "solve", "--data", str(data), "--radius", "2"],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
                timeout=120,
            )
            assert (run.returncode, run.stderr, run.stdout) == (2, err, ""), (i, flags)

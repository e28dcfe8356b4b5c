"""Command line interface: solve, compare, frontier, riskset, converge.

Exit codes: 0 on success, 2 for configuration problems, 3 for a degenerate
bargaining frame or when no point gives every group a strictly positive gain
(nash), 4 for unsupported dimensionality, 5 when an iterative fit or the
convergence study stops without converging. Output files are written
atomically and are byte-identical across runs with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fairgain.bargain_discrete import (
    DiscreteFeasibleSet,
    gdro as oracle_gdro,
    ks_maximin as oracle_ks,
    mmr as oracle_mmr,
    mmv as oracle_mmv,
    nash as oracle_nash,
)
from fairgain.core import (
    BargainingFrame,
    ConvergenceError,
    DegenerateBargainError,
    DegenerateFrameError,
    UnsupportedDimensionError,
    criterion_value,
)
from fairgain.empirical_study import gap_certificate, run_convergence
from fairgain.geometry import sample_risk_set, trace_frontier
from fairgain.risk_models import (
    GroupedDataset,
    ProblemSpec,
    empirical_frame,
    fit_group_optimal,
    load_dataset_csv,
    load_problem_spec,
    population_frame,
    population_risks,
)
from fairgain.solvers import METHODS, SolverConfig, group_risk_model, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DIMENSION = 4
EXIT_CONVERGENCE = 5


@dataclass
class RunConfig:
    """Validated run settings shared by the subcommands."""

    command: str
    spec_path: str | None = None
    data_path: str | None = None
    methods: tuple[str, ...] = METHODS
    out: str | None = None
    seed: int | None = None
    tol: float = 1e-6
    oracle_grid: float | None = None
    weights: int = 200
    grid: int = 101
    trials: int = 50
    ns: tuple[int, ...] = (100, 400, 1600, 6400, 25600)
    loss: str = "squared"
    radius: float | None = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        methods = tuple(METHODS)
        if getattr(args, "methods", None):
            methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
            bad = [m for m in methods if m not in METHODS]
            if bad:
                raise ValueError(f"unknown methods {bad}; choose from {list(METHODS)}")
            if not methods:
                raise ValueError("at least one method is required")
        ns = cls.ns
        if getattr(args, "ns", None):
            try:
                ns = tuple(int(v) for v in args.ns.split(","))
            except ValueError:
                raise ValueError(f"--ns must be comma-separated integers, got {args.ns!r}")
        spec_path = getattr(args, "spec", None)
        data_path = getattr(args, "data", None)
        if args.command in ("solve", "compare") and bool(spec_path) == bool(data_path):
            raise ValueError("pass exactly one of --spec or --data")
        if args.command in ("frontier", "riskset", "converge") and not spec_path:
            raise ValueError(f"{args.command} needs --spec")
        tol = float(getattr(args, "tol", cls.tol))
        if not tol > 0:
            raise ValueError("--tol must be positive")
        oracle_grid = getattr(args, "oracle_grid", None)
        if oracle_grid is not None and not oracle_grid > 0:
            raise ValueError(f"--oracle-grid step must be positive, got {oracle_grid}")
        minimums = {"weights": 2, "grid": 2, "trials": 1}
        counts = {name: getattr(args, name, getattr(cls, name)) for name in minimums}
        for name, low in minimums.items():
            if counts[name] < low:
                raise ValueError(f"--{name} must be at least {low}, got {counts[name]}")
        return cls(
            command=args.command,
            spec_path=spec_path,
            data_path=data_path,
            methods=methods,
            out=getattr(args, "out", None),
            seed=getattr(args, "seed", None),
            tol=tol,
            oracle_grid=oracle_grid,
            ns=ns,
            loss=getattr(args, "loss", "squared"),
            radius=getattr(args, "radius", None),
            **counts,
        )

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tol=self.tol, seed=self.seed)


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)


def _fmt(v: float) -> str:
    return repr(float(v))


def _load_source(cfg: RunConfig) -> tuple[ProblemSpec | GroupedDataset, BargainingFrame, float]:
    if cfg.spec_path:
        spec = load_problem_spec(cfg.spec_path)
        return spec, population_frame(spec), spec.radius
    ds = load_dataset_csv(cfg.data_path, loss=cfg.loss, radius=cfg.radius)
    ball = cfg.radius
    if ball is None:
        # generous default: twice the largest per-group fit, found without a ball
        norms = [
            float(np.linalg.norm(fit_group_optimal(ds, g)[0].theta))
            for g in range(ds.num_groups)
        ]
        ball = max(1.0, 2.0 * max(norms))
        ds = replace(ds, radius=ball)
    return ds, empirical_frame(ds), ball


def cmd_solve(cfg: RunConfig) -> int:
    source, frame, ball = _load_source(cfg)
    model = group_risk_model(source)
    scfg = cfg.solver_config()
    results = {}
    for method in cfg.methods:
        rep = solve(method, model, frame, ball, scfg)
        results[method] = {
            "parameter": list(rep.parameter),
            "risks": list(rep.risk_profile.values),
            "improvements": list(rep.improvement_profile.rhos),
            "objective_value": rep.objective_value,
            "iterations": rep.iterations,
            "certificate_gap": rep.certificate_gap,
            "certified": rep.certified(cfg.tol),
        }
    report = {
        "command": "solve",
        "source": cfg.spec_path or cfg.data_path,
        "ball": ball,
        "tol": cfg.tol,
        "seed": cfg.seed,
        "frame": {
            "baseline_risks": list(frame.baseline_risks),
            "ideal_risks": list(frame.ideal_risks),
        },
        "methods": results,
    }
    _emit(cfg, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _oracle_objectives(
    spec_or_ds, frame: BargainingFrame, ball: float, step: float, methods
) -> dict[str, float]:
    if not isinstance(spec_or_ds, ProblemSpec):
        raise ValueError("--oracle-grid needs --spec (population grids)")
    spec = spec_or_ds
    if spec.dim == 1:
        thetas = np.arange(-ball, ball + step / 2.0, step)[:, None]
    elif spec.dim == 2:
        axis = np.arange(-ball, ball + step / 2.0, step)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        thetas = np.column_stack([xx.ravel(), yy.ravel()])
        thetas = thetas[np.linalg.norm(thetas, axis=1) <= ball]
    else:
        raise UnsupportedDimensionError("--oracle-grid covers d <= 2")
    dset = DiscreteFeasibleSet(population_risks(spec, thetas), frame)
    # looked up per call, so a wrapped oracle binding is the one that runs
    oracles = {
        "ri": oracle_ks,
        "leximin": oracle_ks,
        "gdro": oracle_gdro,
        "mmv": oracle_mmv,
        "mmr": oracle_mmr,
        "nash": oracle_nash,
    }
    return {
        method: criterion_value(method, frame, oracles[method](dset)[1].as_array())
        for method in methods
    }


def cmd_compare(cfg: RunConfig) -> int:
    source, frame, ball = _load_source(cfg)
    model = group_risk_model(source)
    scfg = cfg.solver_config()
    oracle = (
        _oracle_objectives(source, frame, ball, cfg.oracle_grid, cfg.methods)
        if cfg.oracle_grid is not None
        else None
    )
    d = model.dim
    m = frame.num_groups
    header = (
        ["method"]
        + [f"theta_{j}" for j in range(1, d + 1)]
        + [f"r_{g}" for g in range(1, m + 1)]
        + [f"rho_{g}" for g in range(1, m + 1)]
        + ["min_rho", "max_risk", "max_regret", "objective"]
    )
    if oracle is not None:
        header.append("oracle_objective")
    lines = [",".join(header)]
    for method in cfg.methods:
        rep = solve(method, model, frame, ball, scfg)
        risks = rep.risk_profile.as_array()
        rho = rep.improvement_profile.as_array()
        row = (
            [method]
            + [_fmt(v) for v in rep.parameter]
            + [_fmt(v) for v in risks]
            + [_fmt(v) for v in rho]
            + [
                _fmt(criterion_value("ri", frame, risks)),
                _fmt(criterion_value("gdro", frame, risks)),
                _fmt(criterion_value("mmr", frame, risks)),
                _fmt(rep.objective_value),
            ]
        )
        if oracle is not None:
            row.append(_fmt(oracle[method]))
        lines.append(",".join(row))
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_frontier(cfg: RunConfig) -> int:
    spec = load_problem_spec(cfg.spec_path)
    trace = trace_frontier(spec, cfg.weights)
    lines = ["lambda,rho1,rho2,r1,r2"]
    for lam, rho, risks in zip(trace.lambdas, trace.points, trace.risks):
        lines.append(
            ",".join([_fmt(lam), _fmt(rho[0]), _fmt(rho[1]), _fmt(risks[0]), _fmt(risks[1])])
        )
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_riskset(cfg: RunConfig) -> int:
    spec = load_problem_spec(cfg.spec_path)
    population_frame(spec)  # surfaces degenerate frames before the big sample
    sample = sample_risk_set(spec, grid=cfg.grid)
    d = sample.thetas.shape[1]
    m = sample.risks.shape[1]
    header = [f"theta_{j}" for j in range(1, d + 1)] + [f"r_{g}" for g in range(1, m + 1)]
    rows = [",".join(header)]
    for th, rk in zip(sample.thetas, sample.risks):
        rows.append(",".join([_fmt(v) for v in th] + [_fmt(v) for v in rk]))
    _emit(cfg, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_converge(cfg: RunConfig) -> int:
    spec = load_problem_spec(cfg.spec_path)
    seed = cfg.seed if cfg.seed is not None else 0
    result = run_convergence(
        spec, cfg.ns, cfg.trials, seed, cfg.solver_config()
    )
    cert = gap_certificate(result, delta=0.1)
    lines = ["n,trial,gap"]
    for i, n in enumerate(result.sample_sizes):
        for trial in range(result.trials):
            lines.append(f"{n},{trial},{_fmt(result.gaps[i, trial])}")
    _emit(cfg, "\n".join(lines) + "\n")
    summary = {
        "command": "converge",
        "source": cfg.spec_path,
        "sample_sizes": list(result.sample_sizes),
        "trials": result.trials,
        "seed": result.seed,
        "rejected": list(result.rejected),
        "population_value": result.population_value,
        "fitted_slope": result.fitted_slope,
        "quantile_delta": cert.delta,
        "quantiles": list(cert.quantiles),
        "quantile_non_increasing": cert.non_increasing,
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        _atomic_write(cfg.out + ".summary.json", text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgain",
        description="Group-fair prediction as bargaining over relative risk improvements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser, data_ok: bool = True) -> None:
        p.add_argument("--spec", help="population spec JSON (radius + per-group beta/sigma2/cov)")
        if data_ok:
            p.add_argument("--data", help="grouped dataset CSV with columns group,y,x1..xd")
            p.add_argument("--loss", choices=["squared", "logistic"], default="squared")
            p.add_argument("--radius", type=float, help="parameter ball for --data runs")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float, default=1e-6)

    p_solve = sub.add_parser("solve", help="run solvers, write a JSON report")
    add_source(p_solve)
    p_solve.add_argument("--methods", help=f"comma list from {','.join(METHODS)}")

    p_cmp = sub.add_parser("compare", help="run solvers side by side, write CSV")
    add_source(p_cmp)
    p_cmp.add_argument("--methods", help=f"comma list from {','.join(METHODS)}")
    p_cmp.add_argument(
        "--oracle-grid",
        dest="oracle_grid",
        type=float,
        help="grid step for a discrete enumeration oracle column (needs --spec)",
    )

    p_fr = sub.add_parser("frontier", help="trace the two-group improvement frontier")
    add_source(p_fr, data_ok=False)
    p_fr.add_argument("--weights", type=int, default=200)

    p_rs = sub.add_parser("riskset", help="sample the risk set on a ball grid")
    add_source(p_rs, data_ok=False)
    p_rs.add_argument("--grid", type=int, default=101)

    p_cv = sub.add_parser("converge", help="sample-size convergence study")
    add_source(p_cv, data_ok=False)
    p_cv.add_argument("--trials", type=int, default=50)
    p_cv.add_argument("--ns", help="comma list of per-group sample sizes")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "compare": cmd_compare,
    "frontier": cmd_frontier,
    "riskset": cmd_riskset,
    "converge": cmd_converge,
}


# the first matching entry wins, so the ValueError subclasses come first
_EXIT_CODES = (
    (ConvergenceError, EXIT_CONVERGENCE),
    (UnsupportedDimensionError, EXIT_DIMENSION),
    ((DegenerateFrameError, DegenerateBargainError), EXIT_DEGENERATE),
    ((ValueError, OSError), EXIT_CONFIG),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = RunConfig.from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except (ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface: solve, compare, frontier, riskset, converge.

Exit codes: 0 on success, 2 for configuration problems or a request too
large for memory (MemoryError), 3 for a degenerate frame or when nash shows
no point lifts every group above tol, 4 for unsupported dimensionality, 5
when a logistic minimization (an ideal fit or a solve's weighted
minimization) or the convergence study stops without converging, or when
nash's start, the point of an ri solve stopped short of its bound, leaves
some group no gain. Outputs are written atomically, byte-identical for fixed inputs.

Each flag's type and default live in `build_parser`: a malformed flag, or a
run with neither or both of `--spec` and `--data` (`converge` takes `--spec`
only), prints argparse's usage line and an `error:` line naming the flag.
Range checks (`tol`, `--trials`, `--weights`, `--grid`) are the library's own
ValueErrors, which `main` maps to exit 2 with that error's message.

`compare --oracle-grid STEP` takes each criterion's best over the ball grid
at d <= 3, scored with the run's risk model, for --spec and --data alike. The
grid is cut into tiles of at most 4,096 points (64 a side at d = 2, 16 at
d = 3), each bounded by the model's box_lower from its centre, and only tiles
whose bound can still win are scored, so the result is a full scan's, bit for
bit; the README gives measured times. A logistic model scores the grid point
by point, so a logistic grid is far slower per point.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from functools import reduce
from pathlib import Path

import numpy as np

from fairgain.core import (
    BargainingFrame,
    ConvergenceError,
    DegenerateBargainError,
    DegenerateFrameError,
    UnsupportedDimensionError,
    criterion_scores,
    criterion_value,
)
from fairgain.risk_models import load_dataset_csv, load_problem_spec
from fairgain.solvers import METHODS, SolverConfig, group_risk_model, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_DIMENSION = 4
EXIT_CONVERGENCE = 5


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            # mkstemp makes the file 0600; give it the mode a plain open(path, "w") leaves
            os.fchmod(fh.fileno(), _new_file_mode(target))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _new_file_mode(target: Path) -> int:
    """The existing target's mode, or else 0o666 less the umask."""
    if target.exists():
        return stat.S_IMODE(target.stat().st_mode)
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    return 0o666 & ~umask


def _emit(out: str | None, text: str) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _fmt(v: float) -> str:
    return repr(float(v))


def _load_source(args: argparse.Namespace) -> tuple[object, BargainingFrame, float]:
    """(risk model, frame, ball) of the run's --spec or --data input; argparse allows just one."""
    if args.spec is not None:
        if args.loss is not None or args.radius is not None:
            raise ValueError("--loss and --radius apply to --data inputs only")
        spec = load_problem_spec(args.spec)
        model, ball = group_risk_model(spec), spec.radius
    else:
        model = load_dataset_csv(args.data, loss=args.loss or "squared")
        ball = args.radius
        if ball is None:
            # generous default: twice the largest per-group fit over an infinite radius
            fits = (model.minimize(w, np.inf)[0] for w in np.eye(model.num_groups))
            ball = max(1.0, 2.0 * max(float(np.linalg.norm(theta)) for theta in fits))
    return model, model.frame(ball), ball


def cmd_solve(args: argparse.Namespace) -> int:
    scfg = SolverConfig(tol=args.tol, seed=args.seed)
    model, frame, ball = _load_source(args)
    results = {}
    for method in args.methods:
        rep = solve(method, model, frame, ball, scfg)
        results[method] = {
            "parameter": list(rep.parameter),
            "risks": list(rep.risk_profile.values),
            "improvements": list(rep.improvement_profile.rhos),
            "objective_value": rep.objective_value,
            "iterations": rep.iterations,
            "certificate_gap": rep.certificate_gap,
            "certified": rep.certified(args.tol),
        }
    report = {
        "command": "solve",
        "source": args.spec or args.data,
        "ball": ball,
        "tol": args.tol,
        "seed": args.seed,
        "frame": {
            "baseline_risks": list(frame.baseline_risks),
            "ideal_risks": list(frame.ideal_risks),
        },
        "methods": results,
    }
    _emit(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# Grid points in an oracle tile at most, however fine the grid: 64 a side at d = 2, 16 at d = 3.
_TILE_POINTS = 4096


def _oracle_tiles(dim: int, ball: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    """The oracle grid's axis and its tiles' (first, last) axis indices, (tiles, dim, 2).

    A tile is a product of runs of the same number of axis points, the most
    whose dim-th power is at most _TILE_POINTS; tiles whose box misses the
    ball are left out.
    """
    axis = np.arange(-ball, ball + step / 2.0, step)
    side = int(_TILE_POINTS ** (1.0 / dim) + 1e-9)  # a float root may fall just short of an integer
    first = np.arange(0, len(axis), side)
    runs = np.column_stack([first, np.minimum(first + side, len(axis)) - 1])
    picks = np.meshgrid(*[np.arange(len(runs))] * dim, indexing="ij")
    tiles = runs[np.stack(picks, axis=-1).reshape(-1, dim)]
    near = np.clip(0.0, axis[tiles[..., 0]], axis[tiles[..., 1]])
    # the slack passes no point much beyond the ball
    return axis, tiles[np.sqrt((near * near).sum(axis=1)) <= ball * (1.0 + 1e-12)]


def _tile_points(axis: np.ndarray, ball: float, tile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A tile's grid points within the ball (n, dim) and their meshgrid("ij") indices, in order."""
    runs = tile.tolist()
    sides = [axis[first : last + 1] for first, last in runs]
    # the squares added left to right, as np.linalg.norm adds a row's at d <= 3
    hits = np.nonzero(np.sqrt(reduce(np.add.outer, [x * x for x in sides])) <= ball)
    spots = [first + i for (first, _), i in zip(runs, hits)]  # each point's axis indices
    index = reduce(lambda flat, k: flat * len(axis) + k, spots)
    return np.column_stack([x[i] for x, i in zip(sides, hits)]), index


def _oracle_objectives(
    model, frame: BargainingFrame, ball: float, step: float, methods
) -> dict[str, float]:
    """Each method's discrete oracle value over the ball grid of the given step.

    Every criterion score falls as any risk rises, so a tile's lower risks,
    from the model's box_lower, bound every score in it. Each criterion
    visits tiles by falling bound until a bound drops below its best score;
    nash also stops at a bound of -inf once it has a row, since no row beats
    that. A visited tile is scored
    once, for every criterion, with the bits its rows get in any batch, and
    ties go to the lower meshgrid("ij") index. So each criterion keeps the
    row a scan of the whole grid keeps. Leximin's value is its first
    stage's, the worst relative improvement.
    """
    if model.dim > 3:
        raise UnsupportedDimensionError(f"--oracle-grid covers d <= 3, got d = {model.dim}")
    criterion = {method: "ri" if method == "leximin" else method for method in methods}
    names = tuple(dict.fromkeys(criterion.values()))
    axis, tiles = _oracle_tiles(model.dim, ball, step)
    lo, hi = axis[tiles[..., 0]], axis[tiles[..., 1]]
    centres = (lo + hi) / 2.0
    half = np.maximum(hi - centres, centres - lo)
    lower = model.box_lower(centres, half, float(np.abs(axis).max()))
    bounds = {name: criterion_scores(name, frame, lower) for name in names}
    best = {}  # criterion -> (score, grid index, risks) of its first best row so far
    scored = set()
    for name in names:
        for t in np.argsort(-bounds[name], kind="stable"):
            bound = bounds[name][t]
            if name in best and (bound < best[name][0] or bound == -np.inf):
                break
            if t in scored:
                continue
            scored.add(t)
            thetas, index = _tile_points(axis, ball, tiles[t])
            if not len(thetas):
                continue
            risks = model.values(thetas)
            for other in names:
                scores = criterion_scores(other, frame, risks)
                k = int(np.argmax(scores))
                kept = best.get(other)
                if kept is None or (scores[k], -index[k]) > (kept[0], -kept[1]):
                    best[other] = (scores[k], index[k], risks[k])
    if not best:
        raise ValueError(
            f"--oracle-grid step {step} leaves no grid point in the ball of radius {ball}"
        )
    # only nash scores -inf, where some gain is not positive
    if "nash" in best and best["nash"][0] == -np.inf:
        raise DegenerateBargainError(
            "no candidate strictly improves on the baseline for every group"
        )
    return {method: criterion_value(method, frame, best[c][2]) for method, c in criterion.items()}


def cmd_compare(args: argparse.Namespace) -> int:
    scfg = SolverConfig(tol=args.tol, seed=args.seed)
    model, frame, ball = _load_source(args)
    oracle = (
        _oracle_objectives(model, frame, ball, args.oracle_grid, args.methods)
        if args.oracle_grid is not None
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
    for method in args.methods:
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
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_frontier(args: argparse.Namespace) -> int:
    from fairgain.geometry import trace_frontier  # only frontier and riskset load geometry

    model, frame, ball = _load_source(args)
    trace = trace_frontier(model, frame, ball, args.weights)
    lines = ["lambda,rho1,rho2,r1,r2"]
    for lam, rho, risks in zip(trace.lambdas, trace.points, trace.risks):
        lines.append(
            ",".join([_fmt(lam), _fmt(rho[0]), _fmt(rho[1]), _fmt(risks[0]), _fmt(risks[1])])
        )
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_riskset(args: argparse.Namespace) -> int:
    from fairgain.geometry import sample_risk_set

    # the frame is built first, so a degenerate one surfaces before the big sample
    model, _, ball = _load_source(args)
    sample = sample_risk_set(model, ball, grid=args.grid)
    d = sample.thetas.shape[1]
    m = sample.risks.shape[1]
    header = [f"theta_{j}" for j in range(1, d + 1)] + [f"r_{g}" for g in range(1, m + 1)]
    rows = [",".join(header)]
    for th, rk in zip(sample.thetas, sample.risks):
        rows.append(",".join([_fmt(v) for v in th] + [_fmt(v) for v in rk]))
    _emit(args.out, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    from fairgain.empirical_study import QUANTILE_DELTA, run_convergence  # only converge loads it

    spec = load_problem_spec(args.spec)
    seed = args.seed if args.seed is not None else 0
    # --seed seeds the Monte Carlo draws only, as run_convergence's seed does
    result = run_convergence(spec, args.ns, args.trials, seed, SolverConfig(tol=args.tol))
    lines = ["n,trial,gap"]
    for i, n in enumerate(result.sample_sizes):
        for trial in range(result.trials):
            lines.append(f"{n},{trial},{_fmt(result.gaps[i, trial])}")
    _emit(args.out, "\n".join(lines) + "\n")
    summary = {
        "command": "converge",
        "source": args.spec,
        "sample_sizes": list(result.sample_sizes),
        "trials": result.trials,
        "seed": result.seed,
        "rejected": list(result.rejected),
        "population_value": result.population_value,
        "fitted_slope": result.fitted_slope,
        "quantile_delta": QUANTILE_DELTA,
        "quantiles": list(result.quantiles),
        "quantile_non_increasing": result.quantile_non_increasing,
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    _emit(args.out and args.out + ".summary.json", text)
    return EXIT_OK


# argparse names a type in its error message: "invalid positive_float value: 'x'"
def positive_float(text: str) -> float:
    # a zero, infinite or NaN grid step stops np.arange, and such a radius is no ball
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


_METHODS_HELP = f"comma list from {','.join(METHODS)}"


def method_list(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods or any(m not in METHODS for m in methods):
        raise argparse.ArgumentTypeError(f"expected a {_METHODS_HELP}")
    if len(set(methods)) < len(methods):
        raise argparse.ArgumentTypeError(f"names a method twice: {text!r}")
    return methods


def size_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairgain",
        description="Group-fair prediction as bargaining over relative risk improvements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec_help = "population spec JSON (radius + per-group beta/sigma2/cov)"
    out_help = "output path (stdout when omitted)"

    def add_source(p: argparse.ArgumentParser) -> None:
        # argparse names --spec in its error when a run gives neither source, or both
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--spec", help=spec_help)
        source.add_argument("--data", help="grouped dataset CSV with columns group,y,x1..xd")
        p.add_argument(
            "--loss", choices=["squared", "logistic"], help="--data risk (default squared)"
        )
        p.add_argument("--radius", type=positive_float, help="parameter ball for --data runs")
        p.add_argument("--out", help=out_help)

    def add_solver_flags(p: argparse.ArgumentParser, methods: bool = True) -> None:
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float, default=SolverConfig.tol)
        if methods:
            p.add_argument("--methods", type=method_list, default=METHODS, help=_METHODS_HELP)

    p_solve = sub.add_parser("solve", help="run solvers, write a JSON report")
    add_source(p_solve)
    add_solver_flags(p_solve)

    p_cmp = sub.add_parser("compare", help="run solvers side by side, write CSV")
    add_source(p_cmp)
    add_solver_flags(p_cmp)
    p_cmp.add_argument(
        "--oracle-grid",
        type=positive_float,
        help="grid step for a discrete enumeration oracle column (d <= 3)",
    )

    p_fr = sub.add_parser("frontier", help="trace the two-group improvement frontier")
    add_source(p_fr)
    p_fr.add_argument("--weights", type=int, default=200)

    p_rs = sub.add_parser("riskset", help="sample the risk set on a ball grid")
    add_source(p_rs)
    p_rs.add_argument("--grid", type=int, default=101)

    p_cv = sub.add_parser("converge", help="sample-size convergence study")
    p_cv.add_argument("--spec", required=True, help=spec_help)
    p_cv.add_argument("--out", help=out_help)
    add_solver_flags(p_cv, methods=False)
    p_cv.add_argument("--trials", type=int, default=50)
    p_cv.add_argument(
        "--ns",
        type=size_list,
        default="100,400,1600,6400,25600",
        help="comma list of per-group sample sizes (default %(default)s)",
    )
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
    ((ValueError, OSError, MemoryError), EXIT_CONFIG),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConvergenceError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())

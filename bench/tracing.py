"""Spans and counters at the public call boundaries of each `fairgain` module.

The wrappers are installed from here, by rebinding module attributes after
import; nothing under `src/` is edited. A span records its name, start, end,
parent span and op id. Spans are kept in flat in-memory arrays and written
out when the run ends. A layer's self time is its span time minus the time of
its child spans.

Private helpers are not wrapped; their work shows at the public boundary that
calls them. A wrapper whose target no longer exists is skipped, so the layer
reports zero calls instead of failing.

Run as a script, this file is the traced CLI child:
    python bench/tracing.py SPANS_OUT OP_ID -- <fairgain cli arguments>
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

METHODS = ("ri", "leximin", "gdro", "mmv", "mmr", "nash")
MQB_CALLERS = ("solvers", "empirical_study", "geometry", "risk_models")
LAYERS = (
    "cli.main",
    *(f"solvers.solve.{m}" for m in METHODS),
    "solvers.linprog",
    "solvers.risk_values",
    "solvers.risk_gradients",
    *(f"risk_models.minimize_quadratic_ball.{c}" for c in MQB_CALLERS),
    "risk_models.population_frame",
    "risk_models.empirical_frame",
    "risk_models.fit_group_optimal",
    "risk_models.population_risks",
    "risk_models.load_dataset_csv",
    "bargain_discrete.oracle",
    "geometry.trace_frontier",
    "empirical_study.run_convergence",
    "empirical_study.solve_maximin_ri",
)
COUNTERS = (
    "solvers.certified",
    "solvers.refused",
    "solvers.iterations.sum",
    "risk_models.population_risks.rows",
    "bargain_discrete.rows",
    "empirical_study.rejected",
)


class Tracer:
    """Flat span store plus named counters; one per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.certified_by_method: Counter = Counter()
        self.gap_max = 0.0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_return=None, on_raise=None):
        """Wrap fn in a span; `name` may be a function of the call's arguments."""
        fixed = None if callable(name) else self._intern(name)
        stack, clock = self._stack, time.perf_counter
        ids, parents, ops, starts, ends = self.name_id, self.parent, self.op_id, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(fixed if fixed is not None else self._intern(name(args, kwargs)))
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if on_raise is not None:
                    on_raise(exc, args, kwargs)
                raise
            ends[idx] = clock()
            stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            entry = stats[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
        return dict(stats)

    def dump(self) -> dict:
        """Everything another process needs to merge this one's results."""
        return {
            "layers": self.layer_stats(),
            "counts": dict(self.counts),
            "certified_by_method": dict(self.certified_by_method),
            "gap_max": self.gap_max,
        }

    def span_lines(self, tag: str) -> list[str]:
        """One JSON line per span: [process tag, name, start, end, parent, op]."""
        return [
            json.dumps([tag, self.names[self.name_id[i]], self.start[i], self.end[i],
                        self.parent[i], self.op_id[i]]) + "\n"
            for i in range(len(self.start))
        ]


def _rebind(modules, original, wrapper) -> None:
    """Point every module attribute bound to `original` at `wrapper`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public boundaries of every fairgain module in this process."""
    import fairgain.bargain_discrete as bargain_discrete
    import fairgain.cli as cli
    import fairgain.empirical_study as empirical_study
    import fairgain.geometry as geometry
    import fairgain.risk_models as risk_models
    import fairgain.solvers as solvers

    mods = (cli, solvers, risk_models, bargain_discrete, geometry, empirical_study)
    default_tol = solvers.SolverConfig().tol

    def count_report(method: str, cfg_pos: int, report, args, kwargs) -> None:
        cfg = kwargs.get("cfg", args[cfg_pos] if len(args) > cfg_pos else None)
        tol = getattr(cfg, "tol", default_tol)
        gap = float(report.certificate_gap)
        tracer.counts["solvers.iterations.sum"] += int(report.iterations)
        tracer.gap_max = max(tracer.gap_max, gap)
        if report.certified(tol):
            tracer.counts["solvers.certified"] += 1
            tracer.certified_by_method[method] += 1

    def refused(exc, args, kwargs) -> None:
        if isinstance(exc, solvers.DegenerateBargainError):
            tracer.counts["solvers.refused"] += 1

    def method_of(args, kwargs) -> str:
        return kwargs.get("method", args[0] if args else "?")

    def wrap_all(owner, attr: str, name, **hooks) -> None:
        """Wrap owner.attr and every other module binding of the same function."""
        fn = getattr(owner, attr, None)
        if fn is not None:
            _rebind(mods, fn, tracer.wrap(name, fn, **hooks))

    def wrap_one(owner, attr: str, name, **hooks) -> None:
        """Wrap only this binding, so calls through other modules stay apart."""
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, tracer.wrap(name, fn, **hooks))

    def count_rows(counter: str, n_rows):
        def hook(result, args, kwargs) -> None:
            tracer.counts[counter] += n_rows(result, args)
        return hook

    wrap_all(
        solvers, "solve", lambda a, k: f"solvers.solve.{method_of(a, k)}",
        on_return=lambda r, a, k: count_report(method_of(a, k), 4, r, a, k), on_raise=refused,
    )
    # solvers' own linprog binding is the master LP of the cutting-plane loop
    wrap_one(solvers, "linprog", "solvers.linprog")
    for cls_name in ("QuadraticGroupRisks", "LogisticGroupRisks"):
        cls = getattr(solvers, cls_name, None)
        for attr, name in (("values", "solvers.risk_values"), ("gradients", "solvers.risk_gradients")):
            if cls is not None and attr in vars(cls):
                setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))
    mqb = getattr(risk_models, "minimize_quadratic_ball", None)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    for caller in MQB_CALLERS:
        if mqb is not None and getattr(by_name[caller], "minimize_quadratic_ball", None) is mqb:
            wrap_one(by_name[caller], "minimize_quadratic_ball", f"risk_models.minimize_quadratic_ball.{caller}")
    for attr in ("population_frame", "empirical_frame", "fit_group_optimal", "load_dataset_csv"):
        wrap_all(risk_models, attr, f"risk_models.{attr}")
    wrap_all(
        risk_models, "population_risks", "risk_models.population_risks",
        on_return=count_rows("risk_models.population_risks.rows",
                             lambda r, a: r.shape[0] if getattr(r, "ndim", 1) == 2 else 1),
    )
    # the five oracles as the CLI binds them
    for attr in ("oracle_gdro", "oracle_ks", "oracle_mmr", "oracle_mmv", "oracle_nash"):
        wrap_one(cli, attr, "bargain_discrete.oracle",
                 on_return=count_rows("bargain_discrete.rows", lambda r, a: len(a[0])))
    wrap_all(geometry, "trace_frontier", "geometry.trace_frontier")
    wrap_all(
        empirical_study, "run_convergence", "empirical_study.run_convergence",
        on_return=count_rows("empirical_study.rejected", lambda r, a: int(sum(r.rejected))),
    )
    wrap_one(empirical_study, "solve_maximin_ri", "empirical_study.solve_maximin_ri",
             on_return=lambda r, a, k: count_report("ri", 3, r, a, k), on_raise=refused)
    wrap_all(cli, "main", "cli.main")


def merge(dumps: list[dict]) -> dict:
    """Sum the per-process dumps of several traced processes."""
    layers: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    counts: Counter = Counter()
    certified: Counter = Counter()
    gap_max = 0.0
    for d in dumps:
        for name, st in d["layers"].items():
            for key in ("calls", "s", "self_s"):
                layers[name][key] += st[key]
        counts.update(d["counts"])
        certified.update(d["certified_by_method"])
        gap_max = max(gap_max, d["gap_max"])
    return {"layers": dict(layers), "counts": dict(counts),
            "certified_by_method": dict(certified), "gap_max": gap_max}


def _traced_cli(argv: list[str]) -> int:
    """Run one fairgain CLI request with every boundary wrapped."""
    spans_out, op, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_OUT OP_ID -- <cli arguments>")
    import fairgain.cli

    tracer = Tracer()
    tracer.op = int(op)
    install(tracer)
    code = fairgain.cli.main(cli_args)
    Path(spans_out).write_text(json.dumps(tracer.dump()) + "\n" + "".join(tracer.span_lines(f"cli-{op}")))
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))

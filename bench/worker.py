"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py with the pinned environment. It prints READY once imports
and input generation are done, so the parent can time set-up from process
start, and its last line of output is a JSON result. With --setup-only it
stops after READY.

An op is one solve on `sweep`, one Monte Carlo trial on `converge` and one
CLI process on `cli`. A unit is what the loop runs at a time: a spec with
all six methods, a short study, one request. Set-up and the benchmark's own
checks are not counted in the measured time.

A run does a fixed amount of work: units sized from `--seconds` and the
workload's `units_per_s`, a rate measured on the reference machine, so a
run lasts about `--seconds` there. A run that stopped at a deadline instead
would end at a different point of a workload whose units differ in cost, and
its throughput would jump with the speed of the host; a fixed set of units
makes every run of a workload, on any commit, measure the same ops.

The host runs in fast and slow spells, seconds to minutes long, which move
every timing by 20-30%. Two things keep them out of the metrics. Every
timing is scaled by a reference computation read between units (see
calibrate.py), which removes the slow drift from run to run. And latency
percentiles are taken where samples are dense: `sweep` has many ops per run,
while `converge` and `cli`, with few distinct units, run them in `rounds`
rounds, and an op's time is its median over the rounds, which sit a round
apart, so a spell that slows one run of an op does not move its time.
Throughput is all ops over all scaled time, which averages the spells out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import inputs
from tracing import COUNTERS, LAYERS, METHODS, Tracer, install, merge

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
TOL = 1e-6  # the solvers' and the CLI's default tolerance
CLI_TIMEOUT_S = 120.0
clock = time.perf_counter


@dataclass
class Op:
    """Outcome of one op, or of n_ops ops timed together.

    `name` is the same in every round, `key` names the exact input. An entry
    with n_ops = 0 is work of a unit that is no op (a `sweep` frame): it
    counts in the time, not in the op counts or the latencies.
    """

    name: str
    key: str
    seconds: float
    outcome: str  # ok | refused | failed
    digest: str
    n_ops: int = 1
    scaled: float = 0.0  # seconds at the reference speed (see calibrate.py)
    method: str = ""
    certified: bool | None = None
    errors: list[str] = field(default_factory=list)


def _digest(payload) -> str:
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _report_dict(rep) -> dict:
    return {
        "parameter": list(rep.parameter),
        "objective_value": rep.objective_value,
        "certificate_gap": rep.certificate_gap,
        "risks": list(rep.risk_profile.values),
        "improvements": list(rep.improvement_profile.rhos),
        "iterations": rep.iterations,
    }


class InProcess:
    """Shared loop body of the workloads that call the solvers in-process."""

    fixed_units = 0
    rounds = 1
    starts_processes = False
    tracer: Tracer | None = None

    def __init__(self) -> None:
        from fairgain import core, risk_models, solvers

        self.core, self.risk_models, self.solvers = core, risk_models, solvers
        self.next_op = 0

    def set_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op = self.next_op
        self.next_op += 1

    def problem_spec(self, spec: inputs.Spec):
        rm = self.risk_models
        groups = tuple(
            rm.GroupLinearModel(beta=b, sigma2=float(s), cov=c)
            for b, c, s in zip(spec.betas, spec.covs, spec.sigma2)
        )
        return rm.ProblemSpec(groups=groups, radius=spec.radius)

    def six_solves(self, name: str, key: str, prepare, risk_fn, ref_frame, radius) -> list[Op]:
        """Build (frame, model), solve the methods in order, then check them all.

        `ref_frame` gives the reference (baseline, ideal); it is evaluated
        after the timed part, like every other check.
        """
        start = clock()
        try:
            frame, model = prepare()
        except Exception as exc:  # the whole unit fails; the loop must go on
            spent = clock() - start
            return [Op(f"{name}:{m}", f"{key}:{m}", spent / 6, "failed", _digest(repr(exc)), method=m,
                       errors=[f"frame: {exc!r}"]) for m in METHODS]
        prep = Op(f"{name}:frame", f"{key}:frame", clock() - start, "ok", "", n_ops=0)
        ops, reports, refused = [], {}, []
        for method in METHODS:
            self.set_op()
            t0 = clock()
            try:
                rep = self.solvers.solve(method, model, frame, radius)
            except self.core.DegenerateBargainError as exc:
                ops.append(Op(f"{name}:{method}", f"{key}:{method}", clock() - t0, "refused",
                              _digest(str(exc)), method=method))
                refused.append(method)
                continue
            except Exception as exc:  # counted as a failure, never fatal
                ops.append(Op(f"{name}:{method}", f"{key}:{method}", clock() - t0, "failed",
                              _digest(repr(exc)), method=method, errors=[repr(exc)]))
                continue
            elapsed = clock() - t0
            reports[method] = _report_dict(rep)
            ops.append(Op(f"{name}:{method}", f"{key}:{method}", elapsed, "ok", _digest(reports[method]),
                          method=method, certified=rep.certified(TOL)))
        base, ideal = frame.baseline_array(), frame.ideal_array()
        prep.digest = _digest([base.tolist(), ideal.tolist()])
        frame_bad = gate.check_frame(base, ideal, *ref_frame())
        problems = gate.check_solves(reports, risk_fn, base, ideal, radius, TOL)
        problems.update(gate.check_refusals(refused, reports, problems, TOL))
        for op in ops:
            bad = frame_bad + problems.get(op.method, [])
            if bad and op.outcome != "failed":
                op.outcome, op.errors = "failed", bad
        return [prep, *ops]


class Sweep(InProcess):
    units_per_s = 1.0  # specs

    def __init__(self, seed: int, workdir: Path, n_units: int, rounds: int) -> None:
        super().__init__()
        self.specs = inputs.sweep_specs(seed, n_units)

    def unit(self, i: int, r: int) -> list[Op]:
        spec = self.specs[i]

        def prepare():
            ps = self.problem_spec(spec)
            return self.risk_models.population_frame(ps), self.solvers.group_risk_model(ps)

        return self.six_solves(f"spec{i}", f"spec{i}", prepare,
                               lambda th: inputs.spec_risks(spec, th),
                               lambda: inputs.spec_frame(spec), spec.radius)


class Converge(InProcess):
    units_per_s = 0.6  # studies of CONVERGE_TRIALS trials at every size
    rounds = 3

    def __init__(self, seed: int, workdir: Path, n_units: int, rounds: int) -> None:
        super().__init__()
        from fairgain import empirical_study

        self.empirical_study = empirical_study
        self.studies = inputs.converge_specs(seed, n_units, rounds)

    def unit(self, i: int, r: int) -> list[Op]:
        spec, mc_seeds = self.studies[i]
        n_ops = len(inputs.CONVERGE_SIZES) * inputs.CONVERGE_TRIALS
        name, key = f"study{i}", f"study{i}.r{r}"
        self.set_op()
        t0 = clock()
        try:
            res = self.empirical_study.run_convergence(
                self.problem_spec(spec), inputs.CONVERGE_SIZES, inputs.CONVERGE_TRIALS, mc_seeds[r]
            )
        except Exception as exc:  # a failed study fails all of its trials
            return [Op(name, key, clock() - t0, "failed", _digest(repr(exc)), n_ops=n_ops,
                       errors=[repr(exc)])]
        spent = clock() - t0
        base, ideal = inputs.spec_frame(spec)
        exact, worst = inputs.maximin_1d(spec, base, ideal)
        bad = gate.check_convergence(
            res.gaps, res.population_value, res.rejected, res.fitted_slope, exact, worst,
            (len(inputs.CONVERGE_SIZES), inputs.CONVERGE_TRIALS),
        )
        digest = _digest([np.asarray(res.gaps).tobytes().hex(), res.population_value,
                          res.fitted_slope, list(res.rejected)])
        return [Op(name, key, spent, "failed" if bad else "ok", digest, n_ops=n_ops, errors=bad)]


class Cli:
    """One `python -m fairgain.cli` process per op, from process start.

    Set-up imports `fairgain.cli` once, so that `setup_s` includes the
    program's import time here as on the other workloads. Every round runs
    the whole request mix; a request's inputs are the same in every round,
    so its output must be byte-identical too.
    """

    units_per_s = 0.6  # requests
    fixed_units = 6  # the size of the request mix
    rounds = 2
    starts_processes = True
    tracer: Tracer | None = None

    def __init__(self, seed: int, workdir: Path, n_units: int, rounds: int) -> None:
        import fairgain.cli  # noqa: F401

        self.workdir = workdir
        self.requests = inputs.cli_requests(seed, workdir)
        assert len(self.requests) == self.fixed_units
        self.refs = {}
        for req in self.requests:
            src = req.source
            if isinstance(src, inputs.Spec):
                self.refs[req.name] = (lambda th, s=src: inputs.spec_risks(s, th), *inputs.spec_frame(src))
            else:
                self.refs[req.name] = (src.risks, *src.frame())
        self.dumps: list[dict] = []
        self.span_lines: list[str] = []
        self.next_op = 0

    def unit(self, i: int, r: int) -> list[Op]:
        req = self.requests[i]
        op_id = self.next_op
        self.next_op += 1
        if req.out.exists():
            req.out.unlink()
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fairgain.cli", *req.argv]
        else:
            spans = self.workdir / f"spans-{op_id}.jsonl"
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), str(op_id), "--", *req.argv]
        t0 = clock()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            code, err = -1, "timed out"
        spent = clock() - t0
        name = req.name
        if code != gate.EXIT_OK:
            # every request in the mix is valid and has a common gain, so even
            # the documented refusal (exit 3) is a failure here
            return [Op(name, name, spent, "failed", _digest(f"exit {code}"), method=name,
                       errors=[f"exit {code}: {err.strip()[-300:]}"])]
        if self.tracer is not None:
            dump, *lines = spans.read_text().splitlines(keepends=True)
            spans.unlink()
            self.dumps.append(json.loads(dump))
            self.span_lines += lines
        try:
            text = req.out.read_text()
        except OSError as exc:
            return [Op(name, name, spent, "failed", _digest(repr(exc)), method=name, errors=[repr(exc)])]
        risk_fn, ref_base, ref_ideal = self.refs[name]
        if name.startswith("solve"):
            bad = gate.check_solve_json(text, risk_fn, ref_base, ref_ideal, TOL)
        elif name.startswith("compare"):
            bad = gate.check_compare_csv(text, risk_fn, ref_base, ref_ideal, req.source.radius, TOL)
        else:
            bad = gate.check_frontier_csv(text, ref_base, ref_ideal)
        return [Op(name, name, spent, "failed" if bad else "ok", _digest(text.encode()), method=name,
                   errors=bad)]


WORKLOADS = {"sweep": Sweep, "converge": Converge, "cli": Cli}


def plan(workload, seconds: float, trace: bool) -> tuple[int, int]:
    """(units, rounds) for a run of about `seconds` on the reference machine.

    A traced run does one untraced round and replays it traced, each in
    about half the time; `--seconds 0` runs one round of one unit (or of the
    whole `cli` mix).
    """
    rounds = 1 if trace or seconds == 0 else workload.rounds
    if workload.fixed_units:
        return workload.fixed_units, rounds
    budget = seconds / 2 if trace else seconds
    return max(1, round(budget * workload.units_per_s / rounds)), rounds


def run_rounds(workload, n_units: int, rounds: int, references: list[float]) -> list[Op]:
    """Closed loop with one caller: every round runs units 0 .. n_units - 1.

    The reference computation runs before the first unit and after every
    unit, in a fresh interpreter when the units start processes themselves,
    and a unit's ops are scaled by the mean of the two readings around it.
    """
    # imported here, after READY, so that its scipy import stays out of
    # set-up time
    import calibrate

    if workload.starts_processes:
        measure, nominal = calibrate.process_reference_s, calibrate.PROCESS_REFERENCE_S
    else:
        measure, nominal = calibrate.reference_s, calibrate.REFERENCE_S
        measure()  # warm-up
    ops: list[Op] = []
    before = measure()
    references.append(before)
    for r in range(rounds):
        for i in range(n_units):
            unit_ops = workload.unit(i, r)
            after = measure()
            references.append(after)
            scale = nominal / (0.5 * (before + after))
            for op in unit_ops:
                op.scaled = op.seconds * scale
            ops += unit_ops
            before = after
    return ops


TAIL_MIN_PERCENTILE = 90.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    Below 110 samples that percentile would fall under p90, so the maximum
    (p100) is reported instead.
    """
    s = sorted(latencies)
    n = len(s)
    pct = 100.0 * (n - 10) / n
    if pct < TAIL_MIN_PERCENTILE:
        return 100.0, s[-1]
    return pct, s[n - 11]


def typical(ops: list[Op], seconds) -> list[tuple[float, int]]:
    """(median seconds over the rounds, n_ops) for every op name."""
    runs: dict[str, list[Op]] = defaultdict(list)
    for op in ops:
        runs[op.name].append(op)
    return [(statistics.median(map(seconds, group)), group[0].n_ops) for group in runs.values()]


def timings(ops: list[Op], seconds) -> dict[str, float]:
    latencies = [s / n for s, n in typical(ops, seconds) if n]
    pct, tail_s = tail(latencies)
    return {
        "ops_per_s": sum(op.n_ops for op in ops) / sum(map(seconds, ops)),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "op_tail_percentile": pct,
        "latency_samples": len(latencies),
    }


def end_to_end(ops: list[Op], peak_rss_mb: float) -> tuple[dict, dict]:
    """Metrics from the scaled timings; the notes keep the measured ones."""
    scaled = timings(ops, lambda op: op.scaled)
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "latency_samples": scaled["latency_samples"],
        "op_tail_percentile": scaled["op_tail_percentile"],
        "measured_s": sum(op.seconds for op in ops),
        "scaled_s": sum(op.scaled for op in ops),
        "unscaled": {k: v for k, v in timings(ops, lambda op: op.seconds).items()
                     if k in ("ops_per_s", "op_p50_ms", "op_tail_ms")},
    }
    return metrics, notes


def outcome_summary(ops: list[Op]) -> dict:
    by = {"ok": 0, "refused": 0, "failed": 0}
    certified: dict[str, list[int]] = {}
    for op in ops:
        by[op.outcome] += op.n_ops
        if op.certified is not None:
            c = certified.setdefault(op.method, [0, 0])
            c[0] += int(op.certified)
            c[1] += 1
    carried = sum(c[1] for c in certified.values())
    return {
        "ops": by,
        "certified_by_method": {m: {"certified": c[0], "solves": c[1]} for m, c in sorted(certified.items())},
        "certified_frac": (sum(c[0] for c in certified.values()) / carried) if carried else None,
    }


def import_probe(repeats: int = 3) -> tuple[float, float]:
    """Median wall time of `import fairgain.cli`, and scipy's share from -X importtime."""
    code = "import time; t = time.perf_counter(); import fairgain.cli; print(time.perf_counter() - t)"
    walls, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        walls.append(float(proc.stdout.strip().splitlines()[-1]))
        scipys.append(scipy_import_s(proc.stderr))
    return statistics.median(walls), statistics.median(scipys)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of scipy modules not imported by another scipy module."""
    rows = []
    for line in importtime_log.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name != "scipy" and not name.startswith("scipy."):
            continue
        # -X importtime prints children first; the parent is the next shallower line
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if not (parent == "scipy" or parent.startswith("scipy.")):
            total += cumulative
    return total * 1e-6


def src_loc() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def scipy_version() -> str:
    import scipy

    return scipy.__version__


def per_layer(merged: dict, ops: list[Op], overhead: float, import_s: float, import_scipy_s: float,
              loc: int) -> dict:
    layers, counts = merged["layers"], merged["counts"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        st = layers.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (st["calls"], "count")
        metrics[f"{layer}.s"] = (st["s"], "s")
        metrics[f"{layer}.self_s"] = (st["self_s"], "s")
    solve_calls = sum(layers.get(f"solvers.solve.{m}", {"calls": 0})["calls"] for m in METHODS)
    all_solves = solve_calls + layers.get("empirical_study.solve_maximin_ri", {"calls": 0})["calls"]
    for m in METHODS:
        metrics[f"solvers.solve.{m}.certified"] = (merged["certified_by_method"].get(m, 0), "count")
    metrics["solvers.solve.calls"] = (solve_calls, "count")
    metrics["solvers.linprog.per_solve"] = (
        layers.get("solvers.linprog", {"calls": 0})["calls"] / max(all_solves, 1), "ratio")
    for name in COUNTERS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["solvers.certificate_gap.max"] = (merged["gap_max"], "obj_units")
    carried = all_solves - counts.get("solvers.refused", 0)
    metrics["certified_frac"] = (counts.get("solvers.certified", 0) / max(carried, 1), "ratio")
    attempted = sum(op.n_ops for op in ops)
    metrics["failed_frac"] = (sum(op.n_ops for op in ops if op.outcome == "failed") / attempted, "ratio")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import_scipy_s"] = (import_scipy_s, "s")
    metrics["src.loc"] = (loc, "lines")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def check_repeats(ops: list[Op]) -> None:
    """An op that runs twice must give byte-identical output; otherwise it fails."""
    first: dict[str, str] = {}
    for op in ops:
        seen = first.setdefault(op.key, op.digest)
        if seen != op.digest and op.outcome != "failed":
            op.outcome = "failed"
            op.errors.append(f"output digest {op.digest} differs from an earlier run's {seen}")


def outputs_digest(ops: list[Op]) -> str:
    return _digest(sorted({(op.key, op.digest) for op in ops}))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    cls = WORKLOADS[args.workload]
    units, rounds = plan(cls, args.seconds, bool(args.trace))
    workload = cls(args.seed, Path(args.workdir), units, rounds)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    references: list[float] = []
    ops = run_rounds(workload, units, rounds, references)
    traced_ops: list[Op] = []
    if args.trace:
        # replay the same round with every boundary wrapped
        tracer = Tracer()
        install(tracer)
        workload.tracer = tracer
        traced_ops = run_rounds(workload, units, rounds, [])
    check_repeats(ops + traced_ops)
    all_ops = ops + traced_ops
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    metrics, notes = end_to_end(ops, peak_rss_mb)
    result = {
        "end_to_end": metrics,
        "notes": {**notes, "units": units, "rounds": rounds, "references_s": references},
        "outcomes": outcome_summary(all_ops),
        "failures": [{"op": op.key, "errors": op.errors} for op in all_ops if op.outcome == "failed"][:20],
        "attempted": sum(op.n_ops for op in all_ops),
        "failed": sum(op.n_ops for op in all_ops if op.outcome == "failed"),
        "outputs_digest": outputs_digest(ops),
        "op_digests": {op.key: op.digest for op in ops},
        "versions": {"numpy": np.__version__, "scipy": scipy_version()},
        "src_loc": src_loc(),
    }
    if args.trace:
        if args.workload == "cli":
            merged, span_lines = merge(workload.dumps), workload.span_lines
        else:
            merged, span_lines = merge([tracer.dump()]), tracer.span_lines(args.workload)
        import_s, import_scipy_s = import_probe()
        overhead = sum(op.scaled for op in traced_ops) / notes["scaled_s"] - 1.0
        result["per_layer"] = per_layer(merged, all_ops, overhead, import_s, import_scipy_s,
                                        result["src_loc"])
        spans_path = Path(args.workdir) / "spans.jsonl"
        spans_path.write_text("".join(span_lines))
        result["spans_file"] = spans_path.name
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

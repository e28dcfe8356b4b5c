"""fairgain benchmark: one command per workload run, metrics on the last line.

    python3 bench/run.py --workload {sweep,converge,cli} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from its
`src/`. Each run starts fresh interpreters with BLAS pinned to one thread:
one that runs the workload as a closed loop with a single caller and checks
every output (see gate.py), and around it a few that only set up. `setup_s`
is the median start-to-ready time of all of them; sampling set-up before and
after the loop spreads it over the run, so a slow spell of the host while
one interpreter starts does not decide it. The loop runs a fixed set of
units that lasts about `--seconds` on the reference machine (see
worker.py); `--seconds 0` runs one unit once, which the self-test uses.
Every timing is scaled by a reference computation run beside it, so that
the drift of a shared host's speed stays out of the metrics (see
calibrate.py); the unscaled figures are in the run record.

With `--trace 0` the result carries the end-to-end metrics. With `--trace 1`
the worker runs the units once untraced, replays them with spans at every
public boundary of `fairgain` (see tracing.py), and the result carries the
per-layer metrics. Either way a run record (versions, nproc, BLAS
threads, `src.loc`, output digests, outcomes) is written to
`.bench_out/<workload>-s<seed>-t<trace>/record.json` and printed on the line
before the result.

Exit codes: 0 with a result line; 1 if the worker died or timed out; 2 if the
checkout holds no `src/fairgain` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SETUPS_AROUND = 1  # set-up-only interpreters before the measuring one, and again after it
RUN_TIMEOUT_S = 150.0
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def commit() -> str | None:
    """The checked-out commit, or None when the checkout is not a git work tree."""
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def start_worker(args, workdir: Path, env, setup_only: bool) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it, its start-to-READY seconds and the reference time before it."""
    reference = calibrate.process_reference_s(env)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {line.strip()!r})")
    return proc, ready, reference


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep", "converge", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "fairgain" / "cli.py").is_file():
        print(f"error: no fairgain sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = pinned_env()
    around = SETUPS_AROUND if args.seconds else 0
    setups, references = [], []
    proc = None
    try:
        for _ in range(around):
            proc, ready, reference = start_worker(args, workdir, env, setup_only=True)
            setups.append(ready)
            references.append(reference)
            proc.communicate(timeout=30)
        proc, ready, reference = start_worker(args, workdir, env, setup_only=False)
        setups.append(ready)
        references.append(reference)
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        worker = proc
        for _ in range(around):
            proc, ready, reference = start_worker(args, workdir, env, setup_only=True)
            setups.append(ready)
            references.append(reference)
            proc.communicate(timeout=30)
        proc = worker
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        if proc is not None:
            proc.kill()
            proc.wait()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    setup_s = statistics.median(
        ready * calibrate.PROCESS_REFERENCE_S / reference for ready, reference in zip(setups, references))
    if args.trace:
        chosen = res["per_layer"]
    else:
        chosen = {"setup_s": (setup_s, "s"), **res["end_to_end"]}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        **res["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: BLAS_THREADS for v in BLAS_VARS},
        "setup_samples_s": setups,
        "setup_references_s": references,
        "src_loc": res["src_loc"],
        **res["notes"],
        "outcomes": res["outcomes"],
        "failures": res["failures"],
        "outputs_digest": res["outputs_digest"],
        "op_digests": res["op_digests"],
        "end_to_end": {"setup_s": (setup_s, "s"), **res["end_to_end"]},
        "per_layer": res.get("per_layer"),
        "spans_file": res.get("spans_file"),
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "op_digests"}, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness gate: every output the benchmark times is also checked.

The checks need no stored reference, so they hold on any seed. They recompute
each criterion at the returned parameter with the benchmark's own risk
functions, and they test every certificate bound against the parameters all
the other methods returned: a certified optimum can be beaten by no point in
the ball. The frame's baseline and ideal risks are checked against the
benchmark's own solves, and a refusal only counts as one when it is earned. A
faster program that returns a wrong point, a wrong objective, an unsound gap,
a loose ideal or an unearned refusal fails here.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable

import numpy as np

MAXIMIZE = {"ri": True, "leximin": True, "gdro": False, "mmv": True, "mmr": False, "nash": True}
# Float slack for comparisons that hold exactly in real arithmetic; far below
# the solver tolerance, so it can never absorb a real error of size tol.
EPS = 1e-8
RHO_FLOOR = -1e-5  # no-harm floor for ri and leximin (acceptance criterion 3)
ORACLE_TOL = 1e-3  # continuous vs discrete objective (acceptance criterion 5)
EXIT_OK = 0  # the CLI's success code

RiskFn = Callable[[np.ndarray], np.ndarray]


def criterion(method: str, risks: np.ndarray, base: np.ndarray, ideal: np.ndarray) -> float:
    """The method's objective at a risk profile, in the method's own units."""
    if method in ("ri", "leximin"):
        return float(np.min((base - risks) / (base - ideal)))
    if method == "gdro":
        return float(np.max(risks))
    if method == "mmv":
        return float(np.min(base - risks))
    if method == "mmr":
        return float(np.max(risks - ideal))
    if method == "nash":
        gains = base - risks
        return float(np.sum(np.log(gains))) if gains.min() > 0.0 else -math.inf
    raise ValueError(f"unknown method {method!r}")


def _slack(method: str, tol: float) -> float:
    # leximin reports its first-stage value; its point sits in a 10*tol pin band
    return 10.0 * tol if method == "leximin" else 0.0


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= EPS * np.maximum(1.0, np.abs(b))))


def check_frame(base, ideal, ref_base, ref_ideal) -> list[str]:
    """The program's frame against the benchmark's reference frame."""
    out = []
    if not _close(base, ref_base):
        out.append(f"baseline risks {list(base)} differ from reference {list(ref_base)}")
    if not np.all(np.abs(np.asarray(ideal) - ref_ideal) <= 1e-7 * np.maximum(1.0, np.abs(ref_ideal))):
        out.append(f"ideal risks {list(ideal)} differ from reference {list(ref_ideal)}")
    return out


def check_solves(
    reports: dict[str, dict],
    risk_fn: RiskFn,
    base: np.ndarray,
    ideal: np.ndarray,
    radius: float,
    tol: float,
) -> dict[str, list[str]]:
    """Check one input's solves; returns the problems found, per method.

    Each report is a dict with `parameter`, `objective_value` and
    `certificate_gap`, and optionally `risks` and `improvements` as printed.
    """
    base = np.asarray(base, float)
    ideal = np.asarray(ideal, float)
    problems: dict[str, list[str]] = {m: [] for m in reports}
    thetas = {}
    for method, rep in reports.items():
        bad = problems[method]
        theta = np.asarray(rep["parameter"], float)
        gap = float(rep["certificate_gap"])
        obj = float(rep["objective_value"])
        if not np.all(np.isfinite(theta)):
            bad.append("non-finite parameter")
            continue
        thetas[method] = theta
        if np.linalg.norm(theta) > radius * (1.0 + 1e-9):
            bad.append(f"parameter norm {np.linalg.norm(theta)!r} leaves the ball {radius!r}")
        if not (math.isfinite(gap) and gap >= 0.0):
            bad.append(f"certificate gap {gap!r} is not finite and non-negative")
        if not math.isfinite(obj):
            bad.append(f"objective {obj!r} is not finite")
        risks = risk_fn(theta)
        if "risks" in rep and not _close(rep["risks"], np.maximum(risks, 0.0)):
            bad.append("reported risks differ from the risks at the parameter")
        if "improvements" in rep and not _close(rep["improvements"], (base - risks) / (base - ideal)):
            bad.append("reported improvements differ from the frame transform")
        rho = (base - risks) / (base - ideal)
        if rho.max() > 1.0 + EPS:
            bad.append(f"improvement {rho.max()!r} exceeds the ideal")
        if method in ("ri", "leximin") and rho.min() < RHO_FLOOR:
            bad.append(f"worst improvement {rho.min()!r} harms a group")
        at = criterion(method, risks, base, ideal)
        if math.isfinite(gap) and not abs(obj - at) <= gap + _slack(method, tol) + EPS * max(1.0, abs(at)):
            bad.append(f"objective {obj!r} but {at!r} at the parameter (gap {gap!r})")
    # cross-method: each certificate bounds the criterion at every returned point
    for method, rep in reports.items():
        gap = float(rep["certificate_gap"])
        obj = float(rep["objective_value"])
        if not (math.isfinite(gap) and math.isfinite(obj)):
            continue
        for other, theta in thetas.items():
            at = criterion(method, risk_fn(theta), base, ideal)
            margin = EPS * max(1.0, abs(obj))
            beaten = at > obj + gap + margin if MAXIMIZE[method] else at < obj - gap - margin
            if beaten:
                problems[method].append(
                    f"{other}'s parameter scores {at!r}, beyond the certified bound "
                    f"{obj!r} +/- {gap!r}"
                )
    return problems


def check_refusals(
    refused: list[str], reports: dict[str, dict], problems: dict[str, list[str]], tol: float
) -> dict[str, list[str]]:
    """Problems with the methods that refused an input; a refusal must be earned.

    Only `nash` documents a refusal, and only when no point gives every group
    a strictly positive gain. The `ri` certificate bounds the best worst
    improvement over the ball from above, so the refusal holds when `ri`
    passed its own checks and that bound, objective plus gap, is at most tol.
    """
    out: dict[str, list[str]] = {}
    ri = reports.get("ri")
    sound = ri is not None and not problems.get("ri")
    bound = float(ri["objective_value"]) + float(ri["certificate_gap"]) if sound else math.nan
    for method in refused:
        if method != "nash":
            out[method] = [f"{method} refused; only nash may refuse, when no point has a common gain"]
        elif not sound:
            out[method] = ["nash refused, and there is no sound ri solve to show that no common gain exists"]
        elif not bound <= tol:
            out[method] = [f"nash refused, but ri's certified bound {bound!r} leaves room for a common gain"]
    return out


def check_solve_json(text: str, risk_fn: RiskFn, ref_base, ref_ideal, tol: float) -> list[str]:
    """A `fairgain solve` report: parse, frame, then every method's solve."""
    try:
        report = json.loads(text)
        base = np.asarray(report["frame"]["baseline_risks"], float)
        ideal = np.asarray(report["frame"]["ideal_risks"], float)
        ball = float(report["ball"])
        methods = report["methods"]
        reports = {
            m: {
                "parameter": r["parameter"],
                "objective_value": r["objective_value"],
                "certificate_gap": r["certificate_gap"],
                "risks": r["risks"],
                "improvements": r["improvements"],
            }
            for m, r in methods.items()
        }
        certified = {m: r["certified"] for m, r in methods.items()}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable solve report: {exc!r}"]
    out = check_frame(base, ideal, ref_base, ref_ideal)
    for m, rep in reports.items():
        if certified[m] != (float(rep["certificate_gap"]) <= tol):
            out.append(f"{m}: `certified` disagrees with the gap")
    for m, bad in check_solves(reports, risk_fn, base, ideal, ball, tol).items():
        out += [f"{m}: {b}" for b in bad]
    return out


def check_compare_csv(text: str, risk_fn: RiskFn, ref_base, ref_ideal, radius: float, tol: float) -> list[str]:
    """A `fairgain compare` table; the oracle column, when present, within 1e-3."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        d = sum(h.startswith("theta_") for h in header)
        m = sum(h.startswith("r_") for h in header)
        col = {h: i for i, h in enumerate(header)}
        parsed = [(r[0], np.array([float(v) for v in r[1:]])) for r in body]
    except (ValueError, IndexError) as exc:
        return [f"unreadable compare table: {exc!r}"]
    if not body or m != len(ref_base):
        return ["compare table has no rows or the wrong group count"]
    out = []
    for method, vals in parsed:
        if method not in MAXIMIZE:
            out.append(f"unknown method row {method!r}")
            continue
        theta = vals[:d]
        risks = vals[d : d + m]
        rho = vals[d + m : d + 2 * m]
        at_risks = risk_fn(theta)
        if not np.all(np.isfinite(vals)):
            out.append(f"{method}: non-finite value")
            continue
        if np.linalg.norm(theta) > radius * (1.0 + 1e-9):
            out.append(f"{method}: parameter leaves the ball")
        if not _close(risks, at_risks) or not _close(rho, (ref_base - at_risks) / (ref_base - ref_ideal)):
            out.append(f"{method}: risks or improvements differ from the parameter's")
        obj = vals[col["objective"] - 1]
        at = criterion(method, at_risks, ref_base, ref_ideal)
        if not abs(obj - at) <= _slack(method, tol) + 1e-7 * max(1.0, abs(at)):
            out.append(f"{method}: objective {obj!r} but {at!r} at the parameter")
        if "oracle_objective" in col:
            oracle = vals[col["oracle_objective"] - 1]
            if not abs(obj - oracle) <= ORACLE_TOL:
                out.append(f"{method}: objective {obj!r} is {abs(obj - oracle):.3e} from the oracle")
    return out


def check_frontier_csv(text: str, ref_base, ref_ideal) -> list[str]:
    """A two-group frontier trace: monotone, below the ideals, consistent with the frame."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["lambda", "rho1", "rho2", "r1", "r2"]:
            return [f"unexpected frontier header {rows[0]}"]
        vals = np.array([[float(v) for v in r] for r in rows[1:]])
    except (ValueError, IndexError) as exc:
        return [f"unreadable frontier: {exc!r}"]
    if vals.ndim != 2 or vals.shape[0] < 2 or not np.all(np.isfinite(vals)):
        return ["frontier has fewer than two finite rows"]
    lam, rho, risks = vals[:, 0], vals[:, 1:3], vals[:, 3:5]
    out = []
    if not np.all((lam > 0.0) & (lam < 1.0)):
        out.append("frontier weight outside (0, 1)")
    if not np.all(np.diff(rho[:, 0]) > 0.0) or not np.all(np.diff(rho[:, 1]) <= EPS):
        out.append("frontier is not monotone")
    if rho.max() > 1.0 + EPS:
        out.append("frontier point beats a group's ideal")
    if not _close(rho, (ref_base - risks) / (ref_base - ref_ideal)):
        out.append("frontier improvements disagree with its risks")
    if np.abs(rho[:, 0] - rho[:, 1]).min() > 1e-3:
        out.append("frontier trace misses the equal-improvement diagonal")
    return out


def check_convergence(gaps: np.ndarray, population_value: float, rejected, slope: float,
                      exact_value: float, worst_value: float, shape: tuple[int, int]) -> list[str]:
    """A convergence study on a 1-d, 2-group spec with its exact maximin value."""
    out = []
    gaps = np.asarray(gaps, float)
    if gaps.shape != shape:
        out.append(f"gap table has shape {gaps.shape}, expected {shape}")
    if not np.all(np.isfinite(gaps)) or gaps.min() < 0.0:
        out.append("gaps must be finite and non-negative")
    elif gaps.max() > exact_value - worst_value + EPS:
        out.append("a gap exceeds the spread of the worst improvement over the ball")
    if not abs(population_value - exact_value) <= 1e-6:
        out.append(f"population value {population_value!r} but the exact maximin is {exact_value!r}")
    if not math.isfinite(slope):
        out.append("fitted slope is not finite")
    if any(int(r) < 0 for r in rejected):
        out.append("negative rejection count")
    return out

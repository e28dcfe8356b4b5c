"""Shared value types: risk profiles, bargaining frames, improvement transforms,
and the one table of bargaining criteria that every solver and oracle scores by.

Risks are per-group expected losses, lower is better. A bargaining frame fixes,
for every group, the risk of the status-quo predictor (baseline) and the best
risk the group could get if the model were fit for it alone (ideal). The
relative improvement of a candidate rescales its risk into [.., 1] units where
0 means "no better than the baseline" and 1 means "as good as the ideal".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# A frame whose baseline and ideal coincide (within this gap) carries no
# improvement direction for that group; operations refuse it.
FRAME_GAP_FLOOR = 1e-10


class DegenerateFrameError(ValueError):
    """Some group's baseline and ideal risks coincide."""


class DegenerateBargainError(ValueError):
    """No candidate strictly improves on the baseline for every group."""


class UnsupportedDimensionError(ValueError):
    """Operation is only defined for a particular number of groups or features."""


class ConvergenceError(RuntimeError):
    """An iterative fit stopped before reaching its tolerance."""


def _as_float_tuple(values: Iterable[float], name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) == 0:
        raise ValueError(f"{name} must contain at least one group")
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class RiskProfile:
    """Per-group risks (r_1, ..., r_m)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = _as_float_tuple(self.values, "risk profile")
        if any(v < 0 for v in vals):
            raise ValueError(f"risks must be nonnegative, got {vals}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class ImprovementProfile:
    """Per-group relative improvements (rho_1, ..., rho_m).

    rho_g = 1 at the group's ideal risk, 0 at its baseline risk, negative when
    the candidate is worse for the group than doing nothing.
    """

    rhos: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rhos", _as_float_tuple(self.rhos, "improvement profile"))

    def __len__(self) -> int:
        return len(self.rhos)

    def __getitem__(self, i: int) -> float:
        return self.rhos[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rhos, dtype=float)


@dataclass(frozen=True)
class BargainingFrame:
    """Baseline (status quo) and ideal (group-wise best) risks, per group.

    The baseline, ideal and gap arrays are built once, read-only, since the
    solvers and the criteria table read them on every call.
    """

    baseline_risks: tuple[float, ...]
    ideal_risks: tuple[float, ...]

    def __post_init__(self) -> None:
        base = _as_float_tuple(self.baseline_risks, "baseline risks")
        ideal = _as_float_tuple(self.ideal_risks, "ideal risks")
        if len(base) != len(ideal):
            raise ValueError(
                f"baseline has {len(base)} groups but ideal has {len(ideal)}"
            )
        if any(v < 0 for v in base + ideal):
            raise ValueError("frame risks must be nonnegative")
        for g, (b, i) in enumerate(zip(base, ideal)):
            if b - i <= FRAME_GAP_FLOOR:
                raise DegenerateFrameError(
                    f"group {g}: baseline risk {b} does not exceed ideal risk {i} "
                    f"by more than {FRAME_GAP_FLOOR}; no improvement direction"
                )
        object.__setattr__(self, "baseline_risks", base)
        object.__setattr__(self, "ideal_risks", ideal)
        base_arr, ideal_arr = np.array(base), np.array(ideal)
        for name, arr in (("_baseline", base_arr), ("_ideal", ideal_arr), ("_gaps", base_arr - ideal_arr)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __reduce__(self):  # a pickled or copied frame builds its read-only arrays anew
        return BargainingFrame, (self.baseline_risks, self.ideal_risks)

    @property
    def num_groups(self) -> int:
        return len(self.baseline_risks)

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(b - i for b, i in zip(self.baseline_risks, self.ideal_risks))

    def baseline_array(self) -> np.ndarray:
        return self._baseline

    def ideal_array(self) -> np.ndarray:
        return self._ideal

    def gap_array(self) -> np.ndarray:
        return self._gaps


@dataclass(frozen=True)
class SolverReport:
    """Outcome of a continuous solve: the point, its profiles, and a certificate."""

    parameter: tuple[float, ...]
    risk_profile: RiskProfile
    improvement_profile: ImprovementProfile
    objective_value: float
    iterations: int
    certificate_gap: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameter", tuple(float(v) for v in self.parameter))
        if len(self.risk_profile) != len(self.improvement_profile):
            raise ValueError("risk and improvement profiles disagree on group count")

    def certified(self, tol: float) -> bool:
        return self.certificate_gap <= tol


def _risk_rows(risks, frame: BargainingFrame) -> np.ndarray:
    risks = np.asarray(risks, dtype=float)
    if risks.shape[-1] != frame.num_groups:
        raise ValueError(
            f"risk rows have {risks.shape[-1]} groups, frame has {frame.num_groups}"
        )
    return risks


def relative_improvements(risks: np.ndarray, frame: BargainingFrame) -> np.ndarray:
    """Vectorized risk -> improvement transform; last axis indexes groups."""
    return group_scores("ri", frame, risks)


# Every worst-group criterion scores a risk profile by its worst group,
# min_g (shifts_g - R_g) / scales_g: one maximin with its own reference point
# and unit. Each entry maps a frame to (shifts, scales, sign), and
# sign * score is the reported objective.
WORST_GROUP: dict[str, Callable[[BargainingFrame], tuple]] = {
    # the worst relative improvement (Kalai-Smorodinsky)
    "ri": lambda f: (f.baseline_array(), f.gap_array(), 1.0),
    # the worst per-group risk, reported as a risk
    "gdro": lambda f: (np.zeros(f.num_groups), np.ones(f.num_groups), -1.0),
    # the worst absolute gain (baseline minus risk)
    "mmv": lambda f: (f.baseline_array(), np.ones(f.num_groups), 1.0),
    # the worst regret against the ideal risks, reported as a regret
    "mmr": lambda f: (f.ideal_array(), np.ones(f.num_groups), -1.0),
}


def _worst_group_terms(method: str, frame: BargainingFrame) -> tuple:
    # leximin's first stage is the worst relative improvement
    terms = WORST_GROUP.get("ri" if method == "leximin" else method)
    if terms is None:
        raise ValueError(f"unknown objective {method!r}")
    return terms(frame)


def group_scores(method: str, frame: BargainingFrame, risks) -> np.ndarray:
    """Per-group (shifts - R) / scales of a worst-group criterion; last axis indexes groups."""
    shifts, scales, _ = _worst_group_terms(method, frame)
    scores = shifts - _risk_rows(risks, frame)
    scores /= scales
    return scores


def _worst(scores: np.ndarray) -> np.ndarray:
    # group by group: numpy's reduction over a short last axis is many times
    # slower on millions of rows
    return functools.reduce(np.minimum, scores.T).T


def criterion_scores(method: str, frame: BargainingFrame, risks) -> np.ndarray:
    """Score of a named criterion over the last axis of risks; higher is better.

    A worst-group criterion (leximin scores its first stage) takes the minimum
    of its group scores; nash takes the sum of log gains, -inf where some gain
    is not positive.
    """
    if method != "nash":
        return _worst(group_scores(method, frame, risks))
    gains = frame.baseline_array() - _risk_rows(risks, frame)
    logs = np.full_like(gains, -np.inf)
    np.log(gains, out=logs, where=gains > 0.0)
    # group by group like _worst; left to right is numpy's own order below eight groups
    return functools.reduce(np.add, logs.T).T


def criterion_value(method: str, frame: BargainingFrame, risks) -> float:
    """Reported objective of a named criterion at one risk profile.

    That is sign * score from WORST_GROUP, or the log-gains sum for nash,
    which needs every gain strictly positive.
    """
    score = float(criterion_scores(method, frame, risks))
    if method == "nash":
        if score == -np.inf:
            raise ValueError("the log-gains objective needs strictly positive gains")
        return score
    # sign -1 makes -0.0 of a zero score; + 0.0 reports it as 0.0
    return _worst_group_terms(method, frame)[2] * score + 0.0

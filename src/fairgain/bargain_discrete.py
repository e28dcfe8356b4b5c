"""Bargaining solution criteria over finite candidate sets of risk profiles.

Every operation takes a DiscreteFeasibleSet and returns (index, RiskProfile)
for the winning candidate. Candidate sets can be large (millions of grid
rows), so risks live in one (N, m) array and every pick reads the vectorized
criterion scores of fairgain.core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairgain.core import (
    BargainingFrame,
    DegenerateBargainError,
    RiskProfile,
    criterion_scores,
    group_scores,
    relative_improvements,
)


@dataclass(frozen=True)
class DiscreteFeasibleSet:
    """Finite candidate risk profiles under one bargaining frame."""

    risks: np.ndarray
    frame: BargainingFrame

    def __post_init__(self) -> None:
        arr = np.asarray(self.risks, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("a feasible set needs at least one risk row")
        if arr.shape[1] != self.frame.num_groups:
            raise ValueError(
                f"risk rows have {arr.shape[1]} groups, frame has {self.frame.num_groups}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("risk rows must be finite")
        if arr.min() < 0:
            raise ValueError("risk rows must be nonnegative")
        arr = np.array(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "risks", arr)

    def __len__(self) -> int:
        return self.risks.shape[0]

    def profile(self, i: int) -> RiskProfile:
        return RiskProfile(tuple(self.risks[i]))

    def improvements(self) -> np.ndarray:
        return relative_improvements(self.risks, self.frame)


def _leximin_best(rows: np.ndarray) -> int:
    """Index of the lexicographic maximum after sorting each row ascending.

    Exact float ties at every position fall through to the lowest index.
    """
    ordered = np.sort(rows, axis=1)
    alive = np.ones(rows.shape[0], dtype=bool)
    for j in range(rows.shape[1]):
        col = ordered[:, j]
        best = col[alive].max()
        alive &= col == best
        if alive.sum() == 1:
            break
    return int(np.flatnonzero(alive)[0])


def _leximin_pick(s: DiscreteFeasibleSet, method: str) -> tuple[int, RiskProfile]:
    """Leximin over a worst-group criterion's group scores, lowest index on exact ties.

    Rows are first filtered by their worst score, so only the tied rows are
    scored group by group and sorted, however large the set.
    """
    worst = criterion_scores(method, s.frame, s.risks)
    tied = np.flatnonzero(worst == worst.max())
    best = _leximin_best(group_scores(method, s.frame, s.risks[tied])) if len(tied) > 1 else 0
    idx = int(tied[best])
    return idx, s.profile(idx)


def _pick(s: DiscreteFeasibleSet, method: str) -> tuple[int, RiskProfile]:
    """The first row with the best score under a named criterion."""
    scores = criterion_scores(method, s.frame, s.risks)
    idx = int(np.argmax(scores))
    if scores[idx] == -np.inf:  # only nash scores -inf, where some gain is not positive
        raise DegenerateBargainError(
            "no candidate strictly improves on the baseline for every group"
        )
    return idx, s.profile(idx)


def leximin(s: DiscreteFeasibleSet) -> tuple[int, RiskProfile]:
    """Lexicographic maximin over sorted relative improvements."""
    return _leximin_pick(s, "ri")


# the worst relative improvement with its leximin tie-break is the leximin pick
ks_maximin = leximin


def gdro(s: DiscreteFeasibleSet) -> tuple[int, RiskProfile]:
    """Minimize the worst per-group risk."""
    return _pick(s, "gdro")


def mmv(s: DiscreteFeasibleSet) -> tuple[int, RiskProfile]:
    """Maximize the worst absolute gain over the baseline."""
    return _pick(s, "mmv")


def mmr(s: DiscreteFeasibleSet) -> tuple[int, RiskProfile]:
    """Minimize the worst regret against the ideal risks."""
    return _pick(s, "mmr")


def nash(s: DiscreteFeasibleSet) -> tuple[int, RiskProfile]:
    """Maximize the product of absolute gains over candidates that help every group."""
    return _pick(s, "nash")


def egalitarian(s: DiscreteFeasibleSet) -> tuple[int, RiskProfile]:
    """Leximin over absolute gains (baseline minus risk)."""
    return _leximin_pick(s, "mmv")


def equal_loss(s: DiscreteFeasibleSet) -> tuple[int, RiskProfile]:
    """Minimize the worst regret, refining ties leximin-style down the regret vector."""
    return _leximin_pick(s, "mmr")


def _baseline_index(s: DiscreteFeasibleSet) -> int:
    base = s.frame.baseline_array()
    hits = np.flatnonzero((s.risks == base).all(axis=1))
    if len(hits) == 0:
        raise ValueError("the baseline risk profile must be a member of the set")
    return int(hits[0])


def comprehensive_closure_leximin(s: DiscreteFeasibleSet) -> tuple[int, RiskProfile]:
    """Leximin over the free-disposal closure of the set, mapped to an original row.

    The closure adds, for every candidate at least as good as the baseline in
    all groups, the whole box between it and the baseline. Leximin over that
    closure is attained at an original candidate, so it suffices to augment
    with the box corners and check the winner lands back in the set.
    """
    _baseline_index(s)
    m = s.frame.num_groups
    if m > 16:
        raise ValueError("closure corners are only enumerated for m <= 16 groups")
    base = s.frame.baseline_array()
    dominated = (s.risks <= base).all(axis=1)
    corners = [s.risks]
    picks = np.array(
        [[(mask >> g) & 1 for g in range(m)] for mask in range(1, 2**m)], dtype=bool
    )
    plist = [np.where(row, base, s.risks[dominated]) for row in picks]
    if plist:
        corners.extend(plist)
    augmented = np.concatenate(corners, axis=0)
    aug_set = DiscreteFeasibleSet(augmented, s.frame)
    win, _ = leximin(aug_set)
    winner_row = augmented[win]
    hits = np.flatnonzero((s.risks == winner_row).all(axis=1))
    if len(hits) == 0:
        raise RuntimeError("closure leximin selected a synthetic corner; set is inconsistent")
    idx = int(hits[0])
    return idx, s.profile(idx)

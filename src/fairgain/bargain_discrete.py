"""Bargaining solution criteria over finite candidate sets of risk profiles.

`pick(s, method)` and the closure leximin take a DiscreteFeasibleSet and
return (index, RiskProfile) for the winning candidate. Risks live in one
(N, m) array, and `pick` reads the vectorized criterion scores of
fairgain.core under the continuous solvers' names, plus egalitarian and
equal_loss. The picks serve the bargaining-axiom and closure checks on small
hand-built and random menus.
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


def _leximin_row(s: DiscreteFeasibleSet, criterion: str) -> int:
    """Leximin over a worst-group criterion's group scores, lowest index on exact ties.

    Each row's scores are sorted ascending and compared position by position;
    rows tied at every position fall through to the lowest index.
    """
    ordered = np.sort(group_scores(criterion, s.frame, s.risks), axis=1)
    alive = np.ones(len(s), dtype=bool)
    for col in ordered.T:
        alive &= col == col[alive].max()
        if alive.sum() == 1:
            break
    return int(np.flatnonzero(alive)[0])


def _first_best_row(s: DiscreteFeasibleSet, criterion: str) -> int:
    """The first row with the best score under a criterion."""
    scores = criterion_scores(criterion, s.frame, s.risks)
    idx = int(np.argmax(scores))
    if scores[idx] == -np.inf:  # only nash scores -inf, where some gain is not positive
        raise DegenerateBargainError(
            "no candidate strictly improves on the baseline for every group"
        )
    return idx


# Each name's fairgain.core criterion and tie rule. The worst relative
# improvement with its leximin tie-break is the leximin pick; egalitarian is
# leximin over absolute gains, equal_loss leximin down the regret vector.
_PICKS = {
    "ri": ("ri", _leximin_row),
    "leximin": ("ri", _leximin_row),
    "gdro": ("gdro", _first_best_row),
    "mmv": ("mmv", _first_best_row),
    "mmr": ("mmr", _first_best_row),
    "nash": ("nash", _first_best_row),
    "egalitarian": ("mmv", _leximin_row),
    "equal_loss": ("mmr", _leximin_row),
}


def pick(s: DiscreteFeasibleSet, method: str) -> tuple[int, RiskProfile]:
    """The winning row under a named criterion, as (index, RiskProfile)."""
    if method not in _PICKS:
        raise ValueError(f"unknown method {method!r}; choose from {tuple(_PICKS)}")
    criterion, row = _PICKS[method]
    idx = row(s, criterion)
    return idx, s.profile(idx)


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
    win, _ = pick(aug_set, "leximin")
    winner_row = augmented[win]
    hits = np.flatnonzero((s.risks == winner_row).all(axis=1))
    if len(hits) == 0:
        raise RuntimeError("closure leximin selected a synthetic corner; set is inconsistent")
    idx = int(hits[0])
    return idx, s.profile(idx)

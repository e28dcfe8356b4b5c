"""Selection criteria over finite menus of risk profiles."""

from __future__ import annotations

import numpy as np
import pytest

from fairgain import bargain_discrete
from fairgain.bargain_discrete import DiscreteFeasibleSet, comprehensive_closure_leximin, pick
from fairgain.core import (
    WORST_GROUP,
    BargainingFrame,
    DegenerateBargainError,
    criterion_scores,
    criterion_value,
    group_scores,
)
from fairgain.solvers import METHODS

UNIT_FRAME = BargainingFrame(baseline_risks=(4.0, 4.0), ideal_risks=(1.0, 1.0))


def _menu(rows, frame=UNIT_FRAME):
    return DiscreteFeasibleSet(np.asarray(rows, dtype=float), frame)


def test_three_point_menu_selections():
    s = _menu([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    # improvements: (1, 1/3), (2/3, 2/3), (1/3, 1)
    assert pick(s, "ri")[0] == 1
    assert pick(s, "leximin")[0] == 1
    assert pick(s, "mmv")[0] == 1
    assert pick(s, "mmr")[0] == 1
    assert pick(s, "nash")[0] == 1
    assert pick(s, "egalitarian")[0] == 1
    assert pick(s, "equal_loss")[0] == 1
    assert pick(s, "gdro")[0] == 1
    assert pick(s, "ri")[1].values == (2.0, 2.0)


def test_gdro_ignores_scale_frame():
    # worst absolute risk picks the balanced row even when improvements say no
    s = _menu([[2.0, 4.0], [3.0, 3.0]], BargainingFrame((4.0, 5.0), (1.0, 1.0)))
    assert pick(s, "gdro")[0] == 1
    scaled = _menu(
        [[2.0, 0.4], [3.0, 0.3]], BargainingFrame((4.0, 0.5), (1.0, 0.1))
    )
    assert pick(scaled, "gdro")[0] == 0


def test_improvements_are_scale_invariant():
    rng = np.random.default_rng(0)
    rows = rng.uniform(1.0, 4.0, size=(40, 3))
    frame = BargainingFrame((5.0, 5.0, 5.0), (0.5, 0.5, 0.5))
    s = _menu(rows, frame)
    a = np.array([2.0, 0.25, 7.0])
    b = np.array([1.0, -0.1, 3.0])
    frame2 = BargainingFrame(
        tuple(a * frame.baseline_array() + b),
        tuple(a * frame.ideal_array() + b),
    )
    shifted = rows * a + b
    assert np.all(shifted >= 0)
    s2 = DiscreteFeasibleSet(shifted, frame2)
    np.testing.assert_allclose(s.improvements(), s2.improvements(), atol=1e-12)
    assert pick(s, "ri")[0] == pick(s2, "ri")[0]
    assert pick(s, "leximin")[0] == pick(s2, "leximin")[0]


def test_ks_tie_broken_by_leximin_then_index():
    frame = BargainingFrame((4.0, 4.0), (0.0, 0.0))
    s = _menu([[2.0, 2.0], [2.0, 1.0], [1.0, 2.0]], frame)
    # all three tie at min improvement 0.5; rows 1 and 2 leximin-beat row 0
    # and tie each other exactly, so the lowest index of the pair wins
    assert pick(s, "ri")[0] == 1


def test_lowest_index_on_exact_ties():
    s = _menu([[3.0, 1.0], [1.0, 3.0]])
    assert pick(s, "gdro")[0] == 0
    assert pick(s, "mmr")[0] == 0
    assert pick(s, "mmv")[0] == 0
    assert pick(s, "nash")[0] == 0


def test_leximin_prefers_better_second_worst():
    frame = BargainingFrame((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    s = _menu([[0.6, 0.6, 0.1], [0.6, 0.5, 0.2]], frame)
    # improvements (0.4, 0.4, 0.9) vs (0.4, 0.5, 0.8): same worst, better next
    assert pick(s, "ri")[0] == 1
    assert pick(s, "leximin")[0] == 1


def test_leximin_differs_from_plain_maximin():
    frame = BargainingFrame((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    s = _menu([[0.5, 0.1, 0.5], [0.5, 0.5, 0.1]], frame)
    idx, _ = pick(s, "leximin")
    assert idx == 0  # identical sorted improvements, falls to lowest index


def test_nash_needs_positive_gains():
    s = _menu([[4.0, 2.0], [5.0, 1.0]])
    with pytest.raises(DegenerateBargainError):
        pick(s, "nash")


def test_nash_maximizes_gain_product():
    rng = np.random.default_rng(7)
    rows = rng.uniform(0.5, 3.9, size=(60, 2))
    s = _menu(rows)
    idx, prof = pick(s, "nash")
    gains = UNIT_FRAME.baseline_array() - rows
    prods = np.where(np.all(gains > 0, axis=1), np.prod(gains, axis=1), -np.inf)
    assert idx == int(np.argmax(prods))


def test_equal_loss_balances_regrets():
    s = _menu([[1.0, 3.0], [2.2, 1.8], [3.0, 1.0]])
    # regrets (0, 2), (1.2, 0.8), (2, 0); the middle row has the best worst
    assert pick(s, "equal_loss")[0] == 1


def test_egalitarian_balances_gains():
    s = _menu([[1.0, 3.7], [2.0, 2.1], [3.0, 1.0]])
    # gains (3, 0.3), (2, 1.9), (1, 3)
    assert pick(s, "egalitarian")[0] == 1


def test_mismatched_widths_rejected():
    with pytest.raises(ValueError):
        _menu([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        _menu(np.zeros((0, 2)))


def test_profile_accessor():
    s = _menu([[1.0, 3.0], [2.0, 2.0]])
    assert s.profile(1).values == (2.0, 2.0)
    np.testing.assert_allclose(s.improvements()[0], [1.0, 1.0 / 3.0])


def test_closure_requires_baseline_row():
    s = _menu([[1.0, 3.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        comprehensive_closure_leximin(s)


def test_closure_leximin_matches_plain_leximin():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = int(rng.integers(2, 4))
        base = rng.uniform(3.0, 6.0, size=m)
        ideal = rng.uniform(0.0, 1.0, size=m)
        frame = BargainingFrame(tuple(base), tuple(ideal))
        rows = rng.uniform(0.2, 5.5, size=(30, m))
        rows = np.vstack([rows, base])
        s = DiscreteFeasibleSet(rows, frame)
        assert comprehensive_closure_leximin(s)[0] == pick(s, "leximin")[0]


def test_closure_leximin_hand_example():
    rows = np.array([[4.0, 4.0], [2.0, 2.0], [1.0, 3.0]])
    s = _menu(rows)
    idx, prof = comprehensive_closure_leximin(s)
    assert idx == 1 and prof.values == (2.0, 2.0)


def test_picks_follow_the_core_criterion_scores():
    # integer rows and frames make exact ties, zero gains and -inf nash rows common
    rng = np.random.default_rng(21)
    # gdro, mmv, mmr and nash pick the first best row under their own names;
    # these names pick leximin down a criterion's group scores
    leximin_picks = {"ri": "ri", "leximin": "leximin", "mmv": "egalitarian", "mmr": "equal_loss"}
    for _ in range(200):
        m = int(rng.integers(2, 5))
        base = rng.integers(5, 8, size=m).astype(float)
        ideal = rng.integers(0, 3, size=m).astype(float)
        frame = BargainingFrame(tuple(base), tuple(ideal))
        rows = rng.integers(0, 8, size=(int(rng.integers(5, 40)), m)).astype(float)
        s = DiscreteFeasibleSet(rows, frame)
        for method in ("ri", "leximin", "gdro", "mmv", "mmr", "nash"):
            scores = criterion_scores(method, frame, rows)
            terms = WORST_GROUP.get(method.replace("leximin", "ri"))
            sign = 1.0 if method == "nash" else terms(frame)[2]
            for row, score in zip(rows, scores):
                assert criterion_scores(method, frame, row) == score
                if score == -np.inf:
                    with pytest.raises(ValueError):
                        criterion_value(method, frame, row)
                else:
                    assert criterion_value(method, frame, row) == sign * score
            if method == "nash":
                helps = (base - rows > 0).all(axis=1)
                assert np.array_equal(scores == -np.inf, ~helps)
                reference = [np.log(g).sum() for g in base - rows[helps]]
                assert np.array_equal(scores[helps], reference)
            else:
                reference = group_scores(method, frame, rows).min(axis=1)
                assert np.array_equal(scores, reference)
            if method not in ("ri", "leximin"):
                if scores.max() == -np.inf:
                    with pytest.raises(DegenerateBargainError):
                        pick(s, method)
                else:
                    assert pick(s, method)[0] == int(np.argmax(scores))
            if method in leximin_picks:
                keys = [tuple(sorted(r)) for r in group_scores(method, frame, rows)]
                idx = pick(s, leximin_picks[method])[0]
                assert idx == keys.index(max(keys))
                assert scores[idx] == scores.max()


def test_every_solver_method_is_a_pick_name():
    # the discrete and continuous criteria go by one set of names
    s = _menu([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    for method in METHODS:
        assert pick(s, method) == (1, s.profile(1)), method
    for name in ("ks_maximin", "maximin", "RI", ""):
        with pytest.raises(ValueError, match="unknown method"):
            pick(s, name)


def test_pick_is_the_one_criterion_entry_point():
    public = {
        name for name, value in vars(bargain_discrete).items()
        if callable(value) and not name.startswith("_")
        and getattr(value, "__module__", None) == bargain_discrete.__name__
    }
    assert public == {"DiscreteFeasibleSet", "comprehensive_closure_leximin", "pick"}

"""Frame arithmetic, improvement transforms, and criterion scores."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgain.core import (
    WORST_GROUP,
    BargainingFrame,
    DegenerateFrameError,
    RiskProfile,
    criterion_scores,
    group_scores,
    relative_improvements,
)

MOTIVATING = BargainingFrame(baseline_risks=(5.0, 58.0), ideal_risks=(1.0, 9.0))


def test_frame_gaps():
    assert MOTIVATING.num_groups == 2
    np.testing.assert_array_equal(MOTIVATING.gap_array(), [4.0, 49.0])


def test_frame_arrays_hold_the_tuples_bits_and_refuse_writes():
    # built once at construction: np.array of each tuple and their difference,
    # bit for bit, and read-only, since every caller gets the same arrays
    rng = np.random.default_rng(4)
    frames = [MOTIVATING]
    for m in (2, 3, 5):
        ideal = rng.uniform(0.0, 3.0, m)
        frames.append(BargainingFrame(tuple(ideal + rng.uniform(0.1, 50.0, m)), tuple(ideal)))
    frames += [copy.deepcopy(MOTIVATING), pickle.loads(pickle.dumps(MOTIVATING))]
    for frame in frames:
        base, ideal = np.array(frame.baseline_risks), np.array(frame.ideal_risks)
        arrays = frame.baseline_array(), frame.ideal_array(), frame.gap_array()
        for got, want in zip(arrays, (base, ideal, base - ideal)):
            assert got.dtype == float and got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0
        assert frame.gap_array() is arrays[2]


def test_degenerate_frame_rejected():
    with pytest.raises(DegenerateFrameError):
        BargainingFrame(baseline_risks=(5.0, 9.0), ideal_risks=(1.0, 9.0))
    with pytest.raises(DegenerateFrameError):
        BargainingFrame(baseline_risks=(5.0, 9.0 + 1e-12), ideal_risks=(1.0, 9.0))


def test_baseline_maps_to_zero_ideal_to_one():
    rho_base = relative_improvements([5.0, 58.0], MOTIVATING)
    rho_ideal = relative_improvements([1.0, 9.0], MOTIVATING)
    assert rho_base.tolist() == [0.0, 0.0]
    assert rho_ideal.tolist() == [1.0, 1.0]


def test_worked_improvement_values():
    # risks (7.25, 15.25) sit at the regret-balancing parameter of the
    # motivating instance
    rho = relative_improvements([7.25, 15.25], MOTIVATING)
    assert rho[0] == pytest.approx(-0.5625, abs=1e-15)
    assert rho[1] == pytest.approx(0.8724489795918368, abs=1e-15)


def test_equal_improvement_point_maps_back():
    rho = relative_improvements([181.0 / 81.0, 1954.0 / 81.0], MOTIVATING)
    assert rho[0] == pytest.approx(56.0 / 81.0, rel=1e-14)
    assert rho[1] == pytest.approx(56.0 / 81.0, rel=1e-14)


def test_risk_profile_validation():
    with pytest.raises(ValueError):
        RiskProfile((-1.0, 2.0))
    with pytest.raises(ValueError):
        RiskProfile((float("nan"), 2.0))
    p = RiskProfile((1.0, 2.0))
    assert len(p) == 2 and p[1] == 2.0


def test_vectorized_transform_batches():
    risks = np.array([[5.0, 58.0], [1.0, 9.0], [3.0, 33.5]])
    rho = relative_improvements(risks, MOTIVATING)
    np.testing.assert_allclose(rho[0], [0.0, 0.0])
    np.testing.assert_allclose(rho[1], [1.0, 1.0])
    np.testing.assert_allclose(rho[2], [0.5, 0.5])


@st.composite
def frames_and_risks(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    ideals = [draw(st.floats(min_value=0.0, max_value=50.0)) for _ in range(m)]
    gaps = [draw(st.floats(min_value=1e-3, max_value=100.0)) for _ in range(m)]
    base = [i + g for i, g in zip(ideals, gaps)]
    frame = BargainingFrame(baseline_risks=tuple(base), ideal_risks=tuple(ideals))
    risks = tuple(
        draw(st.floats(min_value=0.0, max_value=200.0)) for _ in range(m)
    )
    return frame, RiskProfile(risks)


@given(frames_and_risks(), st.floats(min_value=1e-4, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_lower_risk_means_higher_improvement(pair, drop):
    frame, risks = pair
    rho = relative_improvements(risks.as_array(), frame)
    lowered = RiskProfile(tuple(max(v - drop, 0.0) for v in risks.values))
    rho2 = relative_improvements(lowered.as_array(), frame)
    assert np.all(rho2 >= rho - 1e-12)


def test_scores_of_a_column_major_block_are_the_row_formula_exactly():
    # the streamed oracle grid scores column-major blocks
    rng = np.random.default_rng(19)
    for m in (2, 3, 4):
        frame = BargainingFrame(
            tuple(rng.uniform(3.0, 6.0, m)), tuple(rng.uniform(0.0, 2.0, m))
        )
        risks = rng.uniform(0.0, 7.0, size=(1000, m))
        block = np.asfortranarray(risks)
        for method in (*WORST_GROUP, "leximin"):
            shifts, scales, _ = WORST_GROUP[method.replace("leximin", "ri")](frame)
            np.testing.assert_array_equal(
                group_scores(method, frame, block), (shifts - risks) / scales
            )
        for method in (*WORST_GROUP, "nash"):
            row_by_row = [criterion_scores(method, frame, row) for row in risks]
            np.testing.assert_array_equal(criterion_scores(method, frame, block), row_by_row)
            with pytest.raises(ValueError, match="groups"):
                criterion_scores(method, frame, risks[:, :1])


def test_every_export_exists_and_star_import_runs():
    # a name dropped from the package but left in __all__ fails here, not in a user's import
    import fairgain

    missing = [name for name in fairgain.__all__ if not hasattr(fairgain, name)]
    assert missing == []
    namespace: dict = {}
    exec("from fairgain import *", namespace)
    assert set(fairgain.__all__) <= set(namespace)

"""Frame arithmetic, improvement transforms, and Pareto filtering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgain.core import (
    WORST_GROUP,
    BargainingFrame,
    DegenerateFrameError,
    ImprovementProfile,
    RiskProfile,
    criterion_scores,
    from_improvement,
    group_scores,
    nondominated_mask,
    pareto_filter,
    relative_improvements,
    risks_from_improvements,
    to_improvement,
)

MOTIVATING = BargainingFrame(baseline_risks=(5.0, 58.0), ideal_risks=(1.0, 9.0))


def test_frame_gaps():
    assert MOTIVATING.num_groups == 2
    assert MOTIVATING.gaps == (4.0, 49.0)
    np.testing.assert_array_equal(MOTIVATING.gap_array(), [4.0, 49.0])


def test_degenerate_frame_rejected():
    with pytest.raises(DegenerateFrameError):
        BargainingFrame(baseline_risks=(5.0, 9.0), ideal_risks=(1.0, 9.0))
    with pytest.raises(DegenerateFrameError):
        BargainingFrame(baseline_risks=(5.0, 9.0 + 1e-12), ideal_risks=(1.0, 9.0))


def test_baseline_maps_to_zero_ideal_to_one():
    rho_base = to_improvement(RiskProfile((5.0, 58.0)), MOTIVATING)
    rho_ideal = to_improvement(RiskProfile((1.0, 9.0)), MOTIVATING)
    assert rho_base.rhos == (0.0, 0.0)
    assert rho_ideal.rhos == (1.0, 1.0)


def test_worked_improvement_values():
    # risks (7.25, 15.25) sit at the regret-balancing parameter of the
    # motivating instance
    rho = to_improvement(RiskProfile((7.25, 15.25)), MOTIVATING)
    assert rho.rhos[0] == pytest.approx(-0.5625, abs=1e-15)
    assert rho.rhos[1] == pytest.approx(0.8724489795918368, abs=1e-15)


def test_equal_improvement_point_maps_back():
    target = 56.0 / 81.0
    risks = from_improvement(ImprovementProfile((target, target)), MOTIVATING)
    assert risks.values[0] == pytest.approx(181.0 / 81.0, rel=1e-14)
    assert risks.values[1] == pytest.approx(1954.0 / 81.0, rel=1e-14)


def test_from_improvement_clamps_tiny_negative_risk():
    frame = BargainingFrame(baseline_risks=(1.0,), ideal_risks=(0.0,))
    risks = from_improvement(ImprovementProfile((1.0 + 1e-10,)), frame)
    assert risks.values[0] == 0.0


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
    back = risks_from_improvements(rho, MOTIVATING)
    np.testing.assert_allclose(back, risks, atol=1e-12)


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


@given(frames_and_risks())
@settings(max_examples=200, deadline=None)
def test_round_trip_is_identity(pair):
    frame, risks = pair
    back = from_improvement(to_improvement(risks, frame), frame)
    np.testing.assert_allclose(back.as_array(), risks.as_array(), atol=1e-9, rtol=1e-9)


@given(frames_and_risks(), st.floats(min_value=1e-4, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_lower_risk_means_higher_improvement(pair, drop):
    frame, risks = pair
    rho = to_improvement(risks, frame).as_array()
    lowered = RiskProfile(tuple(max(v - drop, 0.0) for v in risks.values))
    rho2 = to_improvement(lowered, frame).as_array()
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
            shifts, scales, _, _ = WORST_GROUP[method.replace("leximin", "ri")](frame)
            np.testing.assert_array_equal(
                group_scores(method, frame, block), (shifts - risks) / scales
            )
        for method in (*WORST_GROUP, "nash"):
            row_by_row = [criterion_scores(method, frame, row) for row in risks]
            np.testing.assert_array_equal(criterion_scores(method, frame, block), row_by_row)
            with pytest.raises(ValueError, match="groups"):
                criterion_scores(method, frame, risks[:, :1])


def test_nondominated_mask_two_groups_matches_naive():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 4.0, size=(300, 2))
    mask = nondominated_mask(pts)
    for i in range(len(pts)):
        dominated = np.any(
            np.all(pts <= pts[i], axis=1) & np.any(pts < pts[i], axis=1)
        )
        assert mask[i] == (not dominated)


def test_nondominated_mask_handles_duplicates_and_ties():
    pts = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
    mask = nondominated_mask(pts)
    # duplicates of an efficient point stay efficient, dominated rows drop
    assert mask.tolist() == [True, True, True, False, False]


def test_nondominated_mask_three_groups():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 4.0, size=(120, 3))
    mask = nondominated_mask(pts)
    for i in range(len(pts)):
        dominated = np.any(
            np.all(pts <= pts[i], axis=1) & np.any(pts < pts[i], axis=1)
        )
        assert mask[i] == (not dominated)


def test_pareto_filter_orders_and_dedupes():
    profiles = [
        RiskProfile((2.0, 2.0)),
        RiskProfile((1.0, 3.0)),
        RiskProfile((2.0, 2.0)),
        RiskProfile((3.0, 3.0)),
        RiskProfile((3.0, 1.0)),
    ]
    kept = pareto_filter(profiles)
    assert [p.values for p in kept] == [(2.0, 2.0), (1.0, 3.0), (3.0, 1.0)]


def test_pareto_filter_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        pareto_filter([])
    with pytest.raises(ValueError):
        pareto_filter([RiskProfile((1.0,)), RiskProfile((1.0, 2.0))])

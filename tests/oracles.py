"""Geometry checks that only the tests run: diagonal crossings, hull realizability, gradient bounds.

The diagonal functions read a two-group frontier trace: the Kalai-Smorodinsky
point lies where the traced frontier crosses the equal-improvement diagonal.
The hull check builds a risk-set sample's convex hull with qhull
(scipy.spatial.ConvexHull) for two and three groups alike, probes every facet
on the efficient boundary, and measures how far the probes sit from the
sample. A flat sample is built again on joggled input. A risk-set sample
carries its grid spacing; times a model's gradient bound over the ball, it
gives the check's tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from fairgain.core import UnsupportedDimensionError
from fairgain.geometry import FrontierTrace, RiskSetSample


class DiagonalNotBracketedError(ValueError):
    """The traced frontier does not straddle the equal-improvement diagonal."""


def count_diagonal_crossings(trace: FrontierTrace) -> int:
    """Sign changes of rho_2 - rho_1 along the trace (vertex hits count once)."""
    g = trace.points[:, 1] - trace.points[:, 0]
    signs = np.sign(g)
    crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
    zeros = signs == 0
    # consecutive exact zeros are one touch: count each run's first zero
    return crossings + int(np.sum(zeros & np.diff(zeros, prepend=False)))


def diagonal_intersection(trace: FrontierTrace) -> tuple[float, tuple[float, float]]:
    """Equal-improvement level where the traced frontier crosses the diagonal.

    Roots rho_2 - rho_1 on the piecewise-linear interpolant of the trace, in
    closed form on the first segment where it turns from positive to at most
    0, since it is linear there. Requires the trace to start above the
    diagonal and end below it.
    """
    pts = trace.points
    if pts.shape[0] < 2:
        raise DiagonalNotBracketedError("need at least two trace points")
    gaps = pts[:, 1] - pts[:, 0]
    if not (gaps[0] > 0.0 and gaps[-1] < 0.0):
        raise DiagonalNotBracketedError(
            f"frontier trace does not bracket the diagonal (endpoint gaps "
            f"{gaps[0]:.3e}, {gaps[-1]:.3e})"
        )
    idx = int(np.flatnonzero((gaps[:-1] > 0.0) & (gaps[1:] <= 0.0))[0])
    (x0, y0), (x1, y1) = pts[idx], pts[idx + 1]
    t = gaps[idx] / (gaps[idx] - gaps[idx + 1])
    rho_star = float(x0 + t * (x1 - x0))
    return rho_star, (rho_star, float(y0 + t * (y1 - y0)))


def quadratic_lipschitz_bound(model, radius: float) -> float:
    """Bound on every quadratic group's gradient norm over the ball: 2 (lmax(A_g) r + |c_g|)."""
    spectral = np.abs(np.linalg.eigvalsh(model.A)).max(axis=1)
    return float(2.0 * np.max(spectral * radius + np.linalg.norm(model.c, axis=1)))


def logistic_lipschitz_bound(model) -> float:
    """Bound on every logistic group's gradient norm at any theta: mean_i |x_i|.

    The gradient mean_i (sigmoid(x_i' theta) - y_i) x_i needs no radius,
    since |sigmoid(z) - y| <= 1 for labels in [0, 1].
    """
    return float(max(np.linalg.norm(X, axis=1).mean() for X in model.features))


@dataclass(frozen=True)
class HullParetoReport:
    """Worst distance from the hull's efficient boundary to a realized sample."""

    max_violation: float
    tolerance: float | None
    ok: bool | None
    n_faces: int
    n_checked: int


# about this many barycentric probes on each efficient hull facet
_PROBES_PER_FACE = 32


def _efficient_facet_probes(risks: np.ndarray) -> tuple[np.ndarray, int]:
    """Barycentric probes on the hull facets that face down in every coordinate.

    Returns the probes and the number of such facets. A flat sample (collinear
    for two groups, coplanar for three) has no full-dimensional hull, so qhull
    builds it again from joggled input; fewer rows than a simplex needs leave
    no facet to probe.
    """
    m = risks.shape[1]
    if risks.shape[0] <= m:
        return np.empty((0, m)), 0
    try:
        hull = ConvexHull(risks)
    except QhullError:
        hull = ConvexHull(risks, qhull_options="QJ")
    normals = hull.equations[:, :-1]
    # outward normals that point weakly down in every coordinate mark the
    # efficient boundary
    faces = hull.simplices[(normals.max(axis=1) < 1e-10) & (normals.min(axis=1) < 0)]
    steps = _PROBES_PER_FACE - 1 if m == 2 else int(np.sqrt(_PROBES_PER_FACE))
    counts = [c for c in itertools.product(range(steps + 1), repeat=m - 1) if sum(c) <= steps]
    bary = np.array([(*c, steps - sum(c)) for c in counts]) / steps
    return (bary @ risks[faces]).reshape(-1, m), len(faces)


def hull_pareto_check(
    sample: RiskSetSample | np.ndarray,
    tolerance: float | None = None,
) -> HullParetoReport:
    """Distance from the convex hull's efficient boundary back to the sample.

    When the underlying risk set is convex along its efficient boundary, every
    efficient hull point is (up to discretization) realizable, so the worst
    probe-to-sample distance stays at the grid scale. A hollow frontier shows
    up as a large violation. Violations are reported, never raised.
    """
    risks = sample.risks if isinstance(sample, RiskSetSample) else np.asarray(sample, dtype=float)
    if risks.ndim != 2 or risks.shape[1] not in (2, 3):
        raise UnsupportedDimensionError("hull checks cover two or three groups")
    unique = np.unique(risks, axis=0)
    probes, faces = _efficient_facet_probes(unique)
    if probes.shape[0] == 0:
        max_violation = 0.0
    else:
        dists, _ = cKDTree(unique).query(probes, k=1)
        max_violation = float(dists.max())
    ok = None if tolerance is None else bool(max_violation <= tolerance)
    return HullParetoReport(
        max_violation=max_violation,
        tolerance=tolerance,
        ok=ok,
        n_faces=faces,
        n_checked=int(probes.shape[0]),
    )

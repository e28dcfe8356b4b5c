"""Risk-set geometry: frontier traces, diagonal crossings, hull realizability.

Everything here reads a group risk model (quadratic or logistic): its batched
values score parameters and its minimize solves the scalarized problems. The
two-group frontier is traced by scalarizing in improvement space (maximize
lam*rho_1 + (1-lam)*rho_2), which keeps the trace invariant under per-group
affine risk rescaling; each scalarized problem is one weighted minimization
over the ball, exact for quadratic risks.

The hull check builds the sample's convex hull with qhull (scipy, imported
where it is used) for two and three groups alike, probes every facet on the
efficient boundary, and measures how far the probes sit from the sample. A
flat sample is built again on joggled input. The Lipschitz bound, which
turns a grid spacing into the check's tolerance, covers both risk models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from fairgain.core import BargainingFrame, UnsupportedDimensionError, relative_improvements
from fairgain.risk_models import LogisticGroupRisks


class DiagonalNotBracketedError(ValueError):
    """The traced frontier does not straddle the equal-improvement diagonal."""


@dataclass(frozen=True)
class FrontierTrace:
    """Strictly increasing rho_1 walk along the two-group improvement frontier."""

    lambdas: tuple[float, ...]
    points: np.ndarray  # (n, 2) improvement pairs
    risks: np.ndarray  # (n, 2) matching risk pairs

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        rks = np.array(self.risks, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape != rks.shape:
            raise ValueError("a frontier trace needs matching (n, 2) point and risk arrays")
        if len(self.lambdas) != pts.shape[0]:
            raise ValueError("one scalarization weight per trace point")
        if pts.shape[0] >= 2 and not np.all(np.diff(pts[:, 0]) > 0):
            raise ValueError("trace points must be strictly increasing in rho_1")
        pts.setflags(write=False)
        rks.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "risks", rks)
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RiskSetSample:
    """Parameters and their risk rows sampled from the feasible class."""

    thetas: np.ndarray
    risks: np.ndarray

    def __post_init__(self) -> None:
        th = np.array(self.thetas, dtype=float)
        rk = np.array(self.risks, dtype=float)
        if th.ndim != 2 or rk.ndim != 2 or th.shape[0] != rk.shape[0]:
            raise ValueError("thetas and risks must be matching 2-d arrays")
        th.setflags(write=False)
        rk.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "risks", rk)

    def __len__(self) -> int:
        return self.risks.shape[0]


@dataclass(frozen=True)
class HullParetoReport:
    """Worst distance from the hull's efficient boundary to a realized sample."""

    max_violation: float
    tolerance: float | None
    ok: bool | None
    n_faces: int
    n_checked: int


def weighted_improvement_argmax(
    model, frame: BargainingFrame, lam: float, radius: float
) -> np.ndarray:
    """In-ball maximizer of lam*rho_1 + (1-lam)*rho_2, by the model's minimize."""
    if model.num_groups != 2:
        raise UnsupportedDimensionError("scalarized tracing is defined for two groups")
    w = np.array([lam, 1.0 - lam]) / frame.gap_array()
    return model.minimize(w, radius)[0]


def trace_frontier(model, frame: BargainingFrame, radius: float, n_weights: int) -> FrontierTrace:
    """Walk the two-group improvement frontier on a uniform weight grid.

    After the grid pass the interval where rho_2 - rho_1 changes sign is
    refined by bisection on the weight so the trace carries points essentially
    on the equal-improvement diagonal; a uniform grid alone can step over it
    by far more than the tolerances downstream consumers use.
    """
    if model.num_groups != 2:
        raise UnsupportedDimensionError(
            f"frontier tracing needs exactly two groups, got {model.num_groups}"
        )
    if n_weights < 2:
        raise ValueError("n_weights must be at least 2")

    def entry(lam: float) -> tuple[float, np.ndarray, np.ndarray]:
        risks = model.values(weighted_improvement_argmax(model, frame, lam, radius))
        return lam, risks, relative_improvements(risks, frame)

    entries = [entry((i + 1) / (n_weights + 1)) for i in range(n_weights)]

    # refine the diagonal crossing: rho_1 rises with lam, rho_2 falls
    gap_of = lambda rho: rho[1] - rho[0]
    for i in range(len(entries) - 1):
        lo, hi = entries[i], entries[i + 1]
        if gap_of(lo[2]) > 0.0 >= gap_of(hi[2]):
            for _ in range(60):
                if abs(lo[0] - hi[0]) < 1e-14 or (
                    np.abs(lo[2] - hi[2]).max() < 1e-5
                ):
                    break
                mid = entry(0.5 * (lo[0] + hi[0]))
                entries.append(mid)
                if gap_of(mid[2]) > 0.0:
                    lo = mid
                else:
                    hi = mid
            break

    # entries within 1e-12 in rho_1 of a cluster's first are one point, the
    # smallest weight's, so rounding does not pick which weight stays
    entries.sort(key=lambda e: e[2][0])
    clusters: list[list] = []
    for e in entries:
        if clusters and e[2][0] - clusters[-1][0][2][0] <= 1e-12:
            clusters[-1].append(e)
        else:
            clusters.append([e])
    lams, risks, rhos = zip(*(min(cluster, key=lambda e: e[0]) for cluster in clusters))
    return FrontierTrace(lams, np.array(rhos), np.array(risks))


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


def sample_risk_set(
    model,
    radius: float,
    grid: int | None = None,
    count: int | None = None,
    seed: int | None = None,
) -> RiskSetSample:
    """Risk rows over a deterministic ball grid (d <= 3) or uniform draws.

    d = 1 uses a line grid, d = 2 a grid x grid polar grid (exactly grid**2
    rows), d = 3 a spherical grid; higher dimensions need `count` random
    points instead.
    """
    d, r = model.dim, radius
    if count is not None:
        if count < 1:
            raise ValueError("count must be positive")
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((count, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = r * rng.random(count) ** (1.0 / d)
        thetas = dirs * radii[:, None]
    elif grid is None:
        raise ValueError("pass a grid size (d <= 3) or a sample count")
    elif d > 3:
        raise UnsupportedDimensionError(
            f"grid sampling covers d <= 3; pass count= for d = {d}"
        )
    elif grid < 2:
        raise ValueError("grid must be at least 2")
    elif d == 1:
        thetas = np.linspace(-r, r, grid)[:, None]
    elif d == 2:
        radii = np.linspace(0.0, r, grid)
        angles = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
        rr, aa = np.meshgrid(radii, angles, indexing="ij")
        thetas = np.column_stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()])
    else:
        radii = np.linspace(0.0, r, grid)
        polar = np.linspace(0.0, np.pi, grid)
        azim = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
        rr, pp, aa = np.meshgrid(radii, polar, azim, indexing="ij")
        thetas = np.column_stack(
            [
                (rr * np.sin(pp) * np.cos(aa)).ravel(),
                (rr * np.sin(pp) * np.sin(aa)).ravel(),
                (rr * np.cos(pp)).ravel(),
            ]
        )
    return RiskSetSample(thetas, model.values(thetas))


# about this many barycentric probes on each efficient hull facet
_PROBES_PER_FACE = 32


def _efficient_facet_probes(risks: np.ndarray) -> tuple[np.ndarray, int]:
    """Barycentric probes on the hull facets that face down in every coordinate.

    Returns the probes and the number of such facets. A flat sample (collinear
    for two groups, coplanar for three) has no full-dimensional hull, so qhull
    builds it again from joggled input; fewer rows than a simplex needs leave
    no facet to probe.
    """
    from scipy.spatial import ConvexHull, QhullError  # here, so that the CLI loads no scipy

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
        from scipy.spatial import cKDTree

        tree = cKDTree(unique)
        dists, _ = tree.query(probes, k=1)
        max_violation = float(dists.max())
    ok = None if tolerance is None else bool(max_violation <= tolerance)
    return HullParetoReport(
        max_violation=max_violation,
        tolerance=tolerance,
        ok=ok,
        n_faces=faces,
        n_checked=int(probes.shape[0]),
    )


def risk_lipschitz_bound(model, radius: float) -> float:
    """Upper bound on any group's risk gradient norm over the ball.

    A quadratic group's gradient 2 (A_g theta - c_g) has norm at most
    2 (lmax(A_g) r + |c_g|). A logistic group's gradient
    mean_i (sigmoid(x_i' theta) - y_i) x_i has norm at most mean_i |x_i| at any
    theta, since |sigmoid(z) - y| <= 1 for labels in [0, 1].
    """
    if isinstance(model, LogisticGroupRisks):
        return float(max(np.linalg.norm(X, axis=1).mean() for X in model.features))
    spectral = np.abs(np.linalg.eigvalsh(model.A)).max(axis=1)
    return float(2.0 * np.max(spectral * radius + np.linalg.norm(model.c, axis=1)))


def sample_grid_spacing(dim: int, radius: float, grid: int) -> float:
    """Coarsest distance between adjacent grid points of sample_risk_set."""
    if grid < 2:
        raise ValueError("grid must be at least 2")
    r = radius
    if dim == 1:
        return 2.0 * r / (grid - 1)
    if dim == 2:
        return max(r / (grid - 1), r * 2.0 * np.pi / grid)
    if dim == 3:
        return max(r / (grid - 1), r * np.pi / (grid - 1), r * 2.0 * np.pi / grid)
    raise UnsupportedDimensionError("grid spacing is defined for d <= 3")

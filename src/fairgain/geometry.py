"""Risk-set geometry: frontier traces and risk-set samples of a group risk model.

Everything here reads a group risk model (quadratic or logistic): its batched
values score parameters and its minimize solves the scalarized problems. The
two-group frontier is traced by scalarizing in improvement space (maximize
lam*rho_1 + (1-lam)*rho_2), which keeps the trace invariant under per-group
affine risk rescaling; each scalarized problem is one weighted minimization
over the ball, exact for quadratic risks. The trace is refined where it
crosses the equal-improvement diagonal, at the Kalai-Smorodinsky point. A
risk-set sample scores a deterministic ball grid and carries its spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairgain.core import BargainingFrame, UnsupportedDimensionError, relative_improvements


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
    """Parameters and their risk rows on a ball grid.

    spacing is the grid's coarsest step between adjacent points, so every
    point of the ball lies within spacing of some grid point.
    """

    thetas: np.ndarray
    risks: np.ndarray
    spacing: float

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


def sample_risk_set(model, radius: float, grid: int) -> RiskSetSample:
    """Risk rows over a deterministic ball grid, for d <= 3.

    d = 1 uses a line grid, d = 2 a grid x grid polar grid (exactly grid**2
    rows), d = 3 a spherical grid.
    """
    d, r = model.dim, radius
    if d > 3:
        raise UnsupportedDimensionError(f"grid sampling covers d <= 3, got d = {d}")
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if d == 1:
        thetas = np.linspace(-r, r, grid)[:, None]
        spacing = 2.0 * r / (grid - 1)
    elif d == 2:
        radii = np.linspace(0.0, r, grid)
        angles = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
        rr, aa = np.meshgrid(radii, angles, indexing="ij")
        thetas = np.column_stack([(rr * np.cos(aa)).ravel(), (rr * np.sin(aa)).ravel()])
        spacing = max(r / (grid - 1), r * 2.0 * np.pi / grid)
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
        spacing = max(r / (grid - 1), r * np.pi / (grid - 1), r * 2.0 * np.pi / grid)
    return RiskSetSample(thetas, model.values(thetas), spacing)

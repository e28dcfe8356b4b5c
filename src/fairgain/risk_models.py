"""Group risk models: population quadratics and empirical datasets.

Population side: each group is a linear-regression population with coefficient
vector beta, feature second-moment matrix cov, and noise floor sigma2, so a
linear predictor theta has group risk (theta-beta)' cov (theta-beta) + sigma2.
The baseline predictor is theta = 0 and the parameter class is the Euclidean
ball of a given radius.

Empirical side: per-group (X, y) samples under squared or logistic loss.
Group-optimal fits produce the ideal risks of a bargaining frame; the
baseline is the zero predictor for regression and the pooled base rate for
classification.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from fairgain.core import (
    BargainingFrame,
    ConvergenceError,
    RiskProfile,
)

_EIG_CUTOFF = 1e-10  # relative truncation for pseudo-inverse style solves
_BALL_TOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupLinearModel:
    """One group's regression population: coefficients, noise, feature moments."""

    beta: np.ndarray
    sigma2: float
    cov: np.ndarray

    def __post_init__(self) -> None:
        beta = _readonly(np.atleast_1d(self.beta))
        if beta.ndim != 1:
            raise ValueError("beta must be a vector")
        cov = _readonly(np.atleast_2d(self.cov))
        d = beta.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov must be {d}x{d}, got {cov.shape}")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > 1e-10 * scale:
            raise ValueError("cov must be symmetric")
        eigs = np.linalg.eigvalsh(cov)
        if eigs.min() < -1e-10 * scale:
            raise ValueError(f"cov must be positive semidefinite, min eigenvalue {eigs.min()}")
        sigma2 = float(self.sigma2)
        if not np.isfinite(sigma2) or sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {sigma2}")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def dim(self) -> int:
        return self.beta.shape[0]


@dataclass(frozen=True)
class ProblemSpec:
    """A finite family of group populations sharing one parameter ball."""

    groups: tuple[GroupLinearModel, ...]
    radius: float

    def __post_init__(self) -> None:
        groups = tuple(self.groups)
        if len(groups) < 2:
            raise ValueError("a problem spec needs at least two groups")
        d = groups[0].dim
        if any(g.dim != d for g in groups):
            raise ValueError("all groups must share the feature dimension")
        radius = float(self.radius)
        if not np.isfinite(radius) or radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "radius", radius)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def dim(self) -> int:
        return self.groups[0].dim


def population_risks(spec: ProblemSpec, thetas: np.ndarray) -> np.ndarray:
    """Risk rows for a batch of parameters; shape (..., m)."""
    thetas = np.asarray(thetas, dtype=float)
    squeeze = thetas.ndim == 1
    pts = np.atleast_2d(thetas)
    if pts.shape[1] != spec.dim:
        raise ValueError(f"parameters must have dimension {spec.dim}")
    cols = []
    for g in spec.groups:
        diff = pts - g.beta
        cols.append(np.einsum("ij,jk,ik->i", diff, g.cov, diff) + g.sigma2)
    out = np.stack(cols, axis=1)
    return out[0] if squeeze else out


def population_risk(spec: ProblemSpec, theta: np.ndarray) -> RiskProfile:
    """Per-group population risk of one parameter vector."""
    return RiskProfile(tuple(population_risks(spec, np.asarray(theta, dtype=float))))


def minimize_quadratic_ball(
    A: np.ndarray, c: np.ndarray, radius: float
) -> tuple[np.ndarray, float]:
    """Minimize theta' A theta - 2 c' theta over the Euclidean ball.

    A must be symmetric PSD with c in its range (all callers build c = A-type
    moments, which guarantees that). Solved exactly through the eigenbasis;
    when the unconstrained minimizer leaves the ball, the boundary multiplier
    is found by Newton with a bisection safeguard to |norm - radius| <= 1e-10.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    s, V = np.linalg.eigh(A)
    s = np.clip(s, 0.0, None)
    smax = s.max() if s.size else 0.0
    if smax <= 0.0:
        return np.zeros_like(c), 0.0
    cutoff = _EIG_CUTOFF * smax
    b = V.T @ c
    live = s > cutoff
    theta_eig = np.where(live, b / np.where(live, s, 1.0), 0.0)
    if np.linalg.norm(theta_eig) <= radius:
        value = float(np.sum(s * theta_eig**2) - 2.0 * np.sum(b * theta_eig))
        return V @ theta_eig, value

    def norm2(lam: float) -> float:
        return float(np.sum((b / (s + lam)) ** 2))

    lo, hi = 0.0, float(np.linalg.norm(b) / radius)
    lam = max(hi / 2.0, 1e-16)
    target = radius**2
    for _ in range(200):
        h = norm2(lam) - target
        if abs(h) <= 2.0 * _BALL_TOL * target:
            break
        if h > 0:
            lo = lam
        else:
            hi = lam
        dh = -2.0 * float(np.sum(b**2 / (s + lam) ** 3))
        step = lam - h / dh if dh != 0 else None
        lam = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    theta_eig = b / (s + lam)
    value = float(np.sum(s * theta_eig**2) - 2.0 * np.sum(b * theta_eig))
    return V @ theta_eig, value


def group_ideal_risk(model: GroupLinearModel, radius: float) -> tuple[np.ndarray, float]:
    """Best in-ball parameter and risk for a single group population."""
    c = model.cov @ model.beta
    theta, value = minimize_quadratic_ball(model.cov, c, radius)
    offset = float(model.beta @ c) + model.sigma2
    return theta, value + offset


def population_frame(spec: ProblemSpec) -> BargainingFrame:
    """Baseline (theta = 0) and in-ball ideal risks for every group.

    Raises DegenerateFrameError when some group cannot improve on the
    baseline at all (for example beta in the null space of cov).
    """
    baseline = []
    ideal = []
    for g in spec.groups:
        baseline.append(float(g.beta @ (g.cov @ g.beta)) + g.sigma2)
        ideal.append(group_ideal_risk(g, spec.radius)[1])
    return BargainingFrame(tuple(baseline), tuple(ideal))


# --------------------------------------------------------------------------
# empirical side


@dataclass(frozen=True)
class GroupedDataset:
    """Per-group samples under one loss.

    labels for 'logistic' must be 0/1. `radius` bounds the linear parameter
    ball for fits and solves. `label_offset` records the pooled mean removed
    from regression labels at ingestion time.
    """

    features: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]
    loss: str = "squared"
    radius: float | None = None
    group_names: tuple[str, ...] = ()
    label_offset: float = 0.0

    def __post_init__(self) -> None:
        feats = tuple(_readonly(np.atleast_2d(f)) for f in self.features)
        labs = tuple(_readonly(np.atleast_1d(y)) for y in self.labels)
        if len(feats) < 2:
            raise ValueError("a grouped dataset needs at least two groups")
        if len(feats) != len(labs):
            raise ValueError("feature and label group counts disagree")
        d = feats[0].shape[1]
        for g, (X, y) in enumerate(zip(feats, labs)):
            if X.ndim != 2 or X.shape[1] != d:
                raise ValueError(f"group {g}: features must be 2-d with {d} columns")
            if y.shape != (X.shape[0],) or X.shape[0] < 1:
                raise ValueError(f"group {g}: needs matching nonempty features and labels")
            if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
                raise ValueError(f"group {g}: non-finite values")
        if self.loss not in ("squared", "logistic"):
            raise ValueError(f"loss must be 'squared' or 'logistic', got {self.loss!r}")
        if self.loss == "logistic":
            for g, y in enumerate(labs):
                if not np.all((y == 0) | (y == 1)):
                    raise ValueError(f"group {g}: logistic labels must be 0 or 1")
        if self.radius is not None and not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be positive when given")
        names = tuple(self.group_names) or tuple(str(g) for g in range(len(feats)))
        if len(names) != len(feats):
            raise ValueError("group_names length must match the group count")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "group_names", names)
        object.__setattr__(self, "label_offset", float(self.label_offset))

    @property
    def num_groups(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features[0].shape[1]

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(X.shape[0] for X in self.features)


@dataclass(frozen=True)
class LinearPredictor:
    """f(x) = theta' x."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _readonly(np.atleast_1d(self.theta)))

    def scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.theta


@dataclass(frozen=True)
class ConstantPredictor:
    """Constant output; a probability under logistic loss, a value under squared."""

    value: float

    def scores(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], float(self.value))


Predictor = LinearPredictor | ConstantPredictor


def _group_loss(ds: GroupedDataset, predictor: Predictor, g: int) -> float:
    X, y = ds.features[g], ds.labels[g]
    if ds.loss == "squared":
        return float(np.mean((y - predictor.scores(X)) ** 2))
    if isinstance(predictor, ConstantPredictor):
        p = float(predictor.value)
        if not 0.0 < p < 1.0:
            raise ValueError("constant logistic predictions must be probabilities in (0, 1)")
        return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log1p(-p)))
    z = predictor.scores(X)
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def empirical_risk(ds: GroupedDataset, predictor: Predictor) -> RiskProfile:
    """Mean per-group loss of a predictor on the dataset."""
    return RiskProfile(tuple(_group_loss(ds, predictor, g) for g in range(ds.num_groups)))


def _fit_squared_linear(X: np.ndarray, y: np.ndarray, radius: float | None) -> np.ndarray:
    theta, *_ = np.linalg.lstsq(X, y, rcond=_EIG_CUTOFF)
    if radius is None or np.linalg.norm(theta) <= radius:
        return theta
    n = X.shape[0]
    theta, _ = minimize_quadratic_ball(X.T @ X / n, X.T @ y / n, radius)
    return theta


def project_ball(theta: np.ndarray, radius: float | None) -> np.ndarray:
    """Nearest point of the ball (no-op without a radius)."""
    if radius is None:
        return theta
    nrm = np.linalg.norm(theta)
    return theta if nrm <= radius else theta * (radius / nrm)


def _fit_logistic(
    X: np.ndarray, y: np.ndarray, radius: float | None, max_iters: int = 500
) -> np.ndarray:
    n, d = X.shape
    theta = np.zeros(d)

    def loss(t: np.ndarray) -> float:
        z = X @ t
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def stationarity(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        p = expit(X @ t)
        g = X.T @ (p - y) / n
        # stationarity through the ball projection, reduces to |grad| inside
        return p, g, float(np.linalg.norm(t - project_ball(t - g, radius)))

    cur = loss(theta)
    for it in range(max_iters + 1):
        p, grad, resid = stationarity(theta)
        if resid <= 1e-8:
            return theta
        if it == max_iters:
            break
        w = np.maximum(p * (1.0 - p), 1e-12)
        H = (X * w[:, None]).T @ X / n + 1e-12 * np.eye(d)
        step = np.linalg.solve(H, grad)
        t = 1.0
        while t > 2.0**-50:
            cand = project_ball(theta - t * step, radius)
            val = loss(cand)
            if val < cur:
                theta, cur = cand, val
                break
            t *= 0.5
        else:
            # loss decrease per step is below float resolution this close to
            # the optimum; accept whichever step still shrinks the residual
            advanced = False
            for cand in (
                project_ball(theta - step, radius),
                project_ball(theta - grad, radius),
            ):
                if stationarity(cand)[2] < resid:
                    theta, cur = cand, loss(cand)
                    advanced = True
                    break
            if not advanced:
                break
    raise ConvergenceError(
        f"logistic fit stalled with stationarity residual {resid:.3e}", residual=resid
    )


def fit_group_optimal(ds: GroupedDataset, g: int) -> tuple[Predictor, float]:
    """Best in-class predictor for one group alone, with its risk.

    Squared loss uses exact least squares (pseudo-inverse truncation at
    1e-10 of the top singular value), switching to the ball-constrained exact
    solve when the fit leaves the parameter ball. Logistic loss runs projected
    damped Newton to stationarity 1e-8.
    """
    if not 0 <= g < ds.num_groups:
        raise IndexError(f"group index {g} out of range")
    X, y = ds.features[g], ds.labels[g]
    if ds.loss == "squared":
        theta = _fit_squared_linear(X, y, ds.radius)
        pred = LinearPredictor(theta)
    else:
        pred = LinearPredictor(_fit_logistic(X, y, ds.radius))
    return pred, _group_loss(ds, pred, g)


def default_baseline(ds: GroupedDataset) -> Predictor:
    """Status-quo predictor: 0 for regression, pooled base rate for classification."""
    if ds.loss == "squared":
        return ConstantPredictor(0.0)
    pooled = np.concatenate(ds.labels)
    p = float(np.clip(pooled.mean(), 1e-12, 1.0 - 1e-12))
    return ConstantPredictor(p)


def empirical_frame(
    ds: GroupedDataset, baseline: Predictor | None = None
) -> BargainingFrame:
    """Empirical baseline and group-optimal risks; refuses degenerate gaps."""
    base_pred = default_baseline(ds) if baseline is None else baseline
    base = empirical_risk(ds, base_pred)
    ideal = tuple(fit_group_optimal(ds, g)[1] for g in range(ds.num_groups))
    return BargainingFrame(base.values, ideal)


# --------------------------------------------------------------------------
# ingestion and generation


def load_problem_spec(path: str | Path) -> ProblemSpec:
    """Read a population spec from JSON: radius plus per-group beta/sigma2/cov."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or "groups" not in raw or "radius" not in raw:
        raise ValueError("problem spec JSON needs 'radius' and 'groups'")
    groups = []
    for i, entry in enumerate(raw["groups"]):
        if "beta" not in entry or "sigma2" not in entry:
            raise ValueError(f"group {i}: needs 'beta' and 'sigma2'")
        beta = np.asarray(entry["beta"], dtype=float)
        cov = np.asarray(entry.get("cov", np.eye(beta.shape[0])), dtype=float)
        groups.append(GroupLinearModel(beta=beta, sigma2=float(entry["sigma2"]), cov=cov))
    return ProblemSpec(groups=tuple(groups), radius=float(raw["radius"]))


def save_problem_spec(spec: ProblemSpec, path: str | Path) -> None:
    """Write a population spec as JSON (inverse of load_problem_spec)."""
    payload = {
        "radius": spec.radius,
        "groups": [
            {"beta": g.beta.tolist(), "sigma2": g.sigma2, "cov": g.cov.tolist()}
            for g in spec.groups
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_dataset_csv(
    path: str | Path,
    loss: str = "squared",
    radius: float | None = None,
) -> GroupedDataset:
    """Read group,y,x1..xd rows; groups keep first-appearance order.

    Regression labels are centered by the pooled mean (recorded in
    label_offset) so the zero predictor is the natural status quo.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "group" or header[1] != "y":
            raise ValueError(f"{path}: header must be group,y,x1,...,xd")
        for j, name in enumerate(header[2:], start=1):
            if name != f"x{j}":
                raise ValueError(f"{path}: feature column {j} must be named x{j}, got {name!r}")
        d = len(header) - 2
        order: list[str] = []
        rows: dict[str, list[tuple[float, list[float]]]] = {}
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(f"{path}:{ln}: expected {d + 2} fields, got {len(row)}")
            label = row[0].strip()
            try:
                yv = float(row[1])
                xv = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: non-numeric value ({exc})") from None
            if label not in rows:
                rows[label] = []
                order.append(label)
            rows[label].append((yv, xv))
    if len(order) < 2:
        raise ValueError(f"{path}: needs at least two groups")
    features = []
    labels = []
    for name in order:
        ys, xs = zip(*rows[name])
        features.append(np.array(xs, dtype=float))
        labels.append(np.array(ys, dtype=float))
    offset = 0.0
    if loss == "squared":
        pooled = np.concatenate(labels)
        offset = float(pooled.mean())
        labels = [y - offset for y in labels]
    return GroupedDataset(
        features=tuple(features),
        labels=tuple(labels),
        loss=loss,
        radius=radius,
        group_names=tuple(order),
        label_offset=offset,
    )


def write_dataset_csv(ds: GroupedDataset, path: str | Path) -> None:
    """Write group,y,x1..xd rows; regression labels get their offset restored."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "y"] + [f"x{j}" for j in range(1, ds.dim + 1)])
        for name, X, y in zip(ds.group_names, ds.features, ds.labels):
            shift = ds.label_offset if ds.loss == "squared" else 0.0
            for xi, yi in zip(X, y):
                writer.writerow([name, repr(float(yi + shift))] + [repr(float(v)) for v in xi])


def draw_dataset(
    spec: ProblemSpec, n_per_group: int, rng: np.random.Generator
) -> GroupedDataset:
    """Sample a squared-loss dataset from the population spec.

    Features are Gaussian with the group's second-moment matrix; labels are
    beta' x plus Gaussian noise at the group's sigma2.
    """
    if n_per_group < 1:
        raise ValueError("n_per_group must be at least 1")
    features = []
    labels = []
    for g in spec.groups:
        s, V = np.linalg.eigh(g.cov)
        factor = V * np.sqrt(np.clip(s, 0.0, None))
        X = rng.standard_normal((n_per_group, g.dim)) @ factor.T
        y = X @ g.beta + rng.normal(0.0, np.sqrt(g.sigma2), n_per_group)
        features.append(X)
        labels.append(y)
    return GroupedDataset(
        features=tuple(features),
        labels=tuple(labels),
        loss="squared",
        radius=spec.radius,
    )

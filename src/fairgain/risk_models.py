"""Group risk models: population quadratics and empirical datasets.

Population side: each group is a linear-regression population with coefficient
vector beta, feature second-moment matrix cov, and noise floor sigma2, so a
linear predictor theta has group risk (theta-beta)' cov (theta-beta) + sigma2.
The baseline predictor is theta = 0 and the parameter class is the Euclidean
ball of a given radius.

Empirical side: per-group (X, y) samples under squared or logistic loss.
Both risk models, QuadraticGroupRisks (specs and squared loss, solved
exactly) and LogisticGroupRisks (projected damped Newton), have one contract
for any weighting w >= 0 of the groups: minimize(w, radius) returns (theta,
value, lower) for sum_g w_g R_g over the ball (no ball without a radius),
lower a certified bound on its minimum. The solvers' dual evaluations are
its weighted cases, and frame(radius) builds the bargaining frame from its
one-hot cases: each group's ideal risk is its own least risk over the ball,
and the baseline is the zero predictor for quadratic risks and the pooled
base rate for logistic risks. The quadratic minimize is on every dual
evaluation's path, so it and minimize_quadratic_ball call what tensordot,
clip, norm and np.sum wrap: the same bits without the wrappers' per-call
cost. Their values(theta) scores one parameter or a batch of them, each
batch row with the same bits in a batch of any size. The quadratic batch is
an elementwise kernel over (m, n) arrays that adds the d coordinates' terms
in a fixed order. At d <= 2 its rows are bit for bit those
of a tensor contraction over the coordinates; at d = 3 a contraction may add
the terms in another order, so rows (riskset's too) differ by rounding only.
Each model's lipschitz_bound(radius) bounds every group's gradient norm over
the ball, which turns a risk-set grid's spacing into a risk tolerance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from fairgain.core import BargainingFrame, ConvergenceError

_EIG_CUTOFF = 1e-10  # relative truncation for pseudo-inverse style solves
_BALL_TOL = 1e-10
_NEWTON_ITERS = 500  # Newton steps a logistic minimize may take


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupLinearModel:
    """One group's regression population: coefficients, noise, feature moments.

    `factor` is F = V sqrt(S) from cov = V S V', so F F' = cov; Gaussian
    features Z F' have second moments cov whatever cov's rank.
    """

    beta: np.ndarray
    sigma2: float
    cov: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        beta = _readonly(np.atleast_1d(self.beta))
        if beta.ndim != 1:
            raise ValueError("beta must be a vector")
        if beta.shape[0] == 0:
            raise ValueError("beta must have at least one entry")
        cov = _readonly(np.atleast_2d(self.cov))
        d = beta.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov must be {d}x{d}, got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("cov must be finite")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > 1e-10 * scale:
            raise ValueError("cov must be symmetric")
        eigs, V = np.linalg.eigh(cov)
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
        object.__setattr__(self, "factor", _readonly(V * np.sqrt(np.clip(eigs, 0.0, None))))

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


def minimize_quadratic_ball(
    A: np.ndarray, c: np.ndarray, radius: float | None
) -> tuple[np.ndarray, float]:
    """Minimize theta' A theta - 2 c' theta over the Euclidean ball (no ball without a radius).

    A must be symmetric PSD with c in its range (moment callers' c is; the
    logistic Newton step's A is definite). Solved exactly through the eigenbasis;
    when the unconstrained minimizer leaves the ball, the boundary multiplier
    is found by Newton with a bisection safeguard to |norm - radius| <= 1e-10.
    Every dual evaluation runs this on a d <= 3 matrix in the usual case, so it
    calls np.maximum, sqrt(v @ v) and ndarray.sum directly: the same bits as
    the np.clip, np.linalg.norm and np.sum that wrap them, without their
    per-call cost.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    s, V = np.linalg.eigh(A)
    s = np.maximum(s, 0.0)
    smax = s.max() if s.size else 0.0
    if smax <= 0.0:
        return np.zeros_like(c), 0.0
    cutoff = _EIG_CUTOFF * smax
    b = V.T @ c
    live = s > cutoff
    theta_eig = np.where(live, b / np.where(live, s, 1.0), 0.0)
    if radius is None or np.sqrt(theta_eig @ theta_eig) <= radius:
        value = float((s * theta_eig**2).sum() - 2.0 * (b * theta_eig).sum())
        return V @ theta_eig, value

    def norm2(lam: float) -> float:
        return float(((b / (s + lam)) ** 2).sum())

    lo, hi = 0.0, float(np.sqrt(b @ b) / radius)
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
        dh = -2.0 * float((b**2 / (s + lam) ** 3).sum())
        step = lam - h / dh if dh != 0 else None
        lam = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    theta_eig = b / (s + lam)
    value = float((s * theta_eig**2).sum() - 2.0 * (b * theta_eig).sum())
    return V @ theta_eig, value


class QuadraticGroupRisks:
    """Group risks of the form theta' A_g theta - 2 c_g' theta + k_g."""

    def __init__(self, A: np.ndarray, c: np.ndarray, k: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.k = np.asarray(k, dtype=float)
        if self.A.ndim != 3 or self.c.ndim != 2 or self.k.ndim != 1:
            raise ValueError("expected stacked per-group quadratic coefficients")
        self.num_groups, self.dim = self.c.shape
        self._A_rows = self.A.reshape(self.num_groups, -1)

    @classmethod
    def from_problem_spec(cls, spec: ProblemSpec) -> "QuadraticGroupRisks":
        A = np.stack([g.cov for g in spec.groups])
        c = np.stack([g.cov @ g.beta for g in spec.groups])
        k = np.array([float(g.beta @ (g.cov @ g.beta)) + g.sigma2 for g in spec.groups])
        return cls(A, c, k)

    @classmethod
    def from_dataset(cls, ds: GroupedDataset) -> "QuadraticGroupRisks":
        if ds.loss != "squared":
            raise ValueError("sufficient-statistic risks need squared loss")
        A = np.stack([X.T @ X / X.shape[0] for X in ds.features])
        c = np.stack([X.T @ y / X.shape[0] for X, y in zip(ds.features, ds.labels)])
        k = np.array([float(np.mean(y**2)) for y in ds.labels])
        return cls(A, c, k)

    def values(self, theta: np.ndarray) -> np.ndarray:
        """Risks (m,) at one parameter (d,), or (n, m) at each row of a batch (n, d)."""
        if theta.ndim == 2:
            # each step is an elementwise ufunc over (m, n) that rounds every
            # entry on its own, and the coordinates are added in a fixed order,
            # so a row gets the same bits in a batch of any size, which the
            # streamed oracle grid needs. The transposed result is column-major,
            # the layout the oracles score fastest. One point keeps the matmul
            # form, whose bits the solvers' runs depend on
            A, c, t = self.A[..., None], 2.0 * self.c[..., None], theta.T
            total = 0.0
            for j in range(self.dim):
                q = A[:, j, 0] * t[0]
                for i in range(1, self.dim):
                    q += A[:, j, i] * t[i]
                q -= c[:, j]
                q *= t[j]
                total = total + q
            total += self.k[:, None]
            return total.T
        At = self.A @ theta
        return theta @ At.T - 2.0 * self.c @ theta + self.k

    def gradients(self, theta: np.ndarray) -> np.ndarray:
        return 2.0 * (self.A @ theta - self.c)

    def lipschitz_bound(self, radius: float) -> float:
        """Bound on every group's gradient norm over the ball: 2 (lmax(A_g) r + |c_g|)."""
        spectral = np.abs(np.linalg.eigvalsh(self.A)).max(axis=1)
        return float(2.0 * np.max(spectral * radius + np.linalg.norm(self.c, axis=1)))

    def minimize(self, w: np.ndarray, radius: float | None) -> tuple[np.ndarray, float, float]:
        """(theta, value, lower) minimizing sum_g w_g R_g over the ball, w >= 0; lower is value.

        Without a radius there is no ball.
        """
        w = np.asarray(w, dtype=float)
        # the 2-d dot that np.tensordot(w, A, axes=1) runs, without its wrapper
        A = np.dot(w.reshape(1, -1), self._A_rows).reshape(self.dim, self.dim)
        theta, quad = minimize_quadratic_ball(A, w @ self.c, radius)
        value = quad + float(w @ self.k)
        return theta, value, value

    def frame(self, radius: float | None) -> BargainingFrame:
        """Baseline k (the zero predictor) and each group's one-hot minimum over the ball.

        Raises DegenerateFrameError when some group cannot improve on the
        baseline at all (for example beta in the null space of cov).
        """
        ideal = tuple(self.minimize(w, radius)[1] for w in np.eye(self.num_groups))
        return BargainingFrame(tuple(self.k), ideal)


def population_frame(spec: ProblemSpec) -> BargainingFrame:
    """The population risks' frame over the spec's ball."""
    return QuadraticGroupRisks.from_problem_spec(spec).frame(spec.radius)


# --------------------------------------------------------------------------
# empirical side


@dataclass(frozen=True)
class GroupedDataset:
    """Per-group samples under one loss.

    labels for 'logistic' must be 0/1. `label_offset` records the pooled mean
    removed from regression labels at ingestion time.
    """

    features: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]
    loss: str = "squared"
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


def project_ball(theta: np.ndarray, radius: float | None) -> np.ndarray:
    """Nearest point of the ball (no-op without a radius)."""
    if radius is None:
        return theta
    nrm = np.linalg.norm(theta)
    return theta if nrm <= radius else theta * (radius / nrm)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) elementwise, as exp(z) / (1 + exp(z)) for z < 0 so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class LogisticGroupRisks:
    """Per-group mean logistic loss of a linear score."""

    def __init__(self, features: Sequence[np.ndarray], labels: Sequence[np.ndarray]):
        self.features = [np.asarray(X, dtype=float) for X in features]
        self.labels = [np.asarray(y, dtype=float) for y in labels]
        self.num_groups = len(self.features)
        self.dim = self.features[0].shape[1]

    @classmethod
    def from_dataset(cls, ds: GroupedDataset) -> "LogisticGroupRisks":
        if ds.loss != "logistic":
            raise ValueError("expected a logistic-loss dataset")
        return cls(ds.features, ds.labels)

    def values(self, theta: np.ndarray) -> np.ndarray:
        """Risks (m,) at one parameter (d,), or (n, m) at each row of a batch (n, d)."""
        if theta.ndim == 2:
            # row by row: a batched X @ theta' would round a row by the batch
            # size and hold n * n_g scores per group
            out = np.empty((len(theta), self.num_groups))
            for i, row in enumerate(theta):
                out[i] = self.values(row)
            return out
        out = np.empty(self.num_groups)
        for g, (X, y) in enumerate(zip(self.features, self.labels)):
            z = X @ theta
            out[g] = np.mean(np.logaddexp(0.0, z) - y * z)
        return out

    def gradients(self, theta: np.ndarray) -> np.ndarray:
        out = np.empty((self.num_groups, self.dim))
        for g, (X, y) in enumerate(zip(self.features, self.labels)):
            out[g] = X.T @ (sigmoid(X @ theta) - y) / X.shape[0]
        return out

    def lipschitz_bound(self, radius: float) -> float:
        """Bound on every group's gradient norm at any theta: mean_i |x_i|.

        The gradient mean_i (sigmoid(x_i' theta) - y_i) x_i needs no radius,
        since |sigmoid(z) - y| <= 1 for labels in [0, 1].
        """
        return float(max(np.linalg.norm(X, axis=1).mean() for X in self.features))

    def minimize(self, w: np.ndarray, radius: float | None) -> tuple[np.ndarray, float, float]:
        """Minimize sum_g w_g R_g(theta) over the ball (no ball without a radius), w >= 0.

        Damped Newton from theta = 0 over the groups with w_g > 0 alone, for
        at most _NEWTON_ITERS steps. Every step heads for the second-order
        model's minimizer over the ball and is halved until the value drops,
        or until the predicted drop t * gradient . step is at most 4e-16 of
        the value, about two ulps, where rounding hides any drop. If no
        halved step drops the value, the full step is taken when it shrinks
        the residual |theta - P(theta - gradient)|, P the ball projection,
        and ConvergenceError is raised when it does not. Returns (theta,
        value, lower) with that residual at most 1e-8 and lower the
        linearization bound at theta: the least value + gradient . (x - theta)
        over the ball, which without a ball is value where the gradient is
        exactly 0 and -inf otherwise.
        """
        w = np.asarray(w, dtype=float)
        active = np.flatnonzero(w > 0.0)
        # an all-zero w stays here: theta = 0 is stationary at once
        if 0 < len(active) < self.num_groups:
            rows = [self.features[g] for g in active], [self.labels[g] for g in active]
            return LogisticGroupRisks(*rows).minimize(w[active], radius)
        theta = np.zeros(self.dim)
        cur = float(w @ self.values(theta))
        for it in range(_NEWTON_ITERS + 1):
            grad = w @ self.gradients(theta)
            resid = float(np.linalg.norm(theta - project_ball(theta - grad, radius)))
            if resid <= 1e-8:
                if radius is None:
                    return theta, cur, cur if not grad.any() else -np.inf
                return theta, cur, cur - radius * float(np.linalg.norm(grad)) - float(grad @ theta)
            if it == _NEWTON_ITERS:
                break
            H = 1e-12 * np.eye(self.dim)
            for w_g, X in zip(w, self.features):
                p = sigmoid(X @ theta)
                h = np.maximum(p * (1.0 - p), 1e-12)
                H += w_g * ((X * h[:, None]).T @ X / X.shape[0])
            step = theta - minimize_quadratic_ball(H, H @ theta - grad, radius)[0]
            t = 1.0
            while t * float(grad @ step) > 4e-16 * abs(cur):
                cand = project_ball(theta - t * step, radius)
                val = float(w @ self.values(cand))
                if val < cur:
                    theta, cur = cand, val
                    break
                t *= 0.5
            else:
                # rounding hides the value's drop this close to the optimum
                cand = project_ball(theta - step, radius)
                cand_grad = w @ self.gradients(cand)
                if np.linalg.norm(cand - project_ball(cand - cand_grad, radius)) >= resid:
                    break
                theta, cur = cand, float(w @ self.values(cand))
        msg = f"logistic minimization stalled with stationarity residual {resid:.3e}"
        raise ConvergenceError(msg)

    def frame(self, radius: float | None) -> BargainingFrame:
        """Baseline at the pooled base rate and each group's least risk over the ball.

        The baseline predicts the pooled share of positive labels for every
        row. Each ideal is the group's one-hot minimize, which fits that
        group's rows alone. Raises DegenerateFrameError when some group's fit
        does not beat the baseline, and ConvergenceError when a fit stalls.
        """
        p = float(np.clip(np.concatenate(self.labels).mean(), 1e-12, 1.0 - 1e-12))
        base = tuple(float(np.mean(-y * np.log(p) - (1.0 - y) * np.log1p(-p))) for y in self.labels)
        ideal = tuple(self.minimize(w, radius)[1] for w in np.eye(self.num_groups))
        return BargainingFrame(base, ideal)


# --------------------------------------------------------------------------
# ingestion and generation


def load_problem_spec(path: str | Path) -> ProblemSpec:
    """Read a population spec from JSON: radius plus per-group beta/sigma2/cov."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or "groups" not in raw or "radius" not in raw:
        raise ValueError("problem spec JSON needs 'radius' and 'groups'")
    if not isinstance(raw["groups"], list):
        raise ValueError("problem spec 'groups' must be a list")
    groups = []
    for i, entry in enumerate(raw["groups"]):
        if not isinstance(entry, dict) or "beta" not in entry or "sigma2" not in entry:
            raise ValueError(f"group {i}: needs 'beta' and 'sigma2'")
        beta = np.atleast_1d(_spec_array(entry["beta"], f"group {i}: 'beta'"))
        if beta.size == 0:
            raise ValueError(f"group {i}: 'beta' must have at least one entry")
        cov = _spec_array(entry.get("cov", np.eye(beta.size).tolist()), f"group {i}: 'cov'")
        sigma2 = _spec_number(entry["sigma2"], f"group {i}: 'sigma2'")
        groups.append(GroupLinearModel(beta=beta, sigma2=sigma2, cov=cov))
    return ProblemSpec(groups=tuple(groups), radius=_spec_number(raw["radius"], "'radius'"))


def _spec_number(value, name: str) -> float:
    if isinstance(value, list) or not _numbers(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _spec_array(value, name: str) -> np.ndarray:
    if not _numbers(value):
        raise ValueError(f"{name} must be an array of numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _numbers(value) -> bool:
    """Whether a parsed JSON value is a number or nested lists of numbers.

    JSON's true and false parse as bool, which Python counts as an int, and
    float() would read a string of digits; neither is a number in a spec.
    """
    if isinstance(value, list):
        return all(_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    beta' x plus Gaussian noise at the group's sigma2. `draw_moments` draws
    `QuadraticGroupRisks.from_dataset` of this sample exactly, without rows.
    """
    if n_per_group < 1:
        raise ValueError("n_per_group must be at least 1")
    features = []
    labels = []
    for g in spec.groups:
        X = rng.standard_normal((n_per_group, g.dim)) @ g.factor.T
        y = X @ g.beta + rng.normal(0.0, np.sqrt(g.sigma2), n_per_group)
        features.append(X)
        labels.append(y)
    return GroupedDataset(features=tuple(features), labels=tuple(labels), loss="squared")


def draw_moments(
    spec: ProblemSpec, n_per_group: int, rng: np.random.Generator
) -> QuadraticGroupRisks:
    """Draw `QuadraticGroupRisks.from_dataset(draw_dataset(...))` in law, in O(d^3) at any n.

    With X = Z F' (F the group's covariance factor), Gaussian Z = QR and r = min(n, d),
    R is r x d upper trapezoidal with R_ii = sqrt(chi2(n - i)) and N(0, 1)
    above the diagonal (Bartlett 1933), and Q'y = R F' beta + u with
    u = Q' eps ~ N(0, sigma2 I_r) independent of R. So X'X = B B', X'y = B Q'y
    with B = F R', and y'y = |Q'y|^2 + sigma2 chi2(n - r), the noise left
    outside the span of Q.
    """
    if n_per_group < 1:
        raise ValueError("n_per_group must be at least 1")
    n = n_per_group
    A, c, k = [], [], []
    for g in spec.groups:
        r = min(n, g.dim)
        R = np.triu(rng.standard_normal((r, g.dim)), 1)
        R[np.arange(r), np.arange(r)] = np.sqrt(rng.chisquare(n - np.arange(r)))
        B = g.factor @ R.T
        qy = B.T @ g.beta + rng.normal(0.0, np.sqrt(g.sigma2), r)
        # chisquare(0) is not allowed: with n == r no noise lies outside Q
        rest = g.sigma2 * rng.chisquare(n - r) if n > r else 0.0
        A.append(B @ B.T / n)
        c.append(B @ qy / n)
        k.append((float(qy @ qy) + rest) / n)
    return QuadraticGroupRisks(np.stack(A), np.stack(c), np.array(k))

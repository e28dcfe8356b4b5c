"""Group risk models: population quadratics and empirical datasets.

Population side: each group is a linear-regression population with coefficient
vector beta, feature second-moment matrix cov, and noise floor sigma2, so a
linear predictor theta has group risk (theta-beta)' cov (theta-beta) + sigma2.
The baseline predictor is theta = 0 and the parameter class is the Euclidean
ball of a given radius.

Empirical side: per-group (X, y) samples under squared or logistic loss. Both
risk models, QuadraticGroupRisks (specs and squared loss, solved exactly) and
LogisticGroupRisks, have one contract: derivatives(theta) gives the risks,
gradients and Hessians at one parameter in one pass, and for any weighting
w >= 0 of the groups minimize(w, radius) returns (theta, value, lower) for
sum_g w_g R_g over the ball of a radius in (0, inf], lower a certified bound on
its minimum. The solvers' dual evaluations are its weighted cases, and
frame(radius) builds the bargaining frame from its one-hot cases: each group's
ideal risk is its own least risk over the ball, and the baseline is the zero
predictor for quadratic risks and the pooled base rate for logistic risks.
box_lower(centres, half, reach) bounds values from below over the boxes the
CLI's grid oracle tiles the ball with. newton_ball, the damped projected
Newton of the logistic minimize and of the solvers' nash, minimizes a
separable convex function of the risks. A quadratic model stores the
symmetric part of each A_g, which a spec's c and k read too, so values,
derivatives and minimize all read one quadratic, and its minimize has
minimize_quadratic_ball take its small steps on Python floats, with numpy's
bits. Each model's values(theta) scores one parameter or a batch of
them, each batch row with the same bits in a batch of any size. The quadratic
batch is an elementwise kernel over (m, n) arrays that adds the d coordinates'
terms in a fixed order. At d <= 2 its rows are bit for bit those of a tensor
contraction over the coordinates; at d = 3 a contraction may add the terms in
another order, so rows (riskset's too) differ by rounding only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add
from pathlib import Path
from typing import Sequence

import numpy as np

from fairgain.core import BargainingFrame, ConvergenceError


def _eigh_public(a: np.ndarray, signature=None) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh itself, for a numpy without the private gufunc."""
    return np.linalg.eigh(a)


# the gufunc np.linalg.eigh(A) runs, without its wrapper, where numpy has it
_eigh = getattr(getattr(np.linalg, "_umath_linalg", None), "eigh_lo", _eigh_public)
_EIG_CUTOFF = 1e-10  # relative truncation for pseudo-inverse style solves
_BALL_TOL = 1e-10
_NEWTON_ITERS = 500  # Newton steps one newton_ball call may take


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupLinearModel:
    """One group's regression population: coefficients, noise, feature moments.

    `factor` is F = V sqrt(S) from cov = V S V', so F F' = cov: `draw_moments`'s
    Gaussian features Z F' have second moments cov whatever cov's rank.
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
    A: np.ndarray, c: np.ndarray, radius: float
) -> tuple[np.ndarray, float]:
    """Minimize theta' A theta - 2 c' theta over the Euclidean ball of a radius in (0, inf].

    A must be symmetric PSD with c in its range (moment callers' c is; the
    logistic Newton step's A is definite); a non-finite A or c, or a radius
    not above 0, raises ValueError. Solved exactly through the eigenbasis, the
    boundary multiplier by safeguarded Newton to |norm - radius| <= 1e-10. At
    the usual d <= 3 numpy's per-call cost outweighs the arithmetic, so steps
    run on Python floats with numpy's bits: the eigenpair is (entry, 1) at d = 1
    as LAPACK's is, and above it comes from the gufunc np.linalg.eigh wraps
    (LinAlgError if it does not converge); products round as numpy's
    elementwise ones, and sums run left to right from 0.0 as numpy's do below
    8 terms. numpy keeps V' c, V theta and the squared norms (BLAS dots round
    in their own order) and the slope's sum of b^2 / (s + lam)^3 (numpy's
    array cube rounds unlike x * x * x and Python's pow).
    """
    A, c = np.asarray(A, dtype=float), np.asarray(c, dtype=float)
    entries = A.ravel().tolist() + c.tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError("quadratic coefficients must be finite")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    if len(entries) == 2:  # d = 1, V = 1: V' c and V theta are 0.0 + the entry, v @ v one product
        s, b, V = entries[:1], [entries[1] + 0.0], None
    else:
        s, V = _eigh(A, signature="d->dd")
        if any(map(math.isnan, s := s.tolist())):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        b = (V.T @ c).tolist()
    s = [x if x > 0.0 else 0.0 for x in s]
    smax = max(s, default=0.0)
    if smax <= 0.0:
        return np.zeros_like(c), 0.0
    cutoff = _EIG_CUTOFF * smax
    t = [bi / si if si > cutoff else 0.0 for bi, si in zip(b, s)]
    if not math.sqrt(t[0] * t[0] if V is None else np.dot(t, t)) <= radius:
        lo, hi = 0.0, math.sqrt(b[0] * b[0] if V is None else np.dot(b, b)) / float(radius)
        lam = max(hi / 2.0, 1e-16)  # steps exceed lo >= 0, midpoints halve toward lo: s + lam > 0
        target = math.pow(radius, 2.0)  # the libm call radius**2 makes
        s_arr, b_sq = np.array(s), np.square(b)
        for _ in range(200):
            h = _sum([q * q for q in (bi / (si + lam) for bi, si in zip(b, s))]) - target
            if abs(h) <= 2.0 * _BALL_TOL * target:
                break
            lo, hi = (lam, hi) if h > 0 else (lo, lam)
            dh = -2.0 * float((b_sq / (s_arr + lam) ** 3).sum())
            step = lam - h / dh if dh != 0 else None
            lam = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
        t = [bi / (si + lam) for bi, si in zip(b, s)]
    value = _sum([si * (ti * ti) for si, ti in zip(s, t)]) - 2.0 * _sum([bi * ti for bi, ti in zip(b, t)])
    return (np.array([t[0] + 0.0]) if V is None else V @ np.array(t)), value


def _sum(terms: list[float]) -> float:
    """numpy's sum: left to right from 0.0 below 8 terms, its pairwise sum from 8."""
    return reduce(add, terms, 0.0) if len(terms) < 8 else float(np.add.reduce(np.array(terms)))


def _symmetric_part(A: np.ndarray) -> np.ndarray:
    """(A_g + A_g') / 2 for each stacked A_g, which a symmetric A_g keeps bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as non-finite
        return (A + A.transpose(0, 2, 1)) / 2.0


def _box_lower(lower, grads, half, curvature, summands, scale) -> np.ndarray:
    """Lower bounds (n, m) on risks over n boxes, from the risks `lower` and gradients at their centres.

    A convex risk lies above its tangent plane at the box's centre c, so over
    the box it is at least R_g(c) - |grad R_g(c)| . h. A quadratic risk can
    fall below that plane by curvature |x - c|^2, the depth of A's most
    negative eigenvalue: the spec loader admits eigenvalues of cov down to
    -1e-10 of its scale. The last term covers the rounding of `values` at c
    and at the box's points, of the gradient and of h: each of the summands
    a model adds is at most scale within reach of 0, and 1e-13 of scale per
    summand is hundreds of times the rounding of any one summand. `lower` is
    lowered in place, keeping the layout of `values`, which scores fastest.
    """
    lower -= np.einsum("tgj,tj->tg", np.abs(grads), half)
    lower -= np.outer((half * half).sum(axis=1), curvature)
    lower -= 1e-13 * (summands + 100) * scale
    return lower


class QuadraticGroupRisks:
    """Group risks theta' A_g theta - 2 c_g' theta + k_g, each A_g stored as its symmetric part."""

    def __init__(self, A: np.ndarray, c: np.ndarray, k: np.ndarray):
        A = np.asarray(A, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.k = np.asarray(k, dtype=float)
        if A.ndim != 3 or self.c.ndim != 2 or self.k.ndim != 1:
            raise ValueError("expected stacked per-group quadratic coefficients")
        self.A = _symmetric_part(A)
        if not all(np.isfinite(x).all() for x in (self.A, self.c, self.k)):
            raise ValueError("quadratic risk moments must be finite")
        self.num_groups, self.dim = self.c.shape
        self._A_rows = self.A.reshape(self.num_groups, -1)
        self._hessians = _readonly(2.0 * self.A)  # constant, and read on every Newton step

    @classmethod
    def from_problem_spec(cls, spec: ProblemSpec) -> "QuadraticGroupRisks":
        A = _symmetric_part(np.stack([g.cov for g in spec.groups]))
        c = np.stack([S @ g.beta for S, g in zip(A, spec.groups)])
        k = np.array([float(g.beta @ c_g) + g.sigma2 for c_g, g in zip(c, spec.groups)])
        return cls(A, c, k)

    @classmethod
    def from_rows(
        cls, features: Sequence[np.ndarray], labels: Sequence[np.ndarray]
    ) -> "QuadraticGroupRisks":
        """Each group's mean squared loss mean((y - X theta)^2), from its moments."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as non-finite
            A = np.stack([X.T @ X / X.shape[0] for X in features])
            c = np.stack([X.T @ y / X.shape[0] for X, y in zip(features, labels)])
            k = np.array([float(np.mean(y**2)) for y in labels])
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

    def derivatives(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Risks (m,), gradients (m, d) and Hessians 2 A_g (m, d, d) at one parameter (d,)."""
        At = self.A @ theta
        return theta @ At.T - 2.0 * self.c @ theta + self.k, 2.0 * (At - self.c), self._hessians

    def box_lower(self, centres: np.ndarray, half: np.ndarray, reach: float) -> np.ndarray:
        """Lower bounds (n, m) on `values` over the boxes centres +- half (n, d), within reach of 0."""
        grads = 2.0 * (np.einsum("gjk,tk->tgj", self.A, centres) - self.c)
        scale = (
            np.abs(self.A).sum(axis=(1, 2)) * reach * reach
            + 2.0 * np.abs(self.c).sum(axis=1) * reach
            + np.abs(self.k)
        )
        curvature = np.maximum(0.0, -np.linalg.eigvalsh(self.A)[:, 0])
        return _box_lower(self.values(centres), grads, half, curvature, self.dim + 2, scale)

    def minimize(self, w: np.ndarray, radius: float) -> tuple[np.ndarray, float, float]:
        """(theta, value, lower) minimizing sum_g w_g R_g over the ball, w >= 0; lower is value."""
        w = np.asarray(w, dtype=float)
        # the 2-d dot that np.tensordot(w, A, axes=1) runs, without its wrapper
        A = np.dot(w.reshape(1, -1), self._A_rows).reshape(self.dim, self.dim)
        theta, quad = minimize_quadratic_ball(A, w @ self.c, radius)
        value = quad + float(w @ self.k)
        return theta, value, value

    def frame(self, radius: float) -> BargainingFrame:
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


def project_ball(theta: np.ndarray, radius: float) -> np.ndarray:
    """Nearest point of the ball."""
    nrm = np.linalg.norm(theta)
    return theta if nrm <= radius else theta * (radius / nrm)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) elementwise, as exp(z) / (1 + exp(z)) for z < 0 so exp never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def newton_ball(derivatives, phi, theta: np.ndarray, radius: float) -> tuple:
    """(theta, risks, gradient, steps, residual) minimizing phi(R(theta)) over the ball.

    phi is separable and convex in the group risks: phi(R) gives (phi, phi',
    phi'') with one derivative per group, and phi = inf outside its domain;
    derivatives(theta) gives R, gradients and Hessians. Damped Newton from
    theta: each step heads for the ball minimizer of the model with gradient
    g = sum_g phi'_g grad R_g and Hessian 1e-12 I + sum_g (phi'_g hess R_g +
    phi''_g grad R_g grad R_g'), halved until phi drops or the predicted drop
    t g . step is at most 4e-16 of |phi|, about two ulps, where rounding hides
    any drop. The full step is then taken if it stays in the domain and
    shrinks the residual |theta - P(theta - g)|, P the ball projection. The
    steps stop at a residual of at most 1e-8, at a full step not taken, or
    after _NEWTON_ITERS steps; R and g are those of the returned theta.
    """
    R, G, H = derivatives(theta)
    cur, d1, d2 = phi(R)
    for it in range(_NEWTON_ITERS + 1):
        grad = d1 @ G
        resid = float(np.linalg.norm(theta - project_ball(theta - grad, radius)))
        if resid <= 1e-8 or it == _NEWTON_ITERS:
            break
        hess = 1e-12 * np.eye(len(theta))
        for w_g, H_g in zip(d1, H):
            hess += w_g * H_g
        hess += (d2[:, None] * G).T @ G
        step = theta - minimize_quadratic_ball(hess, hess @ theta - grad, radius)[0]
        t = 1.0
        while t * float(grad @ step) > 4e-16 * abs(cur):
            cand = project_ball(theta - t * step, radius)
            out = derivatives(cand)
            val, *ds = phi(out[0])
            if val < cur:
                theta, (R, G, H), cur, (d1, d2) = cand, out, val, ds
                break
            t *= 0.5
        else:
            # rounding hides phi's drop this close to the optimum
            cand = project_ball(theta - step, radius)
            out = derivatives(cand)
            val, *ds = phi(out[0])
            if not val < math.inf or (
                np.linalg.norm(cand - project_ball(cand - ds[0] @ out[1], radius)) >= resid
            ):
                break
            theta, (R, G, H), cur, (d1, d2) = cand, out, val, ds
    return theta, R, grad, it, resid


class LogisticGroupRisks:
    """Per-group mean logistic loss of a linear score."""

    def __init__(self, features: Sequence[np.ndarray], labels: Sequence[np.ndarray]):
        self.features = [np.asarray(X, dtype=float) for X in features]
        self.labels = [np.asarray(y, dtype=float) for y in labels]
        self.num_groups = len(self.features)
        self.dim = self.features[0].shape[1]

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

    def derivatives(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Risks (m,), gradients (m, d) and Hessians X' diag(max(p (1 - p), 1e-12)) X / n at theta (d,)."""
        m, d = self.num_groups, self.dim
        vals, grads, hess = np.empty(m), np.empty((m, d)), np.empty((m, d, d))
        for g, (X, y) in enumerate(zip(self.features, self.labels)):
            z = X @ theta
            p = sigmoid(z)
            vals[g] = np.mean(np.logaddexp(0.0, z) - y * z)
            grads[g] = X.T @ (p - y) / X.shape[0]
            hess[g] = (X * np.maximum(p * (1.0 - p), 1e-12)[:, None]).T @ X / X.shape[0]
        return vals, grads, hess

    def box_lower(self, centres: np.ndarray, half: np.ndarray, reach: float) -> np.ndarray:
        """Lower bounds (n, m) on `values` over the boxes centres +- half (n, d), within reach of 0."""
        values = self.values(centres)
        grads = np.array([self.derivatives(c)[1] for c in centres]).reshape(*values.shape, self.dim)
        # |z| <= |x|_1 reach, and a row's loss adds at most log 2 + 2 |z|
        scale = np.array([1.0 + 2.0 * reach * np.abs(X).sum(axis=1).mean() for X in self.features])
        summands = np.array([len(X) + self.dim for X in self.features])
        return _box_lower(values, grads, half, np.zeros(self.num_groups), summands, scale)

    def minimize(self, w: np.ndarray, radius: float) -> tuple[np.ndarray, float, float]:
        """(theta, value, lower) minimizing sum_g w_g R_g over the ball, w >= 0, by newton_ball from 0.

        Reads the groups with w_g > 0 alone; a residual above 1e-8 raises
        ConvergenceError. lower is the least value + gradient . (x - theta)
        over the ball: over an infinite radius, value where the gradient is exactly 0, else -inf.
        """
        w = np.asarray(w, dtype=float)
        active = np.flatnonzero(w > 0.0)
        # an all-zero w stays here: theta = 0 is stationary at once
        if 0 < len(active) < self.num_groups:
            rows = [self.features[g] for g in active], [self.labels[g] for g in active]
            return LogisticGroupRisks(*rows).minimize(w[active], radius)
        theta, risks, grad, _, resid = newton_ball(
            self.derivatives, lambda R: (float(w @ R), w, np.zeros_like(w)), np.zeros(self.dim), radius
        )
        if resid > 1e-8:
            raise ConvergenceError(f"logistic minimization stalled with stationarity residual {resid:.3e}")
        cur = float(w @ risks)
        gnorm = float(np.linalg.norm(grad))  # inf * 0 is nan: a zero gradient adds nothing
        return theta, cur, cur - (radius * gnorm if gnorm else 0.0) - float(grad @ theta)

    def frame(self, radius: float) -> BargainingFrame:
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
    with open(path, encoding="utf-8-sig") as fh:  # utf-8-sig drops a leading BOM
        try:
            raw = json.load(fh)
        except RecursionError:  # the parser recurses once per nested array or object
            raise ValueError("problem spec JSON is nested too deeply") from None
        except ValueError as exc:  # a JSON syntax or UTF-8 decoding error
            raise ValueError(f"{path}: {exc}") from None
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
        try:
            groups.append(GroupLinearModel(beta=beta, sigma2=sigma2, cov=cov))
        except ValueError as exc:
            raise ValueError(f"group {i}: {exc}") from None
    return ProblemSpec(groups=tuple(groups), radius=_spec_number(raw["radius"], "'radius'"))


def _spec_number(value, name: str) -> float:
    if isinstance(value, list) or not _numbers(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _spec_array(value, name: str) -> np.ndarray:
    if not _numbers(value):
        raise ValueError(f"{name} must be an array of numbers at most 2-D, got {value!r}")
    return np.asarray(value, dtype=float)


def _numbers(value, depth: int = 2) -> bool:
    """Whether a parsed JSON value is a number or lists of numbers at most depth deep.

    JSON's true and false parse as bool, which Python counts as an int, and
    float() would read a string of digits; neither is a number in a spec.
    Bounding the depth at a matrix's keeps deep nesting off the stack.
    """
    if isinstance(value, list):
        return depth > 0 and all(_numbers(v, depth - 1) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_dataset_csv(path: str | Path, loss: str = "squared") -> QuadraticGroupRisks | LogisticGroupRisks:
    """The risk model of group,y,x1..xd rows under a loss; groups keep first-appearance order.

    Squared-loss labels are centred by their pooled mean, so the zero
    predictor is the natural status quo; logistic labels must be 0 or 1.
    """
    if loss not in ("squared", "logistic"):
        raise ValueError(f"loss must be 'squared' or 'logistic', got {loss!r}")
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:  # utf-8-sig drops a leading BOM
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
        rows: dict[str, tuple[list, list]] = {}  # each group's labels and feature rows
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
            if not all(map(math.isfinite, [yv, *xv])):  # float() reads nan and inf
                raise ValueError(f"{path}:{ln}: non-finite value")
            if loss == "logistic" and yv not in (0.0, 1.0):
                raise ValueError(f"{path}:{ln}: logistic labels must be 0 or 1, got {yv!r}")
            ys, xs = rows.setdefault(label, ([], []))
            ys.append(yv)
            xs.append(xv)
    if len(rows) < 2:
        raise ValueError(f"{path}: needs at least two groups")
    features = [np.array(xs, dtype=float) for _, xs in rows.values()]
    labels = [np.array(ys, dtype=float) for ys, _ in rows.values()]
    if loss == "logistic":
        return LogisticGroupRisks(features, labels)
    with np.errstate(over="ignore"):  # an overflowing mean leaves moments refused as non-finite
        offset = float(np.concatenate(labels).mean())
    return QuadraticGroupRisks.from_rows(features, [y - offset for y in labels])


def draw_moments(
    spec: ProblemSpec, n_per_group: int, rng: np.random.Generator
) -> QuadraticGroupRisks:
    """Draw `QuadraticGroupRisks.from_rows` of n rows per group in law, in O(d^3) at any n.

    A group's rows are Gaussian features X = Z F' (F its covariance factor)
    and labels X beta plus N(0, sigma2) noise. With Z = QR and r = min(n, d),
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
        below, diag = _bartlett_pattern(r, g.dim)
        R = rng.standard_normal((r, g.dim))
        R[below] = 0.0
        R[diag, diag] = np.sqrt(rng.chisquare(n - diag))
        B = g.factor @ R.T
        qy = B.T @ g.beta + rng.normal(0.0, np.sqrt(g.sigma2), r)
        # chisquare(0) is not allowed: with n == r no noise lies outside Q
        rest = g.sigma2 * rng.chisquare(n - r) if n > r else 0.0
        A.append(B @ B.T / n)
        c.append(B @ qy / n)
        k.append((float(qy @ qy) + rest) / n)
    return QuadraticGroupRisks(np.array(A), np.array(c), np.array(k))


@lru_cache(maxsize=64)
def _bartlett_pattern(r: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The r x d mask below the diagonal, which np.triu(Z, 1) zeroes too, and the indices 0..r-1."""
    below, diag = np.tri(r, d, -1, dtype=bool), np.arange(r)
    below.setflags(write=False)
    diag.setflags(write=False)
    return below, diag

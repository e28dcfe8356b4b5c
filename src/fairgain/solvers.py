"""Continuous solvers over a Euclidean parameter ball.

The worst-group criteria (relative improvement, raw risk, absolute gain,
regret) all reduce to minimizing a max of shifted, scaled convex group risks.
That minimax is solved in primal-dual form. Every weighting of the normalized
group objectives on the simplex yields a one-shot weighted risk minimization
over the ball whose optimum is a certified lower bound on the minimax value;
cutting planes over the weightings push that bound up while the weighted
minimizers double as primal candidates. The master LP's dual weights on the
cuts combine the stored candidates into one more point whose worst normalized
risk is at most the master value, so the primal side closes with the dual
even when weighted minimizers are non-unique (flat directions). A master whose
multipliers form a segment (two free groups, or one free group and one pin) is
a maximum of a lower envelope of lines and is solved exactly by walking it;
larger masters go to HiGHS. The reported certificate is the true primal-dual
gap, so it never understates the remaining error. The product-of-gains
criterion is smooth and concave where defined, so it runs projected gradient
ascent from the maximin-improvement point with an exact linear optimality
bound over the ball as its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.special import expit

from fairgain.core import (
    WORST_GROUP,
    BargainingFrame,
    DegenerateBargainError,
    RiskProfile,
    SolverReport,
    criterion_scores,
    criterion_value,
    group_scores,
    to_improvement,
)
from fairgain.risk_models import (
    GroupedDataset,
    ProblemSpec,
    minimize_quadratic_ball,
    project_ball,
)

METHODS = ("ri", "leximin", "gdro", "mmv", "mmr", "nash")


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    max_iters: int = 100_000
    master_iters: int = 120
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1 or self.master_iters < 0:
            raise ValueError("iteration budgets need max_iters >= 1 and master_iters >= 0")


class QuadraticGroupRisks:
    """Group risks of the form theta' A_g theta - 2 c_g' theta + k_g."""

    def __init__(self, A: np.ndarray, c: np.ndarray, k: np.ndarray):
        self.A = np.asarray(A, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.k = np.asarray(k, dtype=float)
        if self.A.ndim != 3 or self.c.ndim != 2 or self.k.ndim != 1:
            raise ValueError("expected stacked per-group quadratic coefficients")
        self.num_groups, self.dim = self.c.shape

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
        At = self.A @ theta
        return theta @ At.T - 2.0 * self.c @ theta + self.k

    def gradients(self, theta: np.ndarray) -> np.ndarray:
        return 2.0 * (self.A @ theta - self.c)


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
        out = np.empty(self.num_groups)
        for g, (X, y) in enumerate(zip(self.features, self.labels)):
            z = X @ theta
            out[g] = np.mean(np.logaddexp(0.0, z) - y * z)
        return out

    def gradients(self, theta: np.ndarray) -> np.ndarray:
        out = np.empty((self.num_groups, self.dim))
        for g, (X, y) in enumerate(zip(self.features, self.labels)):
            out[g] = X.T @ (expit(X @ theta) - y) / X.shape[0]
        return out


def group_risk_model(source: ProblemSpec | GroupedDataset):
    """Build the risk evaluator a continuous solver needs."""
    if isinstance(source, ProblemSpec):
        return QuadraticGroupRisks.from_problem_spec(source)
    if isinstance(source, GroupedDataset):
        if source.loss == "squared":
            return QuadraticGroupRisks.from_dataset(source)
        return LogisticGroupRisks.from_dataset(source)
    raise TypeError(f"cannot build group risks from {type(source).__name__}")


def _initial_point(dim: int, radius: float, cfg: SolverConfig) -> np.ndarray:
    if cfg.seed is None:
        return np.zeros(dim)
    rng = np.random.default_rng(cfg.seed)
    return project_ball(rng.normal(0.0, radius / 2.0, dim), radius)


def _weighted_min(model, w: np.ndarray, ball: float) -> tuple[np.ndarray, float, float]:
    """Minimize sum_g w_g R_g(theta) over the ball, w >= 0.

    Returns (theta, value, lower) with lower a certified bound on the true
    minimum: exact for quadratic risks, a convexity linearization bound for
    smooth ones (tight when the minimizer sits strictly inside the ball).
    """
    if isinstance(model, QuadraticGroupRisks):
        A = np.tensordot(w, model.A, axes=1)
        c = w @ model.c
        theta, quad = minimize_quadratic_ball(A, c, ball)
        val = quad + float(w @ model.k)
        return theta, val, val
    theta = np.zeros(model.dim)
    val = float(w @ model.values(theta))
    step = 1.0
    for _ in range(200):
        grad = w @ model.gradients(theta)
        moved = False
        while step > 1e-18:
            cand = project_ball(theta - step * grad, ball)
            cand_val = float(w @ model.values(cand))
            if cand_val < val:
                theta, val = cand, cand_val
                step *= 1.6
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    grad = w @ model.gradients(theta)
    lower = val - ball * float(np.linalg.norm(grad)) - float(grad @ theta)
    return theta, val, lower


def _best_weights(
    cuts: list[np.ndarray], m_free: int, n_pin: int, mu_cap: float
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray] | None:
    """Multipliers maximizing the worst recorded cut, and the cuts' weights.

    Solves max t over lam on the simplex and 0 <= mu <= mu_cap subject to
    t <= cut_i . (lam, mu) for every stored cut. Its dual weights alpha
    on those constraints lie on the simplex (t is free), and by LP duality
    max((alpha @ cuts)[:m_free]) is at most the master value. Multipliers on
    a segment, (s, 1 - s) or (1, s) with one pin, go to
    :func:`_envelope_master` and larger masters to HiGHS.
    """
    if m_free + n_pin != 2:
        return _lp_master(cuts, m_free, n_pin, mu_cap)
    if m_free == 2:
        start, step, cap = np.array([0.0, 1.0]), np.array([1.0, -1.0]), 1.0
    else:
        start, step, cap = np.array([1.0, 0.0]), np.array([0.0, 1.0]), mu_cap
    x, value, alpha = _envelope_master(np.asarray(cuts), start, step, cap)
    return x[:m_free], x[m_free:], value, alpha


def _envelope_master(
    cuts: np.ndarray, start: np.ndarray, step: np.ndarray, cap: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """Maximize min_i cuts_i . (start + s step) over s in [0, cap] exactly.

    Each cut is a line a_i + b_i s; their minimum is concave. The walk starts
    on the lowest line at s = 0 (the flattest among ties) and moves right to
    the first crossing with a line of smaller slope until the slope stops
    being positive. The dual weights alpha sit on the line active there, or
    mix the last rising line with the falling one it meets so that their
    slopes cancel; either way max((alpha @ cuts)[:m_free]) is at most the value.
    """
    a, b = cuts @ start, cuts @ step
    i = int(np.lexsort((b, a))[0])
    s, weights = 0.0, {i: 1.0}
    while b[i] > 0.0:
        lower = np.flatnonzero(b < b[i])
        cross = (a[lower] - a[i]) / (b[i] - b[lower])
        if len(lower) == 0 or cross.min() >= cap:
            s, weights = cap, {i: 1.0}
            break
        k = np.lexsort((b[lower], cross))[0]
        j, s = int(lower[k]), max(s, float(cross[k]))
        # cancels the two slopes; all on j when j is flat, and moot when it rises
        mix = b[i] / (b[i] - b[j])
        weights, i = {i: 1.0 - mix, j: mix}, j
    alpha = np.zeros(len(a))
    alpha[list(weights)] = list(weights.values())
    x = start + s * step
    return x, float((cuts @ x).min()), alpha


def _lp_master(
    cuts: list[np.ndarray], m_free: int, n_pin: int, mu_cap: float
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray] | None:
    """The master of :func:`_best_weights` as a HiGHS LP; None if it fails."""
    n = m_free + n_pin
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    A_ub = np.empty((len(cuts), n + 1))
    A_ub[:, :n] = -np.asarray(cuts)
    A_ub[:, n] = 1.0
    A_eq = np.zeros((1, n + 1))
    A_eq[0, :m_free] = 1.0
    bounds = [(0.0, 1.0)] * m_free + [(0.0, mu_cap)] * n_pin + [(None, None)]
    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=np.zeros(len(cuts)),
        A_eq=A_eq,
        b_eq=np.ones(1),
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        return None
    lam = np.maximum(res.x[:m_free], 0.0)
    total = lam.sum()
    lam = lam / total if total > 0.0 else np.full(m_free, 1.0 / m_free)
    alpha = np.maximum(-res.ineqlin.marginals, 0.0)
    alpha /= alpha.sum()
    return lam, np.maximum(res.x[m_free:n], 0.0), float(-res.fun), alpha


_MU_CAP = 1e8
_FEAS_TOL = 1e-11


def _dual_minimax(
    model,
    shifts: np.ndarray,
    scales: np.ndarray,
    ball: float,
    cfg: SolverConfig,
    floor: float,
    warm: Sequence[np.ndarray] = (),
    pin_idx: np.ndarray | None = None,
    pin_caps: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float, int]:
    """Minimize F(theta) = max over free groups of (R_g - shifts_g)/scales_g.

    Pinned groups, when given, are hard constraints
    (R_j - shifts_j)/scales_j <= pin_caps_j; their multipliers live on
    [0, _MU_CAP] next to the simplex weights of the free groups. Each cut
    keeps the point it was taken at; before every dual evaluation the master
    LP's dual weights combine those points into one more candidate, which
    lies in the ball and by convexity scores at most the master value, so
    the master's saturation closes the primal side too. Returns
    (theta, upper, lower, evals) where upper - lower is a sound certificate
    by weak duality, evals counts the starting points and dual evaluations,
    and floor is a caller-supplied a priori lower bound.
    """
    m = model.num_groups
    pin_idx = np.array([], dtype=int) if pin_idx is None else np.asarray(pin_idx, int)
    pin_caps = np.array([]) if pin_caps is None else np.asarray(pin_caps, float)
    free = np.setdiff1d(np.arange(m), pin_idx)
    inv_scales = 1.0 / scales

    def f_of(theta: np.ndarray) -> np.ndarray:
        return (model.values(theta) - shifts) / scales

    best_upper = np.inf
    best_theta: np.ndarray | None = None
    fallback = (np.inf, np.inf, np.zeros(model.dim))
    cuts: list[np.ndarray] = []
    points: list[np.ndarray] = []

    def track(theta: np.ndarray) -> None:
        nonlocal best_upper, best_theta, fallback
        f = f_of(theta)
        cuts.append(np.concatenate([f[free], f[pin_idx] - pin_caps]))
        points.append(theta)
        value = float(f[free].max())
        viol = float(np.maximum(f[pin_idx] - pin_caps, 0.0).max()) if len(pin_idx) else 0.0
        if viol <= _FEAS_TOL:
            if value < best_upper:
                best_upper, best_theta = value, theta
        elif (viol, value) < fallback[:2]:
            fallback = (viol, value, theta)

    def dual_at(lam: np.ndarray, mu: np.ndarray) -> float:
        w = np.zeros(m)
        w[free] = lam * inv_scales[free]
        if len(pin_idx):
            w[pin_idx] = mu * inv_scales[pin_idx]
        theta_hat, _, low = _weighted_min(model, w, ball)
        const = -float(lam @ (shifts[free] * inv_scales[free]))
        if len(pin_idx):
            const -= float(mu @ (shifts[pin_idx] * inv_scales[pin_idx] + pin_caps))
        track(theta_hat)
        return low + const

    track(np.zeros(model.dim))
    for point in warm:
        track(np.asarray(point, dtype=float))
    evals = len(cuts)

    best_lower = floor
    zero_mu = np.zeros(len(pin_idx))
    seeds = [np.full(len(free), 1.0 / len(free))]
    seeds += [np.eye(len(free))[i] for i in range(len(free))] if len(free) > 1 else []
    for lam in seeds:
        best_lower = max(best_lower, dual_at(lam, zero_mu))
        evals += 1

    saturation = max(1e-12, 0.05 * cfg.tol)
    for _ in range(cfg.master_iters):
        if best_upper - best_lower <= 0.5 * cfg.tol or evals >= cfg.max_iters:
            break
        picked = _best_weights(cuts, len(free), len(pin_idx), _MU_CAP)
        if picked is None:
            break
        lam, mu, master_val, alpha = picked
        track(alpha @ np.asarray(points))
        best_lower = max(best_lower, dual_at(lam, mu))
        evals += 1
        if master_val - best_lower <= saturation:
            break

    if best_theta is None:
        # no candidate met the pinned floors; report the least-violating point
        viol, value, theta = fallback
        return theta, value, best_lower - viol, evals
    return best_theta, best_upper, min(best_lower, best_upper), evals


def _report(
    model,
    frame: BargainingFrame,
    theta: np.ndarray,
    objective: float,
    iterations: int,
    certificate: float,
) -> SolverReport:
    risks = RiskProfile(tuple(np.maximum(model.values(theta), 0.0)))
    return SolverReport(
        parameter=tuple(theta),
        risk_profile=risks,
        improvement_profile=to_improvement(risks, frame),
        objective_value=float(objective),
        iterations=iterations,
        certificate_gap=float(certificate),
    )


def _solve_worst_group(
    method: str, model, frame: BargainingFrame, ball: float, cfg: SolverConfig
) -> SolverReport:
    """Optimize one worst-group criterion (ri, gdro, mmv, mmr) over the ball."""
    shifts, scales, floor, sign = WORST_GROUP[method](frame)
    theta, hi, lo, iters = _dual_minimax(
        model, shifts, scales, ball, cfg, floor=floor,
        warm=(_initial_point(model.dim, ball, cfg),),
    )
    # -sign * hi is -0.0 at a zero score for sign +1; + 0.0 reports it as 0.0
    return _report(
        model, frame, theta, objective=-sign * hi + 0.0, iterations=iters, certificate=hi - lo
    )


def solve_nash(
    model, frame: BargainingFrame, ball: float, cfg: SolverConfig = SolverConfig()
) -> SolverReport:
    """Maximize the sum of log absolute gains over the ball.

    Started at the maximin-improvement point, which has strictly positive
    gains whenever any point does. The certificate is the exact maximum of
    the linearized objective over the ball.
    """
    seed = _solve_worst_group("ri", model, frame, ball, cfg)
    theta = np.asarray(seed.parameter)
    base = frame.baseline_array()
    vals = model.values(theta)
    obj = float(criterion_scores("nash", frame, vals))
    if obj == -np.inf:
        raise DegenerateBargainError(
            "no parameter with strictly positive gains for every group was found; "
            f"best worst-improvement is {seed.objective_value:.3e}"
        )
    iters = seed.iterations
    step = 1.0
    bound = np.inf
    while iters < max(cfg.max_iters, seed.iterations + 1000):
        grad = -(model.gradients(theta) / (base - vals)[:, None]).sum(axis=0)
        bound = ball * float(np.linalg.norm(grad)) - float(grad @ theta)
        if bound <= cfg.tol:
            break
        moved = False
        while step > 1e-18:
            cand = project_ball(theta + step * grad, ball)
            cand_vals = model.values(cand)
            cand_obj = float(criterion_scores("nash", frame, cand_vals))
            if cand_obj > obj:
                theta, vals, obj = cand, cand_vals, cand_obj
                step *= 1.5
                moved = True
                break
            step *= 0.5
        iters += 1
        if not moved:
            break
    return _report(model, frame, theta, objective=obj, iterations=iters, certificate=bound)


def solve_leximin_ri(
    model, frame: BargainingFrame, ball: float, cfg: SolverConfig = SolverConfig()
) -> SolverReport:
    """Lexicographically maximize sorted relative improvements over the ball.

    Stage k fixes the groups that bound stage k-1 at its certified value (an
    equality band of width 10*tol) and re-maximizes the worst improvement of
    the rest, handing the pinned floors to the dual as hard constraints. The
    reported objective is the first-stage (worst-group) value.
    """
    first = _solve_worst_group("ri", model, frame, ball, cfg)
    m = frame.num_groups
    band = 10.0 * cfg.tol
    base, gaps, floor, _ = WORST_GROUP["ri"](frame)
    theta = np.asarray(first.parameter)
    rho = group_scores("ri", frame, model.values(theta))
    stage_val = float(first.objective_value)
    pins: dict[int, float] = {
        g: stage_val for g in range(m) if rho[g] <= stage_val + band
    }
    iters = first.iterations
    cert = first.certificate_gap
    while len(pins) < m:
        remaining = [g for g in range(m) if g not in pins]
        pin_idx = np.array(sorted(pins), dtype=int)
        # rho_j >= pin - band reads as f_j <= band - pin in normalized risk units
        caps = np.array([band - pins[g] for g in pin_idx])
        theta, hi, lo, used = _dual_minimax(
            model, base, gaps, ball, cfg, floor=floor, warm=(theta,),
            pin_idx=pin_idx, pin_caps=caps,
        )
        val = -hi
        iters += used
        cert = max(cert, hi - lo)
        rho = group_scores("ri", frame, model.values(theta))
        newly = [g for g in remaining if rho[g] <= val + band]
        if not newly:
            # numerical guard: pin the worst remaining group to force progress
            newly = [remaining[int(np.argmin(rho[remaining]))]]
        for g in newly:
            pins[g] = val
    return _report(
        model, frame, theta, objective=stage_val, iterations=iters, certificate=cert
    )


def solve(
    method: str,
    model,
    frame: BargainingFrame,
    ball: float,
    cfg: SolverConfig = SolverConfig(),
) -> SolverReport:
    """Dispatch one of the named criteria."""
    if method in WORST_GROUP:
        return _solve_worst_group(method, model, frame, ball, cfg)
    if method == "leximin":
        return solve_leximin_ri(model, frame, ball, cfg)
    if method == "nash":
        return solve_nash(model, frame, ball, cfg)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def objective_and_supergradient(
    method: str, model, frame: BargainingFrame, theta: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective value and one supergradient (or gradient) at theta.

    For the worst-group criteria the vector returned is the active group's
    gradient contribution, which is a valid supergradient wherever the active
    group is unique. leximin has no single objective to differentiate.
    """
    if method == "leximin":
        raise ValueError(f"unknown objective {method!r}")
    theta = np.asarray(theta, dtype=float)
    vals = model.values(theta)
    grads = model.gradients(theta)
    value = criterion_value(method, frame, vals)
    if method == "nash":
        return value, -(grads / (frame.baseline_array() - vals)[:, None]).sum(axis=0)
    _, scales, _, sign = WORST_GROUP[method](frame)
    a = int(group_scores(method, frame, vals).argmin())
    return value, -sign * grads[a] / scales[a]

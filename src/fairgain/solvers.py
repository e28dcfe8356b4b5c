"""Continuous solvers over a Euclidean parameter ball.

The worst-group criteria (relative improvement, raw risk, absolute gain,
regret) all reduce to minimizing a max of shifted, scaled convex group risks,
solved in primal-dual form. Every weighting of the normalized group
objectives yields a weighted risk minimization over the ball, the risk
model's minimize(w, radius), whose certified bound bounds the minimax value:
exact for quadratic risks, and for logistic ones the linearization bound at
the Newton minimizer (stationarity 1e-8, not a step budget). The lower
bound comes from such dual evaluations alone, so the certificate holds for
any frame. Cutting planes over the weightings push that bound up while the
weighted minimizers double as primal candidates. The master's dual weights on the cuts combine the stored
candidates into one more point whose worst normalized risk is at most the
master value, so the primal side closes with the dual even when weighted
minimizers are non-unique. The master is a matrix game over the
free groups' weights, with unbounded multipliers on pinned groups, solved
exactly for any number of groups by one warm-started tableau simplex. The
cutting plane closes the lower bound slowly, so an endgame takes Newton
steps on the KKT system of the constraints near-active at the best point
(Nocedal & Wright 2006, ch. 18), one derivatives(theta) call a step: once
from the uniform weights, before any master round, where at most d + 1
constraints make a single choice, and after each round. A solve may be
given an opening, a start and multipliers near its optimum's, and then
tries from it before anything else: a pinned leximin stage, from a start
that a second-order estimate reads off the previous stage's point and
multipliers, which move smoothly as the pins' caps shift (Fiacco 1983), and
a resumed minimax, from an earlier solve's point and weights. A dual
evaluation at uniform weights comes next, and is skipped when such an
opening has closed the gap. The Newton point is
one more candidate, scored exactly, and its multipliers, clipped at 0 with
the free part put on the simplex, give one more weighted minimization: by
weak duality a valid lower bound for any such weights, so the endgame can
close the gap sooner but never makes it unsound. The master sees neither. A
try whose residual stops halving is dropped; one that ends with a negative
multiplier, the wrong active set, moves on to the next choice of
constraints. Every dual bound is taken with the pins' caps raised by the
slack a candidate may break them by, and less a rounding allowance that
grows with its terms, so that multipliers in the hundreds still give a sound
bound. The reported certificate is the true primal-dual gap. The
product-of-gains criterion climbs its log-gain sum from the ri point by the
logistic fit's damped Newton, risk_models.newton_ball, and is certified
once, by an AM-GM bound at the weights 1/gains of its stationary point; it
refuses first when the ri solve's certified bound shows that no point gains
above tol. ri, leximin's stage 0 and nash's refusal test and start share one
solve per (model, frame, ball, config): a memo with one entry keeps the last
such solve, with the weights behind its lower bound that open leximin's
stage 1, and with it the last model.

solve(method, model, frame, ball, cfg) is the solver entry for all six
criteria, ball a positive finite radius, and its report's objective_value is
core.criterion_value at the reported risks, clamped at 0. Beside it,
minimax(method, model, frame, ball, cfg, warm, weights) returns a
worst-group criterion's point, certificate bounds, evaluations and the
weights behind its lower bound without a report, and takes warm points and
weights to resume from. minimax_batch(method, models, frames, ball, cfg,
point, weights) resumes many quadratic problems of one shape from one point
and weights, as the convergence study resumes its trials from the population
optimum and its weights: their opening Newton tries run stacked, one
least-squares call a step for all of them, so numpy's per-call cost is paid
once a study, and an item whose try leaves its gap open goes through minimax.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from fairgain.core import (
    WORST_GROUP,
    BargainingFrame,
    ConvergenceError,
    DegenerateBargainError,
    ImprovementProfile,
    RiskProfile,
    SolverReport,
    criterion_value,
    group_scores,
    relative_improvements,
)
from fairgain.risk_models import (
    ProblemSpec,
    QuadraticGroupRisks,
    newton_ball,
    project_ball,
)

METHODS = ("ri", "leximin", "gdro", "mmv", "mmr", "nash")


# the budget: cutting-plane rounds of one minimax or leximin stage
_MAX_ITERS = 120


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-6
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.tol > 0:  # NaN too: a solve would never meet its gap test
            raise ValueError("tol must be positive")
        if self.tol == np.inf:  # every gap would meet it, after one iteration
            raise ValueError("tol must be finite")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def group_risk_model(spec: ProblemSpec) -> QuadraticGroupRisks:
    """The population risks of a spec; load_dataset_csv builds a dataset's."""
    return QuadraticGroupRisks.from_problem_spec(spec)


def _initial_point(dim: int, radius: float, cfg: SolverConfig) -> tuple[np.ndarray, ...]:
    """Warm points besides theta = 0, which every solve tracks: one seeded draw, or none."""
    if cfg.seed is None:
        return ()
    gauss = random.Random(cfg.seed).gauss  # numpy has loaded random; numpy.random is a slow import
    return (project_ball(np.array([gauss(0.0, radius / 2.0) for _ in range(dim)]), radius),)


class _GameMaster:
    """The cutting-plane master of one :func:`_dual_minimax` call, solved exactly.

    The master is max t over lam on the simplex and mu >= 0 subject to
    t <= cut_i . (lam, mu) for every stored cut i. Every cut is taken at a
    point of the ball, so by weak duality its value is at least any dual
    bound low the caller has, and with the free entries shifted by
    K = 1 - low, (lam, mu) / (t + K) solves min 1'x subject to
    (C_F + K) x + C_P z >= 1 and x, z >= 0, whose dual max 1'y subject to
    (C_F + K)^T y <= 1, C_P^T y <= 0 and y >= 0 has one row per group and one
    column per cut. Its slack basis is feasible and a new cut c enters at
    zero, as the column B^-1 c with reduced cost 1 - duals . c, so the tableau
    (row 0 the reduced costs, whose slack entries are minus the duals, the
    rows below B^-1 [rhs | I | C]) carries over from solve to solve. Bland's
    rule picks the pivots, each a rank-one update, so every solve is one warm
    pass and no basis is inverted. A warm point that clears every pin by a
    margin gives each pin's multiplier a cut that bounds it, which keeps the
    pinned bases away from the near-singular ones where pricing stalls.
    """

    def __init__(self, m_free: int, n_pin: int, low: float):
        n = m_free + n_pin
        self.m_free, self.shift, self.seen = m_free, 1.0 - low, 0  # seen: the cuts entered so far
        tableau = np.eye(n + 1)
        tableau[:, 0] = np.concatenate([[0.0], np.ones(m_free), np.zeros(n_pin)])
        self.warm = list(range(1, n + 1)), tableau

    def solve(self, cuts: list) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(lam, mu, alpha) over all cuts stored so far, or None.

        alpha >= 0 sums to 1, and by LP duality max((alpha @ cuts)[:m_free]) is
        at most the master value min_i cut_i . (lam, mu). None: no mix of the
        stored points meets every pin (mu is unbounded), or the simplex failed.
        """
        basis, tableau = self.warm
        n = len(basis)
        new = np.array(cuts[self.seen :]).reshape(-1, n).T
        new[: self.m_free] += self.shift
        self.seen = len(cuts)
        entered = tableau[:, 1 : n + 1] @ new  # B^-1 c, and 1 - duals . c once row 0 gains 1
        entered[0] += 1.0
        found = self._pivot(basis, np.concatenate([tableau, entered], axis=1))
        if found is None:
            return None
        self.warm = basis, tableau = found
        pi = np.maximum(-tableau[0, 1 : n + 1], 0.0)
        y = np.zeros(tableau.shape[1])
        y[basis] = np.maximum(tableau[1:, 0], 0.0)
        y, total = y[n + 1 :], sum(pi[: self.m_free].tolist())
        mass = y.sum()
        if mass <= 0.0 or total <= 0.0:
            return None
        mix = pi / total
        return mix[: self.m_free], mix[self.m_free :], y / mass

    def _pivot(self, basis, tableau) -> tuple[list, np.ndarray] | None:
        """An optimal basis and its tableau, or None: unbounded or out of pivots."""
        basis = list(basis)
        for _ in range(2 * tableau.shape[1]):
            improving = tableau[0, 1:] > 1e-12
            j = improving.argmax() + 1  # Bland: the first improving column
            if not improving[j - 1]:
                return basis, tableau
            # the least ratio, and the first basic index among tied rows
            rows = enumerate(zip(tableau[1:, 0].tolist(), tableau[1:, j].tolist(), basis), 1)
            ratios = [(max(x, 0.0) / a, b, r) for r, (x, a, b) in rows if a > _PIVOT_TOL]
            if not ratios:
                return None
            r = min(ratios)[2]
            row = tableau[r] / tableau[r, j]
            tableau = tableau - tableau[:, j, None] * row
            tableau[r] = row
            basis[r - 1] = j
        return None


_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-11
_KKT_STEPS = 6  # the most Newton steps of one endgame try
_RETRY_SHRINK = 0.01  # an unchanged active set is tried again once the gap is this share of its last


def _lstsq_public(a, b, rcond, signature=None):
    """np.linalg.lstsq itself, for a numpy whose private gufunc has another name (1.x has two)."""
    return np.linalg.lstsq(a, b, rcond=rcond)


# the gufunc np.linalg.lstsq runs, without its wrapper, where numpy names it lstsq
_lstsq = getattr(getattr(np.linalg, "_umath_linalg", None), "lstsq", _lstsq_public)
_EPS = float(np.finfo(float).eps)  # lstsq's rcond is _EPS times the larger dimension, as numpy's default


def _dual_bound(model, w: np.ndarray, const: float, ball: float) -> tuple[np.ndarray, float]:
    """The weighted minimizer over the ball, and const plus its certified bound, less rounding.

    By weak duality that is a lower bound on the minimax value for any weights
    w >= 0 whose constant is const. The sum rounds at its terms' scale, which
    grows with the multipliers, so it gives up 128 ulps of both terms.
    """
    theta_hat, _, low = model.minimize(w, ball)
    return theta_hat, low + const - 128.0 * _EPS * (abs(low) + abs(const))


def _dual_minimax(
    model,
    shifts: np.ndarray,
    scales: np.ndarray,
    ball: float,
    cfg: SolverConfig,
    warm: Sequence[np.ndarray] = (),
    pin_idx: np.ndarray | None = None,
    pin_caps: np.ndarray | None = None,
    opening: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float, float, int, np.ndarray]:
    """Minimize F(theta) = max over free groups of (R_g - shifts_g)/scales_g.

    Pinned groups, when given, are hard constraints
    (R_j - shifts_j)/scales_j <= pin_caps_j; their multipliers are any
    mu >= 0 next to the simplex weights of the free groups. The lower bound
    rises only through dual evaluations, one at uniform free weights and
    mu = 0 among them, and the best bound when the master is built sets its
    shift. Each cut keeps the point it was taken at; before every dual
    evaluation the master LP's dual weights combine those points into one
    more candidate, which lies in the ball and by convexity scores at most
    the master value, so once the master's value meets the lower bound the
    primal side closes too. The
    endgame's KKT Newton steps, from the uniform weights when at most d + 1
    constraints make one choice and after each round, add a candidate and a
    dual evaluation of their own, which the master never sees. opening, when
    given, is (start, lam, mu): one more Newton try, made first, once the
    starting points are scored, on the free groups with lam > 0 and the pins
    with mu > 0, from start with those weights; start itself is never a
    candidate. The uniform evaluation follows only while the gap is open, so
    an opening that closes it costs one Newton try and one weighted
    minimization. Returns (theta, upper, lower, evals, weights) where
    upper - lower is a sound certificate by weak duality, evals counts the
    starting points and dual evaluations, the endgame's included, and
    weights (m,) holds the free groups' lam and the pins' mu of the
    evaluation that set the lower bound: one model.minimize there, with
    dual_at's constant and allowance, gives lower, or upper where rounding
    lifts that value above it. Some warm point must meet every pin, so that a
    feasible candidate exists. One that sits on a pin's cap can stall the
    master's single warm pass, so each leximin stage starts from a point
    that clears every pin by a margin.
    """
    m = model.num_groups
    pin_idx = np.array([], dtype=int) if pin_idx is None else np.asarray(pin_idx, int)
    pin_caps = np.array([]) if pin_caps is None else np.asarray(pin_caps, float)
    is_free = np.ones(m, dtype=bool)
    is_free[pin_idx] = False
    free = np.flatnonzero(is_free)
    inv_scales = 1.0 / scales
    # the dual's per-group weights and constants, fixed for the whole call; an
    # incumbent may break a pin by _FEAS_TOL, so the dual's caps are raised by it
    inv_free, inv_pin = inv_scales[free], inv_scales[pin_idx]
    shift_free, shift_pin = shifts[free] * inv_free, shifts[pin_idx] * inv_pin + (pin_caps + _FEAS_TOL)

    best_upper = np.inf
    best_theta: np.ndarray | None = None
    best_f = np.zeros(m)  # the normalized risks at best_theta
    best_lower = -np.inf
    # the free groups' and the pins' weights behind best_lower, zero while it is -inf
    best_lam, best_mu = np.zeros(len(free)), np.zeros(len(pin_idx))
    cuts: list[np.ndarray] = []
    points: list[np.ndarray] = []

    def score(theta: np.ndarray) -> np.ndarray:
        """The cut at theta; theta becomes the incumbent if it meets every pin and does better."""
        nonlocal best_upper, best_theta, best_f
        f = cut = (model.values(theta) - shifts) / scales
        f_free, viol = f, 0.0
        if len(pin_idx):  # unpinned, every group is free and the cut is f itself
            f_free, over = f[free], f[pin_idx] - pin_caps
            cut, viol = np.concatenate([f_free, over]), float(np.maximum(over, 0.0).max())
        value = float(np.maximum.reduce(f_free))
        if viol <= _FEAS_TOL and value < best_upper:
            best_upper, best_theta, best_f = value, theta, f
        return cut

    def track(theta: np.ndarray) -> None:
        cuts.append(score(theta))
        points.append(theta)

    def dual_at(lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
        """Raise the lower bound to the dual value at (lam, mu); returns the weighted minimizer."""
        nonlocal best_lower, best_lam, best_mu, evals
        w, const = lam * inv_free, -float(lam @ shift_free)
        if len(pin_idx):  # unpinned, w is lam * inv_free and mu's terms are empty
            w = np.zeros(m)
            w[free], w[pin_idx] = lam * inv_free, mu * inv_pin
            const -= float(mu @ shift_pin)
        theta_hat, bound = _dual_bound(model, w, const, ball)
        evals += 1
        if bound > best_lower:
            best_lower, best_lam, best_mu = bound, lam, mu
        # the ball solve meets the sphere only to its tolerance: a minimizer
        # just outside would score below the ball's minimum
        return project_ball(theta_hat, ball)

    def attempt(start, lam, mu, chosen, sub) -> np.ndarray | None:
        """One KKT Newton try from start on the free groups chosen and the pins sub.

        Scores the Newton point and evaluates the dual at its multipliers,
        clipped at 0 with the free part put on the simplex, where some free
        one stays positive. Returns the multipliers, or None: the try was dropped.
        """
        out = _kkt_newton(
            model, shifts, scales, start, best_upper, np.concatenate([lam[chosen], mu[sub]]),
            np.concatenate([free[chosen], pin_idx[sub]]), len(chosen), pin_caps[sub], ball,
        )
        if out is None:
            return None
        theta, y = out
        score(theta)
        weights = np.maximum(y, 0.0)
        total = float(weights[: len(chosen)].sum())
        if total > 0.0:
            lam_free, mu_pin = np.zeros(len(free)), np.zeros(len(pin_idx))
            lam_free[chosen], mu_pin[sub] = weights[: len(chosen)] / total, weights[len(chosen) :]
            dual_at(lam_free, mu_pin)
        return y

    tried, tried_gap = None, np.inf

    def endgame(lam: np.ndarray, mu: np.ndarray) -> None:
        """KKT Newton tries from the incumbent.

        lam and mu are the master's weights, or the opening uniform ones,
        which weigh every free group. The constraints are the free groups
        within the gap of the incumbent's worst one or weighted by lam, worst
        first and, among ties, the heaviest first, then pins within the gap
        of their caps or weighted by mu, closest to their caps first, d + 1
        constraints at most. A try is made once that set holds two
        constraints, and again only when the set changes or the gap has
        shrunk _RETRY_SHRINK-fold since the last try. A choice is
        min(d + 1, |near|) free groups and as many near pins as fill d + 1;
        the pins vary first, and the next choice follows while some chosen
        multiplier comes out negative, max(|near|, |close|) choices at most:
        where more than d + 1 groups tie, some d + 1 of them carry
        nonnegative multipliers (Caratheodory). The tries stop once the gap
        closes, or a try is dropped. Neither the Newton points nor the dual
        minimizers reach the master.
        """
        nonlocal tried, tried_gap
        gap, dim = best_upper - best_lower, model.dim
        near = np.flatnonzero((best_f[free] >= best_upper - gap) | (lam > 0.0))
        close = np.flatnonzero((best_f[pin_idx] - pin_caps >= -gap) | (mu > 0.0))
        key = near.tolist(), close.tolist()
        if len(near) + len(close) < 2 or (key == tried and gap > _RETRY_SHRINK * tried_gap):
            return
        tried, tried_gap = key, gap
        # worst first, and among ties (a degenerate vertex) the master's heaviest first
        near = near[np.lexsort((-lam[near], -best_f[free[near]]))]
        close = close[np.argsort(pin_caps[close] - best_f[pin_idx[close]], kind="stable")]
        size = min(dim + 1, len(near))
        # each choice of pins under the worst free groups, then the next choice of free groups
        tries = itertools.product(
            itertools.combinations(near, size),
            itertools.combinations(close, min(dim + 1 - size, len(close))),
        )
        for chosen, sub in itertools.islice(tries, max(len(near), len(close))):
            y = attempt(best_theta, lam, mu, np.array(chosen, dtype=int), np.array(sub, dtype=int))
            if y is None or best_upper - best_lower <= 0.5 * cfg.tol or not (y < 0.0).any():
                break

    evals = 1 + len(warm)  # the starting points, and below one per dual evaluation
    track(np.zeros(model.dim))
    for point in warm:
        track(np.asarray(point, dtype=float))
    if opening is not None:  # a given opening goes first: it may close the gap on its own
        start, lam_0, mu_0 = opening
        attempt(start, lam_0, mu_0, np.flatnonzero(lam_0 > 0.0), np.flatnonzero(mu_0 > 0.0))
    lam, mu = np.full(len(free), 1.0 / len(free)), np.zeros(len(pin_idx))
    if best_upper - best_lower > 0.5 * cfg.tol:
        track(dual_at(lam, mu))
    # at most d + 1 constraints make one choice, so the endgame opens at uniform weights
    if len(lam) + len(mu) <= model.dim + 1 and best_upper - best_lower > 0.5 * cfg.tol:
        endgame(lam, mu)

    master = None  # built at the first round: a solve the opening closes needs none
    for _ in range(_MAX_ITERS):
        if best_upper - best_lower <= 0.5 * cfg.tol:
            break
        if master is None:
            master = _GameMaster(len(free), len(pin_idx), best_lower)
        picked = master.solve(cuts)
        if picked is None:
            break
        lam, mu, alpha = picked
        track(alpha @ np.asarray(points))
        track(dual_at(lam, mu))
        if best_upper - best_lower > 0.5 * cfg.tol:
            endgame(lam, mu)

    weights = np.zeros(m)
    weights[free], weights[pin_idx] = best_lam, best_mu
    return best_theta, best_upper, min(best_lower, best_upper), evals, weights


def _kkt_newton(
    model, shifts, scales, theta, t, y, idx, n_free, caps, ball
) -> tuple[np.ndarray, np.ndarray] | None:
    """(theta, y) after Newton steps on the KKT system of one active set, or None.

    With f = (R - shifts) / scales, the free groups
    idx[:n_free] are held at f_a = t, the pins idx[n_free:] at f_j = caps,
    and theta on the sphere |theta| = ball once it starts there or a step
    leaves the ball; until then the sphere's row holds nu at 0. With y the
    multipliers, c the free groups' indicator and b the caps, each step
    solves the symmetric Hessian system of
    L = t + y . (f - c t - b) + nu (|theta|^2 - ball^2) / 2 in the unknowns
    (theta, nu, t, y) by least squares, which also settles the singular
    systems of rank-deficient groups. y starts from the given weights (the
    master's, or uniform), put on the simplex over the free groups, and nu
    from 0. The steps stop after _KKT_STEPS, once the residual is within
    _FEAS_TOL, or at a non-finite step, and theta is pulled into the ball.
    The first step often raises the residual as it sets nu and t, and so
    does the sphere's row when it joins; a later step that fails to halve it
    means Newton's local convergence is missing, and the try is dropped:
    None. A free weight may pass below 0 on the way, as (6.5, -5.5) on one
    two-group solve that ends at (0.91, 0.09). Steps that converge or run
    out return the multipliers whatever their signs; the caller reads a
    negative one as a wrong active set.
    """
    d, k = len(theta), len(idx)
    inv = 1.0 / scales[idx]
    r2 = ball * ball
    # on the sphere to within the ball solve's tolerance, 2e-10 of ball^2
    sphere = float(theta @ theta) >= r2 * (1.0 - 1e-9)
    row, n = d + 1, d + 2 + k  # nu's row is d, t's is row, and the multipliers' follow
    c = np.zeros(k)
    c[:n_free] = 1.0
    b = np.concatenate([np.zeros(n_free), caps])
    total = float(y[:n_free].sum())
    y, nu = (y / total if total > 0.0 else c / n_free), 0.0
    kkt, resid = np.zeros((n, n)), np.empty(n)
    kkt[row, row + 1 :] = kkt[row + 1 :, row] = -c
    kkt[d, d] = 0.0 if sphere else 1.0
    diag, last = np.arange(d), math.inf
    for step in range(_KKT_STEPS):
        risks, grads, hessians = model.derivatives(theta)  # the model's one call of the step
        f = (risks - shifts) / scales
        sq = float(theta @ theta)
        if not sphere and sq > r2:  # the ball turns active: its row joins, and the residual restarts
            sphere, last, kkt[d, d] = True, math.inf, 0.0
        g = grads[idx] * inv[:, None]
        resid[:d] = y @ g + nu * theta
        resid[d] = 0.5 * (sq - r2) if sphere else nu
        resid[row] = 1.0 - float(c @ y)
        resid[row + 1 :] = f[idx] - c * t - b
        norm = math.sqrt(float(resid @ resid))
        if norm <= _FEAS_TOL:
            break
        if step >= 2 and norm > 0.5 * last:
            return None
        last = norm
        kkt[:d, :d] = ((y * inv) @ hessians[idx].reshape(k, d * d)).reshape(d, d)
        kkt[:d, row + 1 :] = g.T
        kkt[row + 1 :, :d] = g
        if sphere:
            kkt[diag, diag] += nu
            kkt[:d, d] = kkt[d, :d] = theta
        move = _lstsq(kkt, -resid[:, None], _EPS * n, signature="ddd->ddid")[0][:, 0]
        if not np.isfinite(move).all():
            break
        theta, nu, t, y = theta + move[:d], nu + move[d], t + move[row], y + move[row + 1 :]
    return project_ball(theta, ball), y


def _lstsq_stack(kkt: np.ndarray, rhs: np.ndarray, rcond: float) -> np.ndarray:
    """The least-squares solutions (T, n) of stacked systems kkt (T, n, n) x = rhs (T, n).

    One gufunc call solves them all, each as _kkt_newton solves one; where
    _lstsq is numpy's wrapper, which refuses a stack, they are solved one by
    one with the same bits.
    """
    if _lstsq is _lstsq_public:
        return np.array([_lstsq(a, b[:, None], rcond)[0][:, 0] for a, b in zip(kkt, rhs)])
    return _lstsq(kkt, rhs[..., None], rcond, signature="ddd->ddid")[0][..., 0]


def minimax_batch(
    method: str,
    models: Sequence[QuadraticGroupRisks],
    frames: Sequence[BargainingFrame],
    ball: float,
    cfg: SolverConfig,
    point: np.ndarray,
    weights: np.ndarray,
) -> list[tuple[np.ndarray, float, float, int, np.ndarray]]:
    """minimax(method, model, frame, ball, cfg, warm=(point,), weights=weights) of each item, stacked.

    The items are quadratic risk models of one shape (m, d) with their
    frames, all resumed from one point and weights, as a convergence study's
    trials resume the population solve; anything else raises ValueError.
    Each item opens as minimax does: theta = 0, cfg.seed's point and the
    point are scored, t is the best of them, and y the weights on the groups
    they weigh, normalized. The items' KKT Newton steps then run stacked, one
    least-squares call a step, by _kkt_newton's rules applied to each item:
    at most _KKT_STEPS, a stop within _FEAS_TOL or at a non-finite step, the
    item dropped once its residual stops halving from the third step, and
    the sphere's row joined once its step leaves the ball. Each Newton point
    is scored, and the dual is evaluated at its multipliers, clipped at 0 and
    put on the simplex, through the item's own model.minimize with
    dual_at's constant and allowance: every lower bound is one weighted
    minimization, sound by weak duality. An item whose gap closes within
    tol/2 returns what minimax returns after that try, its theta and weights
    read-only; every other item returns minimax's own result.
    """
    if method not in WORST_GROUP:
        raise ValueError(f"minimax_batch takes one of {tuple(WORST_GROUP)}, got {method!r}")
    if len(models) != len(frames):
        raise ValueError(f"minimax_batch needs one frame per model, got {len(models)} and {len(frames)}")
    if not all(isinstance(model, QuadraticGroupRisks) for model in models):
        raise ValueError("minimax_batch stacks quadratic risk models only")
    if not models:
        return []
    m, d = models[0].num_groups, models[0].dim
    if any((model.num_groups, model.dim) != (m, d) for model in models) or any(
        frame.num_groups != m for frame in frames
    ):
        raise ValueError(f"minimax_batch stacks items of one shape, the first's: {m} groups in dimension {d}")
    start, lam = _warm_point(point, d, ball), _warm_weights(weights, m)
    starts = [np.zeros(d), *_initial_point(d, ball, cfg), start]
    shifts, scales = (np.array(part) for part in zip(*(WORST_GROUP[method](frame)[:2] for frame in frames)))
    inv_scales = 1.0 / scales
    shift_free = shifts * inv_scales
    A, c, k = (np.array([getattr(model, key) for model in models]) for key in ("A", "c", "k"))
    c2 = 2.0 * c

    def derivatives(rows: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Items rows' normalized risks (r, m) and risk gradients (r, m, d) at theta (r, d), as model.derivatives."""
        At = (A[rows] @ theta[:, None, :, None])[..., 0]
        risks = (At @ theta[:, :, None])[..., 0] - (c2[rows] @ theta[:, :, None])[..., 0] + k[rows]
        return (risks - shifts[rows]) / scales[rows], 2.0 * (At - c[rows])

    T, every = len(models), np.arange(len(models))
    best_upper, best_theta = np.full(T, np.inf), np.empty((T, d))
    for theta in starts:
        value = derivatives(every, np.broadcast_to(theta, (T, d)))[0].max(axis=1)
        better = value < best_upper
        best_upper[better], best_theta[better] = value[better], theta

    # the opening try of every item at once: the weighted groups held at t
    idx = np.flatnonzero(lam > 0.0)
    size, row, r2 = len(idx), d + 1, ball * ball
    n = d + 2 + size  # nu's row is d, t's is row, and the multipliers' follow
    inv, hessians = inv_scales[:, idx], (2.0 * A[:, idx]).reshape(T, size, d * d)
    theta, t, nu = np.tile(start, (T, 1)), best_upper.copy(), np.zeros(T)
    y = np.tile(lam[idx] / float(lam[idx].sum()), (T, 1))
    sphere = np.full(T, float(start @ start) >= r2 * (1.0 - 1e-9))
    last, live, dropped = np.full(T, math.inf), np.ones(T, dtype=bool), np.zeros(T, dtype=bool)
    diag = np.arange(d)
    for step in range(_KKT_STEPS):
        rows = np.flatnonzero(live)
        th = theta[rows]
        f, grads = derivatives(rows, th)
        sq = (th[:, None, :] @ th[:, :, None])[:, 0, 0]
        joins = rows[~sphere[rows] & (sq > r2)]  # the ball turns active: its row joins, the residual restarts
        sphere[joins], last[joins] = True, math.inf
        on = sphere[rows]
        g = grads[:, idx] * inv[rows][:, :, None]
        resid = np.empty((len(rows), n))
        resid[:, :d] = (y[rows][:, None, :] @ g)[:, 0] + nu[rows][:, None] * th
        resid[:, d] = np.where(on, 0.5 * (sq - r2), nu[rows])
        resid[:, row] = 1.0 - y[rows].sum(axis=1)
        resid[:, row + 1 :] = f[:, idx] - t[rows][:, None]
        norm = np.sqrt((resid[:, None, :] @ resid[:, :, None])[:, 0, 0])
        done = norm <= _FEAS_TOL
        drop = ~done & (norm > 0.5 * last[rows]) & (step >= 2)
        live[rows[done | drop]], dropped[rows[drop]] = False, True
        last[rows] = norm
        go = ~(done | drop)
        rows, th, on, g, resid = rows[go], th[go], on[go], g[go], resid[go]
        if not len(rows):
            break
        kkt = np.zeros((len(rows), n, n))
        kkt[:, row, row + 1 :] = kkt[:, row + 1 :, row] = -1.0
        kkt[:, d, d] = np.where(on, 0.0, 1.0)
        kkt[:, :d, :d] = ((y[rows] * inv[rows])[:, None, :] @ hessians[rows]).reshape(len(rows), d, d)
        kkt[:, :d, row + 1 :] = g.transpose(0, 2, 1)
        kkt[:, row + 1 :, :d] = g
        ball_rows = np.flatnonzero(on)
        kkt[ball_rows[:, None], diag, diag] += nu[rows[ball_rows]][:, None]
        kkt[ball_rows, :d, d] = kkt[ball_rows, d, :d] = th[ball_rows]
        move = _lstsq_stack(kkt, -resid, _EPS * n)
        finite = np.isfinite(move).all(axis=1)
        live[rows[~finite]] = False
        rows, move = rows[finite], move[finite]
        theta[rows] += move[:, :d]
        nu[rows] += move[:, d]
        t[rows] += move[:, row]
        y[rows] += move[:, row + 1 :]

    # score each Newton point, and evaluate the dual at its multipliers clipped at 0 and put on the simplex
    ok = np.flatnonzero(~dropped)
    newton = np.array([project_ball(theta[i], ball) for i in ok]).reshape(len(ok), d)
    value = derivatives(ok, newton)[0].max(axis=1)
    better = value < best_upper[ok]
    best_upper[ok[better]], best_theta[ok[better]] = value[better], newton[better]
    best_theta.setflags(write=False)
    clipped = np.maximum(y[ok], 0.0)
    total = clipped.sum(axis=1)
    lower, lams = np.full(T, -np.inf), np.zeros((T, m))
    for i, clip, mass in zip(ok, clipped, total):
        if mass > 0.0:
            lams[i, idx] = clip / mass
            const = -float(lams[i] @ shift_free[i])
            lower[i] = _dual_bound(models[i], lams[i] * inv_scales[i], const, ball)[1]
    lams.setflags(write=False)
    return [
        (best_theta[i], float(best_upper[i]), float(min(lower[i], best_upper[i])), len(starts) + 1, lams[i])
        if best_upper[i] - lower[i] <= 0.5 * cfg.tol
        else minimax(method, models[i], frames[i], ball, cfg, warm=(point,), weights=weights)
        for i in range(T)
    ]


def minimax(
    method: str,
    model,
    frame: BargainingFrame,
    ball: float,
    cfg: SolverConfig = SolverConfig(),
    warm: Sequence[np.ndarray] = (),
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, float, float, int, np.ndarray]:
    """(theta, upper, lower, evaluations, weights) of one worst-group criterion, unpinned.

    method is ri, gdro, mmv or mmr, and upper - lower is the certificate
    that solve reports. The returned weights (m,) lie on the simplex: the
    dual point behind lower, whose one weighted minimization, with the
    groups' shifts and scales and a 128-ulp allowance, gives lower (or
    upper, where rounding lifts it above). Each warm point must be finite
    with shape (d,); it is projected onto the ball and tracked after
    theta = 0 and the seeded point of cfg.seed, so a start near the optimum
    saves the endgame Newton steps. weights, when given, are multipliers
    such as an earlier solve returned, finite and nonnegative with shape
    (m,) and a positive sum, and need a warm point: the solve opens with one
    KKT Newton try from the first warm point on the groups they weigh, before
    the uniform dual evaluation, which runs only if that try leaves the gap
    open. So an earlier solve's point and weights resume a nearby problem's
    solve. Without warm points this is the solve that solve(method, ...)
    reports. The returned theta and weights are read-only: the ri memo hands
    them to every later caller.
    """
    if method not in WORST_GROUP:
        raise ValueError(f"minimax takes one of {tuple(WORST_GROUP)}, got {method!r}")
    shifts, scales, _ = WORST_GROUP[method](frame)
    seeded = _initial_point(model.dim, ball, cfg)
    given = [_warm_point(point, model.dim, ball) for point in warm]
    opening = None
    if weights is not None:
        lam = _warm_weights(weights, model.num_groups)
        if not given:
            raise ValueError("weights open the solve from the first warm point, and none was given")
        opening = given[0], lam, np.zeros(0)
    out = _dual_minimax(model, shifts, scales, ball, cfg, [*seeded, *given], opening=opening)
    out[0].setflags(write=False)
    out[4].setflags(write=False)
    return out


def _warm_point(point, dim: int, ball: float) -> np.ndarray:
    """A copy of a finite (dim,) warm point, projected onto the ball; else ValueError."""
    point = np.array(point, dtype=float)  # a copy: the caller's array is not frozen by the solve
    if point.shape != (dim,) or not np.isfinite(point).all():
        raise ValueError(f"a warm point must be finite with shape ({dim},), got {point.tolist()}")
    return project_ball(point, ball)


def _warm_weights(weights, m: int) -> np.ndarray:
    """A copy of finite, nonnegative (m,) weights with a positive sum; else ValueError."""
    lam = np.array(weights, dtype=float)
    if lam.shape != (m,) or not (np.isfinite(lam).all() and (lam >= 0.0).all() and lam.sum() > 0.0):
        raise ValueError(
            f"weights must be finite and nonnegative with shape ({m},) and a positive sum, got {lam.tolist()}"
        )
    return lam


# the last ri solve, keyed by the model's identity and the frame, ball and config by value
_ri_minimax = lru_cache(maxsize=1)(minimax)


def _nash(model, frame: BargainingFrame, ball: float, cfg: SolverConfig) -> tuple:
    """(theta, iterations, certificate) maximizing phi = sum_g log(b_g - R_g) over the ball.

    By AM-GM, U(w) = m log(h(w)/m) - sum_g log w_g bounds phi for any w > 0,
    where h(w) = w.b - lower(w), lower the weighted minimization's certified
    bound. With lam = w * gaps on the simplex, h(w) / (w . gaps) is minus the
    ri dual value at lam, so the memoized ri solve's lower bound shows when
    some w bounds every point's worst relative improvement by tol: then the
    solve refuses. Otherwise newton_ball minimizes -phi (phi' = 1/gains,
    phi'' = 1/gains^2) from the ri point in u = theta / ball, so its stop and
    damping do not read the scale that the parameters share with the ball.
    U is taken once, at w = 1/gains of its last point: w . (b - R) = m makes
    h >= m, at the optimum U meets phi, and U is raised by 128 ulps of the
    terms of h, of its log and of phi, since h cancels as w grows. iterations
    counts the Newton steps and the weighted minimization. An ri point with a
    gain <= 0, left only by an uncertified ri solve, raises ConvergenceError.
    """
    m = frame.num_groups
    base = frame.baseline_array()
    theta, _, ri_lower, _, _ = _ri_minimax("ri", model, frame, ball, cfg)
    if -ri_lower <= cfg.tol:
        raise DegenerateBargainError(
            f"no point gives every group a gain: every worst improvement is <= {cfg.tol:.1e}"
        )
    gains = base - model.values(theta)
    if not gains.min() > 0.0:
        raise ConvergenceError(f"nash's start, the ri point, leaves a group gain of {gains.min():.3e}")

    def minus_phi(risks: np.ndarray) -> tuple:
        gains = base - risks
        if not gains.min() > 0.0:
            return math.inf, None, None
        w = 1.0 / gains
        return -float(np.log(gains).sum()), w, w * w

    def derivatives(u: np.ndarray) -> tuple:  # the model in u = theta / ball
        risks, grads, hessians = model.derivatives(ball * u)
        return risks, ball * grads, ball * ball * hessians

    u, risks, _, steps, _ = newton_ball(derivatives, minus_phi, theta / ball, 1.0)
    w = 1.0 / (base - risks)
    low = model.minimize(w, ball)[2]
    # as in dual_at, h = w . b - low, the log and phi round at their terms' scale
    wb = float(w @ base)
    bound = m * math.log((wb - low + 128.0 * _EPS * (abs(wb) + abs(low))) / m)
    # -sum_g log w_g is phi, so U - phi is bound; U bounds phi everywhere, so a negative gap is rounding
    gap = bound + 128.0 * _EPS * (abs(bound) + float(np.abs(np.log(w)).sum()))
    return ball * u, steps + 1, max(gap, 0.0)


def _pinned_opening(model, base, gaps, ball, theta, weights, pin_idx, caps) -> tuple | None:
    """(start, lam, mu), the Newton start that opens a pinned leximin stage, or None.

    theta and weights are the previous stage's point and the weights behind
    its lower bound, and y their part on this stage's pins, normalized to sum
    1. In f = (R - base)/gaps the previous stage was stationary at theta with
    those weights, so sum_j y_j grad f_j, with the sphere's share nu theta
    where theta lies on it, is about 0, and the pins' first-order terms cancel:
    the stage's optimum lies about sqrt(slack) away, slack = min_j (cap_j -
    f_j(theta)) > 0. To second order it minimizes g0 . delta, g0 the gradient
    of the worst free group, subject to delta' H delta / 2 <= slack, with
    H = sum_j y_j hess f_j (+ nu I on the sphere), over the tangent space on
    which every weighted pin but the heaviest, and the sphere, hold at first
    order: the pins' ratio may move between stages, and H alone would lead
    across them. With B an orthonormal basis of that space, z = (B'HB)^-1 B'g0
    and s = sqrt(g0'Bz / (2 slack)), the try starts at P_ball(theta - Bz/s)
    with pin multipliers s y and the worst free group's weight 1. None, and
    the stage opens as any other: no pin weighted or no slack, no tangent
    space left, or H not positive definite on it.
    """
    y = weights[pin_idx]
    total = float(y.sum())
    if not total > 0.0:
        return None
    y = y / total
    risks, grads, hessians = model.derivatives(theta)
    f = (risks - base) / gaps
    slack = float((caps - f[pin_idx]).min())
    if not slack > 0.0:
        return None
    g = grads / gaps[:, None]
    is_free = np.ones(len(f), dtype=bool)
    is_free[pin_idx] = False
    free = np.flatnonzero(is_free)
    worst = int(np.argmax(f[free]))
    hess = np.tensordot(y / gaps[pin_idx], hessians[pin_idx], axes=1)
    weighted = np.flatnonzero(y > 0.0)
    normals = g[pin_idx[weighted[np.argsort(-y[weighted], kind="stable")][1:]]]
    sq = float(theta @ theta)
    if sq >= ball * ball * (1.0 - 1e-9):  # on the sphere, as _kkt_newton reads it
        nu = max(-float(theta @ (y @ g[pin_idx])) / sq, 0.0)
        hess = hess + nu * np.eye(len(theta))
        normals = np.vstack([normals, theta])
    if len(normals) >= len(theta):
        return None
    basis = np.linalg.svd(normals)[2][len(normals) :].T if len(normals) else np.eye(len(theta))
    g0 = basis.T @ g[free[worst]]
    try:
        z = np.linalg.solve(basis.T @ hess @ basis, g0)
    except np.linalg.LinAlgError:
        return None
    curv = float(g0 @ z)
    if not (curv > 0.0 and np.isfinite(z).all()):
        return None
    scale = math.sqrt(curv / (2.0 * slack))
    lam = np.zeros(len(free))
    lam[worst] = 1.0
    return project_ball(theta - basis @ z / scale, ball), lam, scale * y


def _leximin(model, frame: BargainingFrame, ball: float, cfg: SolverConfig) -> tuple:
    """(theta, iterations, certificate) lexicographically maximizing sorted improvements.

    Stage 0 is the memoized ri solve. Stage k pins the groups that bound
    stage k-1 at its certified value, less a band that recedes with k: every
    pinned group may give up band * (2 - 2**-k) of its pin, band = tol/4, so
    stage k-1's point, from which stage k starts warm, clears each pin by at
    least band * 2**-k, and no pin gives up tol/2. The pins go to the dual as
    hard constraints while it re-maximizes the worst improvement of the rest,
    and stage k opens with one Newton try from _pinned_opening's estimate,
    read off stage k-1's point and the weights behind its lower bound.
    The certificate is the largest stage gap, or stage 0's bound on the worst
    improvement less the worst improvement at the returned point where this
    is larger, since the later stages may give up part of the band.
    """
    m = frame.num_groups
    band = cfg.tol / 4.0
    base, gaps, _ = WORST_GROUP["ri"](frame)
    pins: dict[int, float] = {}
    k, iters, cert = 0, 0, -np.inf
    while len(pins) < m:
        if pins:
            pin_idx = np.array(sorted(pins), dtype=int)
            # rho_j >= pin - give reads as f_j <= give - pin in normalized risk units
            give = band * (2.0 - 0.5**k)
            caps = np.array([give - pins[g] for g in pin_idx])
            theta, hi, lo, used, weights = _dual_minimax(
                model, base, gaps, ball, cfg, warm=(theta,), pin_idx=pin_idx, pin_caps=caps,
                opening=_pinned_opening(model, base, gaps, ball, theta, weights, pin_idx, caps),
            )
        else:
            theta, hi, lo, used, weights = _ri_minimax("ri", model, frame, ball, cfg)
            bound = -hi + (hi - lo)
        k += 1
        iters += used
        cert = max(cert, hi - lo)
        # rho is exactly -f, so the least free rho is the stage value -hi and
        # every stage pins at least one group
        rho = group_scores("ri", frame, model.values(theta))
        for g in range(m):
            if g not in pins and rho[g] <= -hi + band:
                pins[g] = -hi
    # the last stage's rho is at the returned theta
    return theta, iters, max(cert, bound - float(rho.min()))


def solve(
    method: str,
    model,
    frame: BargainingFrame,
    ball: float,
    cfg: SolverConfig = SolverConfig(),
) -> SolverReport:
    """Solve one named criterion; the report's values all read its risks, clamped at 0.

    ball must be a positive finite radius: without a ball a logistic dual
    bound is -inf, and no dual bound would set the minimax master's shift.
    """
    if ball is None or not 0.0 < ball < math.inf:
        raise ValueError(f"ball must be a positive finite radius, got {ball!r}")
    if method in WORST_GROUP:
        run = _ri_minimax if method == "ri" else minimax
        theta, hi, lo, iters, _ = run(method, model, frame, ball, cfg)
        cert = hi - lo
    elif method == "leximin":
        theta, iters, cert = _leximin(model, frame, ball, cfg)
    elif method == "nash":
        theta, iters, cert = _nash(model, frame, ball, cfg)
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    risks = np.maximum(model.values(theta), 0.0)
    return SolverReport(
        parameter=tuple(theta),
        risk_profile=RiskProfile(tuple(risks)),
        improvement_profile=ImprovementProfile(tuple(relative_improvements(risks, frame))),
        objective_value=criterion_value(method, frame, risks),
        iterations=iters,
        certificate_gap=float(cert),
    )


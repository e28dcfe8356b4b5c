"""Monte Carlo check of how fast the plug-in maximin-improvement point converges.

For each sample size, trials draw fresh sample moments from the population
spec (`draw_moments`, exactly the moments of n rows per group, at a cost that
does not grow with n), solve the maximin relative-improvement problem on the
empirical risks, and score the returned parameter under the population risks.
The per-trial gap is the population maximin value minus the population worst
improvement at that plug-in point. Each trial's solve resumes the
population solve: it opens with one KKT Newton try from the population
optimum and the multipliers behind its lower bound, which both lie
O(n^-1/2) from the empirical ones, so when the empirical problem has several
optima the gap is that of the optimum this resumed solve reaches. A study
draws every trial first and then solves them all in one
solvers.minimax_batch, which takes their tries stacked and gives each trial
minimax's result. Its median should
shrink like one over the square root of the sample size, and the result
derives its log-log slope and per-size high quantiles from the gaps. A
population or trial solve that stops short of tol raises ConvergenceError.

The sample is conditioned: a draw whose empirical frame is degenerate, or in
which some group's empirical baseline-to-ideal gap is at most half the
smallest population gap, is redrawn, and `rejected` counts those redraws per
size. So the gaps describe draws whose empirical frame is not near
degenerate, not every draw.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from fairgain.core import (
    BargainingFrame,
    ConvergenceError,
    DegenerateFrameError,
    relative_improvements,
)
from fairgain.risk_models import ProblemSpec, QuadraticGroupRisks, draw_moments
from fairgain.solvers import SolverConfig, minimax, minimax_batch

_GAP_FLOOR = 1e-8  # keeps log-log slope fits finite when a trial lands exactly
QUANTILE_DELTA = 0.1  # the summary's per-size gap quantile is the (1 - delta) one


@dataclass(frozen=True)
class ConvergenceResult:
    """A study's gaps, and a summary derived from them alone, so it never goes stale."""

    sample_sizes: tuple[int, ...]
    gaps: np.ndarray  # (len(sample_sizes), trials), clipped below at 0
    trials: int
    seed: int
    rejected: tuple[int, ...]
    population_value: float
    fitted_slope: float = field(init=False)  # of log median gap against log n
    quantiles: tuple[float, ...] = field(init=False)  # per size, the (1 - QUANTILE_DELTA) one
    quantile_non_increasing: bool = field(init=False)

    def __post_init__(self) -> None:
        gaps = np.array(self.gaps, dtype=float)
        if gaps.shape != (len(self.sample_sizes), self.trials):
            raise ValueError("gaps must be (len(sample_sizes), trials)")
        gaps.setflags(write=False)
        q = np.quantile(gaps, 1.0 - QUANTILE_DELTA, axis=1)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "rejected", tuple(int(k) for k in self.rejected))
        object.__setattr__(self, "fitted_slope", fit_rate_slope(self.sample_sizes, gaps))
        object.__setattr__(self, "quantiles", tuple(float(v) for v in q))
        object.__setattr__(self, "quantile_non_increasing", bool(np.all(np.diff(q) <= 1e-15)))


def fit_rate_slope(sample_sizes, gaps: np.ndarray) -> float:
    """Least-squares slope of log median gap against log sample size."""
    med = np.maximum(np.median(np.asarray(gaps, dtype=float), axis=1), _GAP_FLOOR)
    logn = np.log(np.asarray(sample_sizes, dtype=float))
    design = np.column_stack([logn, np.ones_like(logn)])
    coef, *_ = np.linalg.lstsq(design, np.log(med), rcond=None)
    return float(coef[0])


Target = tuple[QuadraticGroupRisks, BargainingFrame, float, np.ndarray, np.ndarray]


def _population_target(spec: ProblemSpec, cfg: SolverConfig) -> Target:
    """Population risks, frame, maximin value, point and weights that every trial is scored against.

    The point and the weights behind the solve's lower bound resume every
    trial's solve. A solve that stops short of tol raises ConvergenceError:
    every gap would be measured from its value.
    """
    model = QuadraticGroupRisks.from_problem_spec(spec)
    frame = model.frame(spec.radius)
    theta, upper, lower, _, weights = minimax("ri", model, frame, spec.radius, cfg)
    if upper - lower > cfg.tol:
        raise ConvergenceError(
            f"the population ri solve stopped at gap {upper - lower:.3e} above tol {cfg.tol:.1e}"
        )
    return model, frame, -upper + 0.0, theta, weights  # the ri objective f = (R - b) / gap is -rho


def _draw(
    spec: ProblemSpec, n: int, trial: int, seed: int, min_gap: float
) -> tuple[QuadraticGroupRisks, BargainingFrame, int]:
    """One trial's empirical risks and frame, and the draws rejected first.

    A draw whose empirical frame is degenerate, or whose smallest
    baseline-to-ideal gap is at most min_gap, half the population's, is too
    degenerate to define a stable empirical frame, so it is resampled under
    the next attempt's seed; 200 failed attempts raise ConvergenceError.
    """
    for attempt in range(200):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(n, trial, attempt))
        )
        emp = draw_moments(spec, n, rng)
        try:
            frame = emp.frame(spec.radius)
        except DegenerateFrameError:
            continue
        if frame.gap_array().min() > min_gap:
            return emp, frame, attempt
    raise ConvergenceError(f"could not draw a usable sample of size {n} in 200 attempts")


def _trial_gap(n: int, trial: int, solved: tuple, cfg: SolverConfig, target: Target) -> float:
    """One trial's gap: its solve's point scored under the population.

    solved is the trial's minimax tuple; only its point and certificate are
    read, and one that stops short of tol raises ConvergenceError.
    """
    pop_model, pop_frame, pop_value = target[:3]
    theta, upper, lower = solved[:3]
    if upper - lower > cfg.tol:
        raise ConvergenceError(
            f"the ri solve of trial {trial} at n = {n} stopped at gap {upper - lower:.3e} above tol {cfg.tol:.1e}"
        )
    pop_rho = relative_improvements(pop_model.values(theta), pop_frame)
    raw = pop_value - float(pop_rho.min())
    if raw < -10.0 * cfg.tol:
        raise ConvergenceError(
            f"empirical point beat the population optimum by {-raw:.3e}; "
            "the population solve is inconsistent"
        )
    return max(raw, 0.0)


def _integer(value, name: str) -> int:
    """value as an int; a bool or a non-integral value raises ValueError naming the argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be integers, got {value!r}")
    return int(value)


def run_convergence(
    spec: ProblemSpec,
    sample_sizes,
    trials: int,
    seed: int,
    cfg: SolverConfig | None = None,
) -> ConvergenceResult:
    """Gap trials across strictly increasing sample sizes with per-trial splittable seeding.

    Each (size, trial, attempt) triple keys its own generator, so results are
    reproducible regardless of execution order. Draws whose empirical frame is
    degenerate or whose gap is at most half the population's are resampled
    and counted in `rejected`. Every trial is drawn first, and one batch
    solves them all from the population point and weights; a ConvergenceError
    names the first failing trial in (size, trial) order. The result derives
    its summary from the gaps. Sizes, trials and seed must be integers
    (numpy's too), never bools.
    """
    sizes = [_integer(n, "sample_sizes") for n in sample_sizes]
    if len(sizes) < 2 or any(n < 2 for n in sizes):
        raise ValueError("need at least two sample sizes of at least 2")
    # the slope fit needs two distinct sizes, and the quantile check reads in size order
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sample sizes must increase strictly, got {sizes}")
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be positive")
    if seed < 0:  # SeedSequence's own message would not name the seed
        raise ValueError(f"seed must be nonnegative, got {seed}")
    cfg = cfg or SolverConfig()
    target = _population_target(spec, cfg)
    min_gap = 0.5 * float(target[1].gap_array().min())
    keys = [(i, n, trial) for i, n in enumerate(sizes) for trial in range(trials)]
    draws, failed = [], None
    for i, n, trial in keys:
        try:
            draws.append(_draw(spec, n, trial, seed, min_gap))
        except ConvergenceError as exc:  # raised once the trials drawn before it are scored
            failed = exc
            break
    # every trial resumes from the population point and weights, so one batch solves them all
    solved = minimax_batch(
        "ri", [emp for emp, _, _ in draws], [frame for _, frame, _ in draws], spec.radius, cfg,
        target[3], target[4],
    )
    gaps = np.empty((len(sizes), trials))
    rejected = [0] * len(sizes)
    for (i, n, trial), (_, _, skipped), out in zip(keys, draws, solved):
        gaps[i, trial] = _trial_gap(n, trial, out, cfg, target)
        rejected[i] += skipped
    if failed is not None:
        raise failed
    return ConvergenceResult(
        sample_sizes=tuple(sizes),
        gaps=gaps,
        trials=trials,
        seed=seed,
        rejected=tuple(rejected),
        population_value=target[2],
    )

"""Monte Carlo check of how fast the plug-in maximin-improvement point converges.

For each sample size, trials draw fresh sample moments from the population
spec (`draw_moments`, exactly the moments of n rows per group, at a cost that
does not grow with n), solve the maximin relative-improvement problem on the
empirical risks, and score the returned parameter under the population risks.
The per-trial gap is the population maximin value minus the population worst
improvement at that plug-in point. Each trial's solve starts warm at the
population optimum, so when the empirical problem has several optima the gap
is that of the optimum this warm-started solve reaches. Its median should
shrink like one over the square root of the sample size. A population or
trial solve that stops short of tol raises ConvergenceError.

The sample is conditioned: a draw whose empirical frame is degenerate, or in
which some group's empirical baseline-to-ideal gap is at most half the
smallest population gap, is redrawn, and `rejected` counts those redraws per
size. So the gaps describe draws whose empirical frame is not near
degenerate, not every draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairgain.core import (
    BargainingFrame,
    ConvergenceError,
    DegenerateFrameError,
    relative_improvements,
)
from fairgain.risk_models import ProblemSpec, QuadraticGroupRisks, draw_moments
from fairgain.solvers import SolverConfig, minimax, solve

_GAP_FLOOR = 1e-8  # keeps log-log slope fits finite when a trial lands exactly


@dataclass(frozen=True)
class ConvergenceResult:
    sample_sizes: tuple[int, ...]
    gaps: np.ndarray  # (len(sample_sizes), trials), clipped below at 0
    fitted_slope: float
    trials: int
    seed: int
    rejected: tuple[int, ...]
    population_value: float

    def __post_init__(self) -> None:
        gaps = np.array(self.gaps, dtype=float)
        if gaps.shape != (len(self.sample_sizes), self.trials):
            raise ValueError("gaps must be (len(sample_sizes), trials)")
        gaps.setflags(write=False)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "rejected", tuple(int(k) for k in self.rejected))


@dataclass(frozen=True)
class GapCertificate:
    delta: float
    quantiles: tuple[float, ...]
    non_increasing: bool


def fit_rate_slope(sample_sizes, gaps: np.ndarray) -> float:
    """Least-squares slope of log median gap against log sample size."""
    med = np.maximum(np.median(np.asarray(gaps, dtype=float), axis=1), _GAP_FLOOR)
    logn = np.log(np.asarray(sample_sizes, dtype=float))
    design = np.column_stack([logn, np.ones_like(logn)])
    coef, *_ = np.linalg.lstsq(design, np.log(med), rcond=None)
    return float(coef[0])


def _population_target(
    spec: ProblemSpec, cfg: SolverConfig
) -> tuple[QuadraticGroupRisks, BargainingFrame, float, np.ndarray]:
    """Population risks, frame, maximin value and point that every trial is scored against.

    The point warm-starts every trial's solve. A solve that stops short of
    tol raises ConvergenceError: every gap would be measured from its value.
    """
    model = QuadraticGroupRisks.from_problem_spec(spec)
    frame = model.frame(spec.radius)
    report = solve("ri", model, frame, spec.radius, cfg)
    if not report.certified(cfg.tol):
        raise ConvergenceError(
            f"the population ri solve stopped at gap {report.certificate_gap:.3e} above tol {cfg.tol:.1e}"
        )
    return model, frame, float(report.objective_value), np.asarray(report.parameter)


def _trial_gap(
    spec: ProblemSpec,
    n: int,
    trial: int,
    seed: int,
    cfg: SolverConfig,
    target: tuple[QuadraticGroupRisks, BargainingFrame, float, np.ndarray],
) -> tuple[float, int]:
    """One empirical solve scored under the population, and the draws rejected first.

    A draw whose empirical frame is degenerate, or whose smallest
    baseline-to-ideal gap is at most half the population's, is too degenerate
    to define a stable empirical frame, so it is resampled under the next
    attempt's seed. The solve starts warm at the population point, which lies
    O(n^-1/2) from the empirical optimum, and only its point and certificate
    are read; one that stops short of tol raises ConvergenceError.
    """
    pop_model, pop_frame, pop_value, pop_point = target
    min_gap_required = 0.5 * float(pop_frame.gap_array().min())
    for attempt in range(200):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(n, trial, attempt))
        )
        emp = draw_moments(spec, n, rng)
        try:
            frame = emp.frame(spec.radius)
        except DegenerateFrameError:
            continue
        if frame.gap_array().min() > min_gap_required:
            break
    else:
        raise ConvergenceError(f"could not draw a usable sample of size {n} in 200 attempts")
    theta, upper, lower, _, _ = minimax("ri", emp, frame, spec.radius, cfg, warm=(pop_point,))
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
    return max(raw, 0.0), attempt


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
    and counted in `rejected`.
    """
    sizes = [int(n) for n in sample_sizes]
    if len(sizes) < 2 or any(n < 2 for n in sizes):
        raise ValueError("need at least two sample sizes of at least 2")
    # the slope fit needs two distinct sizes, and the quantile check reads in size order
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sample sizes must increase strictly, got {sizes}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if seed < 0:  # SeedSequence's own message would not name the seed
        raise ValueError(f"seed must be nonnegative, got {seed}")
    cfg = cfg or SolverConfig()
    target = _population_target(spec, cfg)
    gaps = np.empty((len(sizes), trials))
    rejected = [0] * len(sizes)
    for i, n in enumerate(sizes):
        for trial in range(trials):
            gaps[i, trial], skipped = _trial_gap(spec, n, trial, seed, cfg, target)
            rejected[i] += skipped
    slope = fit_rate_slope(sizes, gaps)
    return ConvergenceResult(
        sample_sizes=tuple(sizes),
        gaps=gaps,
        fitted_slope=slope,
        trials=trials,
        seed=seed,
        rejected=tuple(rejected),
        population_value=target[2],
    )


def gap_certificate(result: ConvergenceResult, delta: float = 0.1) -> GapCertificate:
    """Per-size (1 - delta) gap quantiles and whether they shrink with n."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must sit strictly between 0 and 1")
    q = np.quantile(result.gaps, 1.0 - delta, axis=1)
    non_increasing = bool(np.all(np.diff(q) <= 1e-15))
    return GapCertificate(
        delta=delta, quantiles=tuple(float(v) for v in q), non_increasing=non_increasing
    )

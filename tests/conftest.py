from __future__ import annotations

import numpy as np
import pytest

from fairgain.core import DegenerateFrameError
from fairgain.risk_models import (
    GroupedDataset,
    GroupLinearModel,
    LogisticGroupRisks,
    ProblemSpec,
    population_frame,
    sigmoid,
)

# the ball random_logistic_dataset checks its frame over by default
LOGISTIC_RADIUS = 3.0


def motivating_spec() -> ProblemSpec:
    # one-dimensional two-group instance with closed-form solutions
    return ProblemSpec(
        groups=(
            GroupLinearModel(beta=np.array([2.0]), sigma2=1.0, cov=np.array([[1.0]])),
            GroupLinearModel(beta=np.array([7.0]), sigma2=9.0, cov=np.array([[1.0]])),
        ),
        radius=10.0,
    )


def planar_spec() -> ProblemSpec:
    # two-dimensional instance with correlated features in group 1
    return ProblemSpec(
        groups=(
            GroupLinearModel(
                beta=np.array([0.4, 0.0]),
                sigma2=1.0,
                cov=np.array([[1.0, 0.5], [0.5, 1.0]]),
            ),
            GroupLinearModel(beta=np.array([0.4, 0.6]), sigma2=1.0, cov=np.eye(2)),
        ),
        radius=1.0,
    )


def three_group_spec() -> ProblemSpec:
    # groups 1,2 compete on coordinate 1; group 3 only cares about coordinate 2,
    # so maximin leaves it slack and leximin should lift it to ~1
    sub = np.array([[1.0, 0.0], [0.0, 0.0]])
    return ProblemSpec(
        groups=(
            GroupLinearModel(beta=np.array([2.0, 0.0]), sigma2=1.0, cov=sub),
            GroupLinearModel(beta=np.array([7.0, 0.0]), sigma2=9.0, cov=sub),
            GroupLinearModel(
                beta=np.array([0.0, 2.0]),
                sigma2=1.0,
                cov=np.array([[0.0, 0.0], [0.0, 1.0]]),
            ),
        ),
        radius=5.0,
    )


def centred_risks(spec: ProblemSpec, thetas: np.ndarray) -> np.ndarray:
    """Reference risk rows (theta - beta)' cov (theta - beta) + sigma2, shape (n, m).

    The centred form of the population risks, independent of the expanded
    theta' A theta - 2 c' theta + k that the risk models evaluate.
    """
    cols = []
    for g in spec.groups:
        diff = thetas - g.beta
        cols.append(np.einsum("ij,jk,ik->i", diff, g.cov, diff) + g.sigma2)
    return np.stack(cols, axis=1)


def assert_oracle_within_certificate(method: str, objective: float, gap: float, oracle: float):
    """No grid point's value beats a solve's objective by more than its certificate gap."""
    # gdro reports a risk and mmr a regret, both better lower
    sign = -1.0 if method in ("gdro", "mmr") else 1.0
    assert sign * oracle <= sign * objective + gap, method


def _random_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    f = rng.normal(size=(d, d))
    cov = f @ f.T / d + 0.05 * np.eye(d)
    return cov


def random_problem_spec(
    rng: np.random.Generator,
    m: int,
    d: int,
    radius: float = 3.0,
    separated: bool = False,
) -> ProblemSpec:
    """Draw a random non-degenerate instance.

    Betas are a mix of inside-ball and outside-ball vectors so some ideals are
    constrained. With separated=True the first two betas are kept at least 0.5
    apart, which forces a genuine trade-off between groups 1 and 2.
    """
    while True:
        groups = []
        for g in range(m):
            cov = _random_psd(rng, d)
            scale = rng.uniform(0.3, 1.4) * radius
            beta = rng.normal(size=d)
            beta *= scale / max(np.linalg.norm(beta), 1e-9)
            if float(beta @ cov @ beta) < 0.01:
                beta *= 0.15 / max(np.sqrt(float(beta @ cov @ beta)), 1e-9)
            sigma2 = rng.uniform(0.3, 12.0)
            groups.append(GroupLinearModel(beta=beta, sigma2=sigma2, cov=cov))
        if separated and np.linalg.norm(groups[0].beta - groups[1].beta) < 0.5:
            continue
        spec = ProblemSpec(groups=tuple(groups), radius=radius)
        try:
            population_frame(spec)
        except DegenerateFrameError:
            continue
        return spec


def rank_deficient_spec(rng: np.random.Generator) -> ProblemSpec | None:
    """Draw one instance whose group covariances have random rank; None if degenerate.

    m is 2-5 and d is 1-6. Group g's covariance is F F'/r for an r-column
    Gaussian F with r drawn from 1..d, so most groups see only part of the
    feature space and weighted minimizers are often flat.
    """
    m, d = int(rng.integers(2, 6)), int(rng.integers(1, 7))
    groups = []
    for _ in range(m):
        r = int(rng.integers(1, d + 1))
        f = rng.normal(size=(d, r))
        cov = f @ f.T / r
        cov = (cov + cov.T) / 2.0
        beta = 2.0 * rng.normal(size=d)
        groups.append(GroupLinearModel(beta=beta, sigma2=rng.uniform(0.1, 2.0), cov=cov))
    spec = ProblemSpec(groups=tuple(groups), radius=rng.uniform(0.5, 4.0))
    try:
        population_frame(spec)
    except DegenerateFrameError:
        return None
    return spec


def random_logistic_dataset(
    rng: np.random.Generator, m: int = 3, d: int = 3, n: int = 300, radius: float = LOGISTIC_RADIUS
) -> GroupedDataset:
    """Draw a logistic dataset whose groups all gain from their own fit over the ball.

    Each group's features are Gaussian around a random shift and its labels
    follow a logistic model with its own random coefficients, so several
    groups' ideal fits sit on the ball's boundary.
    """
    while True:
        features, labels = [], []
        for _ in range(m):
            X = rng.normal(size=(n, d)) + rng.normal(scale=0.5, size=d)
            w = rng.normal(size=d) * 1.5
            features.append(X)
            labels.append((rng.uniform(size=n) < sigmoid(X @ w)).astype(float))
        ds = GroupedDataset(tuple(features), tuple(labels), loss="logistic")
        try:
            LogisticGroupRisks.from_dataset(ds).frame(radius)
        except DegenerateFrameError:
            continue
        return ds


@pytest.fixture
def motivating():
    return motivating_spec()


@pytest.fixture
def planar():
    return planar_spec()


@pytest.fixture
def three_group():
    return three_group_spec()

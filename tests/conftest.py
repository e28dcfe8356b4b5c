from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fairgain.core import (
    WORST_GROUP,
    BargainingFrame,
    DegenerateFrameError,
    criterion_value,
    group_scores,
)
from fairgain.risk_models import (
    GroupLinearModel,
    LogisticGroupRisks,
    ProblemSpec,
    population_frame,
    sigmoid,
)

# the ball random_logistic_dataset checks its frame over by default
LOGISTIC_RADIUS = 3.0

# a dataset's rows: each group's features (n_g, d) and labels (n_g,)
Rows = tuple[list[np.ndarray], list[np.ndarray]]


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


def save_problem_spec(spec: ProblemSpec, path: str | Path) -> None:
    """Write a population spec as the JSON load_problem_spec reads."""
    payload = {
        "radius": spec.radius,
        "groups": [
            {"beta": g.beta.tolist(), "sigma2": g.sigma2, "cov": g.cov.tolist()}
            for g in spec.groups
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_dataset_csv(rows: Rows, path: str | Path) -> None:
    """Write rows as the group,y,x1..xd CSV load_dataset_csv reads, group g named str(g)."""
    features, labels = rows
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "y"] + [f"x{j}" for j in range(1, features[0].shape[1] + 1)])
        for name, (X, y) in enumerate(zip(features, labels)):
            for xi, yi in zip(X, y):
                writer.writerow([str(name), repr(float(yi))] + [repr(float(v)) for v in xi])


def draw_dataset(spec: ProblemSpec, n_per_group: int, rng: np.random.Generator) -> Rows:
    """Sample squared-loss rows from the population spec.

    Features are Gaussian with the group's second-moment matrix; labels are
    beta' x plus Gaussian noise at the group's sigma2. `draw_moments` draws
    `QuadraticGroupRisks.from_rows` of these rows in law, without rows.
    """
    features, labels = [], []
    for g in spec.groups:
        X = rng.standard_normal((n_per_group, g.dim)) @ g.factor.T
        features.append(X)
        labels.append(X @ g.beta + rng.normal(0.0, np.sqrt(g.sigma2), n_per_group))
    return features, labels


def random_logistic_dataset(
    rng: np.random.Generator, m: int = 3, d: int = 3, n: int = 300, radius: float = LOGISTIC_RADIUS
) -> Rows:
    """Draw logistic rows whose groups all gain from their own fit over the ball.

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
        try:
            LogisticGroupRisks(features, labels).frame(radius)
        except DegenerateFrameError:
            continue
        return features, labels


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
    vals, grads, _ = model.derivatives(theta)
    value = criterion_value(method, frame, vals)
    if method == "nash":
        return value, -(grads / (frame.baseline_array() - vals)[:, None]).sum(axis=0)
    _, scales, sign = WORST_GROUP[method](frame)
    a = int(group_scores(method, frame, vals).argmin())
    return value, -sign * grads[a] / scales[a]


@pytest.fixture
def motivating():
    return motivating_spec()


@pytest.fixture
def planar():
    return planar_spec()


@pytest.fixture
def three_group():
    return three_group_spec()

"""Input generation for the benchmark workloads, plus reference risk models.

The program under test receives only what this module generates. Each
workload draws the first n entries of a fixed catalogue from its own
catalogue seed (for `sweep`, the same generator and seed as acceptance
criterion 3), n being the units the run will use, and the run's
``--seed`` then transforms it: it mirrors the parameter space in randomly
chosen coordinates (`sweep`), or flips the sign of the spec, swaps its
groups and picks the Monte Carlo seeds (`converge`). The transforms change
the numbers the program sees but not how hard an input is, so runs with
different seeds do the same work and their timings compare within tight
bounds. Mirroring is exact in floating point, so the solvers, whose
iteration counts react to the last bit, take the same path on every seed; a
rotation or a relabelling of groups does not, and gave up to 50%
seed-to-seed spread in throughput.

`converge` runs every spec in several rounds (see worker.py), each with its
own Monte Carlo seed, so a repeat does the same kind of work but never sees
the same numbers, and a cache of results could not make it cheaper.

The reference functions here (risks, baselines, ideals) are written
independently of ``fairgain`` so that the correctness gate does not trust the
code it checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SWEEP_CATALOGUE_SEED = 7  # acceptance criterion 3
CONVERGE_CATALOGUE_SEED = 13
CONVERGE_SIZES = (100, 400, 1600, 6400, 25600)  # the CLI's default study shape
CONVERGE_TRIALS = 10  # per unit; five units hold the trials of one default study (50)


# --------------------------------------------------------------------------
# population specs as plain arrays: betas (m, d), covs (m, d, d), sigma2 (m,)


@dataclass(frozen=True)
class Spec:
    betas: np.ndarray
    covs: np.ndarray
    sigma2: np.ndarray
    radius: float

    def to_json(self) -> dict:
        return {
            "radius": self.radius,
            "groups": [
                {"beta": b.tolist(), "sigma2": float(s), "cov": c.tolist()}
                for b, c, s in zip(self.betas, self.covs, self.sigma2)
            ],
        }


def spec_risks(spec: Spec, theta: np.ndarray) -> np.ndarray:
    """(theta - beta_g)' cov_g (theta - beta_g) + sigma2_g for every group."""
    diff = np.asarray(theta, dtype=float)[None, :] - spec.betas
    return np.einsum("gi,gij,gj->g", diff, spec.covs, diff) + spec.sigma2


def _ball_quadratic_min(cov: np.ndarray, beta: np.ndarray, radius: float) -> float:
    """min over |theta| <= radius of (theta - beta)' cov (theta - beta).

    Reference solve by bisection on the trust-region multiplier, which is
    slower than the program's Newton iteration but shares no code with it.
    """
    s, V = np.linalg.eigh(cov)
    s = np.clip(s, 0.0, None)
    b = V.T @ (cov @ beta)
    live = s > 1e-10 * max(float(s.max()), 1e-300)
    inside = np.where(live, b / np.where(live, s, 1.0), 0.0)
    if np.linalg.norm(inside) > radius:
        lo, hi = 0.0, float(np.linalg.norm(b)) / radius
        while hi - lo > 1e-15 * hi:
            lam = 0.5 * (lo + hi)
            if np.linalg.norm(b / (s + lam)) > radius:
                lo = lam
            else:
                hi = lam
        inside = b / (s + hi)
    theta = V @ inside
    diff = theta - beta
    return float(diff @ cov @ diff)


def spec_frame(spec: Spec) -> tuple[np.ndarray, np.ndarray]:
    """Reference baseline (theta = 0) and in-ball ideal risks."""
    base = spec_risks(spec, np.zeros(spec.betas.shape[1]))
    ideal = np.array(
        [
            _ball_quadratic_min(c, b, spec.radius) + s
            for b, c, s in zip(spec.betas, spec.covs, spec.sigma2)
        ]
    )
    return base, ideal


def _random_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    f = rng.normal(size=(d, d))
    return f @ f.T / d + 0.05 * np.eye(d)


def random_problem_spec(rng: np.random.Generator, m: int, d: int, radius: float = 3.0) -> Spec:
    """Criterion 3's spec generator: in- and out-of-ball betas, random moments.

    Draws are rejected when some group cannot improve on the baseline, as the
    program's own frame check would refuse them.
    """
    while True:
        betas, covs, sig = [], [], []
        for _ in range(m):
            cov = _random_psd(rng, d)
            scale = rng.uniform(0.3, 1.4) * radius
            beta = rng.normal(size=d)
            beta *= scale / max(np.linalg.norm(beta), 1e-9)
            if float(beta @ cov @ beta) < 0.01:
                beta *= 0.15 / max(np.sqrt(float(beta @ cov @ beta)), 1e-9)
            betas.append(beta)
            covs.append(cov)
            sig.append(rng.uniform(0.3, 12.0))
        spec = Spec(np.array(betas), np.array(covs), np.array(sig), float(radius))
        base, ideal = spec_frame(spec)
        if np.all(base - ideal > 1e-10):
            return spec


def flip_spec(spec: Spec, rng: np.random.Generator) -> Spec:
    """Mirror the parameter space in randomly chosen coordinates."""
    s = np.where(rng.random(spec.betas.shape[1]) < 0.5, -1.0, 1.0)
    return Spec(spec.betas * s, spec.covs * s[:, None] * s[None, :], spec.sigma2, spec.radius)


def sweep_specs(seed: int, n: int) -> list[Spec]:
    cat = np.random.default_rng(SWEEP_CATALOGUE_SEED)
    move = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        m = int(cat.integers(2, 5))
        out.append(flip_spec(random_problem_spec(cat, m=m, d=2, radius=3.0), move))
    return out


# --------------------------------------------------------------------------
# convergence studies: two groups, one feature


def converge_specs(seed: int, n: int, rounds: int) -> list[tuple[Spec, list[int]]]:
    """(spec, Monte Carlo seed per round) pairs; the run seed flips signs and swaps groups."""
    cat = np.random.default_rng(CONVERGE_CATALOGUE_SEED)
    move = np.random.default_rng(seed)
    out = []
    for k in range(n):
        while True:
            betas = cat.uniform(0.5, 8.0, 2)
            if abs(betas[0] - betas[1]) > 1.0:
                break
        sigma2 = cat.uniform(0.5, 10.0, 2)
        order = move.permutation(2)
        sign = 1.0 if move.random() < 0.5 else -1.0
        spec = Spec(
            (sign * betas[order])[:, None], np.ones((2, 1, 1)), sigma2[order], 10.0
        )
        out.append((spec, [(seed * 1000 + k) * 10 + r for r in range(rounds)]))
    return out


def maximin_1d(spec: Spec, base: np.ndarray, ideal: np.ndarray) -> tuple[float, float]:
    """Exact (max, min) over the interval of min_g rho_g for 1-d, 2-group specs.

    Each rho_g is a concave quadratic in theta, so the maximum of their
    minimum sits at a clipped vertex, a crossing, or an end of the interval,
    and the minimum of the minimum sits at an end.
    """
    r = spec.radius
    c = spec.covs[:, 0, 0]
    b = spec.betas[:, 0]
    gap = base - ideal

    def worst(t: float) -> float:
        return float(np.min((base - (c * (t - b) ** 2 + spec.sigma2)) / gap))

    cands = [-r, r] + [float(np.clip(v, -r, r)) for v in b]
    # rho_1 - rho_2 as a quadratic a t^2 + p t + q
    w = c / gap
    a = -w[0] + w[1]
    p = 2.0 * (w[0] * b[0] - w[1] * b[1])
    q = (base[0] - c[0] * b[0] ** 2 - spec.sigma2[0]) / gap[0] - (
        base[1] - c[1] * b[1] ** 2 - spec.sigma2[1]
    ) / gap[1]
    roots = np.roots([a, p, q]) if abs(a) > 1e-300 else np.roots([p, q])
    cands += [float(t.real) for t in roots if abs(t.imag) < 1e-12 and -r <= t.real <= r]
    return max(worst(t) for t in cands), min(worst(-r), worst(r))


# --------------------------------------------------------------------------
# CLI requests


def _fixed_spec(groups: list[tuple[list[float], float, list[list[float]]]], radius: float) -> Spec:
    return Spec(
        np.array([g[0] for g in groups], dtype=float),
        np.array([g[2] for g in groups], dtype=float),
        np.array([g[1] for g in groups], dtype=float),
        radius,
    )


# The three specs of the package's worked examples, written out here so the
# benchmark does not import the test suite.
MOTIVATING = _fixed_spec([([2.0], 1.0, [[1.0]]), ([7.0], 9.0, [[1.0]])], 10.0)
PLANAR = _fixed_spec(
    [
        ([0.4, 0.0], 1.0, [[1.0, 0.5], [0.5, 1.0]]),
        ([0.4, 0.6], 1.0, [[1.0, 0.0], [0.0, 1.0]]),
    ],
    1.0,
)
THREE_GROUP = _fixed_spec(
    [
        ([2.0, 0.0], 1.0, [[1.0, 0.0], [0.0, 0.0]]),
        ([7.0, 0.0], 9.0, [[1.0, 0.0], [0.0, 0.0]]),
        ([0.0, 2.0], 1.0, [[0.0, 0.0], [0.0, 1.0]]),
    ],
    5.0,
)


@dataclass(frozen=True)
class SquaredData:
    """Grouped regression rows as the CLI reads them (labels before centering)."""

    features: tuple[np.ndarray, ...]
    labels: tuple[np.ndarray, ...]

    def centered_labels(self) -> tuple[np.ndarray, ...]:
        offset = float(np.concatenate(self.labels).mean())
        return tuple(y - offset for y in self.labels)

    def risks(self, theta: np.ndarray) -> np.ndarray:
        return np.array(
            [np.mean((y - X @ theta) ** 2) for X, y in zip(self.features, self.centered_labels())]
        )

    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """Baseline (zero predictor) and unconstrained least-squares ideals.

        The CLI's default ball is twice the largest solo fit, so every solo
        optimum is interior and the unconstrained fit is the ideal.
        """
        ys = self.centered_labels()
        base = np.array([np.mean(y**2) for y in ys])
        ideal = []
        for X, y in zip(self.features, ys):
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            ideal.append(np.mean((y - X @ coef) ** 2))
        return base, np.array(ideal)


def squared_data(seed: int, n: int = 60) -> SquaredData:
    """Three groups that share a direction of gain, so `nash` has a common gain."""
    rng = np.random.default_rng(seed)
    shared = np.array([1.0, -1.0])
    feats, labs = [], []
    for _ in range(3):
        X = rng.normal(size=(n, 2))
        beta = shared + 0.5 * rng.normal(size=2)
        feats.append(X)
        labs.append(X @ beta + rng.normal(0.0, 0.5, n))
    return SquaredData(tuple(feats), tuple(labs))


def write_squared_csv(data: SquaredData, path: Path) -> None:
    lines = ["group,y,x1,x2"]
    for g, (X, y) in enumerate(zip(data.features, data.labels)):
        lines += [f"g{g},{float(y[i])!r},{float(X[i, 0])!r},{float(X[i, 1])!r}" for i in range(len(y))]
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Request:
    """One CLI process: its arguments, the output it writes, and the input it reads."""

    name: str
    argv: tuple[str, ...]
    out: Path
    source: Spec | SquaredData


def cli_requests(seed: int, workdir: Path) -> list[Request]:
    """The fixed request mix, with spec and data files written to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, spec in (("motivating", MOTIVATING), ("three_group", THREE_GROUP), ("planar", PLANAR)):
        files[name] = workdir / f"{name}.json"
        files[name].write_text(json.dumps(spec.to_json(), indent=2, sort_keys=True) + "\n")
    data = squared_data(seed)
    files["data"] = workdir / "data.csv"
    write_squared_csv(data, files["data"])
    s = str(seed)

    def req(name: str, argv: list[str], ext: str, source) -> Request:
        out = workdir / f"{name}.{ext}"
        return Request(name, tuple(argv + ["--out", str(out)]), out, source)

    return [
        req("solve_motivating", ["solve", "--spec", str(files["motivating"]), "--methods", "ri,mmr", "--seed", s], "json", MOTIVATING),
        req("solve_three_group", ["solve", "--spec", str(files["three_group"]), "--seed", s], "json", THREE_GROUP),
        req("compare_planar", ["compare", "--spec", str(files["planar"]), "--seed", s], "csv", PLANAR),
        req("compare_planar_oracle", ["compare", "--spec", str(files["planar"]), "--oracle-grid", "1e-3", "--seed", s], "csv", PLANAR),
        req("frontier_planar", ["frontier", "--spec", str(files["planar"])], "csv", PLANAR),
        req("solve_data", ["solve", "--data", str(files["data"]), "--seed", s], "json", data),
    ]

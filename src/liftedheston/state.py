"""Shared path-state and simulation-output containers.

Both schemes advance the same batch state: log price, factor vector,
cached variance and running integrated variance, arrays over paths with
the factor dimension last.  A single path is just a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PathState",
    "PathSnapshot",
    "SimDiagnostics",
    "SimOutput",
    "mean_se",
    "variance_se_bootstrap",
]


@dataclass
class PathState:
    """Batch state of all paths at one grid time.

    ``v`` caches omega . u + g0(t) and is kept coherent by the schemes.
    ``x_cum`` accumulates integrated variance from t0, ``z_cum`` the
    variance-driver integral int sqrt(V) dW2 (exact for the projection
    scheme's surrogate, trapezoid-free by construction).
    """

    t: float
    log_s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    x_cum: np.ndarray
    z_cum: np.ndarray

    @classmethod
    def initial(cls, params, n_paths: int) -> "PathState":
        """All paths at t0: U = 0, V = v0, S = s0."""
        if n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        return cls(
            t=params.t0,
            log_s=np.full(n_paths, np.log(params.s0)),
            u=np.zeros((n_paths, params.n_states)),
            v=np.full(n_paths, float(params.v0)),
            x_cum=np.zeros(n_paths),
            z_cum=np.zeros(n_paths),
        )

    @property
    def n_paths(self) -> int:
        return self.log_s.shape[0]

    def copy(self) -> "PathState":
        return PathState(
            self.t,
            self.log_s.copy(),
            self.u.copy(),
            self.v.copy(),
            self.x_cum.copy(),
            self.z_cum.copy(),
        )


@dataclass(frozen=True)
class PathSnapshot:
    """Frozen copy of the batch state at a requested grid time."""

    t: float
    log_s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    x_cum: np.ndarray
    z_cum: np.ndarray


@dataclass
class SimDiagnostics:
    """Counters and extrema collected while stepping.

    ``min_variance`` tracks the variance cache across every step and
    path.  The projection fields stay at their neutral values for the
    Euler scheme; ``negative_variance_paths`` counts paths whose raw
    variance ever went negative (Euler only, the projection scheme
    cannot).  ``degenerate_mean_draws`` counts path-steps that took the
    deterministic limit step because the projected conditional mean came
    out nonpositive; nonzero counts only appear at very large steps.
    """

    scheme: str = ""
    n_paths: int = 0
    n_steps: int = 0
    min_variance: float = np.inf
    constrained_draws: int = 0
    total_draws: int = 0
    min_beta: float = np.inf
    max_beta_over_limit: float = -np.inf
    min_constraint_at_zero: float = np.inf
    clamped_variance_values: int = 0
    degenerate_mean_draws: int = 0
    negative_variance_paths: int = 0

    @property
    def constrained_fraction(self) -> float:
        return self.constrained_draws / self.total_draws if self.total_draws else 0.0


@dataclass
class SimOutput:
    """Terminal samples plus optional snapshots and per-step means."""

    times: np.ndarray
    s: np.ndarray
    v: np.ndarray
    x: np.ndarray
    z: np.ndarray
    diagnostics: SimDiagnostics
    snapshots: dict[float, PathSnapshot] = field(default_factory=dict)
    step_mean_v: np.ndarray | None = None
    step_mean_x: np.ndarray | None = None

    def summary(self) -> dict[str, float]:
        """Means and variances of the terminal samples with standard errors."""
        out: dict[str, float] = {"n_paths": float(self.s.shape[0])}
        for name, arr in (("s", self.s), ("v", self.v), ("x", self.x)):
            m, se = mean_se(arr)
            out[f"mean_{name}"] = m
            out[f"se_mean_{name}"] = se
        out["var_x"] = float(np.var(self.x, ddof=1))
        out["se_var_x"] = variance_se_bootstrap(self.x)
        return out


def mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2:
        return float(np.mean(samples)), float("inf")
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(n))


def variance_se_bootstrap(
    samples: np.ndarray, n_resamples: int = 100, seed: int = 603_217
) -> float:
    """Bootstrap standard error of the sample variance.

    Uses its own fixed-seed generator so repeated calls on the same data
    agree bit for bit.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2:
        return float("inf")
    gen = np.random.Generator(np.random.Philox(key=seed))
    stats = np.empty(n_resamples)
    for b in range(n_resamples):
        idx = gen.integers(0, n, size=n)
        stats[b] = np.var(samples[idx], ddof=1)
    return float(np.std(stats, ddof=1))

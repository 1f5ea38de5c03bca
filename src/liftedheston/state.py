"""Shared path state, simulation driver and output containers.

Both schemes advance the same batch state: log price, factor vector,
cached variance and running integrated variance, arrays over paths with
the factor dimension last.  A single path is just a batch of one.  They
differ only in how one step advances it, so one driver walks the grid
for both: it validates the inputs, restarts from a given state, copies
the state at snapshot times and assembles the output.

The step kernels walk the paths in blocks of ``_BLOCK`` rows so that
their (rows, N) work arrays stay in cache; ``_path_blocks`` cuts the
batch the same way for both schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import g0
from .sampling import RngStream

__all__ = [
    "PathState",
    "SimDiagnostics",
    "SimOutput",
    "mean_se",
    "variance_se_bootstrap",
]

# Paths per block in the step kernels.  A multiple of 4, so every row
# meets the same BLAS micro-kernel as in one call over the whole batch.
_BLOCK = 4096


def _path_blocks(n: int):
    """Row ranges ``(lo, hi)`` covering ``n`` paths in order.

    Blocks hold ``_BLOCK`` rows except the last, which takes the
    remainder as well, so no block is shorter than ``min(n, _BLOCK)``.
    A short block would change the bits: a one-row product goes through
    numpy's matrix-vector path instead of the matrix product.
    """
    starts = list(range(0, max(n - _BLOCK, 0) + 1, _BLOCK))
    return list(zip(starts, starts[1:] + [n]))


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


@dataclass
class SimDiagnostics:
    """Counters and extrema collected while stepping.

    ``min_variance`` tracks the variance cache across every step and
    path.  The projection fields stay at their neutral values for the
    Euler scheme; ``negative_variance_paths`` counts paths whose
    variance ever went negative (always 0 for the projection scheme,
    whose step clamps roundoff to zero).  ``degenerate_mean_draws`` counts path-steps that took the
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
    """Terminal samples plus copies of the state at snapshot times."""

    s: np.ndarray
    v: np.ndarray
    x: np.ndarray
    z: np.ndarray
    diagnostics: SimDiagnostics
    snapshots: dict[float, PathState] = field(default_factory=dict)

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


def _simulate(
    step, scheme: str, params, curve, grid, n_paths: int, seed, snapshot_times=(), initial=None
) -> SimOutput:
    """Advance all paths over the grid with ``step``; see ``simulate_clp``.

    ``step(state, t, t_next, stream, diagnostics)`` returns the state at
    ``t_next``.  The grid starts at t0, or at the time of ``initial``
    when restarting; snapshots are ``PathState`` copies, so one can be
    passed back as ``initial``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least two times")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    v_at_t0 = float(g0(params.t0, params, curve))
    if abs(v_at_t0 - params.v0) > 1e-10:
        raise ValueError(
            f"initial curve value {v_at_t0:.6g} at t0 does not match v0={params.v0:.6g}"
        )
    if initial is None:
        if abs(grid[0] - params.t0) > 1e-12:
            raise ValueError("grid must start at t0")
        state = PathState.initial(params, n_paths)
    else:
        if grid[0] < params.t0 - 1e-12:
            raise ValueError("grid must not start before t0")
        if abs(initial.t - grid[0]) > 1e-12:
            raise ValueError("initial state time must equal grid[0]")
        if initial.n_paths != n_paths:
            raise ValueError("initial state does not hold n_paths paths")
        state = initial.copy()
    snapshot_times = [float(t) for t in snapshot_times]
    for t_snap in snapshot_times:
        if not np.any(np.abs(grid - t_snap) <= 1e-12):
            raise ValueError(f"snapshot time {t_snap} is not a grid point")
    stream = seed if isinstance(seed, RngStream) else RngStream(int(seed))

    diagnostics = SimDiagnostics(scheme=scheme, n_paths=n_paths, n_steps=grid.size - 1)
    snapshots: dict[float, PathState] = {}
    ever_negative = np.zeros(n_paths, dtype=bool)
    for i in range(grid.size):
        if i > 0:
            state = step(state, float(grid[i - 1]), float(grid[i]), stream, diagnostics)
            ever_negative |= state.v < 0.0
        for t_snap in snapshot_times:
            if abs(grid[i] - t_snap) <= 1e-12:
                snapshots[t_snap] = state.copy()
    diagnostics.negative_variance_paths = int(np.count_nonzero(ever_negative))
    return SimOutput(
        s=np.exp(state.log_s),
        v=state.v,
        x=state.x_cum,
        z=state.z_cum,
        diagnostics=diagnostics,
        snapshots=snapshots,
    )


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

"""Shared path state, simulation driver and output containers.

Both schemes advance the same batch state: log price, factor vector,
cached variance and running integrated variance, arrays over paths with
the factor dimension last.  A single path is just a batch of one.  The
factors are row-major at t0, in every snapshot and in every state a run
restarts from, since ``PathState.copy`` returns them so; the projection
step keeps them row-major, and the Euler step writes them column-major
for its passes.  Neither step's bits depend on the layout it reads.  They
differ only in how one step advances it, so one driver walks the grid
for both: it validates the inputs, restarts from a given state, copies
the state at snapshot times and assembles the output.

Both step kernels advance their paths only through ``_run_blocks``,
which cuts the batch into blocks of a few thousand rows
(``_path_blocks``), so that the (rows, N) work arrays stay in cache, and
spreads them over one thread per usable CPU.  Each block writes every
output row of its paths and returns its diagnostics partial; the kernel
folds the partials in block order.  A step's random numbers are all
drawn before its blocks start: the driver wraps its stream in a
``_DrawAhead`` sized once from the grid's step count, a kernel passes
the stream it is given on to ``_run_blocks``, and the dispatch then
draws the next step's numbers on the calling thread while the current
step's blocks run, with the same calls in the same order.  Every row
goes through the same operations wherever its block runs, so the bits
do not depend on the number of CPUs.  A pool that runs every block while
the calling thread only draws, and row-major Euler factors, were both
measured slower; README gives the numbers.

The driver checks every step's state for non-finite values and raises
``FloatingPointError`` at the first, with numpy's floating-point
warnings silenced inside the step, so extreme model values end in one
error instead of warnings and inf/NaN output.

The standard errors (``mean_se``, ``variance_se``) are closed form: they
draw no random numbers and are infinite, without a warning, below two
samples.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .sampling import RngStream

__all__ = [
    "PathState",
    "SimDiagnostics",
    "SimOutput",
    "mean_se",
    "variance_se",
]

# Rows per block in the step kernels: at least _BLOCK, unless the batch
# is smaller, and fewer than 2 * _BLOCK.  Block starts are multiples of
# 4, so every row meets the same BLAS micro-kernel as in one call over
# the whole batch.
_BLOCK = 4096


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# Threads that share a step's blocks, the calling thread
# included; the pool holds the others and starts on first use.  A forked
# child has none of its parent's threads, so it starts its own pool.
_WORKERS = _usable_cpus()
_pool: ThreadPoolExecutor | None = None


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _path_blocks(n: int, workers: int):
    """Row ranges ``(lo, hi)`` covering ``n`` paths in order for ``workers`` threads.

    Blocks are up to twice ``_BLOCK`` rows long, so that each block's
    numpy calls outlast the threads' hand-offs of the interpreter
    lock.  The block count is the smallest that keeps every
    block shorter than ``2 * _BLOCK`` rows, raised to a multiple of
    ``workers`` when every block still holds ``_BLOCK`` rows, so that
    each thread gets as many blocks.  The rows are dealt out in groups
    of 4 as evenly as possible, the later blocks taking the spare groups
    and the last one also the ``n % 4`` rows left over.

    So every start is a multiple of 4, there is one block below
    ``2 * _BLOCK`` paths, the last block is the longest, and no block is
    shorter than ``min(n, _BLOCK)``.  A short block would change the
    bits: a one-row product goes through numpy's matrix-vector path
    instead of the matrix product.
    """
    quads, rest = divmod(n, 4)
    count = max(-(-quads // (_BLOCK // 2 - 1)), 1)
    balanced = -(-count // workers) * workers
    if balanced * _BLOCK <= 4 * quads:
        count = balanced
    size, extra = divmod(quads, count)
    bounds = [0]
    for i in range(count):
        bounds.append(bounds[-1] + 4 * (size + (i >= count - extra)))
    bounds[-1] += rest
    return list(zip(bounds, bounds[1:]))


def _run_blocks(n: int, body, stream=None) -> list:
    """``body(lo, hi)`` for each block of ``n`` paths; the results in block order.

    The blocks are cut for ``_WORKERS`` threads, and at most one thread
    per block runs them, the calling thread included, so with one CPU or
    one block no thread starts.  The threads claim the blocks in block
    order from one shared iterator, so a thread that is held up leaves
    its blocks to the others, and the pool's threads run in a copy of the
    caller's context, numpy's error state included.  When ``stream`` is
    the driver's ``_DrawAhead``, its ``ahead()`` runs once on the calling
    thread after the other threads have started and before it claims a
    block.

    A block's exception claims every block left, so no thread runs them.
    A claimed block always runs, and blocks are claimed in order, so every
    block before the failed one runs to its end, and once every thread
    has ended, the first exception in block order is raised: the one a
    serial loop over the blocks would meet.  An exception of ``ahead``
    also claims the rest, and is raised once the other threads have ended.
    """
    global _pool
    blocks = _path_blocks(n, _WORKERS)
    workers = min(_WORKERS, len(blocks))
    results = [None] * len(blocks)
    errors = [None] * len(blocks)
    claims = enumerate(blocks)  # next() on it is atomic under the interpreter lock

    def run():
        for i, (lo, hi) in claims:
            try:
                results[i] = body(lo, hi)
            except BaseException as exc:  # raised on the calling thread below
                errors[i] = exc
                for _ in claims:  # claims the rest, so that no thread runs them
                    pass

    futures = []
    if workers > 1:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="liftedheston")
        futures = [_pool.submit(contextvars.copy_context().run, run) for _ in range(workers - 1)]
    try:
        if isinstance(stream, _DrawAhead):
            stream.ahead()
        run()
    except BaseException:
        for _ in claims:
            pass
        raise
    finally:
        wait(futures)
    for future in futures:
        future.result()
    for error in errors:
        if error is not None:
            raise error
    return results


class _DrawAhead:
    """The run's stream, with each step's numbers drawn during the step before.

    A step draws through ``normal`` and ``uniform`` as from the
    ``RngStream``.  The arrays drawn ahead for it come back in call order,
    and with none drawn the call goes to the stream.  ``ahead()``, which
    ``_run_blocks`` calls once a step when a kernel passes it the stream,
    counts down the run's ``steps``; while a step is left it makes the
    current step's calls again, for the next step, and then it forgets
    them.  So the stream meets the calls, sizes and order it would meet
    without look-ahead, all on the calling thread, and none after the
    last step: a completed run leaves it where a run that draws each
    step's numbers in the step leaves it.
    """

    def __init__(self, stream: RngStream, steps: int):
        self._stream = stream
        self._steps = steps
        self._calls: list[tuple[str, object]] = []
        self._drawn: list[tuple[str, object, np.ndarray]] = []

    def _take(self, kind: str, size):
        self._calls.append((kind, size))
        if not self._drawn:
            return getattr(self._stream, kind)(size)
        drawn_kind, drawn_size, numbers = self._drawn.pop(0)
        if (drawn_kind, drawn_size) != (kind, size):
            raise RuntimeError(
                f"step drew {kind}({size}) where the step before drew {drawn_kind}({drawn_size})"
            )
        return numbers

    def normal(self, size=None):
        return self._take("normal", size)

    def uniform(self, size=None):
        return self._take("uniform", size)

    def ahead(self) -> None:
        self._steps -= 1
        if self._steps > 0:
            self._drawn = [(kind, size, getattr(self._stream, kind)(size))
                           for kind, size in self._calls]
        self._calls = []


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
        """A deep copy, with row-major factors."""
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
        out: dict[str, float] = {"n_paths": self.s.shape[0]}
        for name, arr in (("s", self.s), ("v", self.v), ("x", self.x)):
            out[f"mean_{name}"], out[f"se_mean_{name}"] = mean_se(arr)
        out["var_x"], out["se_var_x"] = variance_se(self.x)
        return out


def _simulate(step, params, grid, n_paths: int, seed, snapshot_times=(), initial=None) -> SimOutput:
    """Advance all paths over the grid with ``step``; see ``simulate_clp``.

    ``step(state, t, t_next, stream, diagnostics)`` returns the state at
    ``t_next``; ``stream`` is the run's stream behind a ``_DrawAhead``.
    The grid starts at t0, or at the time of ``initial`` when
    restarting; the run starts from a copy of ``initial``, with
    row-major factors whatever their layout there.  ``initial.u`` must be
    (n_paths, n_states) and its other arrays n_paths long.  Snapshots
    are ``PathState`` copies, so one can be passed back as ``initial``.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least two times")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if initial is None:
        if abs(grid[0] - params.t0) > 1e-12:
            raise ValueError("grid must start at t0")
        state = PathState.initial(params, n_paths)
    else:
        if grid[0] < params.t0 - 1e-12:
            raise ValueError("grid must not start before t0")
        if abs(initial.t - grid[0]) > 1e-12:
            raise ValueError("initial state time must equal grid[0]")
        for name in ("log_s", "u", "v", "x_cum", "z_cum"):
            want = (n_paths, params.n_states) if name == "u" else (n_paths,)
            shape = np.shape(getattr(initial, name))
            if shape != want:
                raise ValueError(f"initial.{name} has shape {shape}, not {want}")
        state = initial.copy()
    snapshot_times = [float(t) for t in snapshot_times]
    for t_snap in snapshot_times:
        if not np.any(np.abs(grid - t_snap) <= 1e-12):
            raise ValueError(f"snapshot time {t_snap} is not a grid point")
    draws = _DrawAhead(seed if isinstance(seed, RngStream) else RngStream(int(seed)), grid.size - 1)

    diagnostics = SimDiagnostics(n_paths=n_paths, n_steps=grid.size - 1)
    snapshots: dict[float, PathState] = {}
    ever_negative = np.zeros(n_paths, dtype=bool)
    for i in range(grid.size):
        if i > 0:
            with np.errstate(all="ignore"):
                state = step(state, float(grid[i - 1]), float(grid[i]), draws, diagnostics)
            _check_finite(state)
            ever_negative |= state.v < 0.0
        for t_snap in snapshot_times:
            if abs(grid[i] - t_snap) <= 1e-12:
                snapshots[t_snap] = state.copy()
    diagnostics.negative_variance_paths = int(np.count_nonzero(ever_negative))
    with np.errstate(over="ignore"):
        s = np.exp(state.log_s)
    if not np.all(np.isfinite(s)):
        raise FloatingPointError(f"price overflow at t={state.t:.6g}: model values too large")
    return SimOutput(
        s=s,
        v=state.v,
        x=state.x_cum,
        z=state.z_cum,
        diagnostics=diagnostics,
        snapshots=snapshots,
    )


def _check_finite(state: PathState) -> None:
    """Raise ``FloatingPointError`` if a path left the finite numbers.

    The factors are covered by the variance, which both steps compute
    as omega . u + g0: an infinite or NaN factor makes it non-finite
    (inf * 0 is NaN).
    """
    for name, what in (("log_s", "log price"), ("v", "variance"),
                       ("x_cum", "integrated variance"), ("z_cum", "driver integral")):
        if not np.all(np.isfinite(getattr(state, name))):
            raise FloatingPointError(
                f"non-finite {what} at t={state.t:.6g}: model values too large"
            )


def mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2:
        return float(np.mean(samples)), float("inf")
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(n))


def variance_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample variance s^2 (``ddof=1``) and its closed-form standard error.

    se^2 = (m4 - (n - 3) / (n - 1) * s^4) / n, m4 the fourth central
    moment, from numpy sums and no BLAS product, so the bits do not
    depend on the BLAS thread count.  NaN and inf below two samples.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2:
        return float("nan"), float("inf")
    var = float(np.var(samples, ddof=1))
    m4 = float(np.mean((samples - np.mean(samples)) ** 4))
    return var, float(np.sqrt((m4 - (n - 3) / (n - 1) * var**2) / n))

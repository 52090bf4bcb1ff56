"""Exact compound Poisson path simulation and Monte Carlo estimators.

Paths are piecewise constant: unit-rate exponential holding times, i.i.d.
jumps drawn from the jump kernel.  All path functionals are computed from
that structure exactly, so the module has no time-discretization error.
Functionals linear in the holding times take their conditional mean given
the path's states, and draw no holding time.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Integral
from typing import Optional

import numpy as np

from .errors import InvalidKernelError
from .green import CLFunction
from .kernels import JumpKernel

__all__ = [
    "McEstimate",
    "BinSpec",
    "OccupationHistogram",
    "mc_expectation",
    "mc_truncated_potential",
    "empirical_random_green_measure",
    "average_random_green_measure",
]


@dataclass
class McEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be >= 0")


class _Moments:
    """Replica count, mean and centred sum of squares per component.

    Chunks are reduced in two passes and merged by the update of Chan, Golub
    and LeVeque, so a constant sample has stderr 0 exactly.
    """

    n, mean, m2 = 0, 0.0, 0.0

    @classmethod
    def of(cls, rows: np.ndarray) -> "_Moments":
        part = cls()
        part.n, part.mean = rows.shape[0], rows.mean(axis=0)
        part.m2 = ((rows - part.mean) ** 2).sum(axis=0)
        return part

    def merge(self, other: "_Moments") -> None:
        delta, total = other.mean - self.mean, self.n + other.n
        self.m2 = self.m2 + other.m2 + delta**2 * (self.n * other.n / total)
        self.mean, self.n = self.mean + delta * (other.n / total), total

    def stderr(self):
        return np.sqrt(self.m2 / ((self.n - 1) * self.n)) if self.n > 1 else 0.0 * self.m2


def _mc_reduce(chunks: list, plan: dict, seed: int, **extra) -> McEstimate:
    """Estimate from per-chunk sample arrays, with the chunk plan in extra."""
    acc = _Moments.of(np.concatenate(chunks))
    return McEstimate(float(acc.mean), float(acc.stderr()), acc.n, seed, {**extra, **plan})


# float64 elements a chunk may hold (see _map_chunks); fixed, so no seeded result
# depends on the thread count.  Row ops run across a chunk's paths, so wider chunks
# pay less per-op overhead; 2^19 gained a little more speed but 6% more peak RSS.
_CHUNK_ELEMENTS = 1 << 18

# worker threads for path chunks, created on first use: numpy's generators,
# ufuncs and cumsum release the interpreter lock
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            _POOL = ThreadPoolExecutor(cores or 1, thread_name_prefix="greenwalk-paths")
        return _POOL


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads, so
    # work submitted to it would never run
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass
class _PathChunk:
    """Paths by increasing jump count, axis-major: after j jumps path p is at states[:, j, p].

    Rows past a path's count repeat its last state.  rng is the chunk's own stream, for
    consumers that draw more per row; durations draws from it on its first read.
    """

    states: np.ndarray  # (d, rows, n_paths)
    counts: np.ndarray  # (n_paths,), sorted
    h: float
    rng: np.random.Generator
    _durations: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def n_paths(self) -> int:
        return self.counts.size

    def points(self) -> np.ndarray:
        """The states as a (rows * n_paths, d) view, row by row; each coordinate is contiguous."""
        return self.states.reshape(self.states.shape[0], -1).T

    def live(self) -> np.ndarray:
        """(rows, n_paths) mask of each path's N + 1 states."""
        return np.arange(self.states.shape[1])[:, None] <= self.counts

    def mean_durations(self) -> np.ndarray:
        """E[durations | states]: h / (N + 1) on each of a path's N + 1 rows, then 0."""
        return np.where(self.live(), self.h / (self.counts + 1), 0.0)

    @property
    def durations(self) -> np.ndarray:
        """Holding times, 0 past a path's count: given N jumps h Dirichlet(1..1), Exp(1) normalised per column."""
        if self._durations is None:  # not functools.cached_property: before Python 3.12 one lock serves every chunk
            e = self._durations = np.zeros(self.states.shape[1:])
            _by_row(self.rng.standard_exponential(int(self.counts.sum()) + self.n_paths), self.counts + 1, e)
            e *= self.h / e.sum(axis=0)
        return self._durations


def _by_row(values, counts, out) -> np.ndarray:
    """Lay values (..., m) row by row into the zeroed out (..., rows, n): row j gets one per path with count > j."""
    k, m = counts[0], counts[0] * counts.size  # the rows every path reaches are one block, as counts are sorted
    out[..., :k, :] = values[..., :m].reshape(out[..., :k, :].shape)
    out[..., k:, :][..., np.arange(k, counts[-1])[:, None] < counts] = values[..., m:]
    return out


def _finite(ends: np.ndarray) -> np.ndarray:
    if not np.isfinite(ends).all():  # a non-finite jump leaves its path's end non-finite
        raise InvalidKernelError("the jump sampler returned a non-finite jump")
    return ends


def _build_chunk(kernel: JumpKernel, x: np.ndarray, h: float, counts, rng) -> _PathChunk:
    """Paths on [0, h] with the given sorted jump counts, drawn from rng, one column each.

    The jumps are one kernel.sampler call, laid out by _by_row; one cumsum along axis 1
    makes each state the exact partial sum of x and its own path's jumps.
    """
    states = np.zeros((x.size, counts[-1] + 1, counts.size))
    states[:, 0] = x[:, None]
    _by_row(kernel.sampler(rng, int(counts.sum())).T, counts, states[:, 1:])
    _finite(np.cumsum(states, axis=1, out=states)[:, -1])
    return _PathChunk(states, counts, h, rng)


def _map_chunks(kernel: JumpKernel, counts, d: int, row_width: int, rng, task, padded: bool = True):
    """task(counts, stream) per chunk of the sorted jump counts, and the chunk plan.

    A chunk of m paths whose largest count is N holds (N + 1) m (d + 2) +
    m row_width float64 elements: at most _CHUNK_ELEMENTS, unless it holds a single path.
    Chunk i draws from SFC64(rng.bit_generator.seed_seq.spawn(n_chunks)[i]) on the worker
    pool, so results do not depend on the number of threads.  The plan records chunks,
    paths, jumps and padded_share (padded rows / rows, 0 for a task that pads none).
    """
    if kernel.sampler is None:
        raise ValueError("kernel has no jump sampler")
    counts = np.sort(counts)
    bounds = [0]
    while bounds[-1] < counts.size:
        part = counts[bounds[-1]:bounds[-1] + _CHUNK_ELEMENTS // (d + 2) + 1]
        cost = np.arange(1, part.size + 1) * ((part + 1) * (d + 2) + row_width)
        bounds.append(bounds[-1] + max(int(np.searchsorted(cost, _CHUNK_ELEMENTS, side="right")), 1))
    parts = [counts[a:b] for a, b in zip(bounds, bounds[1:])]
    streams = [np.random.Generator(np.random.SFC64(s)) for s in rng.bit_generator.seed_seq.spawn(len(parts))]
    jumps = int(counts.sum())
    rows = sum(int(p[-1] + 1) * p.size for p in parts) if padded else jumps + counts.size
    return list(_pool().map(task, parts, streams)), dict(
        chunks=len(parts), paths=counts.size, jumps=jumps, padded_share=1.0 - (jumps + counts.size) / rows)


def _map_paths(kernel: JumpKernel, x, h: float, n: int, rng, consume, row_width: int = 0):
    """(consume(chunk) per chunk, the chunk plan) for n exact compound Poisson paths on [0, h].

    The counts N ~ Poisson(h) are one draw from rng, then sorted: paths of
    one horizon are exchangeable, so the order does not change the law, and
    a chunk of nearly equal counts pads almost no rows.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x = {x} must be finite")
    return _map_chunks(
        kernel, rng.poisson(h, n), x.size, row_width, rng,
        lambda counts, stream: consume(_build_chunk(kernel, x, h, counts, stream)),
    )


def mc_expectation(
    kernel: JumpKernel, f: CLFunction, x, t: float, n: int, seed: int
) -> McEstimate:
    """Sample mean of f(X(t)) over n independent paths."""
    if not 0 <= t < np.inf:
        raise ValueError("t must be finite and >= 0")
    if not (isinstance(n, Integral) and n >= 2):
        raise ValueError("need an integer n >= 2 samples")
    rng = np.random.default_rng(seed)
    return _mc_end_values(kernel, f, x, np.full(n, float(t)), rng, seed)


def _mc_end_values(kernel: JumpKernel, f: CLFunction, x, horizons, rng, seed: int, **extra) -> McEstimate:
    """Mean of f(X(h)) over one path per horizon h: x plus its N ~ Poisson(h) jumps.

    No holding time is drawn and no row is padded: np.add.reduceat sums each
    path's own jumps.  extra and the chunk plan go to McEstimate.extra; when
    every horizon is 0 the estimate is f(x) exactly, with no chunk plan.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x = {x} must be finite")
    if not np.any(horizons):
        return McEstimate(f.value_at(x), 0.0, horizons.size, seed, extra)

    def ends(counts, stream):
        out, moved = np.tile(x, (counts.size, 1)), np.searchsorted(counts, 1)  # zero-count paths lead and stay at x
        out[moved:] += np.add.reduceat(kernel.sampler(stream, int(counts.sum())), (np.cumsum(counts) - counts)[moved:])
        return f.values_at(_finite(out))

    return _mc_reduce(*_map_chunks(kernel, rng.poisson(horizons), x.size, 0, rng, ends, padded=False), seed, **extra)


def mc_truncated_potential(
    kernel: JumpKernel, f: CLFunction, x, T: float, n: int, seed: int
) -> McEstimate:
    """Mean/stderr of int_0^T f(X(t)) dt over n paths, each the conditional mean given the path's states.

    Given N jumps each holding time has mean T / (N + 1), independent of the jumps, so
    states Y_0 = x, ..., Y_N give T / (N + 1) sum_j f(Y_j): same mean, less variance.
    """
    if not 0 < T < np.inf:
        raise ValueError("T must be finite and positive")
    if not (isinstance(n, Integral) and n >= 2):
        raise ValueError("need an integer n >= 2 samples")
    rng = np.random.default_rng(seed)

    def consume(c):
        values = f.values_at(c.points()).reshape(c.states.shape[1:])
        return c.h / (c.counts + 1) * np.sum(values, axis=0, where=c.live())

    return _mc_reduce(*_map_paths(kernel, x, float(T), n, rng, consume), seed)


# ---------------------------------------------------------------------------
# occupation histograms (empirical random Green measures)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinSpec:
    """Rectangular binning of the box [lo, hi]^d with shape bins per axis."""

    lo: tuple
    hi: tuple
    shape: tuple

    @classmethod
    def cube(cls, half_width: float, bins_per_axis: int, dim: int) -> "BinSpec":
        return cls((-half_width,) * dim, (half_width,) * dim, (bins_per_axis,) * dim)

    @property
    def dim(self) -> int:
        return len(self.shape)

    def edges(self) -> list[np.ndarray]:
        return [
            np.linspace(self.lo[i], self.hi[i], self.shape[i] + 1) for i in range(self.dim)
        ]

    def centers(self) -> list[np.ndarray]:
        return [0.5 * (e[1:] + e[:-1]) for e in self.edges()]

    def volume_per_bin(self) -> float:
        widths = [(self.hi[i] - self.lo[i]) / self.shape[i] for i in range(self.dim)]
        return float(np.prod(widths))

    def flat_index(self, points: np.ndarray):
        """Raveled bin index per point; -1 for points outside the box, however far (or NaN).

        The bin coordinate floor((p - lo) / w) is range-tested and clipped in
        float before the cast to int64, so a point beyond about 9.2e18 w is
        outside rather than an undefined cast; one float buffer per axis is
        reused in place.
        """
        points = np.atleast_2d(points)
        idx = np.zeros(points.shape[0], dtype=np.int64)
        inside = np.ones(points.shape[0], dtype=bool)
        for lo, hi, n, coord in zip(self.lo, self.hi, self.shape, points.T):
            j = np.subtract(coord, lo)
            j /= (hi - lo) / n
            np.floor(j, out=j)
            inside &= j >= 0
            inside &= j < n
            np.fmin(np.fmax(j, 0, out=j), n - 1, out=j)  # fmax takes NaN to 0
            idx *= n
            idx += j.astype(np.int64)
        idx[~inside] = -1
        return idx


@dataclass
class OccupationHistogram:
    """Occupation time per bin plus the mass that escaped the binned box."""

    bins: BinSpec
    masses: np.ndarray
    escaped: float
    horizon: float

    def total_mass(self) -> float:
        return float(self.masses.sum() + self.escaped)


def _mc_occupation(kernel: JumpKernel, x, h: float, bins: BinSpec, n: int, rng, weights, horizon: float):
    """(mean histogram, per-bin standard error) of the occupation of n paths on [0, h].

    weights(chunk) gives (deposit, escaped): each state's deposit, laid out as the
    chunk's durations, and each path's mass that escaped after h.  A path's row
    holds its deposit per bin and, last, its deposit outside the box plus its
    escaped mass; the rows of a chunk are reduced to _Moments and merged.
    """
    n_cols = int(np.prod(bins.shape)) + 1

    def consume(c):
        deposit, escaped = weights(c)
        idx = bins.flat_index(c.points()).reshape(-1, c.n_paths)
        idx[idx < 0] = n_cols - 1
        idx += np.arange(c.n_paths) * n_cols
        rows = np.bincount(idx.ravel(), deposit.ravel(), minlength=c.n_paths * n_cols).reshape(c.n_paths, n_cols)
        rows[:, -1] += escaped
        return _Moments.of(rows)

    acc = _Moments()
    for part in _map_paths(kernel, x, h, n, rng, consume, n_cols - 1)[0]:
        acc.merge(part)
    mean, stderr = acc.mean[:-1].reshape(bins.shape), acc.stderr()[:-1].reshape(bins.shape)
    return OccupationHistogram(bins, mean, float(acc.mean[-1]), horizon), stderr


def _start_in_box(bins: BinSpec, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < np.asarray(bins.lo)) or np.any(x >= np.asarray(bins.hi)):
        raise ValueError("start point outside the binned box")
    return x


def empirical_random_green_measure(
    kernel: JumpKernel, x, T: float, bins: BinSpec, rng
) -> OccupationHistogram:
    """Occupation measure of a single path: durations deposited per bin."""
    if not 0 < T < np.inf:
        raise ValueError("T must be finite and positive")
    return _mc_occupation(kernel, _start_in_box(bins, x), float(T), bins, 1, rng, lambda c: (c.durations, 0.0), T)[0]


def average_random_green_measure(
    kernel: JumpKernel, x, T: float, bins: BinSpec, n: int, seed: int
):
    """Mean and standard error per bin over n >= 2 path histograms, each the conditional mean given its states.

    A path deposits T / (N + 1) at each of its N + 1 states and draws no holding time.
    """
    if not 0 < T < np.inf:
        raise ValueError("T must be finite and positive")
    if not (isinstance(n, Integral) and n >= 2):
        raise ValueError("need an integer n >= 2 samples")
    x = _start_in_box(bins, x)
    rng = np.random.default_rng(seed)
    return _mc_occupation(kernel, x, float(T), bins, n, rng, lambda c: (c.mean_durations(), 0.0), T)

"""Exact compound Poisson path simulation and Monte Carlo estimators.

Paths are piecewise constant: unit-rate exponential holding times, i.i.d.
jumps drawn from the jump kernel.  All path functionals are computed from
that structure exactly, so the module has no time-discretization error.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

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


def _mc_reduce(chunks: list, jumps: int, seed: int, **extra) -> McEstimate:
    """Estimate from per-chunk sample arrays, with the chunk plan in extra."""
    acc = _Moments.of(np.concatenate(chunks))
    extra.update(chunks=len(chunks), jumps=jumps)
    return McEstimate(float(acc.mean), float(acc.stderr()), acc.n, seed, extra)


# float64 elements one chunk of paths may hold: interval states, durations
# and path indices, plus one consumer row (e.g. histogram bins) per path.
# Fixed, so the chunk layout (and with it every seeded result) never
# depends on the number of worker threads.  At 2^17 a chunk's arrays stay
# near 1 MB each: they fit in a core's L2 cache, and the freed memory each
# worker thread's malloc arena keeps after a call stays small.
_CHUNK_ELEMENTS = 1 << 17

# worker threads for path chunks, created on first use: numpy's generators,
# ufuncs, cumsum and take release the interpreter lock
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
    """Whole paths laid out interval by interval.

    Interval i of the chunk belongs to path[i], holds states[i] for
    durations[i]; first[p] is the index of path p's first interval.  rng is
    the chunk's own random stream, for consumers that draw more per interval.
    """

    states: np.ndarray
    durations: np.ndarray
    path: np.ndarray
    first: np.ndarray
    rng: np.random.Generator

    @property
    def n_paths(self) -> int:
        return self.first.size


def _build_chunk(kernel: JumpKernel, x: np.ndarray, horizons, counts, rng) -> _PathChunk:
    """Paths with the given jump counts on [0, horizons[p]], drawn from rng.

    Given N jumps the N + 1 holding times are h Dirichlet(1..1), the spacings
    of sorted uniforms, drawn as Exp(1) normalised per path; the states are a
    segmented cumsum of one flat kernel.sampler call.
    """
    seg = counts + 1
    path = np.repeat(np.arange(seg.size), seg)
    first = np.cumsum(seg) - seg
    e = rng.standard_exponential(path.size)
    durations = np.repeat(horizons / np.add.reduceat(e, first), seg) * e
    jumps = kernel.sampler(rng, path.size - seg.size)
    cum = np.zeros((jumps.shape[0] + 1, x.size))
    np.cumsum(jumps, axis=0, out=cum[1:])
    # cum[k] sums the chunk's first k jumps and each path has one interval
    # more than jumps, so interval i of path p holds
    # x + cum[i - p] - cum[first[p] - p]
    states = np.take(cum, np.arange(path.size) - path, axis=0)
    states -= np.take(np.take(cum, first - np.arange(seg.size), axis=0), path, axis=0)
    states += x
    return _PathChunk(states, durations, path, first, rng)


def _map_paths(kernel: JumpKernel, x, horizons, rng, consume, row_width: int = 0):
    """consume(chunk) for exact compound Poisson paths on [0, horizons[p]].

    The jump counts N ~ Poisson(h) are one draw from rng, and they fix the
    chunk layout: a chunk holds at most _CHUNK_ELEMENTS, counting (d + 2)
    per interval and row_width per path, unless a single path is larger.
    Chunk i draws from rng.spawn(n_chunks)[i] and is built and consumed on
    the worker pool, so results do not depend on the number of threads.
    Returns (consume results in chunk order, total number of jumps).
    """
    if kernel.sampler is None:
        raise ValueError("kernel has no jump sampler")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    counts = rng.poisson(horizons)
    ends = np.cumsum((counts + 1) * (x.size + 2) + row_width)
    bounds = [0]
    while bounds[-1] < counts.size:
        start = bounds[-1]
        base = ends[start - 1] if start else 0
        bounds.append(max(int(np.searchsorted(ends, base + _CHUNK_ELEMENTS, side="right")), start + 1))
    streams = rng.spawn(len(bounds) - 1)

    def task(i):
        part = slice(bounds[i], bounds[i + 1])
        return consume(_build_chunk(kernel, x, horizons[part], counts[part], streams[i]))

    return list(_pool().map(task, range(len(streams)))), int(counts.sum())


def mc_expectation(
    kernel: JumpKernel, f: CLFunction, x, t: float, n: int, seed: int
) -> McEstimate:
    """Sample mean of f(X(t)) over n independent paths."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if t == 0:
        return McEstimate(f.value_at(x), 0.0, n, seed)
    rng = np.random.default_rng(seed)
    return _mc_reduce(*_end_values(kernel, f, x, np.full(n, float(t)), rng), seed)


def _end_values(kernel: JumpKernel, f: CLFunction, x, horizons, rng):
    """f at the end state of one path per horizon, per chunk; exact in law."""
    return _map_paths(
        kernel, x, horizons, rng,
        lambda c: f.values_at(c.states[np.append(c.first[1:], c.path.size) - 1]),
    )


def mc_truncated_potential(
    kernel: JumpKernel, f: CLFunction, x, T: float, n: int, seed: int
) -> McEstimate:
    """Mean/stderr of int_0^T f(X(t)) dt over n paths (exact per path)."""
    if T <= 0:
        raise ValueError("T must be positive")
    if n < 2:
        raise ValueError("need n >= 2 samples")
    rng = np.random.default_rng(seed)
    return _mc_reduce(*_map_paths(
        kernel, x, np.full(n, float(T)), rng,
        lambda c: np.bincount(c.path, weights=f.values_at(c.states) * c.durations, minlength=c.n_paths),
    ), seed)


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
        """Raveled bin index per point; -1 for points outside the box."""
        points = np.atleast_2d(points)
        idx = np.zeros(points.shape[0], dtype=np.int64)
        outside = np.zeros(points.shape[0], dtype=bool)
        for ax in range(self.dim):
            w = (self.hi[ax] - self.lo[ax]) / self.shape[ax]
            j = np.floor((points[:, ax] - self.lo[ax]) / w).astype(np.int64)
            outside |= (j < 0) | (j >= self.shape[ax])
            idx = idx * self.shape[ax] + np.clip(j, 0, self.shape[ax] - 1)
        idx[outside] = -1
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

    def integrate(self, bin_values: np.ndarray) -> float:
        """Integral of a bin-constant function against the histogram."""
        return float(np.sum(self.masses * bin_values))


def _deposit(bins: BinSpec, chunk: _PathChunk, weights: np.ndarray) -> np.ndarray:
    """Per-path bin masses, (n_paths, n_bins + 1); the last column is the mass outside."""
    n_cols = int(np.prod(bins.shape)) + 1
    idx = bins.flat_index(chunk.states)
    idx[idx < 0] = n_cols - 1
    flat = np.bincount(chunk.path * n_cols + idx, weights, minlength=chunk.n_paths * n_cols)
    return flat.reshape(chunk.n_paths, n_cols)


def _histogram(bins: BinSpec, parts: list, horizon: float):
    """(mean histogram, per-bin standard error) from per-chunk _Moments of rows laid out as by _deposit."""
    acc = _Moments()
    for part in parts:
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
    (row,), _ = _map_paths(
        kernel, _start_in_box(bins, x), np.array([float(T)]), rng,
        lambda c: _deposit(bins, c, c.durations)[0], int(np.prod(bins.shape)),
    )
    return OccupationHistogram(bins, row[:-1].reshape(bins.shape), float(row[-1]), T)


def average_random_green_measure(
    kernel: JumpKernel, x, T: float, bins: BinSpec, n: int, seed: int
):
    """Mean and standard error per bin over n >= 2 single-path histograms."""
    if T <= 0:
        raise ValueError("T must be positive")
    if n < 2:
        raise ValueError("need n >= 2 samples")
    x = _start_in_box(bins, x)
    rng = np.random.default_rng(seed)
    parts, _ = _map_paths(
        kernel, x, np.full(n, float(T)), rng,
        lambda c: _Moments.of(_deposit(bins, c, c.durations)), int(np.prod(bins.shape)),
    )
    return _histogram(bins, parts, T)

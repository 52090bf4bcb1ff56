"""Jump kernels: densities, Fourier transforms, tail fits and convolution powers.

A jump kernel is a symmetric probability density a on R^d.  Its Fourier
transform satisfies a_hat(0) = 1, |a_hat| <= 1 and a_hat -> 0 at infinity.
Heavy tails are quantified by the small-frequency expansion
a_hat(k) = 1 - A |k|^alpha + o(|k|^alpha) with A > 0 and 0 < alpha <= 2.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AliasingError, InvalidKernelError
from .grids import FieldGrid, GridSpec, field_from_function

ALIASING_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)  # identity hash: the spectral cache keys on the object
class JumpKernel:
    """Symmetric probability density with an evaluable Fourier transform.

    density maps points (m, d) -> (m,), fourier maps radial frequencies to
    a_hat values (accepts arrays).  tail_params is (A, alpha) when known
    analytically, else None.  sampler(rng, size) draws i.i.d. jumps (size, d);
    it must draw only from rng, and it may be called from worker threads
    (the path engine samples several chunks at once, each with its own rng).
    """

    dim: int
    density: Callable[[np.ndarray], np.ndarray]
    fourier: Callable[[np.ndarray], np.ndarray]
    tail_params: Optional[tuple[float, float]]
    sampler: Optional[Callable] = None
    name: str = "custom"

    def fourier_radial(self, k_radius):
        """a_hat at |k| = k_radius (all built-in kernels are radial)."""
        return self.fourier(np.asarray(k_radius, dtype=float))


def make_gaussian_kernel(d: int) -> JumpKernel:
    """Gaussian kernel a(x) = (4 pi)^{-d/2} e^{-|x|^2/4}, a_hat(k) = e^{-|k|^2}.

    The prefactor makes a a probability density (a_hat(0) = 1); jumps are
    N(0, 2 I_d).
    """
    if d < 1:
        raise InvalidKernelError(f"dimension must be >= 1, got {d}")
    norm = (4.0 * np.pi) ** (-d / 2.0)

    def density(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r2 = np.einsum("...i,...i->...", x, x)
        return norm * np.exp(-r2 / 4.0)

    def fourier(k):
        k = np.asarray(k, dtype=float)
        return np.exp(-(k**2))

    def sampler(rng, size):
        return rng.normal(0.0, np.sqrt(2.0), size=(size, d))

    return JumpKernel(d, density, fourier, (1.0, 2.0), sampler, name=f"gaussian{d}d")


def make_cauchy_kernel() -> JumpKernel:
    """Cauchy kernel a(x) = 1/(pi (1 + x^2)) on R, a_hat(k) = e^{-|k|}.

    The 1/pi factor makes a a probability density.  No second moment;
    tail parameters A = alpha = 1.
    """

    def density(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(np.atleast_2d(x) ** 2, axis=-1)
        return 1.0 / (np.pi * (1.0 + r2))

    def fourier(k):
        k = np.asarray(k, dtype=float)
        return np.exp(-np.abs(k))

    def sampler(rng, size):
        return rng.standard_cauchy(size=(size, 1))

    return JumpKernel(1, density, fourier, (1.0, 1.0), sampler, name="cauchy1d")


def _table_fourier_radial(samples: FieldGrid):
    """Trapezoidal cosine transform of a grid table, evaluated radially.

    Valid for symmetric tables; uses the first coordinate axis as the
    radial direction for d > 1.
    """
    g = samples.grid
    pts = np.stack([c.ravel() for c in g.meshgrid()], axis=-1)
    vals = samples.values.ravel()
    vol = g.cell_volume

    def fourier(k):
        k = np.atleast_1d(np.asarray(k, dtype=float))
        out = np.array([np.sum(np.cos(kk * pts[:, 0]) * vals) * vol for kk in k])
        return out if out.size > 1 else out[0]

    return fourier


def make_tabulated_kernel(samples: FieldGrid) -> JumpKernel:
    """Kernel from a nonnegative, even grid table, renormalized to unit mass.

    The density evaluator is multilinear interpolation of the renormalized
    table (zero outside the box); the Fourier evaluator is the discrete
    cosine transform of the table.  tail_params is absent: callers must fit
    alpha explicitly before Green-measure existence checks.
    """
    g = samples.grid
    vals = samples.values
    if np.any(vals < 0):
        raise InvalidKernelError("tabulated kernel has a negative sample")
    # even symmetry on the periodic grid: index i -> -i mod N per axis
    flipped = vals[tuple(np.ix_(*[(-np.arange(g.points_per_axis)) % g.points_per_axis] * g.dim))]
    scale = max(float(np.max(np.abs(vals))), np.finfo(float).tiny)
    if np.max(np.abs(vals - flipped)) > 1e-9 * scale:
        raise InvalidKernelError("tabulated kernel is asymmetric beyond 1e-9")
    mass = vals.sum() * g.cell_volume
    if mass <= 0:
        raise InvalidKernelError("tabulated kernel has zero total mass")
    table = FieldGrid(g, vals / mass)

    def density(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        inside = np.all(np.abs(x) < g.half_width - g.spacing, axis=1)
        return np.where(inside, table.values_at(x), 0.0)

    # alias sampler over grid cells plus uniform jitter within a cell
    probs = (table.values / table.values.sum()).ravel()
    centers = np.stack([c.ravel() for c in g.meshgrid()], axis=-1)

    def sampler(rng, size):
        cells = rng.choice(probs.size, size=size, p=probs)
        jitter = rng.uniform(-0.5, 0.5, size=(size, g.dim)) * g.spacing
        return centers[cells] + jitter

    return JumpKernel(
        g.dim, density, _table_fourier_radial(table), None, sampler, name="tabulated"
    )


def fit_small_k_expansion(
    kernel: JumpKernel,
    k_min: float = 1e-3,
    k_max: float = 1e-2,
    n_probe: int = 64,
) -> tuple[float, float, float]:
    """Least-squares fit of 1 - a_hat(k) ~ A |k|^alpha on log-spaced probes.

    Returns (A, alpha, max relative residual of the fit in log space).
    """
    if not (0 < k_min < k_max):
        raise ValueError("need 0 < k_min < k_max")
    ks = np.geomspace(k_min, k_max, n_probe)
    drop = 1.0 - np.asarray(kernel.fourier_radial(ks), dtype=float)
    if np.any(drop <= 0):
        raise InvalidKernelError("1 - a_hat(k) <= 0 at a probe; fit window unusable")
    logk, logd = np.log(ks), np.log(drop)
    alpha, logA = np.polyfit(logk, logd, 1)
    resid = logd - (alpha * logk + logA)
    return float(np.exp(logA)), float(alpha), float(np.max(np.abs(resid)))


def sample_density(kernel: JumpKernel, grid: GridSpec) -> FieldGrid:
    if kernel.dim != grid.dim:
        raise InvalidKernelError(
            f"kernel dimension {kernel.dim} does not match grid dimension {grid.dim}"
        )
    return field_from_function(grid, kernel.density)


def check_aliasing(kernel: JumpKernel, grid: GridSpec, threshold: float = ALIASING_THRESHOLD):
    """Raise AliasingError unless the density is below threshold at the boundary."""
    samples = sample_density(kernel, grid)
    worst = 0.0
    for ax in range(grid.dim):
        face = np.take(samples.values, 0, axis=ax)
        worst = max(worst, float(np.max(face)))
    if worst > threshold:
        raise AliasingError(
            f"kernel density {worst:.3e} at the box boundary exceeds {threshold:.1e}"
        )
    return samples


_SPECTRAL_CACHE: "weakref.WeakKeyDictionary[JumpKernel, dict]" = weakref.WeakKeyDictionary()


def spectral_density(kernel: JumpKernel, grid: GridSpec) -> np.ndarray:
    """Discrete Fourier transform of the sampled density (approximates a_hat).

    Returned in numpy fftn frequency layout; real for symmetric kernels.
    Sampled and alias-checked once per (kernel, grid) while the kernel lives:
    later calls return the same read-only array; AliasingError is never cached.
    """
    by_grid = _SPECTRAL_CACHE.setdefault(kernel, {})
    if grid not in by_grid:
        shifted = np.fft.ifftshift(check_aliasing(kernel, grid).values)
        by_grid[grid] = np.real(np.fft.fftn(shifted)) * grid.cell_volume
        by_grid[grid].flags.writeable = False
    return by_grid[grid]


def convolve_power(kernel: JumpKernel, n: int, grid: GridSpec) -> FieldGrid:
    """n-fold self-convolution a^{*n} sampled on the grid, via FFT."""
    if n < 1:
        raise ValueError("n must be >= 1 (the 0-fold convolution is a delta)")
    if n == 1:
        return sample_density(kernel, grid)
    a_hat = spectral_density(kernel, grid)
    out = np.fft.ifftn(a_hat**n).real / grid.cell_volume
    return FieldGrid(grid, np.fft.fftshift(out))


@dataclass
class KernelReport:
    """Validation metrics for a jump kernel on a grid."""

    symmetric: bool
    nonnegative: bool
    normalized: bool
    fourier_bounded: bool
    fourier_decays: bool
    symmetry_error: float
    min_density: float
    mass: float
    max_abs_fourier_away_from_zero: float
    fourier_at_cutoff: float

    @property
    def passed(self) -> bool:
        return (
            self.symmetric
            and self.nonnegative
            and self.normalized
            and self.fourier_bounded
            and self.fourier_decays
        )


def validate_kernel(kernel: JumpKernel, grid: GridSpec, decay_cutoff: float = 50.0) -> KernelReport:
    """Check symmetry, positivity, normalization and Fourier bounds on the grid."""
    samples = sample_density(kernel, grid)
    vals = samples.values
    flipped = vals[
        tuple(np.ix_(*[(-np.arange(grid.points_per_axis)) % grid.points_per_axis] * grid.dim))
    ]
    sym_err = float(np.max(np.abs(vals - flipped)))
    mass = samples.integral()
    ks = np.geomspace(1e-3, decay_cutoff, 256)
    a_hat = np.asarray(kernel.fourier_radial(ks), dtype=float)
    at_zero = float(np.asarray(kernel.fourier_radial(np.array([0.0]))).ravel()[0])
    return KernelReport(
        symmetric=sym_err <= 1e-12 * max(float(vals.max()), 1.0),
        nonnegative=bool(np.all(vals >= 0)),
        normalized=abs(at_zero - 1.0) <= 1e-9,
        fourier_bounded=bool(np.all(np.abs(a_hat) <= 1.0 + 1e-12)),
        fourier_decays=abs(a_hat[-1]) < 1e-6,
        symmetry_error=sym_err,
        min_density=float(vals.min()),
        mass=mass,
        max_abs_fourier_away_from_zero=float(np.max(np.abs(a_hat))),
        fourier_at_cutoff=float(a_hat[-1]),
    )

"""Jump kernels: densities, Fourier transforms, tail fits and grid validation.

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

from .errors import AliasingError, InvalidKernelError, _require, _require_count
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
    symbol_gap, when set, maps |k| to 1 - a_hat free of cancellation, e.g. -expm1(-k^2).
    """

    dim: int
    density: Callable[[np.ndarray], np.ndarray]
    fourier: Callable[[np.ndarray], np.ndarray]
    tail_params: Optional[tuple[float, float]]
    sampler: Optional[Callable] = None
    name: str = "custom"
    symbol_gap: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _stable_kernel(alpha: float, dim: int, density, sampler, name: str) -> JumpKernel:
    """Rotationally symmetric alpha-stable kernel: a_hat(k) = e^{-|k|^alpha}, tail (A, alpha) = (1, alpha)."""

    def power(k):
        with np.errstate(over="ignore"):  # |k|^alpha overflows far out, where a_hat is 0 and the gap 1
            return np.abs(np.asarray(k, dtype=float)) ** alpha

    return JumpKernel(dim, density, lambda k: np.exp(-power(k)), (1.0, alpha), sampler, name,
                      lambda k: -np.expm1(-power(k)))


def make_gaussian_kernel(d: int) -> JumpKernel:
    """Gaussian kernel a(x) = (4 pi)^{-d/2} e^{-|x|^2/4}, a_hat(k) = e^{-|k|^2}: stable, alpha = 2.

    The prefactor makes a a probability density (a_hat(0) = 1); jumps are
    N(0, 2 I_d).
    """
    _require_count(d, "d", 1)
    norm = (4.0 * np.pi) ** (-d / 2.0)

    def density(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r2 = np.einsum("...i,...i->...", x, x)
        r2 *= -0.25
        return np.multiply(np.exp(r2, out=r2), norm, out=r2)

    def sampler(rng, size):
        return np.multiply(jumps := rng.standard_normal((size, d)), np.sqrt(2.0), out=jumps)

    return _stable_kernel(2.0, d, density, sampler, f"gaussian{d}d")


def make_cauchy_kernel() -> JumpKernel:
    """Cauchy kernel a(x) = 1/(pi (1 + x^2)) on R, a_hat(k) = e^{-|k|}: stable, alpha = 1.

    The 1/pi factor makes a a probability density.  No second moment;
    tail parameters A = alpha = 1.
    """

    def density(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(np.atleast_2d(x) ** 2, axis=-1)
        return 1.0 / (np.pi * (1.0 + r2))

    def sampler(rng, size):
        return rng.standard_cauchy(size=(size, 1))

    return _stable_kernel(1.0, 1, density, sampler, "cauchy1d")


def _require_k_window(k_min: float, k_max: float) -> None:
    """fit_small_k_expansion's gate on its probe window."""
    _require(0 < k_min < k_max < np.inf, "k_min, k_max", "finite with 0 < k_min < k_max")


def fit_small_k_expansion(
    kernel: JumpKernel,
    k_min: float = 1e-3,
    k_max: float = 1e-2,
) -> tuple[float, float, float]:
    """Least-squares fit of 1 - a_hat(k) ~ A |k|^alpha on 64 log-spaced probes.

    Returns (A, alpha, max relative residual of the fit in log space).
    """
    _require_k_window(k_min, k_max)
    ks = np.geomspace(k_min, k_max, 64)
    drop = 1.0 - np.asarray(kernel.fourier(ks), dtype=float)
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


def check_aliasing(kernel: JumpKernel, grid: GridSpec):
    """Raise AliasingError unless the density is below ALIASING_THRESHOLD at the boundary."""
    samples = sample_density(kernel, grid)
    worst = 0.0
    for ax in range(grid.dim):
        face = np.take(samples.values, 0, axis=ax)
        worst = max(worst, float(np.max(face)))
    if worst > ALIASING_THRESHOLD:
        raise AliasingError(
            f"kernel density {worst:.3e} at the box boundary exceeds {ALIASING_THRESHOLD:.1e}"
        )
    return samples


_SPECTRAL_CACHE: "weakref.WeakKeyDictionary[JumpKernel, dict]" = weakref.WeakKeyDictionary()


def spectral_density(kernel: JumpKernel, grid: GridSpec) -> np.ndarray:
    """Discrete Fourier transform of the sampled density (approximates a_hat).

    Returned in the full numpy fftn frequency layout; real for symmetric kernels.  It stays
    a full fftn: callers compare it with a_hat on the full wavenumber mesh, its roundoff
    sets green._RateClasses' keys, and the half-layout FFTs read the view grids._half.
    Sampled and alias-checked once per (kernel, grid) while the kernel lives:
    later calls return the same read-only array; AliasingError is never cached.
    """
    by_grid = _SPECTRAL_CACHE.setdefault(kernel, {})
    if grid not in by_grid:
        shifted = np.fft.ifftshift(check_aliasing(kernel, grid).values)
        by_grid[grid] = np.real(np.fft.fftn(shifted)) * grid.cell_volume
        by_grid[grid].flags.writeable = False
    return by_grid[grid]


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


def validate_kernel(kernel: JumpKernel, grid: GridSpec) -> KernelReport:
    """Check symmetry, positivity, normalization and Fourier bounds on the grid.

    a_hat is probed at 256 radii from 1e-3 to 50 and must fall below 1e-6 at 50.
    """
    samples = sample_density(kernel, grid)
    vals = samples.values
    flipped = vals[
        tuple(np.ix_(*[(-np.arange(grid.points_per_axis)) % grid.points_per_axis] * grid.dim))
    ]
    sym_err = float(np.max(np.abs(vals - flipped)))
    mass = samples.integral()
    ks = np.geomspace(1e-3, 50.0, 256)
    a_hat = np.asarray(kernel.fourier(ks), dtype=float)
    at_zero = float(np.asarray(kernel.fourier(np.array([0.0]))).ravel()[0])
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

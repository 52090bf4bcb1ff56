"""Green kernels, resolvents, the jump generator and potentials.

The jump generator is Lf = a*f - f.  Its resolvent kernel splits into a
singular delta part with weight 1/(1+lambda) and a regular part

    G_lambda(x) = sum_{n>=1} a_n(x) / (1+lambda)^n,

where a_n is the n-fold convolution of the jump kernel.  At lambda = 0 the
series converges pointwise iff d > alpha; the same kernel has the Fourier
representation (2 pi)^{-d} int e^{i(k,x)} a_hat / (1 + lambda - a_hat) dk.
Potentials of integrable bounded functions are V(x,f) = f(x) + (G_0 * f)(x).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate, special

from .errors import (
    DivergentGreenMeasureError,
    MissingNormsError,
    TruncationError,
)
from .grids import FieldGrid, GridSpec, field_from_function, require_same_grid
from .kernels import JumpKernel, sample_density, spectral_density

# ---------------------------------------------------------------------------
# spectral helpers
# ---------------------------------------------------------------------------


def _to_spectral(field: FieldGrid) -> np.ndarray:
    """Continuous-FT approximation of a field (fftn layout)."""
    return np.fft.fftn(np.fft.ifftshift(field.values)) * field.grid.cell_volume


def _from_spectral(grid: GridSpec, spec_vals: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.ifftn(spec_vals).real) / grid.cell_volume


# ---------------------------------------------------------------------------
# CL(R^d) functions
# ---------------------------------------------------------------------------


@dataclass
class CLFunction:
    """Bounded continuous integrable function (member of CL(R^d)).

    Either an evaluator or grid samples must be present.  Declared norms
    take precedence over sample-based estimates in cl_norm.
    """

    evaluator: Optional[Callable] = None
    sup_norm: Optional[float] = None
    l1_norm: Optional[float] = None
    grid_samples: Optional[FieldGrid] = None
    name: str = "f"

    def value_at(self, x) -> float:
        if self.evaluator is not None:
            return float(np.asarray(self.evaluator(np.atleast_2d(np.asarray(x, float)))).ravel()[0])
        if self.grid_samples is not None:
            return self.grid_samples.value_at(x)
        raise MissingNormsError("CL function has neither evaluator nor samples")

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (m, d) array of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.evaluator is not None:
            return np.asarray(self.evaluator(points), dtype=float).ravel()
        if self.grid_samples is not None:
            return self.grid_samples.values_at(points)
        raise MissingNormsError("CL function has neither evaluator nor samples")

    def samples_on(self, grid: GridSpec) -> FieldGrid:
        if self.grid_samples is not None and self.grid_samples.grid == grid:
            return self.grid_samples
        if self.evaluator is None:
            raise MissingNormsError("cannot resample a table-only CL function")
        return field_from_function(grid, self.evaluator)


def cl_from_kernel(kernel: JumpKernel) -> CLFunction:
    """The jump density itself as a CL function (sup = a(0), L1 mass 1)."""
    a0 = float(np.asarray(kernel.density(np.zeros((1, kernel.dim)))).ravel()[0])
    return CLFunction(evaluator=kernel.density, sup_norm=a0, l1_norm=1.0, name="a")


def cl_from_grid(field: FieldGrid, name: str = "f") -> CLFunction:
    sup = float(np.max(np.abs(field.values)))
    l1 = float(np.sum(np.abs(field.values)) * field.grid.cell_volume)
    return CLFunction(grid_samples=field, sup_norm=sup, l1_norm=l1, name=name)


def cl_norm(f: CLFunction) -> float:
    """CL norm = sup norm + L1 norm."""
    if f.sup_norm is not None and f.l1_norm is not None:
        return float(f.sup_norm + f.l1_norm)
    if f.grid_samples is not None:
        g = f.grid_samples
        return float(np.max(np.abs(g.values)) + np.sum(np.abs(g.values)) * g.grid.cell_volume)
    raise MissingNormsError("CL function has no samples and no declared norms")


# ---------------------------------------------------------------------------
# generator and semigroup
# ---------------------------------------------------------------------------


def apply_generator(kernel: JumpKernel, f: FieldGrid) -> FieldGrid:
    """Lf = a*f - f via FFT convolution on the field's grid."""
    a_hat = spectral_density(kernel, f.grid)
    conv = _from_spectral(f.grid, a_hat * _to_spectral(f))
    return FieldGrid(f.grid, conv - f.values)


def evolve_semigroup(kernel: JumpKernel, f: FieldGrid, t: float) -> FieldGrid:
    """u(t,.) = e^{-t} sum_n (t^n/n!) a_n * f, summed exactly as e^{t (a_hat - 1)} f."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return FieldGrid(f.grid, f.values.copy())
    a_hat = spectral_density(kernel, f.grid)
    return FieldGrid(f.grid, _from_spectral(f.grid, np.exp(t * (a_hat - 1.0)) * _to_spectral(f)))


# width of a rate class: four ulps of 1, above the FFT roundoff of a_hat
_RATE_QUANTUM = 2.0**-50


@dataclass(frozen=True)
class _RateClasses:
    """u(tau, x) = sum_c weights[c] e^{-tau rates[c]}, the grid semigroup at one point.

    Grid modes whose symbol a_hat rounds to one multiple of _RATE_QUANTUM form
    a class; weights sums f's phased spectrum over it, rates = 1 - a_hat.
    """

    rates: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, kernel: JumpKernel, f: FieldGrid, x) -> "_RateClasses":
        grid = f.grid
        a_hat = spectral_density(kernel, grid)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        phase = sum(kmesh * x[ax] for ax, kmesh in enumerate(grid.wavenumbers()))
        w = _to_spectral(f) * np.exp(1j * phase) / (2.0 * grid.half_width) ** grid.dim
        keys, inverse = np.unique(np.rint(a_hat.ravel() / _RATE_QUANTUM), return_inverse=True)
        weights = np.bincount(inverse, weights=w.ravel().real, minlength=keys.size)
        # decay rates 1 - a_hat >= 0 up to roundoff
        return cls(np.maximum(1.0 - keys * _RATE_QUANTUM, 0.0), weights)

    def __call__(self, taus) -> np.ndarray:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return np.exp(-np.outer(taus, self.rates)) @ self.weights


def semigroup_point_values(kernel: JumpKernel, f: FieldGrid, x, taus) -> np.ndarray:
    """u(tau, x) for an array of times, via the exact Fourier exponential.

    Equals the fully summed Poisson series e^{tau (a_hat - 1)} applied to f.
    Grid modes are grouped into rate classes: symbols a_hat that round to
    the same multiple of q = _RATE_QUANTUM = 2^-50 (four ulps of 1) share
    one rate, so the cost is (number of classes) x len(taus) after one FFT.
    Moving each symbol to its class centre changes u by at most
    |du| <= tau (q/2) sum_k |w_k|, with w_k the phased spectrum of f.
    Subject to the same box-periodization error as evolve_semigroup at
    large tau.
    """
    return _RateClasses.build(kernel, f, x)(taus)


# ---------------------------------------------------------------------------
# Green kernels
# ---------------------------------------------------------------------------


class GreenExistence(enum.Enum):
    EXISTS = "Exists"
    DIVERGENT = "Divergent"
    UNKNOWN = "Unknown"


def check_green_existence(kernel: JumpKernel) -> GreenExistence:
    """Exists iff the tail exponent alpha is known and d > alpha (strict)."""
    if kernel.tail_params is None:
        return GreenExistence.UNKNOWN
    _, alpha = kernel.tail_params
    return GreenExistence.EXISTS if kernel.dim > alpha else GreenExistence.DIVERGENT


def _decay_exponent(kernel: JumpKernel) -> float:
    """d / alpha, the n^{-d/alpha} decay of a_n; the one Green-existence gate.

    Raises DivergentGreenMeasureError unless check_green_existence finds the
    kernel's tail exponent alpha and d > alpha.
    """
    existence = check_green_existence(kernel)
    if existence is GreenExistence.UNKNOWN:
        raise DivergentGreenMeasureError(
            "the Green measure needs a known tail exponent alpha; set the kernel's "
            "tail_params = (A, alpha), e.g. from fit_small_k_expansion"
        )
    alpha = kernel.tail_params[1]
    if existence is GreenExistence.DIVERGENT:
        raise DivergentGreenMeasureError(f"Green measure diverges: d = {kernel.dim} <= alpha = {alpha}")
    return kernel.dim / alpha


@dataclass
class ResolventKernel:
    """Regular part G_lambda of the resolvent kernel, plus its delta weight."""

    lam: float
    kernel_name: str
    regular_part: FieldGrid
    n_terms: int
    tail_exponent: Optional[float] = None

    @property
    def singular_weight(self) -> float:
        return 1.0 / (1.0 + self.lam)


def green_regular_series(
    kernel: JumpKernel, grid: GridSpec, lam: float, max_terms: int = 48
) -> ResolventKernel:
    """Partial sums of a_n / (1+lambda)^n with a power-law tail estimate.

    Summed in Fourier space until the l1 bound on a term's sup is below 1e-10,
    then transformed back once.  For lambda = 0 the summation stops at
    max_terms (box periodization of a_n degrades beyond that) and the tail is
    estimated from the n^{-d/alpha} decay via a Hurwitz-zeta weight on the last term.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    p = _decay_exponent(kernel) if lam == 0 else None
    a_hat = spectral_density(kernel, grid)
    ratio = a_hat / (1.0 + lam)
    power = np.ones(grid.shape)
    acc = np.zeros(grid.shape)
    n = 0
    while n < max_terms:
        n += 1
        power = power * ratio
        acc += power
        # sup_x |a_n(x)| / (1+lambda)^n <= sum |power| / (N^d cell_volume), equal when power >= 0
        if np.sum(np.abs(power)) / (power.size * grid.cell_volume) < 1e-10:
            break
    if lam == 0:
        # tail(x) ~ a_n(x) * sum_{m>n} (m/n)^{-p} = a_n(x) n^p zeta(p, n+1)
        acc += power * (n**p) * special.zeta(p, n + 1)
    vals = _from_spectral(grid, acc)
    floor = float(vals.min())
    if floor < -1e-8:
        raise TruncationError(f"Green series produced negative values ({floor:.2e})")
    return ResolventKernel(lam, kernel.name, FieldGrid(grid, np.maximum(vals, 0.0)), n, p)


def _fourier_cutoff(kernel: JumpKernel, lam: float) -> float:
    """Frequency beyond which a_hat/(1+lam-a_hat) is negligible."""
    k = 1.0
    while k < 1e6:
        if abs(float(np.asarray(kernel.fourier_radial(np.array([k]))).ravel()[0])) < 1e-14 * (
            1.0 + lam
        ):
            return k
        k *= 2.0
    return 1e6


def green_regular_fourier(kernel: JumpKernel, x, lam: float) -> float:
    """Radial quadrature of (2 pi)^{-d} int e^{i(k,x)} a_hat/(1+lam-a_hat) dk.

    Supports d in {1, 2, 3}.  For lambda = 0 the integrand has an
    integrable |k|^{-alpha} singularity at the origin; the quadrature mesh
    is graded toward 0.  Below k = 1e-4 the denominator 1 - a_hat is
    evaluated through the small-k expansion A |k|^alpha to avoid
    catastrophic cancellation.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0:
        _decay_exponent(kernel)
    d = kernel.dim
    if d not in (1, 2, 3):
        raise NotImplementedError("Fourier quadrature supports d in {1, 2, 3}")
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    k_max = _fourier_cutoff(kernel, lam)

    tail_A, tail_alpha = kernel.tail_params or (None, None)
    k_lo = 1e-4 if tail_A is not None else 0.0

    def phi(k):
        k = np.asarray(k, dtype=float)
        if tail_A is not None and np.all(k < k_lo):
            drop = tail_A * k**tail_alpha
            return (1.0 - drop) / (lam + drop)
        a = kernel.fourier_radial(k)
        return a / (1.0 + lam - a)

    if d == 1:
        integrand = lambda k: np.cos(k * r) * phi(k) / np.pi
    elif d == 2:
        integrand = lambda k: k * special.j0(k * r) * phi(k) / (2.0 * np.pi)
    elif r == 0.0:
        integrand = lambda k: k * k * phi(k) / (2.0 * np.pi**2)
    else:
        integrand = lambda k: k * np.sin(k * r) * phi(k) / (2.0 * np.pi**2 * r)

    # graded breakpoints toward the k=0 singularity
    val = 0.0
    err = 0.0
    if k_lo > 0.0:
        v, e = integrate.quad(integrand, 0.0, k_lo, limit=200, epsabs=1e-13)
        val += v
        err += e
    points = sorted(set(np.geomspace(max(k_lo, 1e-8), k_max, 24).tolist()))
    v, e = integrate.quad(
        integrand, k_lo, k_max, points=points, limit=400, epsabs=1e-12, epsrel=1e-9
    )
    val += v
    err += e
    if not np.isfinite(val) or err > 1e-4 * max(abs(val), 1.0):
        raise TruncationError(f"Fourier quadrature did not converge (err={err:.2e})")
    return float(val)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def convolve_fields(a: FieldGrid, b: FieldGrid) -> FieldGrid:
    """Continuous convolution of two fields via FFT (periodic box)."""
    require_same_grid(a, b)
    return FieldGrid(a.grid, _from_spectral(a.grid, _to_spectral(a) * _to_spectral(b)))


def _green_convolution(kernel, f, grid) -> tuple[FieldGrid, FieldGrid]:
    """(f sampled on the grid, G_0 * f); the Green series gates before the norms check."""
    g0 = green_regular_series(kernel, grid, 0.0)
    if f.sup_norm is None or f.l1_norm is None:
        cl_norm(f)  # raises unless samples provide finite norms
    fs = f.samples_on(grid)
    return fs, convolve_fields(g0.regular_part, fs)


def potential_field(kernel: JumpKernel, f: CLFunction, grid: GridSpec) -> FieldGrid:
    """V(., f) = f + G_0 * f on the grid; the Green series gates existence."""
    fs, conv = _green_convolution(kernel, f, grid)
    return FieldGrid(grid, fs.values + conv.values)


def potential(kernel: JumpKernel, f: CLFunction, x, grid: GridSpec) -> float:
    """V(x, f) = f(x) + (G_0 * f)(x), the delta part plus the regular convolution."""
    _, conv = _green_convolution(kernel, f, grid)
    return float(f.value_at(x) + conv.value_at(x))

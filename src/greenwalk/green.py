"""Green kernels, resolvents, the jump generator and potentials.

The jump generator is Lf = a*f - f.  Its resolvent kernel splits into a
singular delta part with weight 1/(1+lambda) and a regular part

    G_lambda(x) = sum_{n>=1} a_n(x) / (1+lambda)^n
                = (2 pi)^{-d} int e^{i(k,x)} a_hat / (1 + lambda - a_hat) dk,

where a_n is the n-fold convolution of the jump kernel; at lambda = 0 it exists
iff d > alpha.  On the grid it is summed in closed form, with no series terms.
Potentials of integrable bounded functions are V(x,f) = f(x) + (G_0 * f)(x).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import (
    AliasingError,
    DivergentGreenMeasureError,
    InvalidKernelError,
    MissingNormsError,
    TruncationError,
)
from .grids import FieldGrid, GridSpec, field_from_function, require_same_grid
from .grids import _from_spectral, _half, _to_spectral
from .kernels import JumpKernel, sample_density, spectral_density


# ---------------------------------------------------------------------------
# CL(R^d) functions
# ---------------------------------------------------------------------------


@dataclass
class CLFunction:
    """Bounded continuous integrable function (member of CL(R^d)).

    An evaluator or grid samples must be present: values_at and samples_on
    raise MissingNormsError for an f with neither, and samples_on for one
    with samples on another grid and no evaluator.  fourier, when set, maps
    radial frequencies |k| to f_hat for a radial f; potential and the
    renormalized curve read it (cl_from_kernel sets it, cl_from_grid does not).
    """

    evaluator: Optional[Callable] = None
    grid_samples: Optional[FieldGrid] = None
    name: str = "f"
    fourier: Optional[Callable] = None

    def value_at(self, x) -> float:
        return float(self.values_at(x)[0])

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
        if self.evaluator is not None:
            return field_from_function(grid, self.evaluator)
        if self.grid_samples is None:
            raise MissingNormsError("CL function has neither evaluator nor samples")
        raise MissingNormsError("CL function has samples on another grid and no evaluator to resample them")


def cl_from_kernel(kernel: JumpKernel) -> CLFunction:
    """The jump density itself as a CL function."""
    # a table's transform is periodic in k, which the radial rule cannot integrate:
    # without fourier, potential takes the grid route
    return CLFunction(evaluator=kernel.density, name="a",
                      fourier=None if kernel.name == "tabulated" else kernel.fourier_radial)


def cl_from_grid(field: FieldGrid, name: str = "f") -> CLFunction:
    return CLFunction(grid_samples=field, name=name)


# ---------------------------------------------------------------------------
# generator and semigroup
# ---------------------------------------------------------------------------


def apply_generator(kernel: JumpKernel, f: FieldGrid) -> FieldGrid:
    """Lf = a*f - f via FFT convolution on the field's grid."""
    a_hat = _half(spectral_density(kernel, f.grid))
    conv = _from_spectral(f.grid, a_hat * _to_spectral(f))
    return FieldGrid(f.grid, conv - f.values)


def evolve_semigroup(kernel: JumpKernel, f: FieldGrid, t: float) -> FieldGrid:
    """u(t,.) = e^{-t} sum_n (t^n/n!) a_n * f, summed exactly as e^{t (a_hat - 1)} f."""
    if not 0 <= t < np.inf:
        raise ValueError("t must be finite and >= 0")
    if t == 0:
        return FieldGrid(f.grid, f.values.copy())
    a_hat = _half(spectral_density(kernel, f.grid))
    return FieldGrid(f.grid, _from_spectral(f.grid, np.exp(t * (a_hat - 1.0)) * _to_spectral(f)))


# width of a rate class: four ulps of 1, above the FFT roundoff of a_hat
_RATE_QUANTUM = 2.0**-50
# largest a_hat - 1 taken for roundoff; a sampled symbol further above 1 is aliased
_SYMBOL_EXCESS = 1e-12


@dataclass(frozen=True)
class _RateClasses:
    """u(tau, x) = sum_c weights[c] e^{-tau rates[c]}, the grid semigroup at one point.

    Grid modes whose symbol a_hat rounds to one multiple of _RATE_QUANTUM form
    a class; weights sums f's phased spectrum over it, rates = 1 - a_hat.  An
    aliased symbol above 1 + _SYMBOL_EXCESS raises AliasingError, and an x that is not
    finite or not in [-L, L)^d a ValueError, as the periodic sum would wrap it.  The sum runs over
    the rfftn half: a mode strictly inside it also stands for its conjugate (same a_hat,
    conjugate weight) and counts twice; the planes k_last = 0 and N/2 count once.
    """

    rates: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, kernel: JumpKernel, f: FieldGrid, x) -> "_RateClasses":
        grid, x = f.grid, np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all((x >= -grid.half_width) & (x < grid.half_width)):
            raise ValueError(f"x = {x} must be finite and inside the box [-L, L)^d")
        a_hat = spectral_density(kernel, grid)
        excess = float(a_hat.max()) - 1.0
        if excess > _SYMBOL_EXCESS:
            raise AliasingError(
                f"sampled symbol exceeds 1 by {excess:.3e} on this grid: the density is "
                "undersampled, so 1 - a_hat would be a negative decay rate"
            )
        n = grid.points_per_axis
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
        # the Nyquist index stands for both signs of pi/h, so its phase factor
        # e^{-i pi x/h} becomes cos(pi x/h), the real sum over the full layout
        nyquist = np.where(np.arange(n) == n // 2, k1, 0.0)
        phase = _half(sum(np.ix_(*((k1 - nyquist) * xi for xi in x))))
        cos = np.cos(_half(sum(np.ix_(*(nyquist * xi for xi in x)))))
        w = (_to_spectral(f) * np.exp(1j * phase)).real * cos / (2.0 * grid.half_width) ** grid.dim
        w[..., 1 : n // 2] *= 2.0
        keys, inverse = np.unique(np.rint(_half(a_hat).ravel() / _RATE_QUANTUM), return_inverse=True)
        weights = np.bincount(inverse, weights=w.ravel(), minlength=keys.size)
        # decay rates 1 - a_hat >= 0 up to roundoff
        return cls(np.maximum(1.0 - keys * _RATE_QUANTUM, 0.0), weights)

    def __call__(self, taus) -> np.ndarray:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return np.exp(-np.outer(taus, self.rates)) @ self.weights


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


# largest spread of R over k = 0.025 .. 0.1 taken as bounded (the Gaussian's own is 0.004)
_TAIL_SPREAD = 1.0


@dataclass
class ResolventKernel:
    """Regular part G_lambda of the resolvent kernel, plus its delta weight."""

    lam: float
    kernel_name: str
    regular_part: FieldGrid
    n_terms: int = 0  # series terms summed: none, the closed form has no series

    @property
    def singular_weight(self) -> float:
        return 1.0 / (1.0 + self.lam)


def green_regular_series(kernel: JumpKernel, grid: GridSpec, lam: float) -> ResolventKernel:
    """G_lambda = sum_{n>=1} a_n / (1+lambda)^n on the grid, in closed form.

    lambda > 0: the one division a_hat / (1 + lambda - a_hat).  lambda = 0: the
    bounded R = a_hat/(1 - a_hat) - e^{-|k|^2}/(A |k|^alpha), (A, alpha) = tail_params,
    goes through the periodic FFT (R(0) extrapolated in k^2 from three small k),
    plus s(r) = Gamma(b) 1F1(b; d/2; -r^2/4) / (A 2^d pi^{d/2} Gamma(d/2)), b = (d - alpha)/2.
    R is bounded only when (A, alpha) is the kernel's true tail, so an InvalidKernelError
    names tail_params when R spreads by more than _TAIL_SPREAD over the three small k.
    """
    if not lam >= 0:
        raise ValueError("lambda must be >= 0")
    if lam > 0:
        a_hat = _half(spectral_density(kernel, grid))
        vals = _from_spectral(grid, a_hat / (1.0 + lam - a_hat))
    else:
        _decay_exponent(kernel)  # gates before the density is sampled
        (A, alpha), d = kernel.tail_params, grid.dim
        regular = lambda a, k2: a / (1.0 - a) - np.exp(-k2) / (A * k2 ** (0.5 * alpha))
        ks = np.array([0.025, 0.05, 0.1])
        near_zero = regular(kernel.fourier_radial(ks), ks**2)
        spread = float(np.ptp(near_zero))
        if not spread <= _TAIL_SPREAD:
            raise InvalidKernelError(
                f"tail_params (A, alpha) = ({A:g}, {alpha:g}) do not fit the kernel's a_hat "
                f"near 0: the regular part spreads by {spread:.3g} over k = 0.025 .. 0.1"
            )
        a_hat = _half(spectral_density(kernel, grid))
        spec = np.empty(a_hat.shape)
        spec.ravel()[0] = np.polyfit(ks**2, near_zero, 2)[-1]
        spec.ravel()[1:] = regular(a_hat.ravel()[1:], _half(grid.wavenumber_radius_squared()).ravel()[1:])
        j = np.arange(grid.points_per_axis) - grid.points_per_axis // 2
        m2 = sum(np.ix_(*[j * j] * d))  # |x|^2 / h^2
        # 1F1 once per integer 0..max m2, fewer values than grid points unless d = 1
        r2 = np.arange(m2.max() + 1) if d > 1 else m2
        b = 0.5 * (d - alpha)
        s = special.gamma(b) * special.hyp1f1(b, 0.5 * d, -0.25 * grid.spacing**2 * r2)
        s /= A * 2.0**d * np.pi ** (0.5 * d) * special.gamma(0.5 * d)
        vals = _from_spectral(grid, spec) + (s[m2] if d > 1 else s)
    floor = float(vals.min())
    if floor < -1e-8:
        raise TruncationError(f"Green series produced negative values ({floor:.2e})")
    return ResolventKernel(lam, kernel.name, FieldGrid(grid, np.maximum(vals, 0.0)))


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


def _radial_measure(d: int, r: float, k: np.ndarray) -> np.ndarray:
    """m(k) with (2 pi)^{-d} int e^{i(k,x)} g(|k|) dk = int_0^inf g(k) m(k) dk at |x| = r.

    m is k^{d-1} |S^{d-1}| (2 pi)^{-d} times the angular mean of e^{i(k,x)}:
    cos(k r) in d = 1, J_0(k r) in d = 2 and sin(k r)/(k r) in d = 3.
    """
    if d == 1:
        return np.cos(k * r) / np.pi
    if d == 2:
        return k * special.j0(k * r) / (2.0 * np.pi)
    if d == 3 and r == 0.0:
        return k * k / (2.0 * np.pi**2)
    if d == 3:
        return k * np.sin(k * r) / (2.0 * np.pi**2 * r)
    raise NotImplementedError("radial Fourier quadrature supports d in {1, 2, 3}")


# geometric Gauss-Legendre panels from 1e-8 to the Fourier cutoff, plus [0, 1e-8]; with 80,
# the 3-D Gaussian's 1/2-stable curve moves by 2e-13 from 80 to 320 panels
_PANELS = 80
# without a symbol_gap, below this |k| the gap 1 - a_hat is the tail form A |k|^alpha,
# which does not cancel
_TAIL_FORM_K = 1e-4
# largest |order 16 - order 8| / |order 16| accepted from the radial rule.  For G_0 of
# the 3-D Gaussian it is 8.0e-7 at |x| = 30 and 2.2e-2 at |x| = 120, where the panels
# no longer resolve sin(k |x|)
_RADIAL_TOL = 1e-4


# Gauss-Legendre nodes and weights on [-1, 1]: order 16 gives a radial value, order 8 its error
_LEGENDRE = {n: np.polynomial.legendre.leggauss(n) for n in (16, 8)}


def _radial_rule(k_max: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of order-point Gauss-Legendre on each panel of [0, k_max]."""
    edges = np.concatenate(([0.0], np.geomspace(1e-8, k_max, _PANELS + 1)))
    t, w = _LEGENDRE[order]
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + t)).ravel(), (half * w).ravel()


def _radial_value(kernel: JumpKernel, x, lam: float, multiplier) -> tuple[np.ndarray, np.ndarray]:
    """(2 pi)^{-d} int e^{i(k,x)} g(k) dk for g = multiplier(k, a_hat, 1 - a_hat), and its error.

    One radial integral up to _fourier_cutoff(kernel, lam).  The gap 1 - a_hat
    is the kernel's symbol_gap when it has one; otherwise it is A |k|^alpha
    below _TAIL_FORM_K when the kernel's tail_params are known.
    multiplier may return (..., nodes), one integral per row.  Order-16
    Gauss-Legendre gives the value, its gap to order 8 the error estimate;
    TruncationError when that gap exceeds _RADIAL_TOL of the value; ValueError for a non-finite x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    r = float(np.linalg.norm(x))
    (k16, w16), (k8, w8) = (_radial_rule(_fourier_cutoff(kernel, lam), n) for n in (16, 8))
    k = np.concatenate((k16, k8))
    a_hat = np.asarray(kernel.fourier_radial(k), dtype=float)
    gap = 1.0 - a_hat
    if kernel.symbol_gap is not None:
        gap = np.asarray(kernel.symbol_gap(k), dtype=float)
    elif kernel.tail_params is not None:
        A, alpha = kernel.tail_params
        gap = np.where(k < _TAIL_FORM_K, A * k**alpha, gap)
    terms = np.asarray(multiplier(k, a_hat, gap), dtype=float) * _radial_measure(kernel.dim, r, k)
    value = terms[..., :k16.size] @ w16
    err = np.abs(value - terms[..., k16.size:] @ w8)
    if not np.all(err <= _RADIAL_TOL * np.abs(value)):
        raise TruncationError(
            f"radial quadrature at |x| = {r:g}: orders 16 and 8 differ by "
            f"{np.max(err / np.abs(value)):.2e} relative (tolerance {_RADIAL_TOL:g})"
        )
    return value, err


def green_regular_fourier(kernel: JumpKernel, x, lam: float) -> float:
    """(2 pi)^{-d} int e^{i(k,x)} a_hat/(1+lam-a_hat) dk by the radial rule of _radial_value.

    Supports d in {1, 2, 3}.  For lambda = 0 the integrand has an integrable
    |k|^{-alpha} singularity at the origin, which the geometric panels grade
    toward; the gap 1 - a_hat is the kernel's symbol_gap, or A |k|^alpha below
    k = _TAIL_FORM_K, free of cancellation either way.  Raises TruncationError
    when orders 16 and 8 disagree by more than _RADIAL_TOL, as they do for the
    3-D Gaussian beyond |x| of about 30.
    """
    if not lam >= 0:
        raise ValueError("lambda must be >= 0")
    if lam == 0:
        _decay_exponent(kernel)
    value, _ = _radial_value(kernel, x, lam, lambda k, a_hat, gap: a_hat / (lam + gap))
    return float(value)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def convolve_fields(a: FieldGrid, b: FieldGrid) -> FieldGrid:
    """Continuous convolution of two fields via FFT (periodic box)."""
    require_same_grid(a, b)
    return FieldGrid(a.grid, _from_spectral(a.grid, _to_spectral(a) * _to_spectral(b)))


def potential_field(kernel: JumpKernel, f: CLFunction, grid: GridSpec) -> FieldGrid:
    """V(., f) = f + G_0 * f on the periodic grid for any f; potential's route for a tabulated f."""
    g0 = green_regular_series(kernel, grid, 0.0)  # gates existence before f is sampled
    fs = f.samples_on(grid)
    return FieldGrid(grid, fs.values + convolve_fields(g0.regular_part, fs).values)


def potential(kernel: JumpKernel, f: CLFunction, x, grid: GridSpec) -> float:
    """V(x, f) = f(x) + (G_0 * f)(x), the delta part plus the regular convolution.

    With f.fourier (cl_from_kernel): one radial rule of _radial_value, no FFT, grid
    unused, exact off centre; TruncationError where the rule fails (|x| of about 70
    for the 3-D Gaussian).  A tabulated f (cl_from_grid) takes potential_field, which wraps.
    """
    if f.fourier is None:
        return float(potential_field(kernel, f, grid).value_at(x))
    _decay_exponent(kernel)
    conv, _ = _radial_value(kernel, x, 0.0, lambda k, a_hat, gap: f.fourier(k) * a_hat / gap)
    return f.value_at(x) + float(conv)

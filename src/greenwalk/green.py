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
    TruncationError,
    _require,
)
from .grids import FieldGrid, GridSpec, field_from_function, require_same_grid
from .grids import _finite_point, _from_spectral, _half, _inside_box, _to_spectral
from .kernels import JumpKernel, spectral_density


# ---------------------------------------------------------------------------
# CL(R^d) functions
# ---------------------------------------------------------------------------


@dataclass
class CLFunction:
    """Bounded continuous integrable function (member of CL(R^d)).

    evaluator maps an (m, d) array of points to m values and must be callable;
    a grid table f is CLFunction(f.values_at).  fourier, when set, maps radial
    frequencies |k| to f_hat for a radial f; potential and the renormalized
    curve read it (cl_from_kernel sets it).
    """

    evaluator: Callable
    name: str = "f"
    fourier: Optional[Callable] = None

    def __post_init__(self):
        _require(callable(self.evaluator), "evaluator", "callable")

    def value_at(self, x) -> float:
        return float(self.values_at(x)[0])

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (m, d) array of points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.evaluator(points), dtype=float).ravel()

    def samples_on(self, grid: GridSpec) -> FieldGrid:
        return field_from_function(grid, self.evaluator)


def cl_from_kernel(kernel: JumpKernel) -> CLFunction:
    """The jump density itself as a CL function."""
    return CLFunction(evaluator=kernel.density, name="a", fourier=kernel.fourier)


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
    _require(0 <= t < np.inf, "t", "finite and >= 0")
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
    finite or not in [-L, L)^d an InvalidInputError, as the periodic sum would wrap it.
    f is sampled on grid.  The sum runs over the rfftn half: a mode strictly inside it also
    stands for its conjugate (same a_hat, conjugate weight) and counts twice; the planes
    k_last = 0 and N/2 count once.
    """

    rates: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, kernel: JumpKernel, f: CLFunction, x, grid: GridSpec) -> "_RateClasses":
        f, x = f.samples_on(grid), _inside_box(_finite_point(x, kernel.dim), grid)
        a_hat = spectral_density(kernel, grid)
        excess = float(a_hat.max()) - 1.0
        if excess > _SYMBOL_EXCESS:
            raise AliasingError(
                f"sampled symbol exceeds 1 by {excess:.3e} on this grid: the density is "
                "undersampled, so 1 - a_hat would be a negative decay rate"
            )
        n, k1 = grid.points_per_axis, grid.frequency_axis
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


def _require_green_measure(kernel: JumpKernel) -> None:
    """The one Green-existence gate: DivergentGreenMeasureError unless tail_params gives alpha < d."""
    existence = check_green_existence(kernel)
    if existence is GreenExistence.UNKNOWN:
        raise DivergentGreenMeasureError(
            "the Green measure needs a known tail exponent alpha; set the kernel's "
            "tail_params = (A, alpha), e.g. from fit_small_k_expansion"
        )
    if existence is GreenExistence.DIVERGENT:
        raise DivergentGreenMeasureError(f"Green measure diverges: d = {kernel.dim} <= alpha = {kernel.tail_params[1]}")


# largest spread of R over k = 0.025 .. 0.1 taken as bounded (the Gaussian's own is 0.004)
_TAIL_SPREAD = 1.0


@dataclass
class ResolventKernel:
    """Regular part G_lambda of the resolvent kernel, plus its delta weight."""

    lam: float
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
    _require(0 <= lam < np.inf, "lam", "finite and >= 0")
    if lam > 0:
        a_hat = _half(spectral_density(kernel, grid))
        vals = _from_spectral(grid, a_hat / (1.0 + lam - a_hat))
    else:
        _require_green_measure(kernel)  # gates before the density is sampled
        (A, alpha), d = kernel.tail_params, grid.dim
        regular = lambda a, k2: a / (1.0 - a) - np.exp(-k2) / (A * k2 ** (0.5 * alpha))
        ks = np.array([0.025, 0.05, 0.1])
        near_zero = regular(kernel.fourier(ks), ks**2)
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
    return ResolventKernel(lam, FieldGrid(grid, np.maximum(vals, 0.0)))


def _radial_measure(d: int, r: float, k: np.ndarray) -> np.ndarray:
    """m(k) with (2 pi)^{-d} int e^{i(k,x)} g(|k|) dk = int_0^inf g(k) m(k) dk at |x| = r.

    m is k^{d-1} |S^{d-1}| (2 pi)^{-d} times the angular mean of e^{i(k,x)}:
    cos(k r) in d = 1, J_0(k r) in d = 2 and sin(k r)/(k r) in d = 3, the dimensions
    _radial_value admits.
    """
    if d == 1:
        return np.cos(k * r) / np.pi
    if d == 2:
        return k * special.j0(k * r) / (2.0 * np.pi)
    if r == 0.0:
        return k * k / (2.0 * np.pi**2)
    return k * np.sin(k * r) / (2.0 * np.pi**2 * r)


# exp-sinh trapezoid rule (Takahasi and Mori, Publ. RIMS 9 (1974) 721), built once: nodes
# k_j = exp((pi/2) sinh t_j) at t_j = -6 + j 2^-7, j = 0 .. 1178, weights 2^-7 dk/dt.  k runs
# from 2.5e-138, where k^2 is still a normal float, to 2.4e8, where e^{-k^alpha} < 1e-141 for
# alpha >= 0.3; the even j with doubled weights are the same rule at step 2^-6
_RADIAL_T = -6.0 + 2.0**-7 * np.arange(1179)
_RADIAL_K = np.exp(0.5 * np.pi * np.sinh(_RADIAL_T))
_RADIAL_W = 2.0**-7 * 0.5 * np.pi * np.cosh(_RADIAL_T) * _RADIAL_K
# without a symbol_gap, below this |k| the gap 1 - a_hat is the tail form A |k|^alpha,
# which does not cancel
_TAIL_FORM_K = 1e-4
# largest error estimate / |value| accepted from the radial rule.  For G_0 of the 3-D
# Gaussian it is 5.3e-13 at |x| = 30 and 3.7e-3 at |x| = 120, where the half-step sum
# no longer resolves sin(k |x|)
_RADIAL_TOL = 1e-4


def _radial_value(kernel: JumpKernel, x, multiplier) -> tuple[np.ndarray, np.ndarray]:
    """(2 pi)^{-d} int e^{i(k,x)} g(k) dk for g = multiplier(k, a_hat, 1 - a_hat), and its error.

    One exp-sinh trapezoid sum over the fixed nodes _RADIAL_K, which take the algebraic
    k^{d-1-alpha} end and the decaying tail alike.  The gap 1 - a_hat is the kernel's
    symbol_gap when it has one; otherwise it is A |k|^alpha below _TAIL_FORM_K when the
    kernel's tail_params are known.  multiplier may return (..., nodes), one integral per
    row.  The error estimate is |sum - half-step sum| + |first term| + |last term|;
    TruncationError when it exceeds _RADIAL_TOL of the value; InvalidInputError for a
    non-finite x or a kernel dimension outside {1, 2, 3}.
    """
    _require(kernel.dim in (1, 2, 3), "kernel.dim", f"1, 2 or 3 for the radial Fourier rule, not {kernel.dim}")
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(_finite_point(x, kernel.dim)))
    _require(r < np.inf, "x", "of finite length |x|")
    k = _RADIAL_K
    a_hat = np.asarray(kernel.fourier(k), dtype=float)
    gap = 1.0 - a_hat
    if kernel.symbol_gap is not None:
        gap = np.asarray(kernel.symbol_gap(k), dtype=float)
    elif kernel.tail_params is not None:
        A, alpha = kernel.tail_params
        gap = np.where(k < _TAIL_FORM_K, A * k**alpha, gap)
    terms = np.asarray(multiplier(k, a_hat, gap), dtype=float) * (_radial_measure(kernel.dim, r, k) * _RADIAL_W)
    value = terms.sum(axis=-1)
    err = np.abs(value - 2.0 * terms[..., ::2].sum(axis=-1)) + np.abs(terms[..., 0]) + np.abs(terms[..., -1])
    if not np.all(err <= _RADIAL_TOL * np.abs(value)):
        raise TruncationError(
            f"radial quadrature at |x| = {r:g}: the exp-sinh error estimate is "
            f"{np.max(err / np.abs(value)):.2e} relative (tolerance {_RADIAL_TOL:g})"
        )
    return value, err


def green_regular_fourier(kernel: JumpKernel, x, lam: float) -> float:
    """(2 pi)^{-d} int e^{i(k,x)} a_hat/(1+lam-a_hat) dk by the radial rule of _radial_value.

    Supports d in {1, 2, 3}.  For lambda = 0 the integrand has an integrable
    |k|^{-alpha} singularity at the origin, which the exp-sinh nodes reach down to
    k = 2.5e-138; the gap 1 - a_hat is the kernel's symbol_gap, or A |k|^alpha below
    k = _TAIL_FORM_K, free of cancellation either way.  Raises TruncationError
    when the rule's error estimate exceeds _RADIAL_TOL, as it does for the
    3-D Gaussian from |x| of about 70.
    """
    _require(0 <= lam < np.inf, "lam", "finite and >= 0")
    if lam == 0:
        _require_green_measure(kernel)
    value, _ = _radial_value(kernel, x, lambda k, a_hat, gap: a_hat / (lam + gap))
    return float(value)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def convolve_fields(a: FieldGrid, b: FieldGrid) -> FieldGrid:
    """Continuous convolution of two fields via FFT (periodic box)."""
    require_same_grid(a, b)
    return FieldGrid(a.grid, _from_spectral(a.grid, _to_spectral(a) * _to_spectral(b)))


def potential_field(kernel: JumpKernel, f: CLFunction, grid: GridSpec) -> FieldGrid:
    """V(., f) = f + G_0 * f on the periodic grid for any f; potential's route for an f without fourier."""
    g0 = green_regular_series(kernel, grid, 0.0)  # gates existence before f is sampled
    fs = f.samples_on(grid)
    return FieldGrid(grid, fs.values + convolve_fields(g0.regular_part, fs).values)


def potential(kernel: JumpKernel, f: CLFunction, x, grid: Optional[GridSpec] = None) -> float:
    """V(x, f) = f(x) + (G_0 * f)(x), the delta part plus the regular convolution.

    With f.fourier (cl_from_kernel): one radial rule of _radial_value, no FFT and no grid,
    exact off centre; TruncationError where the rule fails (from |x| of about 115 for the
    3-D Gaussian and f = a).  An f without fourier takes potential_field on grid, which wraps.
    """
    if f.fourier is None:
        _require(grid is not None, "grid", "given for an f without fourier")
        x = _finite_point(x, kernel.dim)
        return float(potential_field(kernel, f, grid).value_at(x))
    _require_green_measure(kernel)
    conv, _ = _radial_value(kernel, x, lambda k, a_hat, gap: f.fourier(k) * a_hat / gap)
    return f.value_at(x) + float(conv)

"""Time-changed processes, subordination, and renormalized Green measures.

The time-changed process Z(t) = X(D(t)) has marginals obtained by mixing
the semigroup of X against the inverse-subordinator density rho_t.  Its
occupation measure over [0, T] does not converge on its own, but after
dividing by N(T) = int_0^T k(s) ds it recovers the Green measure of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidInputError, TruncationError, _require, _require_count
from .green import CLFunction, _decay_exponent, _radial_value, _RateClasses, potential
from .grids import GridSpec, _finite_point
from .kernels import JumpKernel
from .simulate import BinSpec, McEstimate, _mc_end_values, _mc_occupation
from .subordinate import (
    SubordinatorSpec,
    _mixture_weights,
    check_H,
    check_admissible,
    kernel_cell_masses,
    normalization_N,
    sample_inverse_many,
)
from .subordinate import gfd_apply

__all__ = [
    "RenormCurve",
    "subordinated_solution",
    "mc_time_changed_expectation",
    "renormalized_potential_curve",
    "unnormalized_potential_integral",
    "renormalized_green_histogram",
    "fke_residual",
]


def subordinated_solution(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    t,
    grid: Optional[GridSpec] = None,
):
    """v(t, x) = int_0^infty u(tau, x) rho_t(tau) dtau, summed in closed form.

    u is the semigroup of X applied to f, a sum of exponentials
    sum_c w_c e^{-tau r_c} over the grid's rate classes, so the tau-integral
    is exactly sum_c w_c E e^{-r_c D(t)}: no tau cutoff and no quadrature.
    t is a scalar (the result is a float) or a 1-D array of times (the
    result is an array): the rate classes are built once, and one
    subordinate._mixture_weights call (fixed-Talbot inversion, or the spec's
    laplace_closed_form) gives the weights of every time.  It raises
    InversionInstabilityError, naming the worst time, rather than return an
    unstable value.
    """
    t = np.asarray(t, dtype=float)
    _require((t > 0) & (t < np.inf), "t", "finite and positive")
    u = _RateClasses.build(kernel, f, x, grid)
    v = _mixture_weights(spec, t, u.rates) @ u.weights
    return float(v) if v.ndim == 0 else v


def mc_time_changed_expectation(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    t: float,
    n: int,
    seed: int,
) -> McEstimate:
    """Sample mean of f(Z(t)) with Z = X(D(t)).

    D(t) is drawn exactly by sample_inverse_many, which needs a self-similar
    spec or one with a passage_cdf (gamma): any other gets a ConfigError.
    Z(t) is then x plus the sum of N ~ Poisson(D) jumps down its own column,
    with paths ordered by N and no holding time drawn.
    """
    _require(0 <= t < np.inf, "t", "finite and >= 0")
    _require_count(n, "n", 2)
    _require_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    d_draws = sample_inverse_many(spec, t, None, n, seed=int(rng.integers(2**63))) if t > 0 else np.zeros(n)
    return _mc_end_values(kernel, f, x, d_draws, rng, seed, time_change=spec.to_json_dict())


# ---------------------------------------------------------------------------
# renormalized potential curve
# ---------------------------------------------------------------------------


@dataclass
class RenormCurve:
    """Renormalized time averages (1/N(T)) int_0^T v(s, x) ds versus target V(x, f)."""

    T_grid: np.ndarray
    values: np.ndarray
    target: float
    N_values: np.ndarray
    quad_errors: Optional[np.ndarray] = None  # quadrature error estimate of each value

    def __post_init__(self):
        self.T_grid = np.asarray(self.T_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.N_values = np.asarray(self.N_values, dtype=float)
        _require(np.diff(self.T_grid) > 0, "T_grid", "strictly increasing")
        _require(np.diff(self.N_values) > 0, "N_values", "strictly increasing")
        _require(np.isfinite(self.values), "values", "finite")

    @property
    def rel_gaps(self) -> np.ndarray:
        return np.abs(self.values / self.target - 1.0)


def _horizon(clipped_mean, T: float) -> float:
    """tau* = min{tau : T - C_T(tau) <= 1e-8 T}, bracketed on powers of 2, then bisected."""
    brackets = np.concatenate(([0.0], 2.0 ** np.arange(-40, 200)))
    done = T - clipped_mean(T, brackets) <= 1e-8 * T
    if not done.any():
        raise TruncationError(f"E[S(tau) ^ T] does not reach T = {T:.6g}")
    i = int(np.argmax(done))
    lo, hi = brackets[max(i - 1, 0)], brackets[i]
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if T - clipped_mean(T, np.array([mid]))[0] <= 1e-8 * T else (mid, hi)
    return hi


def _validate_limit_inputs(kernel: JumpKernel, spec: SubordinatorSpec) -> None:
    """Raise unless the Green measure exists and the limit's hypotheses on the spec hold."""
    _decay_exponent(kernel)
    if not check_H(spec).passed:
        raise ConfigError("the subordinator fails the kernel limits")
    if not check_admissible(spec, s0=1.0).passed:
        raise ConfigError("the subordinator fails admissibility")


def _occupation_integrals(kernel, spec, f, x, T_grid) -> tuple[np.ndarray, np.ndarray]:
    """int_0^T v(s, x) ds for each T in T_grid, and the quadrature error estimate of each.

    It is (2 pi)^{-d} int f_hat(k) e^{i(k,x)} W_T(1 - a_hat(k)) dk with
    W_T(r) = int_0^T E e^{-r D(s)} ds from _mixture_weights, which reads the spec's
    Phi, one call for every T; for radial a and f, one call of the radial rule
    green._radial_value.
    """
    _validate_limit_inputs(kernel, spec)
    if f.fourier is None:
        raise ConfigError(f"the curve needs the radial Fourier transform of {f.name}")

    def multiplier(k, a_hat, gap):
        return f.fourier(k) * _mixture_weights(spec, T_grid, gap, integrated=True)

    return _radial_value(kernel, x, 0.0, multiplier)


def renormalized_potential_curve(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    T_grid,
    grid: Optional[GridSpec] = None,
) -> RenormCurve:
    """(1/N(T)) int_0^T v(s, x) ds along T_grid, with target V(x, f) = f(x) + (G_0 * f)(x).

    The integrals are one radial quadrature in the continuum (green._radial_value) and
    the target is potential's radial route, so grid is optional and not read.  The
    integrals read the spec's Phi, not its clipped mean, and need f.fourier (an f
    without it gets a ConfigError).  quad_errors records the quadrature error
    estimate of each value.
    """
    T_grid = np.asarray(T_grid, dtype=float)
    _require(T_grid.ndim == 1 and T_grid.size >= 1 and np.all((T_grid > 0) & (T_grid < np.inf)), "T_grid",
             "a 1-d array of at least one finite positive time")
    integrals, errors = _occupation_integrals(kernel, spec, f, x, T_grid)
    target = potential(kernel, f, x, grid)
    N_vals = normalization_N(spec, T_grid)
    return RenormCurve(T_grid, integrals / N_vals, target, N_vals, errors / N_vals)


def unnormalized_potential_integral(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    T: float,
    grid: Optional[GridSpec] = None,
) -> float:
    """int_0^T v(s, x) ds without the 1/N(T) renormalization (diverges in T).

    The curve's continuum radial quadrature; grid is optional and not read.
    """
    _require(0 < T < np.inf, "T", "finite and positive")
    return float(_occupation_integrals(kernel, spec, f, x, [T])[0][0])


# ---------------------------------------------------------------------------
# renormalized occupation histogram of Z
# ---------------------------------------------------------------------------


def renormalized_green_histogram(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    x,
    T: float,
    bins: BinSpec,
    n: int,
    seed: int,
    method: str = "conditional",
):
    """Monte Carlo occupation of Z = X(D(.)) over [0, T], divided by N(T).

    The holding time of Z in the i-th state of X is S(tau_{i+1}) - S(tau_i)
    clipped at T, where tau_i are the jump times of X, so the occupation
    measure has no time-grid bias.  Both methods draw X paths up to the
    horizon tau* = min{tau : T - C_T(tau) <= 1e-8 T}, C_T(tau) = E[S(tau) ^ T],
    and count the time a path has left after tau* as escaped; a spec without
    a clipped mean gets a ConfigError.  The default (method "conditional")
    integrates the heavy-tailed S-increments out, weighting each interval by
    C_T(tau_{i+1}) - C_T(tau_i), so replicas differ only through the
    light-tailed X path; method "raw" samples S at the tau_i instead, as a
    cross-check.  Returns (mean histogram, per-bin standard error).
    """
    _require(0 < T < np.inf, "T", "finite and positive")
    x = _finite_point(x)
    if method not in ("conditional", "raw"):
        raise InvalidInputError(f"method must be 'conditional' or 'raw', not {method!r}")
    _require_count(n, "n", 2)
    _require_count(seed, "seed", 0)
    if spec.clipped_mean is None:
        raise ConfigError("the subordinator has no clipped mean E[S(tau) ^ T]")
    clipped_mean = spec.clipped_mean
    rng = np.random.default_rng(seed)
    N_T = normalization_N(spec, T)
    tau_stop = _horizon(clipped_mean, T)

    def weights(c):
        # clipped S at the end of each interval, summed down each path's column;
        # the increments drawn for padded rows (duration 0) must add exactly 0
        if method == "raw":
            steps = spec.increment_sampler(c.durations, c.rng, c.durations.shape)
            clipped = np.minimum(np.cumsum(np.where(c.durations > 0, steps, 0.0), axis=0), T)
        else:
            clipped = clipped_mean(T, np.cumsum(c.durations, axis=0))
        # the time a path has left after tau* counts as escaped
        return np.diff(clipped, axis=0, prepend=0.0) / N_T, (T - clipped[-1]) / N_T

    return _mc_occupation(kernel, x, tau_stop, bins, n, rng, weights, T)


# ---------------------------------------------------------------------------
# fractional Kolmogorov residual
# ---------------------------------------------------------------------------


def fke_residual(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    t_grid,
    grid: Optional[GridSpec] = None,
    t_min: float = 0.0,
) -> float:
    """max_t |D_t^{(k)} v(t, x) - (L v)(t, x)| over the interior of t_grid.

    v and Lv are evaluated from the exact spectral mixture: one
    subordinate._mixture_weights call gives E e^{-r D(t)} at every node and
    rate class, and two matrix-vector products with the class weights give
    v and Lv at every node, so the residual isolates the time
    discretization of the fractional derivative.  The first interior node
    is always excluded (the memory kernel is singular at 0); v itself has a
    sqrt-type cusp there, so convergence studies should also pass a fixed
    burn-in window t_min to keep the measured region away from the
    shrinking boundary layer.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    _require(t_grid.ndim == 1 and t_grid.size >= 4, "t_grid", "a 1-d grid of at least four times")
    dts = np.diff(t_grid)
    dt = dts[0]
    _require(t_grid[0] == 0.0 and 0 < dt < np.inf and np.all(np.abs(dts - dt) <= 1e-9 * dt), "t_grid",
             "finite and uniform from 0")
    _require(-np.inf < t_min <= t_grid[-2], "t_min", "finite and at most the last interior time")
    classes = _RateClasses.build(kernel, f, x, grid)
    rates, w_class = classes.rates, classes.weights

    m = t_grid.size - 1
    weights = _mixture_weights(spec, t_grid[1:], rates)
    lw_class = -rates * w_class
    # einsum, not BLAS: a threaded matrix-vector product this small waits for its second thread
    v = np.concatenate(([np.sum(w_class)], np.einsum("ij,j->i", weights, w_class)))
    lv = np.concatenate(([np.sum(lw_class)], np.einsum("ij,j->i", weights, lw_class)))
    masses = kernel_cell_masses(spec, dt, m)
    dv = gfd_apply(None, v, dt, cell_masses=masses)  # values at t_1 .. t_{m-1}
    resid = np.abs(dv - lv[1:m])
    keep = t_grid[1:m] >= max(t_min, t_grid[2])
    return float(np.max(resid[keep]))

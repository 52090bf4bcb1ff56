"""Time-changed processes, subordination, and renormalized Green measures.

The time-changed process Z(t) = X(D(t)) has marginals obtained by mixing
the semigroup of X against the inverse-subordinator density rho_t.  Its
occupation measure over [0, T] does not converge on its own, but after
dividing by N(T) = int_0^T k(s) ds it recovers the Green measure of X.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, TruncationError
from .green import CLFunction, _decay_exponent, _radial_value, _RateClasses, potential
from .grids import GridSpec
from .kernels import JumpKernel
from .simulate import BinSpec, McEstimate, _Moments, _deposit, _end_values
from .simulate import _histogram, _map_paths, _mc_reduce
from .subordinate import (
    SubordinatorSpec,
    _k_integral,
    _mixture_weights,
    check_H,
    check_admissible,
    kernel_cell_masses,
    sample_inverse_many,
)
from .subordinate import gfd_apply

__all__ = [
    "RenormCurve",
    "subordinated_solution",
    "mc_time_changed_expectation",
    "normalization_N",
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
    if not np.all(t > 0):
        raise ValueError("t must be positive")
    if grid is None:
        if f.grid_samples is None:
            raise ValueError("pass a grid or use an f with grid samples")
        grid = f.grid_samples.grid
    u = _RateClasses.build(kernel, f.samples_on(grid), x)
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

    D(t) is drawn by sample_inverse_many: exactly for a self-similar spec or
    one with a passage_cdf (gamma), by grid first passage with step 1e-3 t
    for the others.  Z(t) is then x plus the sum of N ~ Poisson(D) jumps down
    its own column, with paths ordered by N and no holding time drawn.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if not t >= 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return McEstimate(f.value_at(x), 0.0, n, seed)
    rng = np.random.default_rng(seed)
    d_draws = sample_inverse_many(spec, t, 1e-3 * t, n, seed=int(rng.integers(2**63)))
    return _mc_reduce(*_end_values(kernel, f, x, d_draws, rng), seed, time_change=spec.to_json_dict())


def normalization_N(spec: SubordinatorSpec, T: float) -> float:
    """N(T) = int_0^T k(s) ds: the spec's k_primitive, else the gated Talbot inversion of Phi/lambda^2."""
    if not T >= 0:
        raise ValueError("T must be >= 0")
    if T == 0:
        return 0.0
    return float(_k_integral(spec, np.array([T]))[0])


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
        if np.any(np.diff(self.T_grid) <= 0):
            raise ValueError("T_grid must be strictly increasing")
        if np.any(np.diff(self.N_values) <= 0):
            raise ValueError("N must be strictly increasing along the curve")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")

    @property
    def rel_gaps(self) -> np.ndarray:
        return np.abs(self.values / self.target - 1.0)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["T", "N", "value", "target", "rel_gap"])
            for T, N, v, g in zip(self.T_grid, self.N_values, self.values, self.rel_gaps):
                w.writerow([repr(float(T)), repr(float(N)), repr(float(v)),
                            repr(float(self.target)), repr(float(g))])


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
    grid: GridSpec,
) -> RenormCurve:
    """(1/N(T)) int_0^T v(s, x) ds along T_grid, with target V(x, f) = f(x) + (G_0 * f)(x).

    The integrals are one radial quadrature in the continuum (green._radial_value) and
    the target is potential's radial route, so grid is not used.  The integrals read the
    spec's Phi, not its clipped mean, and need f.fourier (an f without it gets a
    ConfigError).  quad_errors records the quadrature error estimate of each value.
    """
    T_grid = np.asarray(T_grid, dtype=float)
    integrals, errors = _occupation_integrals(kernel, spec, f, x, T_grid)
    target = potential(kernel, f, x, grid)
    N_vals = np.array([normalization_N(spec, T) for T in T_grid])
    return RenormCurve(T_grid, integrals / N_vals, target, N_vals, errors / N_vals)


def unnormalized_potential_integral(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    T: float,
    grid: GridSpec,
) -> float:
    """int_0^T v(s, x) ds without the 1/N(T) renormalization (diverges in T).

    The curve's continuum radial quadrature; grid is not used.
    """
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
    if T <= 0:
        raise ValueError("T must be positive")
    if n < 2:
        raise ValueError("need n >= 2 replicas")
    if method not in ("conditional", "raw"):
        raise ValueError(f"unknown method {method!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if spec.clipped_mean is None:
        raise ConfigError("the subordinator has no clipped mean E[S(tau) ^ T]")
    clipped_mean = spec.clipped_mean
    rng = np.random.default_rng(seed)
    N_T = normalization_N(spec, T)
    tau_stop = _horizon(clipped_mean, T)

    def consume(c):
        # clipped S at the end of each interval, summed down each path's column;
        # the increments drawn for padded rows (duration 0) must add exactly 0
        if method == "raw":
            steps = spec.increment_sampler(c.durations, c.rng, c.durations.shape)
            clipped = np.minimum(np.cumsum(np.where(c.durations > 0, steps, 0.0), axis=0), T)
        else:
            clipped = clipped_mean(T, np.cumsum(c.durations, axis=0))
        rows = _deposit(bins, c, np.diff(clipped, axis=0, prepend=0.0) / N_T)
        # the time a path has left after tau* counts as escaped
        rows[:, -1] += (T - clipped[-1]) / N_T
        return _Moments.of(rows)

    parts, _ = _map_paths(kernel, x, tau_stop, n, rng, consume, int(np.prod(bins.shape)))
    return _histogram(bins, parts, T)


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
    if t_grid.size < 4:
        raise ValueError("need at least four time grid points")
    dts = np.diff(t_grid)
    dt = dts[0]
    if t_grid[0] != 0.0 or np.max(np.abs(dts - dt)) > 1e-9 * dt:
        raise ValueError("t_grid must be uniform and start at 0")
    if grid is None:
        if f.grid_samples is None:
            raise ValueError("pass a grid or use an f with grid samples")
        grid = f.grid_samples.grid
    fs = f.samples_on(grid)
    classes = _RateClasses.build(kernel, fs, x)
    rates, w_class = classes.rates, classes.weights

    m = t_grid.size - 1
    weights = _mixture_weights(spec, t_grid[1:], rates)
    lw_class = -rates * w_class
    # einsum, not BLAS: a threaded matrix-vector product this small waits for its second thread
    v = np.concatenate(([np.sum(w_class)], np.einsum("ij,j->i", weights, w_class)))
    lv = np.concatenate(([np.sum(lw_class)], np.einsum("ij,j->i", weights, lw_class)))
    masses = kernel_cell_masses(spec, dt, m)
    k_vals = np.concatenate(([0.0], np.asarray(spec.k_eval(t_grid[1:]), dtype=float)))
    dv = gfd_apply(k_vals, v, dt, cell_masses=masses)  # values at t_1 .. t_{m-1}
    resid = np.abs(dv - lv[1:m])
    keep = t_grid[1:m] >= max(t_min, t_grid[2])
    return float(np.max(resid[keep]))

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
from scipy import special

from . import laplace
from .errors import ConfigError, InvalidInputError, InversionInstabilityError, TruncationError, _require, _require_mc
from .green import CLFunction, _radial_value, _RateClasses, _require_green_measure, potential
from .grids import GridSpec, _finite_point, _panel_rule
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
    grid: GridSpec,
):
    """v(t, x) = int_0^infty u(tau, x) rho_t(tau) dtau, summed in closed form.

    u is the semigroup of X applied to f, a sum of exponentials
    sum_c w_c e^{-tau r_c} over the grid's rate classes, so the tau-integral
    is exactly sum_c w_c E e^{-r_c D(t)}: no tau cutoff and no quadrature.
    t is a scalar (the result is a float) or a 1-D array of times (the
    result is an array): the rate classes are built once, and one
    subordinate._mixture_weights call (Laplace inversion, or the spec's
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
    _require_mc(n, seed)
    x = _finite_point(x, kernel.dim)  # before any draw of D(t), which may cost many law evaluations
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
    """tau* = min{tau : T - C_T(tau) <= 1e-8 T}, bracketed on powers of 2, then bisected.

    The bracket is found by doubling or halving from tau = 1, one tau per clipped-mean
    call, since the Kanter rule of a stable alpha holds its nodes for every tau of a call
    and grows with the smallest.  Powers run from 2^-40 (below which the bracket starts
    at 0) to 2^199.
    """
    def done(tau):
        return T - clipped_mean(T, np.array([tau]))[0] <= 1e-8 * T

    hi = 1.0
    if done(hi):
        while hi > 2.0**-40 and done(0.5 * hi):
            hi *= 0.5
    else:
        while not done(hi):
            if hi >= 2.0**199:
                raise TruncationError(f"E[S(tau) ^ T] does not reach T = {T:.6g}")
            hi *= 2.0
    lo = 0.5 * hi if hi > 2.0**-40 else 0.0
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if done(mid) else (mid, hi)
    return hi


def _occupation_integrals(kernel, spec, f, x, T_grid) -> tuple[np.ndarray, np.ndarray]:
    """int_0^T v(s, x) ds for each T in T_grid, and the quadrature error estimate of each.

    It is (2 pi)^{-d} int f_hat(k) e^{i(k,x)} W_T(1 - a_hat(k)) dk with W_T(r) =
    int_0^T E e^{-r D(s)} ds from _mixture_weights, one call for every T, and one call of
    the radial rule green._radial_value.  Raises unless the Green measure exists and the
    limit's hypotheses on the spec hold.
    """
    _require_green_measure(kernel)
    if not check_H(spec).passed:
        raise ConfigError("the subordinator fails the kernel limits")
    if not check_admissible(spec, s0=1.0).passed:
        raise ConfigError("the subordinator fails admissibility")
    if f.fourier is None:
        raise ConfigError(f"the curve needs the radial Fourier transform of {f.name}")

    def multiplier(k, a_hat, gap):
        return f.fourier(k) * _mixture_weights(spec, T_grid, gap, integrated=True)

    return _radial_value(kernel, x, multiplier)


def renormalized_potential_curve(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    T_grid,
    grid: Optional[GridSpec] = None,
) -> RenormCurve:
    """(1/N(T)) int_0^T v(s, x) ds along T_grid, with target V(x, f) = f(x) + (G_0 * f)(x).

    The integrals are one exp-sinh radial sum in the continuum (green._radial_value) and
    the target is potential's radial route, so grid is optional and not read.  The
    integrals read the spec's laplace_closed_form where it has one (the 1/2-stable
    W_T), else its Phi, never its clipped mean, and need f.fourier (an f
    without it gets a ConfigError).  quad_errors records the rule's error estimate
    of each value: its gap to the half-step sum plus its two end terms.
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
) -> float:
    """int_0^T v(s, x) ds without the 1/N(T) renormalization.

    The curve's continuum radial quadrature; it reads no grid.  Under the hypotheses it
    checks, assumption (H) with K(0+) = infinity, so that S has no finite mean, it grows
    without bound, like N(T) V(x, f).  A subordinator with a finite mean Phi'(0) would give
    the finite limit Phi'(0) V(x, f) instead, but such a spec fails (H) and is refused.
    """
    _require(0 < T < np.inf, "T", "finite and positive")
    return float(_occupation_integrals(kernel, spec, f, x, [T])[0][0])


# ---------------------------------------------------------------------------
# renormalized occupation histogram of Z
# ---------------------------------------------------------------------------


def _state_weights(spec: SubordinatorSpec, T: float) -> np.ndarray:
    """w_n = E[S(G_{n+1}) ^ T - S(G_n) ^ T] for n = 0 .. n_max: the mean Z-time in the walk's n-th state.

    G_n ~ Gamma(n, 1) is the n-th jump time of X, independent of S, and
    E e^{-lambda S(G_n)} = (1 + Phi(lambda))^{-n} (Bertoin, Subordinators: examples
    and applications, LNM 1717), so w_n = L^{-1}[Phi / (lambda^2 (1 + Phi)^{n+1})](T)
    and the w_n sum to T.  n_max is the least n with T - (w_0 + ... + w_n) <= 1e-8 T.
    The table is laplace.state_weights of the spec's Phi; where its gate raises, it is
    _quadrature_weights, the same w_n from the spec's clipped mean.
    """
    try:
        return laplace.state_weights(spec.phi_eval, T)
    except InversionInstabilityError:
        return _quadrature_weights(spec, T)


def _quadrature_weights(spec: SubordinatorSpec, T: float) -> np.ndarray:
    """The weight table of _state_weights from the clipped mean: w_n = R_{n-1} - R_n, R_{-1} = T.

    R_n = E[T - C_T(G_{n+1})] integrates T - C_T against the Gamma(n + 1) density,
    which in s = sqrt(tau) is 2 s^{2n+1} e^{-s^2} / n!, a bump of width about 0.7
    at sqrt(n + 1/2).  12-node Gauss-Legendre panels of width 1/2 in s sum it
    (unit panels left 1e-10 T at stable alpha = 0.9, T = 10, where T - C_T falls
    like exp(-c s^20)), each row over the nodes within 8 of its bump, so C_T is
    evaluated once per node.  The rows run to n = tau* + 10 sqrt(tau*) + 10, where G_{n+1} falls
    short of tau* with probability below 1e-20; TruncationError if R_n still
    exceeds 1e-8 T there.
    """
    tau_stop = _horizon(spec.clipped_mean, T)
    n = np.arange(int(np.ceil(tau_stop + 10.0 * np.sqrt(tau_stop) + 10.0)) + 1)
    centre = np.sqrt(n + 0.5)
    s, w = _panel_rule(0.5 * np.arange(np.ceil(2.0 * centre[-1] + 16.0) + 1.0), 12)
    mass = w * (T - spec.clipped_mean(T, s * s))
    lo, hi = np.searchsorted(s, centre - 8.0), np.searchsorted(s, centre + 8.0)
    R = np.empty(n.size)
    for i in range(0, n.size, 256):  # rows in blocks, each over the columns its bumps reach
        k = n[i:i + 256, None]
        cols = slice(lo[k[0, 0]], hi[k[-1, 0]])
        log_density = np.log(2.0) + (2.0 * k + 1.0) * np.log(s[cols]) - s[cols] ** 2 - special.gammaln(k + 1.0)
        R[i:i + 256] = np.exp(log_density) @ mass[cols]
    done = np.flatnonzero(R <= 1e-8 * T)
    if not done.size:
        raise TruncationError(f"the state weights do not reach T = {T:.6g} by n = {n[-1]}")
    return -np.diff(R[:done[0] + 1], prepend=T)


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

    Z holds the n-th state Y_n of X (x plus X's first n jumps) during
    [S(G_n), S(G_{n+1})) clipped at T, where G_n is the n-th jump time of X, so
    the occupation measure has no time-grid bias.  The default (method
    "conditional") integrates the clock out: every replica is a walk
    Y_0 .. Y_{n_max} that deposits the deterministic weight
    w_n = E[S(G_{n+1}) ^ T - S(G_n) ^ T] (_state_weights) at Y_n, and counts
    T - (w_0 + ... + w_{n_max}) <= 1e-8 T as escaped; it draws no jump time and
    no S-increment, so replicas differ only through the light-tailed walk.
    Method "raw" is the cross-check: it draws X paths with their jump times up
    to the horizon tau* = min{tau : T - C_T(tau) <= 1e-8 T},
    C_T(tau) = E[S(tau) ^ T], samples S at the jump times, and counts the time
    a path has left after tau* as escaped.  A spec without a clipped mean gets
    a ConfigError (raw needs it, and so does the weight table where its inversion
    gate fails).  Returns (mean histogram, per-bin standard error).
    """
    _require(0 < T < np.inf, "T", "finite and positive")
    x = _finite_point(x, kernel.dim)
    _require(bins.dim == kernel.dim, "bins", f"a BinSpec of kernel.dim = {kernel.dim} axes")
    if method not in ("conditional", "raw"):
        raise InvalidInputError(f"method must be 'conditional' or 'raw', not {method!r}")
    _require_mc(n, seed)
    if spec.clipped_mean is None:
        raise ConfigError("the subordinator has no clipped mean E[S(tau) ^ T]")
    rng = np.random.default_rng(seed)
    N_T = normalization_N(spec, T)
    if method == "conditional":
        w = _state_weights(spec, T)
        deposit, escaped = w[:, None] / N_T, (T - w.sum()) / N_T
        return _mc_occupation(kernel, x, None, bins, n, rng,
                              lambda c: (np.broadcast_to(deposit, c.states.shape[1:]), escaped), jumps=w.size - 1)

    def weights(c):
        # clipped S at the end of each interval, summed down each path's column;
        # the increments drawn for padded rows (duration 0) must add exactly 0
        steps = spec.increment_sampler(c.durations, c.rng, c.durations.shape)
        clipped = np.minimum(np.cumsum(np.where(c.durations > 0, steps, 0.0), axis=0), T)
        # the time a path has left after tau* counts as escaped
        return np.diff(clipped, axis=0, prepend=0.0) / N_T, (T - clipped[-1]) / N_T

    return _mc_occupation(kernel, x, _horizon(spec.clipped_mean, T), bins, n, rng, weights)


# ---------------------------------------------------------------------------
# fractional Kolmogorov residual
# ---------------------------------------------------------------------------


def fke_residual(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    t_grid,
    grid: GridSpec,
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

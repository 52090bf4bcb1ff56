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
from scipy import integrate, optimize, special

from .errors import ConfigError, DivergentGreenMeasureError, TruncationError
from .green import (
    CLFunction,
    GreenExistence,
    _RateClasses,
    check_green_existence,
    potential,
)
from .grids import FieldGrid, GridSpec
from .kernels import JumpKernel
from .simulate import BinSpec, McEstimate, OccupationHistogram, _deposit
from .subordinate import (
    SubordinatorSpec,
    _k_integral,
    check_H,
    check_admissible,
    kernel_cell_masses,
    rho_density,
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


def _is_half_stable(spec: SubordinatorSpec) -> bool:
    return spec.family == "stable" and abs(spec.params.get("alpha", 0.0) - 0.5) < 1e-12


def _survival_bound(spec: SubordinatorSpec, t: float, tau: float) -> float:
    """Chernoff bound for P(D(t) > tau) = P(S(tau) < t)."""

    def exponent(v):
        lam = np.exp(v)
        return lam * t - tau * float(spec.phi_eval(lam))

    res = optimize.minimize_scalar(exponent, bounds=(-30.0, 30.0), method="bounded")
    return float(min(1.0, np.exp(res.fun)))


def _default_tau_max(spec: SubordinatorSpec, t: float, tail_tol: float) -> float:
    tau = max(10.0, 10.0 * t)
    for _ in range(60):
        if _survival_bound(spec, t, tau) < tail_tol:
            return tau
        tau *= 2.0
    raise TruncationError("could not find a tau cutoff with small survival bound")


def subordinated_solution(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    t: float,
    grid: Optional[GridSpec] = None,
    tol: float = 1e-9,
    tail_tol: float = 1e-8,
    tau_max: Optional[float] = None,
) -> float:
    """v(t, x) = int_0^infty u(tau, x) rho_t(tau) dtau by adaptive quadrature.

    u is the semigroup of X applied to f; the integral is cut at tau_max
    where the remainder is bounded by sup|f| times a Chernoff bound for
    P(D(t) > tau_max).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if grid is None:
        if f.grid_samples is None:
            raise ValueError("pass a grid or use an f with grid samples")
        grid = f.grid_samples.grid
    fs = f.samples_on(grid)
    sup = f.sup_norm if f.sup_norm is not None else float(np.max(np.abs(fs.values)))
    if tau_max is None:
        tau_max = _default_tau_max(spec, t, tail_tol / max(sup, 1e-300))
    tail = sup * _survival_bound(spec, t, tau_max)
    if tail > 100.0 * tail_tol:
        raise TruncationError(f"tau cutoff {tau_max} leaves tail bound {tail:.3e}")

    u = _RateClasses.build(kernel, fs, x)

    def integrand(tau):
        return float(u(tau)[0]) * rho_density(spec, t, tau)

    # rho_t has scale sqrt(t)-ish; grade the breakpoints around it
    pts = np.unique(np.concatenate([np.geomspace(tau_max * 1e-8, tau_max, 16)]))
    val, err = integrate.quad(
        integrand, 0.0, tau_max, points=pts.tolist(), limit=300, epsabs=tol, epsrel=tol
    )
    if err > max(100.0 * tol, 1e-6 * abs(val)) and err > 1e-8:
        raise TruncationError(f"subordination quadrature error estimate {err:.3e}")
    return float(val)


def mc_time_changed_expectation(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    t: float,
    n: int,
    seed: int,
    ds: Optional[float] = None,
) -> McEstimate:
    """Sample mean of f(Z(t)) with Z = X(D(t)).

    D(t) is drawn exactly for the 1/2-stable family (half-normal marginal);
    other families fall back to grid first passage with step ds.
    """
    if n < 2:
        raise ValueError("need n >= 2 samples")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return McEstimate(f.value_at(x), 0.0, n, seed)
    rng = np.random.default_rng(seed)
    if _is_half_stable(spec):
        d_draws = np.abs(rng.normal(0.0, np.sqrt(2.0 * t), size=n))
    else:
        if ds is None:
            ds = 1e-3 * t
        d_draws = sample_inverse_many(spec, t, ds, n, seed=int(rng.integers(2**63)))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    counts = rng.poisson(d_draws)
    total = int(counts.sum())
    jumps = kernel.sampler(rng, total)
    ends = np.cumsum(counts)
    sums = np.zeros((n, x.size))
    if total:
        cum = np.cumsum(jumps, axis=0)
        nz = counts > 0
        sums[nz] = cum[ends[nz] - 1]
        first = np.flatnonzero(nz)
        if first.size > 1:
            sums[first[1:]] -= cum[ends[first[:-1]] - 1]
    vals = f.values_at(x[None, :] + sums)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n))
    return McEstimate(mean, stderr, n, seed, {"time_change": spec.family})


def normalization_N(spec: SubordinatorSpec, T: float) -> float:
    """N(T) = int_0^T k(s) ds, analytic when the family has a primitive."""
    if T < 0:
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


def _occupation_weight_half_stable(T: float, tau: np.ndarray) -> np.ndarray:
    """R(T, tau) = int_0^T rho_s(tau) ds for the 1/2-stable inverse subordinator."""
    tau = np.asarray(tau, dtype=float)
    z = tau / (2.0 * np.sqrt(T))
    return 2.0 * np.sqrt(T / np.pi) * np.exp(-(z**2)) - tau * special.erfc(z)


@dataclass
class _PointSemigroup:
    """u(tau, x) evaluator with a power-law continuation past the box horizon.

    The grid representation of the semigroup is only trustworthy while the
    process has not felt the periodic box; beyond tau0 we continue with
    c (tau + s)^{-p}, p = d/alpha, fitted to the grid values at tau0/2, tau0.
    """

    u: _RateClasses
    tau0: float
    p: float
    c: float
    shift: float

    @classmethod
    def build(cls, kernel: JumpKernel, fs: FieldGrid, x, p: float, tau0: Optional[float] = None):
        grid = fs.grid
        if tau0 is None:
            tau0 = grid.half_width**2 / 16.0
        u = _RateClasses.build(kernel, fs, x)
        u_pair = u([tau0 / 2.0, tau0])
        if u_pair[0] <= 0 or u_pair[1] <= 0 or u_pair[1] >= u_pair[0]:
            raise TruncationError("semigroup values unusable for the tail fit")
        r = (u_pair[0] / u_pair[1]) ** (1.0 / p)
        shift = tau0 * (1.0 - r / 2.0) / (r - 1.0)
        if shift <= -tau0 / 2.0:
            raise TruncationError("tail fit produced an invalid shift")
        c = float(u_pair[1] * (tau0 + shift) ** p)
        return cls(u, tau0, p, c, shift)

    def __call__(self, taus) -> np.ndarray:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        out = np.empty(taus.shape)
        near = taus <= self.tau0
        if np.any(near):
            out[near] = self.u(taus[near])
        far = ~near
        if np.any(far):
            out[far] = self.c * (taus[far] + self.shift) ** (-self.p)
        return out


def _tail_exponent(kernel: JumpKernel) -> float:
    if kernel.tail_params is None:
        raise ConfigError("kernel needs tail parameters; fit alpha first")
    _, alpha = kernel.tail_params
    if kernel.dim <= alpha:
        raise DivergentGreenMeasureError(
            f"Green measure diverges: d = {kernel.dim} <= alpha = {alpha}"
        )
    return kernel.dim / alpha


def _curve_integral_half_stable(ps: _PointSemigroup, T: float) -> float:
    """int_0^infty u(tau, x) R(T, tau) dtau via graded trapezoid panels."""
    tau_hi = 30.0 * np.sqrt(T) + 10.0 * ps.tau0
    near = np.linspace(0.0, ps.tau0, 512)
    far = np.geomspace(ps.tau0, tau_hi, 4096)
    taus = np.concatenate([near, far[1:]])
    vals = ps(taus) * _occupation_weight_half_stable(T, taus)
    return float(np.trapezoid(vals, taus))


def _validate_limit_inputs(kernel: JumpKernel, spec: SubordinatorSpec) -> None:
    existence = check_green_existence(kernel)
    if existence is GreenExistence.DIVERGENT:
        raise DivergentGreenMeasureError(
            f"no Green measure for d = {kernel.dim}, alpha = {kernel.tail_params[1]}"
        )
    if existence is GreenExistence.UNKNOWN:
        raise ConfigError("kernel tail exponent unknown; fit alpha before the limit")
    if not check_H(spec).passed:
        raise ConfigError(f"subordinator family {spec.family!r} fails the kernel limits")
    if not check_admissible(spec, s0=1.0).passed:
        raise ConfigError(f"subordinator family {spec.family!r} fails admissibility")


def _occupation_integrals(kernel, spec, f, x, T_grid, grid, tau0) -> np.ndarray:
    """int_0^T v(s, x) ds for each T in T_grid.

    The 1/2-stable family uses the closed-form occupation weight
    R(T, tau) = int_0^T rho_s(tau) ds, reducing each T to a single
    tau-quadrature; other families integrate v(s, x) in s directly.
    """
    _validate_limit_inputs(kernel, spec)
    if _is_half_stable(spec):
        ps = _PointSemigroup.build(kernel, f.samples_on(grid), x, _tail_exponent(kernel), tau0)
        return np.array([_curve_integral_half_stable(ps, T) for T in T_grid])
    return np.array([
        integrate.quad(
            lambda s: subordinated_solution(kernel, spec, f, x, s, grid=grid),
            0.0,
            T,
            points=np.geomspace(max(T * 1e-6, 1e-8), T, 10).tolist(),
            limit=100,
            epsrel=1e-6,
        )[0]
        for T in T_grid
    ])


def renormalized_potential_curve(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    T_grid,
    grid: GridSpec,
    tau0: Optional[float] = None,
) -> RenormCurve:
    """(1/N(T)) int_0^T v(s, x) ds along T_grid, with target V(x, f)."""
    T_grid = np.asarray(T_grid, dtype=float)
    integrals = _occupation_integrals(kernel, spec, f, x, T_grid, grid, tau0)
    target = potential(kernel, f, x, grid)
    N_vals = np.array([normalization_N(spec, T) for T in T_grid])
    return RenormCurve(T_grid, integrals / N_vals, target, N_vals)


def unnormalized_potential_integral(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    f: CLFunction,
    x,
    T: float,
    grid: GridSpec,
    tau0: Optional[float] = None,
) -> float:
    """int_0^T v(s, x) ds without the 1/N(T) renormalization (diverges in T)."""
    return float(_occupation_integrals(kernel, spec, f, x, [T], grid, tau0)[0])


# ---------------------------------------------------------------------------
# renormalized occupation histogram of Z
# ---------------------------------------------------------------------------


def _clipped_mean_half_stable(T: float, tau: np.ndarray) -> np.ndarray:
    """E[S(tau) ^ T] for the 1/2-stable subordinator, in closed form."""
    tau = np.asarray(tau, dtype=float)
    z = tau / (2.0 * np.sqrt(T))
    return (
        T * special.erf(z)
        + tau * np.sqrt(T / np.pi) * np.exp(-(z**2))
        - 0.5 * tau**2 * special.erfc(z)
    )


def _conditional_histogram(kernel, spec, x, T, bins, n, seed):
    """Z-occupation with the S-randomness integrated out (1/2-stable only).

    Conditional on the X path, the expected holding time of Z in the state
    on [tau_i, tau_{i+1}) is E[S(tau_{i+1}) ^ T] - E[S(tau_i) ^ T]; replicas
    then differ only through the light-tailed X path, which slashes the
    variance relative to sampling the Levy increments of S directly.
    """
    rng = np.random.default_rng(seed)
    N_T = normalization_N(spec, T)
    # beyond tau_stop the remaining expected mass is negligible
    tau_stop = 8.0 * np.sqrt(T) + 16.0
    n_bins = int(np.prod(bins.shape))
    acc = np.zeros(n_bins)
    acc2 = np.zeros(n_bins)
    escaped = 0.0
    for _ in range(n):
        count = rng.poisson(tau_stop)
        times = np.sort(rng.uniform(0.0, tau_stop, size=count))
        jumps = kernel.sampler(rng, count)
        states = np.vstack([x[None, :], x[None, :] + np.cumsum(jumps, axis=0)])
        knots = np.concatenate(([0.0], times, [tau_stop]))
        weights = np.diff(_clipped_mean_half_stable(T, knots)) / N_T
        idx = bins.flat_index(states)
        inside = idx >= 0
        repl = np.bincount(idx[inside], weights=weights[inside], minlength=n_bins)
        acc += repl
        acc2 += repl**2
        escaped += float(weights[~inside].sum()) + (T - float(
            _clipped_mean_half_stable(T, tau_stop)
        )) / N_T
    mean = acc / n
    var = np.maximum(acc2 / n - mean**2, 0.0)
    stderr = np.sqrt(var / n)
    return (
        OccupationHistogram(bins, mean.reshape(bins.shape), escaped / n, T),
        stderr.reshape(bins.shape),
    )


def renormalized_green_histogram(
    kernel: JumpKernel,
    spec: SubordinatorSpec,
    x,
    T: float,
    bins: BinSpec,
    n: int,
    seed: int,
    method: str = "auto",
):
    """Monte Carlo occupation of Z = X(D(.)) over [0, T], divided by N(T).

    The holding time of Z in the i-th state of X is S(tau_{i+1}) - S(tau_i)
    clipped at T, where tau_i are the jump times of X; the subordinator is
    therefore sampled exactly at those times and the occupation measure has
    no time-grid bias.  For the 1/2-stable family the default integrates the
    heavy-tailed S-increments out analytically (method "conditional");
    method "raw" keeps them sampled.  Returns (mean histogram, per-bin
    standard error).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if n < 2:
        raise ValueError("need n >= 2 replicas")
    if method not in ("auto", "conditional", "raw"):
        raise ValueError(f"unknown method {method!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if method in ("auto", "conditional") and _is_half_stable(spec):
        return _conditional_histogram(kernel, spec, x, T, bins, n, seed)
    if method == "conditional":
        raise ValueError(f"no conditional scheme for family {spec.family!r}")
    rng = np.random.default_rng(seed)
    N_T = normalization_N(spec, T)
    n_bins = int(np.prod(bins.shape))
    acc = np.zeros(n_bins)
    acc2 = np.zeros(n_bins)
    escaped = 0.0
    chunk = 1024
    max_steps = 20_000_000 // max(chunk, 1)
    done = 0
    while done < n:
        c = min(chunk, n - done)
        s_level = np.zeros(c)
        pos = np.tile(x, (c, 1))
        repl = np.zeros((c, n_bins))
        repl_esc = np.zeros(c)
        rows = np.arange(c)
        for _ in range(max_steps):
            gaps = rng.exponential(size=c)
            incs = np.asarray(spec.increment_sampler(gaps, rng, c), dtype=float)
            dur = np.minimum(s_level + incs, T) - np.minimum(s_level, T)
            idx = bins.flat_index(pos)
            inside = idx >= 0
            np.add.at(repl, (rows[inside], idx[inside]), dur[inside])
            repl_esc += np.where(inside, 0.0, dur)
            s_level += incs
            if np.all(s_level >= T):
                break
            pos = pos + kernel.sampler(rng, c)
        else:
            raise TruncationError("Z-occupation failed to exhaust the horizon")
        repl /= N_T
        acc += repl.sum(axis=0)
        acc2 += (repl**2).sum(axis=0)
        escaped += repl_esc.sum() / N_T
        done += c
    mean = acc / n
    var = np.maximum(acc2 / n - mean**2, 0.0)
    stderr = np.sqrt(var / n)
    return (
        OccupationHistogram(bins, mean.reshape(bins.shape), escaped / n, T),
        stderr.reshape(bins.shape),
    )


# ---------------------------------------------------------------------------
# fractional Kolmogorov residual
# ---------------------------------------------------------------------------


def _laplace_weights(spec: SubordinatorSpec, t: float, rates: np.ndarray) -> np.ndarray:
    """E[e^{-r D(t)}] per rate r >= 0 (Mittag-Leffler weights of the mixture)."""
    rates = np.asarray(rates, dtype=float)
    if _is_half_stable(spec):
        # E_{1/2}(-r sqrt(t)) = e^{r^2 t} erfc(r sqrt(t)), computed stably
        return special.erfcx(rates * np.sqrt(t))
    tau_max = _default_tau_max(spec, t, 1e-10)
    taus = np.concatenate(([0.0], np.geomspace(tau_max * 1e-8, tau_max, 800)))
    rho = np.array([rho_density(spec, t, tau) for tau in taus])
    damp = np.exp(-np.outer(taus, rates))
    return np.trapezoid(rho[:, None] * damp, taus, axis=0)


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

    v and Lv are evaluated from the exact spectral mixture, so the residual
    isolates the time discretization of the fractional derivative.  The
    first interior node is always excluded (the memory kernel is singular at
    0); v itself has a sqrt-type cusp there, so convergence studies should
    also pass a fixed burn-in window t_min to keep the measured region away
    from the shrinking boundary layer.
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
    v = np.empty(m + 1)
    lv = np.empty(m + 1)
    v[0] = float(np.sum(w_class))
    lv[0] = float(np.sum(-rates * w_class))
    for j in range(1, m + 1):
        ml = _laplace_weights(spec, t_grid[j], rates)
        v[j] = float(np.sum(ml * w_class))
        lv[j] = float(np.sum(-rates * ml * w_class))
    masses = kernel_cell_masses(spec, dt, m)
    k_vals = np.concatenate(([0.0], np.asarray(spec.k_eval(t_grid[1:]), dtype=float)))
    dv = gfd_apply(k_vals, v, dt, cell_masses=masses)  # values at t_1 .. t_{m-1}
    resid = np.abs(dv - lv[1:m])
    keep = t_grid[1:m] >= max(t_min, t_grid[2])
    return float(np.max(resid[keep]))

"""Subordinators, inverse subordinators and the generalized fractional derivative.

A driftless subordinator S is described by its Levy density, the tail
kernel k(t) = sigma((t, infinity)), the Laplace transform K(lambda) of k,
and the Laplace exponent Phi(lambda) = lambda K(lambda).  The inverse
process D(t) = inf{s : S(s) >= t} has marginal density rho_t with
t-Laplace transform K(lambda) e^{-tau lambda K(lambda)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import integrate, special

from .errors import InversionInstabilityError, TruncationError

__all__ = [
    "SubordinatorSpec",
    "InverseSubSample",
    "make_stable_subordinator",
    "make_gamma_subordinator",
    "check_H",
    "check_admissible",
    "sample_inverse_subordinator",
    "sample_inverse_many",
    "inverse_subordinator_curve",
    "rho_density",
    "time_averaged_ratio",
    "gfd_apply",
    "kernel_cell_masses",
]


@dataclass(frozen=True)
class SubordinatorSpec:
    """Driftless subordinator with derived kernels and an increment sampler.

    k_primitive is the exact primitive int_0^t k(s) ds where available;
    rho_closed_form is set for families with a known inverse-process density.
    """

    family: str
    params: dict
    levy_density: Callable
    k_eval: Callable
    K_eval: Callable
    phi_eval: Callable
    increment_sampler: Callable  # (dt, rng, size) -> nonnegative increments
    k_primitive: Optional[Callable] = None
    rho_closed_form: Optional[Callable] = None  # (t, tau) -> density

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


@dataclass
class InverseSubSample:
    t: float
    value: float
    path_resolution: float

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("inverse subordinator value must be >= 0")


def _standard_stable(alpha: float, rng, size) -> np.ndarray:
    """One-sided alpha-stable with Laplace transform e^{-lambda^alpha} (Kanter)."""
    u = rng.uniform(0.0, np.pi, size=size)
    e = rng.exponential(size=size)
    a = (np.sin(alpha * u) / np.sin(u)) ** (1.0 / alpha)
    b = (np.sin((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha)
    return a * b


def make_stable_subordinator(alpha: float) -> SubordinatorSpec:
    """alpha-stable subordinator: Phi = lambda^alpha, k(t) = t^{-alpha}/Gamma(1-alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"stable index must lie in (0, 1), got {alpha}")
    c_levy = alpha / special.gamma(1.0 - alpha)
    g1a = special.gamma(1.0 - alpha)
    g2a = special.gamma(2.0 - alpha)

    def levy_density(tau):
        tau = np.asarray(tau, dtype=float)
        return c_levy * tau ** (-1.0 - alpha)

    def k_eval(t):
        t = np.asarray(t, dtype=float)
        return t ** (-alpha) / g1a

    def K_eval(lam):
        lam = np.asarray(lam)
        return lam ** (alpha - 1.0)

    def phi_eval(lam):
        lam = np.asarray(lam)
        return lam**alpha

    def k_primitive(t):
        t = np.asarray(t, dtype=float)
        return t ** (1.0 - alpha) / g2a

    if alpha == 0.5:
        # Levy-distribution shortcut: e^{-dt sqrt(lambda)} is Levy(dt^2 / 2)
        def increment_sampler(dt, rng, size):
            z = rng.standard_normal(size)
            return 0.5 * dt * dt / (z * z)

        def rho_closed_form(t, tau):
            return np.exp(-(np.asarray(tau, float) ** 2) / (4.0 * t)) / np.sqrt(np.pi * t)

    else:
        scale = lambda dt: dt ** (1.0 / alpha)

        def increment_sampler(dt, rng, size):
            return scale(dt) * _standard_stable(alpha, rng, size)

        rho_closed_form = None

    return SubordinatorSpec(
        "stable",
        {"alpha": alpha},
        levy_density,
        k_eval,
        K_eval,
        phi_eval,
        increment_sampler,
        k_primitive,
        rho_closed_form,
    )


def make_gamma_subordinator(a: float, b: float) -> SubordinatorSpec:
    """Gamma subordinator: Levy density b e^{-a tau}/tau, Phi = b log(1 + lambda/a)."""
    if a <= 0 or b <= 0:
        raise ValueError("gamma subordinator needs a > 0 and b > 0")

    def levy_density(tau):
        tau = np.asarray(tau, dtype=float)
        return b * np.exp(-a * tau) / tau

    def k_eval(t):
        t = np.asarray(t, dtype=float)
        return b * special.exp1(a * t)

    def phi_eval(lam):
        lam = np.asarray(lam)
        return b * np.log1p(lam / a) if np.isrealobj(lam) else b * np.log(1.0 + lam / a)

    def K_eval(lam):
        return phi_eval(lam) / np.asarray(lam)

    def k_primitive(t):
        # int_0^t E1(a s) ds = t E1(a t) + (1 - e^{-a t})/a; t E1(a t) -> 0 at t = 0
        t = np.asarray(t, dtype=float)
        t_e1 = t * special.exp1(a * t, out=np.zeros_like(t), where=t > 0)
        return b * (t_e1 - np.expm1(-a * t) / a)

    def increment_sampler(dt, rng, size):
        return rng.gamma(b * dt, 1.0 / a, size=size)

    return SubordinatorSpec(
        "gamma",
        {"a": a, "b": b},
        levy_density,
        k_eval,
        K_eval,
        phi_eval,
        increment_sampler,
        k_primitive,
        None,
    )


# ---------------------------------------------------------------------------
# assumption (H) and admissibility diagnostics
# ---------------------------------------------------------------------------


@dataclass
class HReport:
    """Numeric verification of the kernel/Laplace-exponent limit conditions."""

    K_diverges_at_zero: bool
    K_vanishes_at_infinity: bool
    phi_vanishes_at_zero: bool
    phi_diverges_at_infinity: bool
    phi_lambda_K_identity: bool
    completely_monotone: bool
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.K_diverges_at_zero
            and self.K_vanishes_at_infinity
            and self.phi_vanishes_at_zero
            and self.phi_diverges_at_infinity
            and self.phi_lambda_K_identity
            and self.completely_monotone
        )


def check_H(spec: SubordinatorSpec) -> HReport:
    """Probe the four limit conditions on K and Phi plus complete monotonicity."""
    lam_small = np.geomspace(1e-8, 1e-2, 7)
    lam_large = np.geomspace(1e2, 1e8, 7)
    K_small = np.asarray(spec.K_eval(lam_small), dtype=float)
    K_large = np.asarray(spec.K_eval(lam_large), dtype=float)
    phi_small = np.asarray(spec.phi_eval(lam_small), dtype=float)
    phi_large = np.asarray(spec.phi_eval(lam_large), dtype=float)

    # divergence probes are ratio-based so logarithmic growth still registers
    K_div = bool(np.all(np.diff(K_small) < 0) and K_small[0] > 2.0 * K_small[-1])
    K_van = bool(np.all(np.diff(K_large) < 0) and K_large[-1] < 1e-2)
    phi_van = bool(np.all(np.diff(phi_small) >= 0) and phi_small[0] < 1e-2)
    phi_div = bool(np.all(np.diff(phi_large) >= 0) and phi_large[-1] > 2.0 * phi_large[0])

    probes = np.geomspace(1e-3, 1e3, 25)
    ident = np.asarray(spec.phi_eval(probes), dtype=float)
    lamK = probes * np.asarray(spec.K_eval(probes), dtype=float)
    ident_ok = bool(np.max(np.abs(ident - lamK) / np.maximum(np.abs(ident), 1e-300)) < 1e-8)

    # sign alternation of finite differences of the Levy density, orders <= 4
    cm = True
    for t0 in (0.1, 1.0, 10.0):
        h = t0 / 50.0
        vals = np.asarray(spec.levy_density(t0 + h * np.arange(6)), dtype=float)
        for order in range(1, 5):
            vals = np.diff(vals)
            if np.any((-1.0) ** order * vals < -1e-12 * abs(vals).max()):
                cm = False

    return HReport(
        K_div,
        K_van,
        phi_van,
        phi_div,
        ident_ok,
        cm,
        details={
            "K_at_small_lambda": float(K_small[0]),
            "K_at_large_lambda": float(K_large[-1]),
            "phi_at_small_lambda": float(phi_small[0]),
            "phi_at_large_lambda": float(phi_large[-1]),
        },
    )


def _k_integral(spec: SubordinatorSpec, t) -> np.ndarray:
    """int_0^t k(s) ds, analytic when a primitive is available."""
    t = np.asarray(t, dtype=float)
    if spec.k_primitive is not None:
        return np.asarray(spec.k_primitive(t), dtype=float)
    out = np.empty(t.shape if t.ndim else ())
    flat = np.atleast_1d(t)
    res = np.empty(flat.shape)
    for i, ti in enumerate(flat):
        # graded split controls the integrable singularity of k at 0
        pts = np.geomspace(max(ti * 1e-10, 1e-300), ti, 12).tolist()
        res[i] = integrate.quad(
            lambda s: float(spec.k_eval(s)), 0.0, ti, points=pts, limit=200
        )[0]
    out[...] = res.reshape(t.shape) if t.ndim else res[0]
    return out


@dataclass
class AdmissibilityReport:
    """Numeric estimates for the liminf condition and the slow-variation ratio."""

    a1_estimate: float
    a1_values: np.ndarray
    a2_max_deviation: float
    a2_ratios: np.ndarray
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        spread = np.max(self.a1_values) - np.min(self.a1_values)
        stable = spread < 0.2 * max(self.a1_estimate, 1e-12) or self.a1_estimate > 0
        return bool(self.a1_estimate > 0 and stable and self.a2_max_deviation < 0.15)


def check_admissible(spec: SubordinatorSpec, s0: float) -> AdmissibilityReport:
    """Estimate liminf (1/K(lambda)) int_0^{s0/lambda} k and the t/r -> 1 ratio limit."""
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    lams = np.geomspace(1e-2, 1e-6, 9)
    a1_vals = _k_integral(spec, s0 / lams) / np.asarray(spec.K_eval(lams), dtype=float)
    base_t = 1e6
    ratios_t = np.linspace(0.9, 1.1, 9)
    base = float(_k_integral(spec, np.array([base_t]))[0])
    a2 = _k_integral(spec, ratios_t * base_t) / base
    return AdmissibilityReport(
        a1_estimate=float(np.min(a1_vals)),
        a1_values=np.asarray(a1_vals),
        a2_max_deviation=float(np.max(np.abs(a2 - 1.0))),
        a2_ratios=np.asarray(a2),
        details={"s0": s0, "a2_base_t": base_t},
    )


# ---------------------------------------------------------------------------
# inverse subordinator sampling
# ---------------------------------------------------------------------------


def sample_inverse_many(
    spec: SubordinatorSpec,
    t: float,
    ds: float,
    n: int,
    seed: int,
    max_steps: int = 50_000_000,
    block: int = 4096,
    chunk: int = 2048,
) -> np.ndarray:
    """First-passage times over level t of S simulated on the grid {0, ds, ...}.

    Returns n draws of D(t) with O(ds) upward discretization bias.
    """
    if t <= 0 or ds <= 0:
        raise ValueError("t and ds must be positive")
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    done = 0
    while done < n:
        m = min(chunk, n - done)
        carry = np.zeros(m)
        offset = np.zeros(m, dtype=np.int64)
        result = np.full(m, -1.0)
        alive = np.arange(m)
        while alive.size:
            if offset.size and int(offset.max()) > max_steps:
                raise TruncationError("inverse subordinator failed to cross within step cap")
            inc = spec.increment_sampler(ds, rng, (alive.size, block))
            cum = carry[:, None] + np.cumsum(inc, axis=1)
            crossed = cum >= t
            hit = crossed.any(axis=1)
            first = np.argmax(crossed, axis=1)
            if np.any(hit):
                rows = np.flatnonzero(hit)
                result[alive[rows]] = (offset[rows] + first[rows] + 1) * ds
            keep = ~hit
            carry = cum[keep, -1]
            offset = offset[keep] + block
            alive = alive[keep]
        out[done : done + m] = result
        done += m
    return out


def sample_inverse_subordinator(
    spec: SubordinatorSpec,
    t: float,
    ds: float,
    rng: np.random.Generator,
    max_steps: int = 50_000_000,
) -> InverseSubSample:
    """One draw of D(t) by grid first passage; bias is O(ds) upward."""
    if t <= 0 or ds <= 0:
        raise ValueError("t and ds must be positive")
    s = 0.0
    steps = 0
    block = 4096
    while steps <= max_steps:
        inc = spec.increment_sampler(ds, rng, block)
        cum = s + np.cumsum(inc)
        crossed = np.flatnonzero(cum >= t)
        if crossed.size:
            return InverseSubSample(t, (steps + crossed[0] + 1) * ds, ds)
        s = cum[-1]
        steps += block
    raise TruncationError("inverse subordinator failed to cross within step cap")


def inverse_subordinator_curve(
    spec: SubordinatorSpec, t_values, ds: float, rng, max_steps: int = 50_000_000
) -> np.ndarray:
    """D(t) for sorted levels t_values along one shared S path (monotone)."""
    t_values = np.asarray(t_values, dtype=float)
    if np.any(np.diff(t_values) < 0):
        raise ValueError("t_values must be sorted")
    out = np.empty(t_values.size)
    s = 0.0
    steps = 0
    i = 0
    block = 4096
    while i < t_values.size:
        if steps > max_steps:
            raise TruncationError("inverse subordinator failed to cross within step cap")
        inc = spec.increment_sampler(ds, rng, block)
        cum = s + np.cumsum(inc)
        while i < t_values.size:
            j = int(np.searchsorted(cum, t_values[i]))
            if j == block:
                break
            out[i] = (steps + j + 1) * ds
            i += 1
        s = cum[-1]
        steps += block
    return out


# ---------------------------------------------------------------------------
# marginal density of D(t)
# ---------------------------------------------------------------------------


def _talbot(F: Callable, t: float, M: int) -> float:
    """Fixed-Talbot inversion of a Laplace transform F at time t."""
    r = 2.0 * M / (5.0 * t)
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    terms = np.exp(t * s) * F(s) * (1.0 + 1j * sigma)
    return float(r / M * (0.5 * np.exp(r * t) * np.real(F(np.array([r + 0j]))[0]) + np.sum(terms.real)))


def rho_density(
    spec: SubordinatorSpec,
    t: float,
    tau: float,
    method: str = "auto",
    order: int = 24,
    instability_tol: float = 0.01,
) -> float:
    """Marginal density rho_t(tau) of the inverse subordinator.

    Uses the closed form when the family has one, otherwise fixed-Talbot
    inversion of lambda -> K(lambda) e^{-tau lambda K(lambda)} in t.  Two
    inversion orders are compared; disagreement beyond instability_tol
    raises instead of guessing.
    """
    if t <= 0 or tau < 0:
        raise ValueError("need t > 0 and tau >= 0")
    if method not in ("auto", "closed_form", "laplace"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "closed_form") and spec.rho_closed_form is not None:
        return float(spec.rho_closed_form(t, tau))
    if method == "closed_form":
        raise ValueError(f"no closed-form density for family {spec.family!r}")

    def F(s):
        K = np.asarray(spec.K_eval(s))
        return K * np.exp(-tau * s * K)

    v1 = _talbot(F, t, order)
    v2 = _talbot(F, t, 2 * order)
    scale = max(abs(v2), 1e-12)
    if abs(v1 - v2) > instability_tol * scale:
        raise InversionInstabilityError(
            f"Talbot orders {order}/{2 * order} disagree: {v1:.6g} vs {v2:.6g}"
        )
    return max(v2, 0.0)


def time_averaged_ratio(spec: SubordinatorSpec, tau: float, t: float):
    """(M_rho, M_k, ratio) with M_rho = (1/t) int_0^t rho_s(tau) ds etc.

    The ratio tends to 1 as t grows for admissible kernels.
    """
    pts = np.geomspace(max(t * 1e-8, 1e-10), t, 24).tolist()
    m_rho = (
        integrate.quad(
            lambda s: rho_density(spec, s, tau), 0.0, t, points=pts, limit=400
        )[0]
        / t
    )
    m_k = float(_k_integral(spec, np.array([t]))[0]) / t
    return m_rho, m_k, m_rho / m_k


# ---------------------------------------------------------------------------
# generalized fractional derivative
# ---------------------------------------------------------------------------


def kernel_cell_masses(spec: SubordinatorSpec, dt: float, m: int) -> np.ndarray:
    """Exact cell integrals int_{j dt}^{(j+1) dt} k(s) ds for j = 0..m-1.

    Product integration over the first cell absorbs the k(0+) singularity.
    """
    prims = _k_integral(spec, dt * np.arange(m + 1))
    return np.diff(prims)


def gfd_apply(
    k_samples: np.ndarray,
    f_samples: np.ndarray,
    dt: float,
    cell_masses: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Generalized fractional derivative d/dt (k*f) - k(t) f(0) on a uniform grid.

    k_samples holds k(t_i) for i = 0..m (only used to form trapezoid cell
    masses when exact cell_masses are absent); f_samples holds f(t_i).
    Working with g = f - f(0) folds the boundary term into the convolution,
    so constants map to exactly zero.  The convolution uses midpoint product
    integration with per-cell masses; returns values at t_1 .. t_{m-1} with
    first-order convergence or better as dt shrinks.
    """
    k_samples = np.asarray(k_samples, dtype=float)
    f_samples = np.asarray(f_samples, dtype=float)
    if k_samples.shape != f_samples.shape:
        raise ValueError("k_samples and f_samples must share the uniform grid")
    m = f_samples.size - 1
    if m < 2:
        raise ValueError("need at least three grid points")
    if cell_masses is None:
        if not np.all(np.isfinite(k_samples)):
            raise ValueError("k_samples has non-finite entries; supply cell_masses")
        cell_masses = 0.5 * dt * (k_samples[:-1] + k_samples[1:])
    cell_masses = np.asarray(cell_masses, dtype=float)
    if cell_masses.shape != (m,):
        raise ValueError(f"cell_masses must have length {m}")
    g = f_samples - f_samples[0]
    midpoints = 0.5 * (g[:-1] + g[1:])
    # (k*g)(t_i) = sum_{j<i} I_j * g(t_i - (j+1/2) dt); then d/dt (k*g) = D f
    conv = np.convolve(cell_masses, midpoints)[:m]
    full = np.concatenate(([0.0], conv))
    return (full[2:] - full[:-2]) / (2.0 * dt)

"""Subordinators, inverse subordinators and the generalized fractional derivative.

A driftless subordinator S is described by its Levy density, the tail
kernel k(t) = sigma((t, infinity)), the Laplace transform K(lambda) of k,
and the Laplace exponent Phi(lambda) = lambda K(lambda).  The inverse
process D(t) = inf{s : S(s) >= t} has marginal density rho_t with
t-Laplace transform K(lambda) e^{-tau lambda K(lambda)}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import special

from .errors import InversionInstabilityError, TruncationError

__all__ = [
    "SubordinatorSpec",
    "make_stable_subordinator",
    "make_gamma_subordinator",
    "check_H",
    "check_admissible",
    "sample_inverse_many",
    "rho_density",
    "time_averaged_ratio",
    "gfd_apply",
    "kernel_cell_masses",
]


@dataclass(frozen=True)
class SubordinatorSpec:
    """Driftless subordinator with derived kernels and an increment sampler.

    k_primitive is the exact primitive int_0^t k(s) ds where available;
    rho_closed_form is set for families with a known inverse-process density,
    and replaces the Talbot inversion in rho_density (replace it by None to
    force the inversion);
    laplace_closed_form (t, rates) -> E e^{-r D(t)} is set for families whose
    mixture weights have a closed form, and replaces their Laplace inversion;
    self_similarity is the index alpha of a self-similar family, for which
    S(c t) has the law of c^{1/alpha} S(t); passage_cdf (t, tau) ->
    P(D(t) <= tau) = P(S(tau) >= t) is set for families whose first-passage
    law has a closed form, and lets sample_inverse_many draw D(t) exactly by
    inversion, bracketing every draw of a batch from one table of the law
    (a spec with neither self_similarity nor passage_cdf is drawn by grid
    first passage); it must be nondecreasing in tau, vectorised over tau,
    and 0 at tau = 0; clipped_mean (T, tau) -> E[S(tau) ^ T] is the
    expected time s in [0, T] with D(s) <= tau, which the renormalized
    occupation limit needs.
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
    self_similarity: Optional[float] = None
    laplace_closed_form: Optional[Callable] = None  # (t, rates) -> E e^{-r D(t)}
    clipped_mean: Optional[Callable] = None  # (T, tau) -> E[S(tau) ^ T]
    passage_cdf: Optional[Callable] = None  # (t, tau) -> P(D(t) <= tau)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}


def _kanter_A(alpha: float, u, eps):
    """Kanter's A(u) on (0, pi), given eps = pi - u to keep precision at the pole u -> pi."""
    b = 1.0 / (1.0 - alpha)
    return np.sin(alpha * u) ** (alpha * b) * np.sin((1.0 - alpha) * u) / np.sin(eps) ** b


def _standard_stable(alpha: float, rng, size) -> np.ndarray:
    """One-sided alpha-stable with Laplace transform e^{-lambda^alpha}.

    Kanter (Ann. Probab. 3 (1975) 697): S = (A(U)/E)^{(1-alpha)/alpha} with U
    uniform on (0, pi) and E ~ Exp(1).
    """
    u = rng.uniform(0.0, np.pi, size=size)
    return (_kanter_A(alpha, u, np.pi - u) / rng.exponential(size=size)) ** ((1.0 - alpha) / alpha)


# rows x nodes of the Kanter quadrature held at once
_KANTER_BLOCK = 1 << 18
# Gauss-Legendre nodes and weights of one Kanter panel on [-1, 1]
_KANTER_RULE = np.polynomial.legendre.leggauss(12)


def _kanter_average(alpha: float, s, h: Callable, h_inf: float) -> np.ndarray:
    """E h(A(U) s^{1/(1-alpha)}) over U uniform on (0, pi); 0 where s = 0.

    For small s the integrand piles up at the pole u -> pi.  In y, with
    pi - u = pi e^{-y}, it is smooth: 12-node Gauss-Legendre panels of width
    min(1, 2 (1 - alpha)) cover [0, Y], where Y lies 8 e-folds beyond the
    scale pi - u = sin(alpha pi) min(s, 1) at which A s^{1/(1-alpha)} ~ 1.
    Beyond Y, h equals h_inf to roundoff, and that part is added exactly.
    """
    s = np.asarray(s, dtype=float)
    out, pos = np.zeros(s.shape), s > 0
    Y = np.log(np.pi / (np.sin(alpha * np.pi) * np.min(s[pos], initial=1.0))) + 8.0
    edges = np.linspace(0.0, Y, int(np.ceil(Y / min(1.0, 2.0 * (1.0 - alpha)))) + 1)
    x, w = _KANTER_RULE
    half = 0.5 * np.diff(edges)[:, None]
    y = (edges[:-1, None] + half * (1.0 + x)).ravel()
    A = _kanter_A(alpha, -np.pi * np.expm1(-y), np.pi * np.exp(-y))
    weights = np.exp(-y) * (half * w).ravel()
    scaled = s[pos] ** (1.0 / (1.0 - alpha))
    blocks = np.array_split(scaled, 1 + scaled.size * y.size // _KANTER_BLOCK)
    out[pos] = np.concatenate([h(b[:, None] * A) @ weights for b in blocks]) + h_inf * np.exp(-Y)
    return out


def _w_expint(p: float, w: np.ndarray) -> np.ndarray:
    """w E_p(w), E_p(w) = int_1^inf e^{-w t} t^{-p} dt, for p > 0.

    Starts at q = p - ceil(p) in (-1, 0], an upper incomplete gamma of order
    1 - q in [1, 2) (E_1 if p is an integer), and climbs by q E_{q+1} = e^{-w} - w E_q.
    """
    q = p - np.ceil(p - 1e-9)
    if q > -1e-9:
        q, f = 1.0, w * special.exp1(w)
    else:
        f = w**q * special.gamma(1.0 - q) * special.gammaincc(1.0 - q, w)
    while q < p - 0.5:
        f, q = (w * np.exp(-w) - w * f) / q, q + 1.0
    return f


def _stable_clipped_mean(alpha: float, T: float, tau) -> np.ndarray:
    """E[S(tau) ^ T] for the alpha-stable subordinator, from Kanter's representation.

    S(tau) = T (w/E)^{(1-alpha)/alpha}, w = A(U) (tau T^{-alpha})^{1/(1-alpha)}, so
    E[S(tau) ^ T | U] = T (1 - e^{-w} + w E_p(w)), p = (1 - alpha)/alpha, with
    no cancellation as tau -> 0.
    """
    p = (1.0 - alpha) / alpha
    s = np.asarray(tau, dtype=float) * T**-alpha
    return T * _kanter_average(alpha, s, lambda w: _w_expint(p, w) - np.expm1(-w), 1.0)


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

        def laplace_closed_form(t, rates):
            # E_{1/2}(-r sqrt(t)) = e^{r^2 t} erfc(r sqrt(t)), computed stably
            return special.erfcx(np.asarray(rates, float) * np.sqrt(t))

        def clipped_mean(T, tau):
            tau = np.asarray(tau, dtype=float)
            z = tau / (2.0 * np.sqrt(T))
            return (
                T * special.erf(z)
                + tau * np.sqrt(T / np.pi) * np.exp(-(z**2))
                - 0.5 * tau**2 * special.erfc(z)
            )

    else:
        def increment_sampler(dt, rng, size):
            return dt ** (1.0 / alpha) * _standard_stable(alpha, rng, size)

        def rho_closed_form(t, tau):
            # P(D(t) <= tau) = P(S(1) >= t tau^{-1/alpha}) = E[1 - e^{-w}] with
            # w = A(U) (tau t^{-alpha})^{1/(1-alpha)}; differentiate in tau.  rho_t(0) = k(t)
            tau = np.asarray(tau, dtype=float)
            mean = _kanter_average(alpha, tau * t**-alpha, lambda w: w * np.exp(-w), 0.0)
            return np.divide(mean, (1.0 - alpha) * tau, out=np.full(tau.shape, k_eval(t)), where=tau > 0)

        clipped_mean = functools.partial(_stable_clipped_mean, alpha)
        laplace_closed_form = None

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
        alpha,
        laplace_closed_form,
        clipped_mean,
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

    def clipped_mean(T, tau):
        # S(tau) ~ Gamma(b tau, rate a): E[S; S < T] + T P(S >= T)
        shape = b * np.asarray(tau, dtype=float)
        return shape / a * special.gammainc(shape + 1.0, a * T) + T * special.gammaincc(shape, a * T)

    def passage_cdf(t, tau):
        # P(S(tau) >= t) for S(tau) ~ Gamma(b tau, rate a)
        return special.gammaincc(b * np.asarray(tau, dtype=float), a * t)

    return SubordinatorSpec(
        "gamma",
        {"a": a, "b": b},
        levy_density,
        k_eval,
        K_eval,
        phi_eval,
        increment_sampler,
        k_primitive,
        clipped_mean=clipped_mean,
        passage_cdf=passage_cdf,
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
    from scipy import integrate

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


# increments drawn per block, and the step cap, of grid first passage
_PASSAGE_BLOCK = 4096
_MAX_STEPS = 50_000_000
# nodes of the passage-law table, and the cap on its range
_PASSAGE_NODES = 129
_PASSAGE_TAU_MAX = 2.0**63


def sample_inverse_many(spec: SubordinatorSpec, t: float, ds: float, n: int, seed: int) -> np.ndarray:
    """n independent draws of D(t) = inf{s : S(s) >= t}.

    For a self-similar family with index alpha the draws are exact and do
    not depend on ds: D(t) has the law of (t / S(1))^alpha (Meerschaert and
    Straka, Math. Model. Nat. Phenom. 8 (2013)), with S(1) drawn by the
    spec's own increment sampler.  A family with a passage_cdf F(tau) =
    P(D(t) <= tau) is drawn exactly too, as the roots of F(tau) = U for n
    uniforms U at once, also independent of ds: one 129-node table of F on
    [0, tau_hi], with tau_hi doubled from 1 until it covers max U, brackets
    each U in a table cell, and Chandrupatla's method solves every cell to
    full precision; it raises TruncationError when the table cannot cover
    max U or a root search fails.  A spec with neither capability
    falls back to grid first passage of S on {0, ds, 2 ds, ...}, one draw
    at a time, with an O(ds) upward bias; it raises TruncationError when S
    has not reached t after _MAX_STEPS steps.
    """
    if t <= 0 or ds <= 0:
        raise ValueError("t and ds must be positive")
    rng = np.random.default_rng(seed)
    if spec.self_similarity is not None:
        return (t / spec.increment_sampler(1.0, rng, n)) ** spec.self_similarity
    if spec.passage_cdf is not None:
        return _invert_passage_cdf(spec, t, rng.uniform(size=n))
    return np.array([_grid_first_passage(spec, t, ds, rng) for _ in range(n)])


def _grid_first_passage(spec: SubordinatorSpec, t: float, ds: float, rng) -> float:
    """The first grid time k ds at which S, simulated with step ds, reaches t."""
    s, steps = 0.0, 0
    while steps <= _MAX_STEPS:
        cum = s + np.cumsum(spec.increment_sampler(ds, rng, _PASSAGE_BLOCK))
        j = int(np.searchsorted(cum, t))
        if j < _PASSAGE_BLOCK:
            return (steps + j + 1) * ds
        s, steps = cum[-1], steps + _PASSAGE_BLOCK
    raise TruncationError("inverse subordinator failed to cross within step cap")


def _invert_passage_cdf(spec: SubordinatorSpec, t: float, u: np.ndarray) -> np.ndarray:
    """Roots tau >= 0 of spec.passage_cdf(t, tau) = u, elementwise; the root of u = 0 is 0.

    F(tau) = passage_cdf(t, tau) is tabulated once, on _PASSAGE_NODES nodes
    of [0, tau_hi], with tau_hi doubled from 1 until F(tau_hi) >= max u.
    Each u falls in the table cell where F crosses it, and Chandrupatla's
    method finds the root inside that cell to full precision.  Raises
    TruncationError when F stays below max u up to _PASSAGE_TAU_MAX, when
    the table is not finite, or when a root search fails.
    """
    from scipy.optimize import elementwise

    out, pos = np.zeros(u.shape), u > 0
    target = u[pos]
    if not target.size:
        return out
    tau_hi, top = 1.0, target.max()
    while not spec.passage_cdf(t, tau_hi) >= top:
        if tau_hi >= _PASSAGE_TAU_MAX:
            raise TruncationError(f"passage law stays below {top:.17g} up to tau = {tau_hi:.6g} at t = {t:.6g}")
        tau_hi *= 2.0
    nodes = np.linspace(0.0, tau_hi, _PASSAGE_NODES)
    table = np.asarray(spec.passage_cdf(t, nodes), dtype=float)
    if not np.all(np.isfinite(table)):
        raise TruncationError(f"passage law is not finite on [0, {tau_hi:.6g}] at t = {t:.6g}")
    # table[cell - 1] < u <= table[cell] by bisection, so F - u changes sign on the cell
    cell = np.clip(np.searchsorted(table, target), 1, _PASSAGE_NODES - 1)

    def gap(tau, u):
        return spec.passage_cdf(t, tau) - u

    root = elementwise.find_root(gap, (nodes[cell - 1], nodes[cell]), args=(target,))
    failed = int(np.sum(~root.success))
    if failed:
        raise TruncationError(f"passage-law inversion failed for {failed} of {u.size} draws at t = {t:.6g}")
    out[pos] = root.x
    return out


# ---------------------------------------------------------------------------
# marginal density of D(t)
# ---------------------------------------------------------------------------


def _talbot(F: Callable, t: float, M: int) -> np.ndarray:
    """Fixed-Talbot inversion at time t of a Laplace transform F (Abate and Valko).

    F maps the M contour nodes, an (M,) complex array, to values of shape
    (M, ...); the result has the trailing shape.
    """
    r = 2.0 * M / (5.0 * t)
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    vals = F(np.concatenate(([r + 0j], s)))
    col = (-1,) + (1,) * (vals.ndim - 1)
    terms = np.exp(t * s).reshape(col) * vals[1:] * (1.0 + 1j * sigma).reshape(col)
    return r / M * (0.5 * np.exp(r * t) * np.real(vals[0]) + np.sum(terms.real, axis=0))


def _talbot_gated(F: Callable, t: float, tol: float) -> np.ndarray:
    """Fixed-Talbot inverse of F at t, order 24, gated by order 16.

    Raises InversionInstabilityError unless the orders agree to tol; an
    overflow on the contour gives inf or NaN, which fails the gate without
    a RuntimeWarning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coarse, fine = (_talbot(F, t, M) for M in (16, 24))
        gap = float(np.max(np.abs(fine - coarse), initial=0.0))
    if not gap <= tol:
        raise InversionInstabilityError(f"Talbot orders 16/24 disagree by {gap:.3g} at t = {t:.6g}")
    return fine


def _mixture_weights(
    spec: SubordinatorSpec, t: float, rates, integrated: bool = False
) -> np.ndarray:
    """Weights of the subordination mixture per rate r >= 0.

    Returns E e^{-r D(t)}, or with integrated=True W_t(r) = int_0^t E e^{-r D(s)} ds.
    A sum of exponentials u(tau) = sum_c w_c e^{-tau r_c} then subordinates
    to sum_c w_c E e^{-r_c D(t)} with no tau-quadrature.  The t-transforms are
    K/(lambda^j (r + Phi)) = 1/lambda^{j+1} - r/(lambda^{j+1} (r + Phi)) with
    j = 0, 1, so the weights are t^j - r L^{-1}[1/(lambda^{j+1} (r + Phi))](t),
    exact at r = 0.  The inverse goes through _talbot_gated with tolerance
    1e-8 (times t for W_t).  A spec's laplace_closed_form replaces the
    inversion of E e^{-r D(t)}.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    rates = np.asarray(rates, dtype=float)
    if not integrated and spec.laplace_closed_form is not None:
        return np.asarray(spec.laplace_closed_form(t, rates), dtype=float)
    power = 2 if integrated else 1
    scale = t if integrated else 1.0

    def F(lam):
        phi = np.asarray(spec.phi_eval(lam))[:, None]
        return rates / (lam[:, None] ** power * (rates + phi))

    return scale - _talbot_gated(F, t, 1e-8 * scale)


def rho_density(spec: SubordinatorSpec, t: float, tau: float) -> float:
    """Marginal density rho_t(tau) of the inverse subordinator.

    Uses the spec's rho_closed_form when it has one, otherwise the inverse
    of lambda -> K(lambda) e^{-tau lambda K(lambda)} in t through
    _talbot_gated, which raises InversionInstabilityError when the orders
    disagree by more than 1e-6.  To force the inversion for a family with a
    closed form, pass dataclasses.replace(spec, rho_closed_form=None).
    """
    if t <= 0 or tau < 0:
        raise ValueError("need t > 0 and tau >= 0")
    if spec.rho_closed_form is not None:
        return float(spec.rho_closed_form(t, tau))

    def F(s):
        K = np.asarray(spec.K_eval(s))
        return K * np.exp(-tau * s * K)

    return max(float(_talbot_gated(F, t, 1e-6)), 0.0)


def time_averaged_ratio(spec: SubordinatorSpec, tau: float, t: float):
    """(M_rho, M_k, ratio) with M_rho = (1/t) int_0^t rho_s(tau) ds etc.

    The ratio tends to 1 as t grows for admissible kernels.
    """
    from scipy import integrate

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

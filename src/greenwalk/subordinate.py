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

from . import laplace
from .errors import ConfigError, TruncationError, _require, _require_count
from .grids import _panel_rule

__all__ = [
    "SubordinatorSpec",
    "make_stable_subordinator",
    "make_gamma_subordinator",
    "check_H",
    "check_admissible",
    "normalization_N",
    "sample_inverse_many",
    "rho_density",
    "time_averaged_ratio",
    "gfd_apply",
    "kernel_cell_masses",
]


@dataclass(frozen=True)
class SubordinatorSpec:
    """Driftless subordinator with derived kernels and an increment sampler.

    k_primitive is the exact primitive int_0^t k(s) ds, or None to invert Phi(lambda)/lambda^2;
    rho_closed_form is set for families with a known inverse-process density,
    and replaces the Laplace inversion in rho_density (replace it by None to
    force the inversion);
    laplace_closed_form (t, rates, integrated=False) -> E e^{-r D(t)}, or with
    integrated=True W_t(r) = int_0^t E e^{-r D(s)} ds, is set for families whose
    mixture weights and their time integrals have a closed form, and replaces
    both Laplace inversions;
    self_similarity is the index alpha of a self-similar family, for which
    S(c t) has the law of c^{1/alpha} S(t); passage_cdf (t, tau) ->
    P(D(t) <= tau) = P(S(tau) >= t) is set for families whose first-passage
    law has a closed form, and lets sample_inverse_many draw D(t) exactly by
    inversion, bracketing every draw of a batch from one table of the law
    (sample_inverse_many needs self_similarity or passage_cdf); it must be
    nondecreasing in tau, vectorised over tau, and 0 at tau = 0;
    passage_sf (t, tau) -> P(D(t) > tau), where set, is its complement,
    which sample_inverse_many solves for draws in the upper half of the law
    so that their tail keeps full relative precision;
    clipped_mean (T, tau) -> E[S(tau) ^ T] is the
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
    laplace_closed_form: Optional[Callable] = None  # (t, rates, integrated) -> E e^{-r D(t)} or W_t(r)
    clipped_mean: Optional[Callable] = None  # (T, tau) -> E[S(tau) ^ T]
    passage_cdf: Optional[Callable] = None  # (t, tau) -> P(D(t) <= tau)
    passage_sf: Optional[Callable] = None  # (t, tau) -> P(D(t) > tau)

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


def _kanter_average(alpha: float, tau, t: float, h: Callable, h_inf: float) -> np.ndarray:
    """E h(A(U) s^{1/(1-alpha)}) over U uniform on (0, pi), s = tau t^{-alpha}; 0 where s = 0.

    For small s the integrand piles up at the pole u -> pi.  In y, with
    pi - u = pi e^{-y}, it is smooth: 12-node Gauss-Legendre panels of width
    min(1, 2 (1 - alpha)) cover [0, Y], where Y lies 8 e-folds beyond the
    scale pi - u = sin(alpha pi) min(s, 1) at which A s^{1/(1-alpha)} ~ 1.
    Beyond Y, h equals h_inf to roundoff, and that part is added exactly.  Raises
    TruncationError where s is so small or so large that the rule over- or underflows.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = np.asarray(tau, dtype=float) * t**-alpha
        out, pos = np.zeros(s.shape), s > 0
        Y = np.log(np.pi / (np.sin(alpha * np.pi) * np.min(s[pos], initial=1.0))) + 8.0
        if np.isfinite(Y):
            y, w = _panel_rule(np.linspace(0.0, Y, int(np.ceil(Y / min(1.0, 2.0 * (1.0 - alpha)))) + 1), 12)
            A = _kanter_A(alpha, -np.pi * np.expm1(-y), np.pi * np.exp(-y))
            weights = np.exp(-y) * w
            scaled = s[pos] ** (1.0 / (1.0 - alpha))
            blocks = np.array_split(scaled, 1 + scaled.size * y.size // _KANTER_BLOCK)
            out[pos] = np.concatenate([h(b[:, None] * A) @ weights for b in blocks]) + h_inf * np.exp(-Y)
    if not (np.isfinite(Y) and np.all(np.isfinite(out))):
        raise TruncationError(f"the Kanter quadrature over- or underflows for tau t^-alpha in "
                              f"[{s.min():.3g}, {s.max():.3g}]")
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
    return T * _kanter_average(alpha, tau, T, lambda w: _w_expint(p, w) - np.expm1(-w), 1.0)


# 1/Gamma(m/2 + 2) for m = 39 .. 0, highest order first: the series of E_{1/2,2}(-z) to rounding for z < 1
_ML_HALF_2 = special.rgamma(0.5 * np.arange(40) + 2.0)[::-1]
# below this z the series of E_{1/2,2}(-z) takes over from the erfcx form, which errs by up to
# 2.3e-15 relative at z = 0.5 and 7e-16 at z = 1, where the series errs by 2e-16
_ML_HALF_2_SWITCH = 1.0


def _half_stable_occupation(t, rates) -> np.ndarray:
    """W_t(r) = int_0^t erfcx(r sqrt(s)) ds = t E_{1/2,2}(-z), z = r sqrt(t), for the 1/2-stable D.

    E_{1/2,2}(-z) = (erfcx(z) - 1 + 2 z / sqrt(pi)) / z^2 (Gorenflo, Kilbas,
    Mainardi and Rogosin, Mittag-Leffler Functions, 2014, ch. 4) cancels as
    z -> 0 (1e-14 relative at z = 0.2).  Below _ML_HALF_2_SWITCH this takes
    the series sum_m (-z)^m / Gamma(m/2 + 2) by Horner, and from there on
    W_t = (sqrt(t) / r) ((erfcx(z) - 1) / z + 2 / sqrt(pi)), finite even where
    z overflows.  Both stay within 5e-16 relative of 60-digit mpmath, and
    W_t(0) = t exactly.  t and rates broadcast.
    """
    t = np.asarray(t, dtype=float)
    t, root, rates = np.broadcast_arrays(t, np.sqrt(t), np.asarray(rates, dtype=float))
    with np.errstate(over="ignore"):
        z = rates * root
        out, series = np.empty(z.shape), z < _ML_HALF_2_SWITCH
        neg, acc = -z[series], np.full(np.count_nonzero(series), _ML_HALF_2[0])
        for c in _ML_HALF_2[1:]:
            acc *= neg
            acc += c
        out[series] = t[series] * acc
        far = ~series
        out[far] = root[far] / rates[far] * ((special.erfcx(z[far]) - 1.0) / z[far] + 2.0 / np.sqrt(np.pi))
    return out


def make_stable_subordinator(alpha: float) -> SubordinatorSpec:
    """alpha-stable subordinator: Phi = lambda^alpha, k(t) = t^{-alpha}/Gamma(1-alpha)."""
    _require(0.0 < alpha < 1.0, "alpha", "in (0, 1)")
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
            # sqrt(pi t) = 2 sqrt(pi t / 4) to the bit, without pi t overflowing for t near 1e308
            with np.errstate(over="ignore"):  # tau^2 overflows beyond tau ~ 1e154, where rho is 0
                return np.exp(-(np.asarray(tau, float) ** 2 / 4.0) / t) / (2.0 * np.sqrt(np.pi * (t / 4.0)))

        def laplace_closed_form(t, rates, integrated=False):
            # E_{1/2}(-r sqrt(t)) = e^{r^2 t} erfc(r sqrt(t)), computed stably
            if integrated:
                return _half_stable_occupation(t, rates)
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
            mean = _kanter_average(alpha, tau, t, lambda w: w * np.exp(-w), 0.0)
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


_EPS = np.finfo(float).eps


def _gamma_q(s, x):
    """Q(s, x) = Gamma(s, x) / Gamma(s), the regularized upper incomplete gamma, for s, x >= 0.

    SciPy's gammaincc takes microseconds per value for s < 1 and x near 1, about ten
    times its cost at s + 1.  For s < 1 and 0 < x <= _GAMMA_Q_SERIES_X this takes
    _gamma_q_series, within 1e-14 relative of Q.  For the other s < 1 it takes the recurrence
    Q(s, x) = Q(s + 1, x) - x^s e^{-x} / Gamma(s + 1) (DiDonato and Morris,
    ACM TOMS 12 (1986) 377) wherever the difference keeps at least 1/8 of
    Q(s + 1, x), so that its cancellation costs at most three bits: within
    5e-14 relative of Q for x in [1e-3, 100].  For s >= 1 and x > 1.4 s,
    gammaincc's factor x^s e^{-x} / Gamma(s) is the exponential of a sum
    whose rounding grows with x: 2e-14 at x = 30, 8e-14 at x = 100.  There,
    from x = 10 on and while x^s and e^{-x} are normal floats, this takes
    _gamma_q_fraction.  Elsewhere (s >= 1 and x <= 1.4 s or x <= 10, or s
    small against x, where the difference cancels) it is gammaincc itself.
    Scalars give a scalar.
    """
    s, x = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
    q, series = np.empty(s.shape), (s < 1.0) & (x > 0.0) & (x <= _GAMMA_Q_SERIES_X)
    q[series] = _gamma_q_series(s[series], x[series])
    rec = np.array((s < 1.0) & ~series)
    s1, x1 = s[rec], x[rec]
    with np.errstate(invalid="ignore"):  # x = inf gives inf * 0 = nan, which fails the guard
        up = special.gammaincc(s1 + 1.0, x1)
        q[rec] = up - x1**s1 * np.exp(-x1) * special.rgamma(s1 + 1.0)
    rec[rec] = q[rec] >= up / 8.0
    # e^{-x} and x^s stay normal floats for x <= 700 and s log x <= 700
    frac = (s >= 1.0) & (x > np.maximum(1.4 * s, 10.0)) & (x <= 700.0) & (s * np.log(np.maximum(x, 1.0)) <= 700.0)
    q[frac] = _gamma_q_fraction(s[frac], x[frac])
    rest = ~(series | rec | frac)
    q[rest] = special.gammaincc(s[rest], x[rest])
    return q[()]


# c_2 .. c_28 of 1/Gamma(z) = sum_k c_k z^k (A&S 6.1.34), to double precision
_RGAMMA_TAYLOR = np.array([
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09, 5.002007644469223e-09,
    -1.18127457048702e-09, 1.0434267116911005e-10, 7.782263439905071e-12, -3.696805618642206e-12,
    5.100370287454476e-13, -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16, 1.1866922547516004e-18, 1.4123806553180319e-18,
])
# the largest x of _gamma_q_series, and the terms of its sum, whose last is at most 1.5^24 / 24! = 3e-20
_GAMMA_Q_SERIES_X = 1.5
_GAMMA_Q_SERIES_TERMS = 24


def _gamma_q_series(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(s, x) for 0 <= s < 1 and 0 < x <= _GAMMA_Q_SERIES_X, with full relative precision as s -> 0.

    Q = 1 - x^s / Gamma(1 + s) - s x^s sum_{n>=1} (-x)^n / (n! (s + n)) / Gamma(1 + s),
    and 1 - x^s / Gamma(1 + s) = -expm1(s log x) - g x^s with g = 1/Gamma(1 + s) - 1
    = sum_{k>=2} c_k s^{k-1} from _RGAMMA_TAYLOR (DiDonato and Morris 1986), so no
    term cancels as Q -> s E_1(x).  Within 1.4e-15 relative of Q for x <= 1 and 7e-15
    at x = 1.5, where E_1(x) = -gamma - log x - sum_n (-x)^n / (n n!) keeps a tenth of its parts.
    """
    # in place, with no temporaries: on the few hundred values of a draw batch a ufunc call
    # costs little more than its overhead
    g = np.full(s.shape, _RGAMMA_TAYLOR[-1])
    for c in _RGAMMA_TAYLOR[-2::-1]:
        g *= s
        g += c
    g *= s
    minus_x, term, total, part = -x, np.ones(x.shape), np.zeros(s.shape), np.empty(s.shape)
    for n in range(1, _GAMMA_Q_SERIES_TERMS + 1):
        term *= minus_x
        term /= n
        np.add(s, n, out=part)
        np.divide(term, part, out=part)
        total += part
    s_log_x = s * np.log(x)
    return -np.expm1(s_log_x) - np.exp(s_log_x) * (g + s * total * (1.0 + g))


def _gamma_q_fraction(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(s, x) for s >= 1 and x > max(1.4 s, 10), with x^s and e^{-x} normal floats.

    Legendre's continued fraction Gamma(s, x) = x^s e^{-x} / (x + 1 - s - 1 (1 - s) / (x + 3 - s - ...)),
    by the modified Lentz method (Numerical Recipes, 3rd ed., 6.2), takes at most
    about 20 terms there, each value until its own term changes it by at most eps;
    the factor is the product of x^s, e^{-x} and 1 / Gamma(s), each rounded once.
    """
    b = x + 1.0 - s
    c, d = np.full(s.shape, np.inf), 1.0 / b
    value, active, i = d.copy(), np.arange(s.size), 0
    while active.size:
        i += 1
        an, b[active] = -i * (i - s[active]), b[active] + 2.0
        d[active] = 1.0 / (an * d[active] + b[active])
        c[active] = b[active] + an / c[active]
        ratio = d[active] * c[active]
        value[active] *= ratio
        active = active[np.abs(ratio - 1.0) > _EPS]
    return x**s * np.exp(-x) * special.rgamma(s) * value


def make_gamma_subordinator(a: float, b: float) -> SubordinatorSpec:
    """Gamma subordinator: Levy density b e^{-a tau}/tau, Phi = b log(1 + lambda/a)."""
    _require(0.0 < a < np.inf, "a", "finite and positive")
    _require(0.0 < b < np.inf, "b", "finite and positive")

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
        return shape / a * special.gammainc(shape + 1.0, a * T) + T * _gamma_q(shape, a * T)

    def passage_cdf(t, tau):
        # P(S(tau) >= t) for S(tau) ~ Gamma(b tau, rate a)
        return _gamma_q(b * np.asarray(tau, dtype=float), a * t)

    def passage_sf(t, tau):
        # P(S(tau) < t), without the cancellation of 1 - passage_cdf
        return special.gammainc(b * np.asarray(tau, dtype=float), a * t)

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
        passage_sf=passage_sf,
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


def normalization_N(spec: SubordinatorSpec, T):
    """N(T) = int_0^T k(s) ds at times T >= 0: the spec's k_primitive, else a Laplace inversion.

    T is a scalar (the result is a float) or an array (the result has its shape).
    The fallback inverts Phi(lambda)/lambda^2 at every T > 0 at once, gated at 1e-7 N(T)
    (InversionInstabilityError otherwise); N(0) = 0.
    """
    T = np.asarray(T, dtype=float)
    _require((T >= 0) & (T < np.inf), "T", "finite and >= 0")
    if spec.k_primitive is not None:
        out = np.asarray(spec.k_primitive(T), dtype=float)
    else:
        out, pos = np.zeros(T.shape), T > 0
        if pos.any():
            out[pos] = laplace.invert(lambda lam: np.asarray(spec.phi_eval(lam)) / lam**2, T[pos],
                                      lambda fine: 1e-7 * np.abs(fine))
    return float(out) if out.ndim == 0 else out


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
        return bool(self.a1_estimate > 0 and self.a2_max_deviation < 0.15)


def _require_s0(s0: float) -> None:
    """check_admissible's gate on s0, which it divides by lambda down to 1e-6."""
    _require(0 < s0 < np.finfo(float).max * 1e-6, "s0", "positive, with s0 / 1e-6 a finite float")


def check_admissible(spec: SubordinatorSpec, s0: float) -> AdmissibilityReport:
    """Estimate liminf (1/K(lambda)) int_0^{s0/lambda} k and the t/r -> 1 ratio limit."""
    _require_s0(s0)
    lams = np.geomspace(1e-2, 1e-6, 9)
    a1_vals = normalization_N(spec, s0 / lams) / np.asarray(spec.K_eval(lams), dtype=float)
    base_t = 1e6
    ratios_t = np.linspace(0.9, 1.1, 9)
    base = normalization_N(spec, base_t)
    a2 = normalization_N(spec, ratios_t * base_t) / base
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


# nodes of the passage-law table, and the cap on its range
_PASSAGE_NODES = 129
_PASSAGE_TAU_MAX = 2.0**63
# Newton-secant steps a draw takes before it goes on by bisection
_PASSAGE_STEPS = 6


def sample_inverse_many(spec: SubordinatorSpec, t: float, ds, n: int, seed: int) -> np.ndarray:
    """n independent exact draws of D(t) = inf{s : S(s) >= t}.

    For a self-similar family with index alpha, D(t) has the law of
    (t / S(1))^alpha (Meerschaert and Straka, Math. Model. Nat. Phenom. 8
    (2013)), with S(1) drawn by the spec's own increment sampler.  A family
    with a passage_cdf F(tau) = P(D(t) <= tau) is drawn as the roots of
    F(tau) = U for n uniforms U at once (_invert_passage_cdf): one 129-node
    table of F on [0, tau_hi], with tau_hi doubled from 1 until it covers
    max U, brackets each U in a table cell and gives its cubic Hermite start;
    bracketed Newton-secant steps then take about three evaluations of F per
    draw to full precision (a U above 1/2 is solved on the spec's passage_sf,
    as 1 - U, where it has one).  It raises TruncationError when the table
    cannot cover max U or F is not finite where it is evaluated.  A spec with
    neither capability gets a ConfigError.  ds is not read: it stays only
    because callers, the benchmark among them, pass it positionally.
    """
    _require(0 < t < np.inf, "t", "finite and positive")
    _require_count(n, "n", 0)
    _require_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    if spec.self_similarity is not None:
        return (t / spec.increment_sampler(1.0, rng, n)) ** spec.self_similarity
    if spec.passage_cdf is not None:
        return _invert_passage_cdf(spec, t, rng.uniform(size=n))
    raise ConfigError("exact draws of D(t) need the subordinator's self_similarity or passage_cdf")


def _table_slopes(table: np.ndarray, h: float) -> np.ndarray:
    """Slopes of a table on nodes h apart: fourth-order central differences, second-order at the two end pairs."""
    slopes = np.gradient(table, h, edge_order=2)
    slopes[2:-2] = (table[:-4] - table[4:] + 8.0 * (table[3:-1] - table[1:-3])) / (12.0 * h)
    return slopes


def _hermite_root(g0, g1, d0, d1):
    """(s, slope): a root s in [0, 1] of the cubic Hermite interpolant with values g0 < 0 <= g1 and
    slopes d0, d1 per unit s at s = 0 and 1, by three Newton steps from the chord's root, and
    the interpolant's slope at s."""
    c2, c3 = 3.0 * (g1 - g0) - 2.0 * d0 - d1, 2.0 * (g0 - g1) + d0 + d1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -g0 / (g1 - g0)
        for _ in range(3):
            s = np.clip(s - (g0 + s * (d0 + s * (c2 + s * c3))) / (d0 + s * (2.0 * c2 + 3.0 * s * c3)), 0.0, 1.0)
    s = np.where(np.isnan(s), 0.5, s)
    return s, d0 + s * (2.0 * c2 + 3.0 * s * c3)


def _invert_passage_cdf(spec: SubordinatorSpec, t: float, u: np.ndarray) -> np.ndarray:
    """Roots tau >= 0 of spec.passage_cdf(t, tau) = u, elementwise; the root of u = 0 is 0.

    Where the spec has a passage_sf, a u above 1/2 is solved as
    passage_sf(t, tau) = 1 - u instead: 1 - u is exact there, while the cdf
    is flat to rounding as u -> 1.  Both sides share one set of
    _PASSAGE_NODES nodes on [0, tau_hi], with tau_hi doubled from 1 until
    passage_cdf(tau_hi) >= max u (and passage_sf(tau_hi) <= 1 - max u when
    the sf is used).  Each side's law is evaluated once on the nodes, and
    each u falls in the table cell where its law crosses it.  The cell's
    cubic Hermite interpolant, with slopes from the table's finite
    differences, gives a start at no evaluation.  Each Newton-secant step
    then evaluates the law once at every unfinished draw, narrows the draw's
    bracket by the sign of law - u, and bisects the bracket when the step
    leaves it; the first step takes the interpolant's slope.  A draw stops
    when its step is at most 8 eps tau, its law equals u to rounding (2 eps
    |u|), or its bracket is at most 4 eps wide relative to its upper end; after
    _PASSAGE_STEPS steps it goes on by bisection alone.  So a root depends
    only on its own u and the table, not on which other draws share the batch,
    nor on whether the spec has a passage_sf if u <= 1/2.  Raises
    TruncationError when the range cannot cover max u up to
    _PASSAGE_TAU_MAX, or when the law is not finite on the table or at an iterate.
    """
    out, pos = np.zeros(u.shape), u > 0
    if not pos.any():
        return out
    # each side as a law increasing in tau: the cdf against u, minus the sf
    # against u - 1, which is exact for u > 1/2
    laws = (spec.passage_cdf, lambda t, tau: -spec.passage_sf(t, tau))
    side = ((u[pos] > 0.5) & (spec.passage_sf is not None)).astype(int)
    y = np.where(side, u[pos] - 1.0, u[pos])
    # the cdf covers max u, and the sf, where it solves any draw, 1 - max u
    tau_hi, top = 1.0, u[pos].max()
    while not all(law(t, tau_hi) >= target for law, target in zip(laws, (top, top - 1.0)[:1 + side.any()])):
        if tau_hi >= _PASSAGE_TAU_MAX:
            raise TruncationError(f"passage law stays below {top:.17g} up to tau = {tau_hi:.6g} at t = {t:.6g}")
        tau_hi *= 2.0
    nodes = np.linspace(0.0, tau_hi, _PASSAGE_NODES)
    h = nodes[1]
    # per draw: its cell's ends, law - y at both, and the table's slopes there per unit of the cell
    cell, ends, slopes = np.empty(y.shape, dtype=int), np.empty((2,) + y.shape), np.empty((2,) + y.shape)
    for k in np.unique(side):
        table = np.asarray(laws[k](t, nodes), dtype=float)
        if not np.all(np.isfinite(table)):
            raise TruncationError(f"passage law is not finite on [0, {tau_hi:.6g}] at t = {t:.6g}")
        on = side == k
        # table[cell - 1] < y <= table[cell] by bisection: law - y changes sign on the cell
        cell[on] = np.clip(np.searchsorted(table, y[on]), 1, _PASSAGE_NODES - 1)
        ends[:, on] = table[[cell[on] - 1, cell[on]]] - y[on]
        slopes[:, on] = _table_slopes(table, h)[[cell[on] - 1, cell[on]]] * h
    lo, hi = nodes[cell - 1], nodes[cell]
    s, slope = _hermite_root(*ends, *slopes)
    x, slope = lo + s * h, slope / h
    root = np.where(ends[1] == 0.0, hi, 0.0)  # a node where the law equals y is its own root
    active = np.flatnonzero(ends[1] != 0.0)
    x_prev, g_prev = np.full(y.shape, np.nan), np.full(y.shape, np.nan)
    steps = 0
    while active.size:
        xa, g = x[active], np.empty(active.size)
        for k in np.unique(side[active]):
            on = side[active] == k
            g[on] = laws[k](t, xa[on])
        if not np.all(np.isfinite(g)):
            raise TruncationError(f"passage law is not finite at {np.sum(~np.isfinite(g))} iterates at t = {t:.6g}")
        g -= y[active]
        below = g < 0.0
        lo[active[below]], hi[active[~below]] = xa[below], xa[~below]
        left, right = lo[active], hi[active]
        flat = np.abs(g) <= 2.0 * _EPS * np.abs(y[active])  # the law equals y to rounding
        settled = flat | (right - left <= 4.0 * _EPS * right)
        new = 0.5 * (left + right)
        if steps < _PASSAGE_STEPS:
            with np.errstate(divide="ignore", invalid="ignore"):
                secant = (g - g_prev[active]) / (xa - x_prev[active])
                slope[active] = np.where(secant > 0.0, secant, slope[active])
                delta = -g / slope[active]
            small = np.abs(delta) <= 8.0 * _EPS * xa
            stepped = np.clip(xa + delta, left, right)
            new = np.where(small | ((stepped > left) & (stepped < right)), stepped, new)
            settled |= small
        root[active] = np.where(flat, xa, new)
        x_prev[active], g_prev[active], x[active] = xa, g, new
        active, steps = active[~settled], steps + 1
    out[pos] = root
    return out


# ---------------------------------------------------------------------------
# marginal density of D(t)
# ---------------------------------------------------------------------------


def _mixture_weights(spec: SubordinatorSpec, t, rates, integrated: bool = False) -> np.ndarray:
    """E e^{-r D(t)}, or with integrated=True W_t(r) = int_0^t E e^{-r D(s)} ds: see laplace.mixture_weights.

    A sum of exponentials sum_c w_c e^{-tau r_c} subordinates to sum_c w_c E e^{-r_c D(t)} with no
    tau-quadrature.  A spec's laplace_closed_form(t, rates, integrated), broadcast as
    (t[:, None], rates), gives either weight in place of the Laplace inversion.
    """
    t = np.asarray(t, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if spec.laplace_closed_form is not None:
        return np.asarray(spec.laplace_closed_form(t.reshape(t.shape + (1,) * rates.ndim), rates, integrated),
                          dtype=float)
    return laplace.mixture_weights(spec.phi_eval, t, rates, integrated)


def rho_density(spec: SubordinatorSpec, t: float, tau):
    """Marginal density rho_t(tau) of the inverse subordinator at one time t.

    tau is a scalar (the result is a float) or an array (the result has its
    shape).  Uses the spec's rho_closed_form when it has one, otherwise one
    inverse, for every tau at once, of lambda -> K(lambda) e^{-tau lambda K(lambda)}
    in t by laplace.invert, gated at 1e-6 (InversionInstabilityError).  To force the
    inversion for a family with a closed form, pass dataclasses.replace(spec, rho_closed_form=None).
    """
    _require(0 < t < np.inf, "t", "finite and positive")
    tau = np.asarray(tau, dtype=float)
    _require((tau >= 0) & (tau < np.inf), "tau", "finite and >= 0")
    if spec.rho_closed_form is not None:
        out = np.asarray(spec.rho_closed_form(t, tau), dtype=float)
    else:
        def F(s):
            K = np.asarray(spec.K_eval(s)).reshape(s.shape + (1,) * tau.ndim)
            return K * np.exp(-tau * s.reshape(K.shape) * K)

        out = np.maximum(laplace.invert(F, t, 1e-6), 0.0)
    return float(out) if out.ndim == 0 else out


def time_averaged_ratio(spec: SubordinatorSpec, tau: float, t: float):
    """(M_rho, M_k, ratio) with M_rho = (1/t) int_0^t rho_s(tau) ds etc.

    int_0^t rho_s(tau) ds is the inverse at t of K(lambda) e^{-tau Phi(lambda)} / lambda
    through laplace.invert, gated at 1e-6 t like rho_density's 1e-6 per unit time.
    The ratio tends to 1 as t grows for admissible kernels.
    """
    _require(0 < t < np.inf, "t", "finite and positive")
    _require(0 <= tau < np.inf, "tau", "finite and >= 0")

    def F(lam):
        return np.asarray(spec.K_eval(lam)) * np.exp(-tau * np.asarray(spec.phi_eval(lam))) / lam

    m_rho = max(float(laplace.invert(F, t, 1e-6 * t)), 0.0) / t
    m_k = normalization_N(spec, t) / t
    return m_rho, m_k, m_rho / m_k


# ---------------------------------------------------------------------------
# generalized fractional derivative
# ---------------------------------------------------------------------------


def kernel_cell_masses(spec: SubordinatorSpec, dt: float, m: int) -> np.ndarray:
    """Exact cell integrals int_{j dt}^{(j+1) dt} k(s) ds for j = 0..m-1.

    Product integration over the first cell absorbs the k(0+) singularity.
    """
    _require(0 < dt < np.inf, "dt", "finite and positive")
    _require_count(m, "m", 0)
    prims = normalization_N(spec, dt * np.arange(m + 1))
    return np.diff(prims)


def gfd_apply(k_samples, f_samples: np.ndarray, dt: float, *, cell_masses: np.ndarray) -> np.ndarray:
    """Generalized fractional derivative d/dt (k*f) - k(t) f(0) on a uniform grid.

    f_samples holds f(t_i) for i = 0..m and cell_masses the m exact cell
    integrals of k (kernel_cell_masses).  k_samples is not read: it stays only
    because callers, the benchmark among them, pass it positionally.
    Working with g = f - f(0) folds the boundary term into the convolution,
    so constants map to exactly zero.  The convolution uses midpoint product
    integration with per-cell masses; returns values at t_1 .. t_{m-1} with
    first-order convergence or better as dt shrinks.
    """
    _require(0 < dt < np.inf, "dt", "finite and positive")
    f_samples = np.asarray(f_samples, dtype=float)
    m = f_samples.size - 1
    _require(m >= 2, "f_samples", "at least three samples")
    cell_masses = np.asarray(cell_masses, dtype=float)
    _require(cell_masses.shape == (m,), "cell_masses", "one mass per cell of f_samples")
    g = f_samples - f_samples[0]
    midpoints = 0.5 * (g[:-1] + g[1:])
    # (k*g)(t_i) = sum_{j<i} I_j * g(t_i - (j+1/2) dt); then d/dt (k*g) = D f
    conv = np.convolve(cell_masses, midpoints)[:m]
    full = np.concatenate(([0.0], conv))
    return (full[2:] - full[:-2]) / (2.0 * dt)

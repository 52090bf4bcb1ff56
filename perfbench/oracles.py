"""Offline oracles for the benchmark's output checks.

Every value here comes from a closed form, a high-precision series or an
``mpmath`` computation, never from greenwalk.  The values are computed once
and stored in ``oracle_values.json`` next to this file, so no oracle work
happens during a benchmark run.  Regenerate the file with

    python3 perfbench/oracles.py

The Gaussian kernel is a(x) = (4 pi)^{-d/2} e^{-|x|^2/4}, so a_n(x), the
n-fold convolution, is the N(0, 2n I) density and a_hat(k) = e^{-|k|^2}.
With f = a the time-changed solution at the origin is the radial integral

    v(t, 0) = c_d int_0^inf k^{d-1} e^{-k^2} E exp(-(1 - e^{-k^2}) D(t)) dk,

c_1 = 1/pi, c_3 = 1/(2 pi^2), one factor e^{-k^2} being f_hat = a_hat.  E exp(-r D(t)) is erfcx(r sqrt t) for the
1/2-stable subordinator, the Mittag-Leffler function E_alpha(-r t^alpha) for
the alpha-stable one, and the inverse Laplace transform of
K(lam) / (r + Phi(lam)) for the others.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import special, stats
from scipy.integrate import simpson

HERE = Path(__file__).resolve().parent
VALUES_PATH = HERE / "oracle_values.json"

FOURIER_XS = tuple(0.5 * i for i in range(7))
CURVE_TS = tuple(2.0**j for j in range(9, 22, 2))
SUBSOL_TS = (0.5, 1.0, 2.0)
TIME_AVG_TS = (1e2, 1e3, 1e4)
RHO_TAUS = tuple(float(v) for v in np.linspace(0.0, 10.0, 101))
GAMMA_RHO_TS = (0.5, 1.0, 2.0)
GAMMA_SUBSOL_TS = (1.0, 4.0)
K_CUT = 10.0  # e^{-k^2} < 1e-43 beyond this radius


def a_n_origin(n, d=3):
    """a_n(0) = (4 pi n)^{-d/2}."""
    return (4.0 * np.pi * np.asarray(n, dtype=float)) ** (-d / 2.0)


# ---------------------------------------------------------------------------
# zeta(3/2) family: Green kernel and potential of the Gaussian d = 3 kernel
# ---------------------------------------------------------------------------


def g0_origin() -> float:
    """G_0(0) = V(0, a) = (4 pi)^{-3/2} zeta(3/2)."""
    return float((4 * mp.pi) ** -1.5 * mp.zeta(1.5))


def g0_profile(xs=FOURIER_XS) -> list:
    """G_0(x) = sum_n (4 pi n)^{-3/2} e^{-|x|^2 / (4n)}."""
    with mp.workdps(30):
        return [float(mp.nsum(lambda n: (4 * mp.pi * n) ** -1.5 * mp.exp(-x * x / (4 * n)), [1, mp.inf],
                              method="euler-maclaurin"))
                for x in xs]


def g_lambda_origin(lam: float) -> float:
    """G_lam(0) = (4 pi)^{-3/2} Li_{3/2}(1/(1+lam))."""
    return float((4 * mp.pi) ** -1.5 * mp.polylog(1.5, 1 / (1 + mp.mpf(lam))))


# ---------------------------------------------------------------------------
# Poisson-Gamma mixtures: X(t) is N(t) Gaussian jumps, N Poisson(t)
# ---------------------------------------------------------------------------


def poisson_weights(t: float, n_max: int) -> list:
    """P(N(t) = n), n = 0..n_max."""
    return [float(v) for v in stats.poisson.pmf(np.arange(n_max + 1), t)]


def expected_a_of_X(t: float) -> float:
    """E a(X_t) from 0 = sum_n P(N(t) = n) a_{n+1}(0)."""
    n = np.arange(200)
    return float(np.sum(stats.poisson.pmf(n, t) * a_n_origin(n + 1)))


def truncated_potential(T: float) -> float:
    """int_0^T E a(X_t) dt = sum_n P(Gamma(n+1) <= T) a_{n+1}(0)."""
    n = np.arange(int(T + 40 * math.sqrt(T) + 200))
    return float(np.sum(special.gammainc(n + 1, T) * a_n_origin(n + 1)))


def box_probs(lo, hi, n) -> np.ndarray:
    """P(X in [lo, hi)) for X the sum of n jumps N(0, 2 I) from 0, per n."""
    n = np.asarray(n, dtype=float)
    out = np.ones(n.shape)
    sd = np.sqrt(2.0 * np.maximum(n, 1.0))
    for a, b in zip(lo, hi):
        axis = special.ndtr(b / sd) - special.ndtr(a / sd)
        out = out * np.where(n == 0, float(a <= 0.0 < b), axis)
    return out


def green_hist_bins(T: float, bins) -> list:
    """Expected occupation time over [0, T] of each (lo, hi) box."""
    n = np.arange(int(T + 40 * math.sqrt(T) + 200))
    w = special.gammainc(n + 1, T)
    return [float(np.sum(w * box_probs(lo, hi, n))) for lo, hi in bins]


def occupation_weight_half(T, tau):
    """R(T, tau) = int_0^T rho_s(tau) ds for the 1/2-stable inverse subordinator."""
    tau = np.asarray(tau, dtype=float)
    z = tau / (2.0 * np.sqrt(T))
    return 2.0 * np.sqrt(T / np.pi) * np.exp(-(z**2)) - tau * special.erfc(z)


def half_stable_N(T: float) -> float:
    """N(T) = int_0^T k = T^{1/2} / Gamma(3/2)."""
    return math.sqrt(T) / math.gamma(1.5)


def renorm_hist_half(T: float, boxes) -> list:
    """E[occupation of Z = X(D) in each box over [0, T]] / N(T), 1/2-stable D.

    Equals (1/N(T)) int_0^inf P(X_tau in box) R(T, tau) d tau; the tau
    integral runs on a fine composite Simpson grid and the Poisson mixture
    over jump counts n keeps the n within 12 standard deviations of tau.
    """
    tau_hi = 40.0 * math.sqrt(T) + 50.0
    taus = np.concatenate([np.linspace(0.0, 50.0, 20001), np.linspace(50.0, tau_hi, 40001)[1:]])
    n_all = np.arange(int(tau_hi + 12.0 * math.sqrt(tau_hi) + 40))
    box = np.stack([box_probs(lo, hi, n_all) for lo, hi in boxes], axis=1)
    prob = np.empty((taus.size, len(boxes)))
    for idx in np.array_split(np.arange(taus.size), 200):
        lo_tau, hi_tau = taus[idx[0]], taus[idx[-1]]
        n0 = max(0, int(lo_tau - 12.0 * math.sqrt(lo_tau) - 40))
        n1 = int(hi_tau + 12.0 * math.sqrt(hi_tau) + 40)
        n = n_all[n0:n1]
        prob[idx] = stats.poisson.pmf(n[None, :], taus[idx, None]) @ box[n0:n1]
    vals = prob * occupation_weight_half(T, taus)[:, None]
    total = simpson(vals[:20001], x=taus[:20001], axis=0) + simpson(vals[20000:], x=taus[20000:], axis=0)
    return [float(v) for v in total / half_stable_N(T)]


# ---------------------------------------------------------------------------
# time-changed solutions: radial integrals over E exp(-r D(t))
# ---------------------------------------------------------------------------


def v_radial(laplace_D, t, d, extra_points=()):
    """v(t, 0) = c_d int_0^K_CUT k^{d-1} e^{-k^2} laplace_D(1 - e^{-k^2}, t) dk."""
    c = 1 / mp.pi if d == 1 else 1 / (2 * mp.pi**2)
    pts = sorted({mp.mpf(0), *[mp.mpf(p) for p in extra_points], mp.mpf(1), mp.mpf(K_CUT)})

    def integrand(k):
        return k ** (d - 1) * mp.exp(-k * k) * laplace_D(-mp.expm1(-k * k), t)

    return float(c * mp.quad(integrand, pts))


def laplace_D_half(r, t):
    """E exp(-r D(t)) = erfcx(r sqrt t) for the 1/2-stable inverse subordinator."""
    x = r * mp.sqrt(t)
    return mp.exp(x * x) * mp.erfc(x)


def mittag_leffler(alpha, z):
    """E_alpha(z) by its power series; used for |z| <= 1 only."""
    return mp.nsum(lambda n: z**n / mp.gamma(alpha * n + 1), [0, mp.inf])


def laplace_D_stable(alpha):
    return lambda r, t: mittag_leffler(alpha, -r * mp.mpf(t) ** alpha)


def gamma_phi(lam, a=1, b=1):
    return b * mp.log(1 + lam / a)


def laplace_D_gamma(r, t):
    """E exp(-r D(t)) by inverting K(lam) / (r + Phi(lam)) in t."""
    return mp.invertlaplace(lambda lam: gamma_phi(lam) / lam / (r + gamma_phi(lam)), t, method="talbot")


def curve_values(T_grid=CURVE_TS) -> list:
    """(1/N(T)) int_0^T v(s, 0) ds for Gaussian d = 3, f = a, 1/2-stable D.

    Uses W_T(r) = int_0^T erfcx(r sqrt s) ds
               = (erfcx(r sqrt T) + 2 r sqrt(T / pi) - 1) / r^2.
    """
    out = []
    for T in T_grid:
        T = mp.mpf(T)

        def W(r, _t, T=T):
            x = r * mp.sqrt(T)
            if x < mp.mpf("1e-6"):
                return T * (1 - 4 * x / (3 * mp.sqrt(mp.pi)) + x * x / 2)
            return (mp.exp(x * x) * mp.erfc(x) + 2 * x / mp.sqrt(mp.pi) - 1) / (r * r)

        scale = float(T ** -0.25)
        val = v_radial(W, None, 3, extra_points=(scale / 10, scale, 10 * scale))
        out.append(val / half_stable_N(float(T)))
    return out


# ---------------------------------------------------------------------------
# inverse-subordinator densities and moments by high-precision inversion
# ---------------------------------------------------------------------------


def rho_gamma(t: float, tau: float) -> float:
    """rho_t(tau) of the gamma(1, 1) inverse subordinator."""
    if tau == 0.0:
        return float(mp.e1(t))  # rho_t(0) = k(t) = E1(t)
    return float(mp.invertlaplace(
        lambda lam: gamma_phi(lam) / lam * mp.exp(-tau * gamma_phi(lam)), t, method="talbot"))


def rho_stable(alpha: float, t: float, tau: float) -> float:
    """rho_t(tau) of the alpha-stable inverse subordinator."""
    return float(mp.invertlaplace(
        lambda lam: lam ** (alpha - 1) * mp.exp(-tau * lam**alpha), t, method="talbot"))


def mean_D_gamma(t: float) -> float:
    """E D(t) = U(t), the renewal function, with Laplace transform 1/(lam Phi(lam))."""
    return float(mp.invertlaplace(lambda lam: 1 / (lam * gamma_phi(lam)), t, method="talbot"))


def time_avg_half(tau: float, t: float) -> list:
    """(M_rho, M_k, ratio) of time_averaged_ratio for the 1/2-stable family."""
    m_rho = float(occupation_weight_half(t, tau)) / t
    m_k = half_stable_N(t) / t
    return [m_rho, m_k, m_rho / m_k]


def gamma_N(T: float) -> float:
    """N(T) = T E1(T) + 1 - e^{-T} for gamma(1, 1)."""
    return float(T * mp.e1(T) + 1 - mp.exp(-T))


# ---------------------------------------------------------------------------


def _hist_boxes(half_width, per_axis, idx_list):
    w = 2.0 * half_width / per_axis
    return [(tuple(-half_width + w * i for i in idx), tuple(-half_width + w * (i + 1) for i in idx))
            for idx in idx_list]


def compute_all() -> dict:
    """Every oracle value the workloads check against."""
    mp.mp.dps = 30
    central16 = [(i, j, k) for i in (7, 8) for j in (7, 8) for k in (7, 8)]
    central8 = [(i, j, k) for i in (3, 4) for j in (3, 4) for k in (3, 4)]
    return {
        "g0": g0_origin(),
        "g0_profile": g0_profile(),
        "g_half": g_lambda_origin(0.5),
        "semigroup_weights": poisson_weights(1.0, 40),
        "curve": curve_values(),
        "subsol_half": [v_radial(laplace_D_half, t, 1) for t in SUBSOL_TS],
        "time_avg_half": [time_avg_half(1.0, t) for t in TIME_AVG_TS],
        "trunc_potential_T200": truncated_potential(200.0),
        "E_a_X1": expected_a_of_X(1.0),
        "green_hist_T2000": green_hist_bins(2000.0, _hist_boxes(8.0, 16, central16)),
        "v_half_d3_t1": v_radial(laplace_D_half, 1.0, 3),
        "hist_half_T1e4": renorm_hist_half(1e4, _hist_boxes(8.0, 8, central8)),
        "hist_half_central_T1e3": renorm_hist_half(1e3, _hist_boxes(8.0, 8, [(4, 4, 4)]))[0],
        "N_half_T1e3": half_stable_N(1e3),
        "rho_gamma": [[rho_gamma(t, tau) for tau in RHO_TAUS] for t in GAMMA_RHO_TS],
        "rho_stable07_t1": [rho_stable(0.7, 1.0, tau) for tau in RHO_TAUS],
        "ED_gamma_t1": mean_D_gamma(1.0),
        "v_gamma_d3_t1": v_radial(laplace_D_gamma, 1.0, 3),
        "v_stable07_d3_t1": v_radial(laplace_D_stable(0.7), 1.0, 3),
        "subsol_gamma": [v_radial(laplace_D_gamma, t, 1) for t in GAMMA_SUBSOL_TS],
        "N_gamma_T100": gamma_N(100.0),
    }


def load() -> dict:
    return json.loads(VALUES_PATH.read_text())


if __name__ == "__main__":
    values = compute_all()
    VALUES_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} oracle entries to {VALUES_PATH.name}", file=sys.stderr)

"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Each test prints "criterion NN: PASS/FAIL - detail" before asserting, so the
captured output of a failing criterion still reports the measured numbers.

Criterion 4 is known to fail as stated: truncating the random potential at
T = 200 leaves a deterministic t^{-1/2} tail of about 5% of V(0, a), which
no sample size can remove, so the Monte Carlo mean sits outside the 2%
tolerance band around the spectral potential.  The test implements the
stated protocol verbatim rather than widening the band.
"""

import time

import numpy as np
import pytest
from scipy import integrate, special, stats

from green_oracles import ZETA_ORACLE
from greenwalk.errors import DivergentGreenMeasureError
from greenwalk.grids import GridSpec
from greenwalk.green import (
    _radial_value,
    cl_from_kernel,
    green_regular_fourier,
    green_regular_series,
    potential,
)
from greenwalk.kernels import (
    fit_small_k_expansion,
    make_cauchy_kernel,
    make_gaussian_kernel,
)
from greenwalk.renorm import (
    fke_residual,
    normalization_N,
    renormalized_green_histogram,
    renormalized_potential_curve,
    unnormalized_potential_integral,
)
from greenwalk.simulate import (
    BinSpec,
    average_random_green_measure,
    empirical_random_green_measure,
    mc_truncated_potential,
)
from greenwalk.subordinate import (
    gfd_apply,
    kernel_cell_masses,
    make_stable_subordinator,
    rho_density,
    sample_inverse_many,
    time_averaged_ratio,
)

GRID1 = GridSpec(1, 1024, 40.0)
GRID3 = GridSpec(3, 64, 16.0)
ORIGIN3 = (0.0, 0.0, 0.0)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def k3():
    return make_gaussian_kernel(3)


@pytest.fixture(scope="module")
def stable():
    return make_stable_subordinator(0.5)


@pytest.fixture(scope="module")
def g0_3d(k3):
    return green_regular_series(k3, GRID3, 0.0)


@pytest.fixture(scope="module")
def spectral_potential(k3):
    return potential(k3, cl_from_kernel(k3), ORIGIN3, GRID3)


def test_criterion_01_condition_A_fits():
    t0 = time.time()
    Ag, alg, _ = fit_small_k_expansion(make_gaussian_kernel(3))
    Ac, alc, _ = fit_small_k_expansion(make_cauchy_kernel())
    elapsed = time.time() - t0
    errs = [abs(Ag - 1), abs(alg - 2) / 2, abs(Ac - 1), abs(alc - 1)]
    ok = max(errs) < 0.02 and elapsed < 1.0
    report(
        1,
        ok,
        f"gaussian (A,alpha)=({Ag:.4f},{alg:.4f}), cauchy ({Ac:.4f},{alc:.4f}), "
        f"max rel err {max(errs):.2%}, {elapsed:.2f}s",
    )


def test_criterion_02_green_cross_validation(k3, g0_3d):
    t0 = time.time()
    xs = np.arange(0.0, 3.01, 0.5)
    rels = []
    for x in xs:
        series = g0_3d.regular_part.value_at([x, 0.0, 0.0])
        fourier = green_regular_fourier(k3, [x, 0.0, 0.0], 0.0)
        rels.append(abs(series / fourier - 1.0))
    origin_err = abs(g0_3d.regular_part.value_at(ORIGIN3) / ZETA_ORACLE - 1.0)
    elapsed = time.time() - t0
    ok = max(rels) < 0.01 and origin_err < 0.01 and elapsed < 30.0
    report(
        2,
        ok,
        f"max series/Fourier rel diff {max(rels):.2%} on |x|<=3, "
        f"G0(0) vs zeta oracle {origin_err:.2%}, {elapsed:.1f}s",
    )


def test_criterion_03_existence_gate(k3, spectral_potential):
    blocked = 0
    for kernel in (make_gaussian_kernel(1), make_gaussian_kernel(2), make_cauchy_kernel()):
        grid = GridSpec(kernel.dim, 64, 16.0)
        try:
            potential(kernel, cl_from_kernel(kernel), [0.0] * kernel.dim, grid)
        except DivergentGreenMeasureError:
            blocked += 1
    ok = blocked == 3 and np.isfinite(spectral_potential) and spectral_potential > 0
    report(3, ok, f"{blocked}/3 divergent cases blocked, gaussian d=3 V(0,a)={spectral_potential:.6f}")


def test_criterion_04_mc_consistency(k3, spectral_potential):
    t0 = time.time()
    est = mc_truncated_potential(k3, cl_from_kernel(k3), ORIGIN3, 200.0, 100000, seed=101)
    elapsed = time.time() - t0
    tol = max(3 * est.stderr, 0.02 * spectral_potential)
    gap = abs(est.mean - spectral_potential)
    ok = gap < tol and elapsed < 120.0
    report(
        4,
        ok,
        f"mc {est.mean:.6f} +/- {est.stderr:.6f} vs spectral {spectral_potential:.6f}, "
        f"|gap| {gap:.6f} vs tol {tol:.6f} (T=200 truncation tail ~5% of V), {elapsed:.0f}s",
    )


# int_0^200 E a(X_t) dt from 0 = sum_n P(Gamma(n+1) <= 200) a_{n+1}(0), computed by
# truncated_potential(200.0) in perfbench/oracles.py (its trunc_potential_T200)
TRUNC_POTENTIAL_T200 = 0.0554669472453732


def test_criterion_04_companion_truncated_potential_plus_exact_tail(k3):
    # criterion 4 leaves out int_200^infty u(t, 0) dt; here it is added exactly.
    # With g = 1 - a_hat, head and tail are the radial integrals of
    # a_hat (1 - e^{-T g})/g and a_hat e^{-T g}/g; they sum to that of
    # a_hat/g = a_hat + a_hat^2/g, i.e. to V(0, a) = a(0) + (G_0 * a)(0)
    T = 200.0
    a = cl_from_kernel(k3)

    def radial(multiplier):
        return float(_radial_value(k3, ORIGIN3, 0.0, multiplier)[0])

    head = radial(lambda k, a_hat, g: -a_hat * np.expm1(-T * g) / g)
    tail = radial(lambda k, a_hat, g: a_hat * np.exp(-T * g) / g)
    v = a.value_at(ORIGIN3) + radial(lambda k, a_hat, g: a_hat * a_hat / g)
    assert head == pytest.approx(TRUNC_POTENTIAL_T200, abs=1e-12)
    assert tail == pytest.approx(0.0031767, abs=1e-7)
    assert abs(head + tail - v) < 1e-14
    assert v == pytest.approx(ZETA_ORACLE, rel=1e-12)
    est = mc_truncated_potential(k3, a, ORIGIN3, T, 20000, seed=2024)
    z = abs(est.mean + tail - v) / est.stderr
    print(f"criterion  4 companion: mc {est.mean:.6f} + tail {tail:.6f} vs V {v:.6f}, z = {z:.2f}")
    assert z <= 5.0


def test_criterion_05_random_green_measure(k3, g0_3d):
    bins = BinSpec.cube(8.0, 16, 3)
    hist, stderr = average_random_green_measure(k3, ORIGIN3, 2000.0, bins, n=4000, seed=9)
    g0 = g0_3d.regular_part
    centers = bins.centers()
    vol = bins.volume_per_bin()
    worst = 0.0
    ok_bins = True
    for idx in [(9, 8, 8), (8, 9, 8), (8, 8, 9), (7, 8, 8), (8, 8, 7), (9, 9, 8)]:
        c = [centers[ax][idx[ax]] for ax in range(3)]
        target = g0.value_at(c) * vol
        gap = abs(hist.masses[idx] - target)
        tol = max(3 * stderr[idx], 0.05 * target)
        worst = max(worst, gap / tol)
        ok_bins = ok_bins and gap < tol
    single = empirical_random_green_measure(
        k3, ORIGIN3, 123.0, bins, np.random.default_rng(0)
    )
    mass_exact = abs(single.total_mass() - 123.0) < 1e-9
    ok = ok_bins and mass_exact
    report(
        5,
        ok,
        f"6 interior bins within max(3se, 5%), worst gap/tol {worst:.2f}; "
        f"per-path mass identity exact: {mass_exact}",
    )


def test_criterion_06_inverse_subordinator(stable):
    ds, n = 1e-4, 100000
    draws = sample_inverse_many(stable, 1.0, ds, n, seed=3)
    mean_target = 2.0 / np.sqrt(np.pi)
    se = draws.std(ddof=1) / np.sqrt(n)
    mean_gap = abs(draws.mean() - mean_target)
    mean_ok = mean_gap < 3 * se + ds  # the draws are exact; the ds slack is kept as written
    # closed-form CDF of D(1) = |N(0, sqrt 2)|
    ks = stats.kstest(draws, lambda x: special.erf(x / 2.0)).statistic
    ok = mean_ok and ks < 0.02
    report(
        6,
        ok,
        f"mean {draws.mean():.5f} vs {mean_target:.5f} (3se+ds={3 * se + ds:.5f}), "
        f"KS {ks:.4f} < 0.02",
    )


def test_criterion_07_laplace_identities(stable):
    # time-Laplace transform of rho_t(tau): K(lam) exp(-tau lam K(lam))
    worst = 0.0
    for lam, tau in [(1.0, 1.0), (2.0, 0.5)]:
        numeric = integrate.quad(
            lambda t: np.exp(-lam * t) * rho_density(stable, t, tau), 0.0, np.inf
        )[0]
        K = lam**-0.5
        closed = K * np.exp(-tau * lam * K)
        worst = max(worst, abs(numeric / closed - 1.0))
    # double Laplace transform p K(p)/(lam + p K(p)) = 0.5 at p = lam = 1
    def inner(t):
        return integrate.quad(lambda tau: np.exp(-tau) * rho_density(stable, t, tau), 0.0, np.inf)[0]

    double = integrate.quad(lambda t: np.exp(-t) * inner(t), 0.0, np.inf)[0]
    double_err = abs(double / 0.5 - 1.0)
    ok = worst < 0.01 and double_err < 0.01
    report(
        7,
        ok,
        f"time-Laplace max rel err {worst:.2e}, double-Laplace {double:.6f} vs 0.5 "
        f"(rel err {double_err:.2e})",
    )


def _caputo_error(spec, dt):
    m = int(round(1.2 / dt))
    ts = dt * np.arange(m + 1)
    with np.errstate(divide="ignore"):
        ks = np.asarray(spec.k_eval(np.maximum(ts, 1e-300)), dtype=float)
    out = gfd_apply(ks, ts.copy(), dt, cell_masses=kernel_cell_masses(spec, dt, m))
    i = int(round(1.0 / dt)) - 1
    return float(abs(out[i] - 2.0 * np.sqrt(ts[i + 1] / np.pi)))


def test_criterion_08_gfd_caputo(stable):
    target = 2.0 / np.sqrt(np.pi)
    fine = _caputo_error(stable, 4e-3)
    coarse = _caputo_error(stable, 8e-3)
    ratio = coarse / fine
    ok = fine < 0.01 * target and ratio >= 1.8
    report(
        8,
        ok,
        f"Caputo error at t=1, dt=4e-3: {fine:.2e} ({fine / target:.3%} of 2/sqrt(pi)), "
        f"halving ratio {ratio:.2f}",
    )


def test_criterion_09_time_average_trend(stable):
    ratios = [time_averaged_ratio(stable, 1.0, t)[2] for t in (1e2, 1e3, 1e4)]
    gaps = [abs(r - 1.0) for r in ratios]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.10
    report(
        9,
        ok,
        f"M_rho/M_k at tau=1: {ratios[0]:.4f}, {ratios[1]:.4f}, {ratios[2]:.4f}; "
        f"final gap {gaps[2]:.2%} < 10%",
    )


def test_criterion_10_renormalized_limit(k3, stable):
    t0 = time.time()
    f = cl_from_kernel(k3)
    T_grid = np.array([2.0**j for j in range(9, 22, 2)])
    curve = renormalized_potential_curve(k3, stable, f, ORIGIN3, T_grid, GRID3)
    gaps = curve.rel_gaps
    monotone = bool(np.all(np.diff(gaps) < 0))
    growth = unnormalized_potential_integral(
        k3, stable, f, ORIGIN3, 1.0, GRID3
    ) / unnormalized_potential_integral(k3, stable, f, ORIGIN3, 0.5, GRID3)
    elapsed = time.time() - t0
    ok = monotone and gaps[-1] < 0.05 and growth >= 1.8 and elapsed < 600.0
    report(
        10,
        ok,
        f"curve gap {gaps[0]:.2%} -> {gaps[-1]:.2%} (monotone={monotone}), "
        f"unnormalized growth per doubling {growth:.3f} >= 1.8, {elapsed:.0f}s",
    )


def test_criterion_11_fke_residual(stable):
    k1 = make_gaussian_kernel(1)
    f = cl_from_kernel(k1)
    residuals = []
    for dt in (0.02, 0.01):
        t_grid = dt * np.arange(int(round(2.0 / dt)) + 1)
        residuals.append(fke_residual(k1, stable, f, [0.0], t_grid, grid=GRID1, t_min=0.1))
    ratio = residuals[0] / residuals[1]
    ok = ratio >= 1.8
    report(
        11,
        ok,
        f"residual {residuals[0]:.2e} -> {residuals[1]:.2e} under halving, ratio {ratio:.2f}",
    )


def test_criterion_12_determinism(k3, stable):
    draws_a = sample_inverse_many(stable, 1.0, 1e-2, 1000, seed=77)
    draws_b = sample_inverse_many(stable, 1.0, 1e-2, 1000, seed=77)
    api_ok = bool(np.array_equal(draws_a, draws_b))
    bins = BinSpec.cube(8.0, 4, 3)
    ha, sa = renormalized_green_histogram(k3, stable, ORIGIN3, 100.0, bins, 200, seed=5)
    hb, sb = renormalized_green_histogram(k3, stable, ORIGIN3, 100.0, bins, 200, seed=5)
    hist_ok = bool(np.array_equal(ha.masses, hb.masses) and np.array_equal(sa, sb))
    est_a = mc_truncated_potential(k3, cl_from_kernel(k3), ORIGIN3, 10.0, 500, seed=13)
    est_b = mc_truncated_potential(k3, cl_from_kernel(k3), ORIGIN3, 10.0, 500, seed=13)
    mc_ok = (est_a.mean, est_a.stderr) == (est_b.mean, est_b.stderr)
    ok = api_ok and hist_ok and mc_ok
    report(
        12,
        ok,
        f"inverse-subordinator draws identical: {api_ok}; histogram identical: {hist_ok}; "
        f"mc potential identical: {mc_ok}",
    )

"""Subordinator, inverse-process and fractional-derivative tests.

Closed forms for the 1/2-stable subordinator anchor most oracles:
k(t) = t^{-1/2}/Gamma(1/2), K(lambda) = lambda^{-1/2}, Phi(lambda) =
sqrt(lambda), int_0^t k = 2 sqrt(t/pi), and the inverse process has the
half-normal marginal rho_t(tau) = (pi t)^{-1/2} e^{-tau^2/(4t)}, so
D(t) =d= |N(0, sqrt(2t))| with mean 2 sqrt(t/pi).
"""

import dataclasses
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats
from scipy.optimize import elementwise

import greenwalk.subordinate as subordinate
from greenwalk import laplace
from greenwalk.errors import ConfigError, InvalidInputError, InversionInstabilityError, TruncationError
from greenwalk.green import CLFunction, cl_from_kernel, evolve_semigroup, green_regular_fourier, green_regular_series, potential
from greenwalk.grids import GridSpec
from greenwalk.kernels import fit_small_k_expansion, make_gaussian_kernel
from greenwalk.renorm import _horizon, fke_residual, mc_time_changed_expectation, normalization_N, subordinated_solution
from greenwalk.renorm import renormalized_green_histogram, renormalized_potential_curve
from greenwalk.simulate import BinSpec, average_random_green_measure, empirical_random_green_measure
from greenwalk.simulate import mc_expectation, mc_truncated_potential
from greenwalk.subordinate import (
    SubordinatorSpec,
    _mixture_weights,
    _stable_clipped_mean,
    check_H,
    check_admissible,
    gfd_apply,
    kernel_cell_masses,
    make_gamma_subordinator,
    make_stable_subordinator,
    rho_density,
    sample_inverse_many,
    time_averaged_ratio,
)


@pytest.fixture(scope="module")
def stable():
    return make_stable_subordinator(0.5)


@pytest.fixture(scope="module")
def gamma():
    return make_gamma_subordinator(1.0, 1.0)


# ---------------------------------------------------------------------------
# closed-form evaluations
# ---------------------------------------------------------------------------


def test_stable_closed_forms(stable):
    assert float(stable.k_eval(1.0)) == pytest.approx(1.0 / np.sqrt(np.pi))
    assert float(stable.phi_eval(4.0)) == pytest.approx(2.0)
    assert float(stable.K_eval(4.0)) == pytest.approx(0.5)
    assert float(stable.k_primitive(1.0)) == pytest.approx(2.0 / np.sqrt(np.pi))
    # Levy density alpha/Gamma(1-alpha) tau^{-1-alpha}
    assert float(stable.levy_density(1.0)) == pytest.approx(0.5 / special.gamma(0.5))


def test_gamma_closed_forms(gamma):
    # k(t) = b E_1(a t); primitive b (t E_1(a t) + (1 - e^{-a t})/a)
    assert float(gamma.k_eval(1.0)) == pytest.approx(special.exp1(1.0))
    assert float(gamma.phi_eval(1.0)) == pytest.approx(np.log(2.0))
    assert float(gamma.k_primitive(1.0)) == pytest.approx(
        special.exp1(1.0) + 1.0 - np.exp(-1.0)
    )


def test_spec_json_dict(stable):
    d = stable.to_json_dict()
    assert d["family"] == "stable"
    assert d["params"]["alpha"] == 0.5


_K1 = make_gaussian_kernel(1)
_K3 = make_gaussian_kernel(3)
_K4 = make_gaussian_kernel(4)  # beyond the radial rule's dimensions
_HALF = make_stable_subordinator(0.5)
_BINS1 = BinSpec.cube(4.0, 8, 1)
_GRID1 = GridSpec(1, 256, 20.0)


@pytest.mark.parametrize("call, name", [
    (lambda: make_gamma_subordinator(np.nan, 1.0), "a"),
    (lambda: make_gamma_subordinator(np.inf, 1.0), "a"),
    (lambda: normalization_N(_HALF, np.nan), "T"),
    (lambda: rho_density(_HALF, np.nan, 1.0), "t"),
    (lambda: rho_density(_HALF, 1.0, np.nan), "tau"),
    (lambda: subordinated_solution(_K1, _HALF, cl_from_kernel(_K1), [0.0], np.nan, grid=GridSpec(1, 64, 8.0)), "t"),
    (lambda: time_averaged_ratio(_HALF, np.nan, 1.0), "tau"),
    (lambda: time_averaged_ratio(_HALF, 1.0, np.nan), "t"),
    (lambda: check_admissible(_HALF, s0=np.nan), "s0"),
    (lambda: sample_inverse_many(_HALF, np.nan, 1e-3, 5, seed=0), "t"),
    (lambda: mc_time_changed_expectation(_K1, _HALF, cl_from_kernel(_K1), [0.0], np.nan, 10, seed=0), "t"),
    (lambda: mc_time_changed_expectation(_K1, _HALF, cl_from_kernel(_K1), [0.0], np.inf, 10, seed=0), "t"),
    (lambda: green_regular_series(_K3, GridSpec(3, 64, 16.0), np.nan), "lam"),
    (lambda: green_regular_fourier(_K3, 0.0, np.nan), "lam"),
    (lambda: green_regular_fourier(_K3, [np.nan, 0.0, 0.0], 0.0), "x"),
    (lambda: potential(_K3, cl_from_kernel(_K3), [np.nan, 0.0, 0.0], GridSpec(3, 16, 8.0)), "x"),
    (lambda: mc_truncated_potential(_K1, cl_from_kernel(_K1), [0.0], np.nan, 10, seed=0), "T"),
    (lambda: mc_truncated_potential(_K1, cl_from_kernel(_K1), [0.0], np.inf, 10, seed=0), "T"),
    (lambda: average_random_green_measure(_K1, [0.0], np.nan, _BINS1, 10, seed=0), "T"),
    (lambda: empirical_random_green_measure(_K1, [0.0], np.nan, _BINS1, np.random.default_rng(0)), "T"),
    (lambda: empirical_random_green_measure(_K1, [0.0], np.inf, _BINS1, np.random.default_rng(0)), "T"),
    (lambda: renormalized_green_histogram(_K1, _HALF, [0.0], np.inf, _BINS1, 10, seed=0), "T"),
    (lambda: mc_expectation(_K1, cl_from_kernel(_K1), [0.0], np.nan, 10, seed=0), "t"),
    (lambda: evolve_semigroup(_K1, cl_from_kernel(_K1).samples_on(GridSpec(1, 64, 8.0)), np.nan), "t"),
    (lambda: subordinated_solution(_K1, _HALF, cl_from_kernel(_K1), [1e3], 1.0, grid=_GRID1), "x"),
    (lambda: subordinated_solution(_K1, _HALF, cl_from_kernel(_K1), [np.nan], 1.0, grid=_GRID1), "x"),
    (lambda: subordinated_solution(_K1, _HALF, cl_from_kernel(_K1), [np.inf], 1.0, grid=_GRID1), "x"),
    (lambda: fke_residual(_K1, _HALF, cl_from_kernel(_K1), [np.nan], np.linspace(0.0, 1.0, 11), grid=_GRID1), "x"),
    (lambda: sample_inverse_many(_HALF, np.inf, None, 5, 1), "t"),
    (lambda: sample_inverse_many(_HALF, 1.0, None, -1, 1), "n"),
    (lambda: sample_inverse_many(_HALF, 1.0, None, 2.5, 1), "n"),
    (lambda: mc_expectation(_K1, cl_from_kernel(_K1), [0.0], 1.0, 2.5, seed=0), "n"),
    (lambda: mc_time_changed_expectation(_K1, _HALF, cl_from_kernel(_K1), [0.0], 1.0, 2.5, seed=0), "n"),
    (lambda: mc_expectation(_K1, cl_from_kernel(_K1), [np.nan], 1.0, 10, seed=0), "x"),
    (lambda: mc_time_changed_expectation(_K1, _HALF, cl_from_kernel(_K1), [np.nan], 1.0, 10, seed=0), "x"),
    (lambda: gfd_apply(None, [1.0, 2.0, 3.0, 4.0], -1.0, cell_masses=np.ones(3)), "dt"),
    (lambda: gfd_apply(None, [1.0, 2.0, 3.0, 4.0], np.nan, cell_masses=np.ones(3)), "dt"),
    (lambda: time_averaged_ratio(_HALF, 1.0, np.inf), "t"),
    (lambda: kernel_cell_masses(_HALF, np.nan, 5), "dt"),
    (lambda: mc_truncated_potential(_K1, cl_from_kernel(_K1), [np.nan], 5.0, 10, seed=0), "x"),
    (lambda: mc_expectation(_K1, cl_from_kernel(_K1), [np.nan], 0.0, 10, seed=0), "x"),
    (lambda: rho_density(_HALF, np.inf, 1.0), "t"),
    (lambda: rho_density(make_stable_subordinator(0.7), np.inf, 1.0), "t"),
    (lambda: rho_density(_HALF, 1.0, np.inf), "tau"),
    (lambda: kernel_cell_masses(_HALF, 0.1, 2.5), "m"),
    (lambda: kernel_cell_masses(_HALF, 0.1, -1), "m"),
    (lambda: normalization_N(_HALF, np.inf), "T"),
    (lambda: time_averaged_ratio(_HALF, np.inf, 1.0), "tau"),
    (lambda: check_admissible(_HALF, s0=np.inf), "s0"),
    (lambda: GridSpec(1, 64, np.inf), "half_width"),
    (lambda: BinSpec.cube(np.nan, 4, 1), "half_width"),
    (lambda: green_regular_series(_K1, _GRID1, np.inf), "lam"),
    (lambda: green_regular_fourier(_K3, 0.0, np.inf), "lam"),
    (lambda: normalization_N(make_gamma_subordinator(1.0, 1.0), np.inf), "T"),
    (lambda: subordinated_solution(_K1, _HALF, cl_from_kernel(_K1), [0.0], np.inf, grid=_GRID1), "t"),
    (lambda: fit_small_k_expansion(_K1, 1e-3, np.inf), "k_max"),
    (lambda: mc_expectation(_K1, cl_from_kernel(_K1), [0.0], 1e308, 10, seed=0), "t"),
    (lambda: mc_truncated_potential(_K1, cl_from_kernel(_K1), [0.0], 1e308, 10, seed=0), "T"),
    (lambda: mc_expectation(_K1, cl_from_kernel(_K1), [0.0], 1.0, 10, seed=-1), "seed"),
    (lambda: GridSpec(1, 64.0, 8.0), "points_per_axis"),
    (lambda: fke_residual(_K1, _HALF, cl_from_kernel(_K1), [0.0], np.linspace(0.0, 1.0, 11), grid=_GRID1,
                          t_min=np.nan), "t_min"),
    (lambda: renormalized_potential_curve(_K3, _HALF, cl_from_kernel(_K3), [0.0, 0.0, 0.0], [np.nan],
                                          GridSpec(3, 16, 8.0)), "T_grid"),
    (lambda: fke_residual(_K1, _HALF, cl_from_kernel(_K1), [0.0], [0.0, np.nan, 0.2, 0.3, 0.4], grid=_GRID1),
     "t_grid"),
    (lambda: renormalized_potential_curve(_K3, _HALF, cl_from_kernel(_K3), [0.0, 0.0, 0.0], 5.0, GridSpec(3, 16, 8.0)),
     "T_grid"),
    (lambda: potential(_K3, CLFunction(_K3.density), [0.0, 0.0, 0.0]), "grid"),
    (lambda: GridSpec(1, 64, 1e308), "half_width"),
    (lambda: GridSpec(3, 64, 1e150), "half_width"),
    (lambda: BinSpec.cube(8.0, 0, 3), "shape"),
    (lambda: BinSpec.cube(8.0, -2, 3), "shape"),
    (lambda: BinSpec.cube(8.0, 2.5, 3), "shape"),
    (lambda: BinSpec((1.0, -1.0), (1.0, 1.0), (4, 4)), "lo, hi"),
    (lambda: green_regular_fourier(_K4, [0.0] * 4, 0.0), "kernel.dim"),
    (lambda: potential(_K4, cl_from_kernel(_K4), [0.0] * 4, GridSpec(4, 8, 4.0)), "kernel.dim"),
    (lambda: renormalized_potential_curve(_K4, _HALF, cl_from_kernel(_K4), [0.0] * 4, [1.0, 2.0]), "kernel.dim"),
    (lambda: renormalized_potential_curve(_K3, _HALF, cl_from_kernel(_K3), [0.0, 0.0, 0.0], []), "T_grid"),
], ids=["gamma-a-nan", "gamma-a-inf", "N-T-nan", "rho-t-nan", "rho-tau-nan", "subsol-t-nan", "ratio-tau-nan",
        "ratio-t-nan", "admissible-s0-nan", "inverse-t-nan", "mc-t-nan", "mc-t-inf", "series-lam-nan",
        "fourier-lam-nan", "fourier-x-nan", "potential-x-nan", "truncated-T-nan", "truncated-T-inf",
        "average-T-nan", "empirical-T-nan", "empirical-T-inf", "histogram-T-inf", "expectation-t-nan",
        "semigroup-t-nan", "subsol-x-outside", "subsol-x-nan", "subsol-x-inf", "fke-x-nan", "inverse-t-inf",
        "inverse-n-negative", "inverse-n-fraction", "expectation-n-fraction", "mc-n-fraction", "expectation-x-nan",
        "mc-x-nan", "gfd-dt-negative", "gfd-dt-nan", "ratio-t-inf", "cell-masses-dt-nan",
        "truncated-x-nan", "expectation-x-nan-t0", "rho-t-inf", "rho-t-inf-stable07", "rho-tau-inf",
        "cell-masses-m-fraction", "cell-masses-m-negative", "N-T-inf", "ratio-tau-inf", "admissible-s0-inf",
        "gridspec-half-width-inf", "binspec-half-width-nan", "series-lam-inf", "fourier-lam-inf", "N-gamma-T-inf",
        "subsol-t-inf", "fit-k-max-inf", "expectation-t-huge", "truncated-T-huge", "expectation-seed-negative",
        "gridspec-n-float", "fke-t-min-nan", "curve-T-grid-nan", "fke-t-grid-nan",
        "curve-T-grid-scalar", "potential-grid-missing", "gridspec-spacing-overflow", "gridspec-cell-volume-overflow",
        "binspec-shape-zero", "binspec-shape-negative", "binspec-shape-fraction", "binspec-lo-not-below-hi",
        "fourier-dim-4", "potential-dim-4", "curve-dim-4", "curve-T-grid-empty"])
@pytest.mark.filterwarnings("error")
def test_nan_and_inf_inputs_raise_value_error(call, name):
    # InvalidInputError is also a ValueError; the message names the argument
    with pytest.raises(InvalidInputError, match=rf"\b{name}\b"):
        call()


# ---------------------------------------------------------------------------
# limit conditions and admissibility
# ---------------------------------------------------------------------------


def test_check_H_stable_passes(stable):
    assert check_H(stable).passed


def test_check_H_gamma_reports_bounded_K(gamma):
    # K(lambda) = b log(1 + lambda/a)/lambda tends to the finite limit b/a
    # as lambda -> 0, so the K-divergence condition genuinely fails
    report = check_H(gamma)
    assert not report.K_diverges_at_zero
    assert report.phi_vanishes_at_zero
    assert report.phi_diverges_at_infinity
    assert not report.passed


def test_check_H_flags_degenerate_kernel():
    # k = 1 gives K(lambda) = 1/lambda but Phi = 1 constant: both Phi limits fail
    degenerate = SubordinatorSpec(
        family="degenerate",
        params={},
        levy_density=lambda tau: np.zeros_like(np.asarray(tau, dtype=float)),
        k_eval=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        K_eval=lambda lam: 1.0 / np.asarray(lam, dtype=float),
        phi_eval=lambda lam: np.ones_like(np.asarray(lam, dtype=float)),
        increment_sampler=lambda dt, rng, size: np.full(size, dt),
        k_primitive=lambda t: np.asarray(t, dtype=float),
    )
    report = check_H(degenerate)
    assert not report.phi_vanishes_at_zero
    assert not report.phi_diverges_at_infinity
    assert not report.passed


def test_admissible_stable(stable):
    report = check_admissible(stable, s0=1.0)
    assert report.passed
    # (1/K(lambda)) int_0^{1/lambda} k = 2/sqrt(pi) exactly for alpha = 1/2
    assert report.a1_estimate == pytest.approx(2.0 / np.sqrt(np.pi), rel=0.02)


# ---------------------------------------------------------------------------
# increments and first passage
# ---------------------------------------------------------------------------


def test_stable_increment_laplace_transform(stable):
    # E exp(-S(dt)) = exp(-dt sqrt(1)) for the 1/2-stable subordinator
    rng = np.random.default_rng(12)
    dt = 0.5
    inc = stable.increment_sampler(dt, rng, 200000)
    vals = np.exp(-inc)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - np.exp(-dt)) < 3 * se


def test_gamma_increment_laplace_transform(gamma):
    # E exp(-S(dt)) = (1 + 1/a)^{-b dt}
    rng = np.random.default_rng(12)
    dt = 0.5
    inc = gamma.increment_sampler(dt, rng, 200000)
    vals = np.exp(-inc)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 2.0 ** (-dt)) < 3 * se


def test_inverse_mean_matches_half_normal(stable):
    draws = sample_inverse_many(stable, 1.0, 1e-3, 4000, seed=8)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 2.0 / np.sqrt(np.pi)) < 3 * se + 2e-3


def test_inverse_sampling_is_reproducible(stable):
    a = sample_inverse_many(stable, 1.0, 1e-2, 500, seed=21)
    b = sample_inverse_many(stable, 1.0, 1e-2, 500, seed=21)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 0.9])
def test_kanter_sampler_laplace_transform(alpha):
    # E exp(-lambda S(1)) = exp(-lambda^alpha) for the standard alpha-stable law
    s1 = make_stable_subordinator(alpha).increment_sampler(1.0, np.random.default_rng(5), 400_000)
    for lam in (0.5, 1.0, 3.0):
        vals = np.exp(-lam * s1)
        z = (vals.mean() - np.exp(-(lam**alpha))) / (vals.std(ddof=1) / np.sqrt(vals.size))
        assert abs(z) < 4.0, (lam, z)


def test_exact_stable07_inverse_moments():
    # E D(1)^m = m! / Gamma(1 + m alpha) for the inverse alpha-stable subordinator
    draws = sample_inverse_many(make_stable_subordinator(0.7), 1.0, 1e-3, 200_000, seed=4)
    for m, target in ((1, 1.0 / special.gamma(1.7)), (2, 2.0 / special.gamma(2.4))):
        vals = draws**m
        z = (vals.mean() - target) / (vals.std(ddof=1) / np.sqrt(vals.size))
        assert abs(z) < 4.0, (m, z)


def test_stable_inverse_draws_do_not_depend_on_ds(stable):
    coarse = sample_inverse_many(stable, 1.0, 1e-2, 300, seed=6)
    fine = sample_inverse_many(stable, 1.0, 1e-4, 300, seed=6)
    np.testing.assert_array_equal(coarse, fine)


def test_half_stable_inverse_draws_follow_half_normal(stable):
    # D(1) = |N(0, sqrt 2)| has CDF erf(x / 2)
    draws = sample_inverse_many(stable, 1.0, 1e-4, 2000, seed=10)
    assert stats.kstest(draws, lambda x: special.erf(x / 2.0)).pvalue > 1e-3


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs import time that nothing in greenwalk needs
    code = "import sys, greenwalk; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_does_not_load_scipy_solvers():
    # neither scipy.optimize nor scipy.integrate is imported, not by gamma draws
    # (a Newton-secant search of their own), nor by N(T) of a spec without
    # k_primitive, which is a Talbot inversion
    code = """if True:
        import dataclasses, sys
        import greenwalk
        print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
        from greenwalk.renorm import normalization_N
        from greenwalk.subordinate import (
            make_gamma_subordinator, make_stable_subordinator, sample_inverse_many, time_averaged_ratio)
        gamma = make_gamma_subordinator(2.0, 0.5)
        draws = sample_inverse_many(gamma, 1.0, 1e-3, 50, seed=3)
        print(draws.size, bool((draws > 0).all()), "scipy.optimize" in sys.modules)
        print(repr(time_averaged_ratio(make_stable_subordinator(0.5), 1.0, 10.0)[0]))
        print(repr(normalization_N(dataclasses.replace(gamma, k_primitive=None), 2.0)), repr(float(gamma.k_primitive(2.0))))
        print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded, draws, m_rho, prims, loaded_after = out.stdout.strip().splitlines()
    assert loaded == loaded_after == "[]"
    assert draws == "50 True False"
    # M_rho = (1/t) int_0^t rho_s(1) ds with the half-normal rho_s(1) = e^{-1/(4s)}/sqrt(pi s)
    exact = mp.quad(lambda s: mp.exp(-1 / (4 * s)) / mp.sqrt(mp.pi * s), [0, 1, 10]) / 10
    assert float(m_rho) == pytest.approx(float(exact), rel=1e-8)
    quad, exact = map(float, prims.split())
    assert quad == pytest.approx(exact, rel=1e-10)


def test_import_starts_no_thread():
    # the path engine's worker pool is created on first use, not at import
    code = "import threading, greenwalk; print(threading.active_count(), greenwalk.simulate._POOL)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "None"]


# ---------------------------------------------------------------------------
# exact gamma draws by inversion of the passage law
# ---------------------------------------------------------------------------

# a != b, so a swapped shape or rate shows
GAMMA_AB = (2.0, 0.5)


def test_gamma_passage_cdf_is_the_upper_incomplete_gamma():
    # P(D(t) <= tau) = P(S(tau) >= t) with S(tau) ~ Gamma(b tau, rate a)
    a, b = GAMMA_AB
    spec = make_gamma_subordinator(a, b)
    for t, tau in ((1.0, 0.7), (0.3, 2.0)):
        tail = mp.quad(lambda s: s ** (b * tau - 1) * mp.exp(-a * s), [t, mp.inf])
        expected = float(a ** (b * tau) * tail / mp.gamma(b * tau))
        assert float(spec.passage_cdf(t, tau)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x", [1e-3, 0.01, 0.1, 1.0, 3.0, 10.0, 30.0, 100.0])
def test_gamma_q_matches_mpmath(x):
    # s in [1e-6, 1) covers both sides of the switch between the recurrence
    # and scipy's gammaincc at every x up to 3; from x = 10 on, Q(s, x) < Q(s + 1, x) / 8
    # and only gammaincc runs.  The passage-law inversion meets s = b tau up to b tau_hi;
    # s in [1, 64] is gammaincc up to x = 10, and from x = 30 on the continued
    # fraction below s = x / 1.4, where gammaincc is off by up to 8e-14 at x = 100
    small = np.concatenate([np.geomspace(1e-6, 1.0 - 1e-6, 120), np.linspace(0.005, 0.995, 100)])
    up = special.gammaincc(small + 1.0, x)
    rec = up - x**small * np.exp(-x) / special.gamma(small + 1.0)
    if x <= 3.0:
        assert np.any(rec >= up / 8.0) and np.any(rec < up / 8.0)
    s = np.concatenate([small, np.geomspace(1.0, 64.0, 60), np.linspace(1.5, 63.5, 32)])
    with mp.workdps(40):
        ref = np.array([float(mp.gammainc(mp.mpf(v), mp.mpf(x), mp.inf, regularized=True)) for v in s])
    np.testing.assert_allclose(subordinate._gamma_q(s, x), ref, rtol=5e-14, atol=0.0)


def test_gamma_q_handles_the_edges():
    s = np.array([0.0, 0.5, 0.5, 0.5, 1.0, 2.5, np.nan])
    x = np.array([1.0, 0.0, np.inf, 1e-300, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(subordinate._gamma_q(s, x), special.gammaincc(s, x))
    assert subordinate._gamma_q(np.zeros((2, 3)), 1.0).shape == (2, 3)


def test_gamma_passage_law_and_clipped_mean_keep_scalars_scalar():
    spec = make_gamma_subordinator(*GAMMA_AB)
    for value in (spec.passage_cdf(1.0, 0.3), spec.passage_sf(1.0, 0.3), spec.clipped_mean(5.0, 0.3)):
        assert np.ndim(value) == 0 and isinstance(value, float)
    assert spec.passage_cdf(1.0, np.array([0.3])).shape == (1,)
    assert spec.clipped_mean(5.0, np.array([[0.3]])).shape == (1, 1)


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
def test_gamma_passage_cdf_differentiates_to_rho(tau):
    spec = make_gamma_subordinator(*GAMMA_AB)
    h = 1e-5
    slope = (spec.passage_cdf(1.0, tau + h) - spec.passage_cdf(1.0, tau - h)) / (2.0 * h)
    assert slope == pytest.approx(rho_density(spec, 1.0, tau), rel=1e-8)


def test_gamma_inverse_draws_follow_passage_law():
    spec = make_gamma_subordinator(*GAMMA_AB)
    draws = sample_inverse_many(spec, 1.0, 1e-3, 20_000, seed=12)
    assert stats.kstest(draws, lambda tau: spec.passage_cdf(1.0, tau)).pvalue > 1e-3


def test_gamma_inverse_mean_matches_quadrature(gamma):
    # E D(1) = int_0^inf P(D(1) > tau) dtau = int_0^inf P(b tau, a) dtau
    exact = integrate.quad(lambda tau: special.gammainc(tau, 1.0), 0.0, np.inf)[0]
    assert exact == pytest.approx(1.4812038045152895, rel=1e-10)
    draws = sample_inverse_many(gamma, 1.0, 1e-3, 20_000, seed=13)
    z = (draws.mean() - exact) / (draws.std(ddof=1) / np.sqrt(draws.size))
    assert abs(z) < 4.0


def test_gamma_inverse_draws_do_not_depend_on_ds(gamma):
    coarse = sample_inverse_many(gamma, 1.0, 1e-2, 300, seed=6)
    fine = sample_inverse_many(gamma, 1.0, 1e-4, 300, seed=6)
    np.testing.assert_array_equal(coarse, fine)


def test_a_spec_without_an_exact_draw_is_refused(gamma):
    # neither self_similarity nor passage_cdf: no exact route to D(t), and no inexact one
    bare = dataclasses.replace(gamma, passage_cdf=None, passage_sf=None)
    with pytest.raises(ConfigError, match="self_similarity or passage_cdf"):
        sample_inverse_many(bare, 1.0, 1e-3, 10, seed=14)
    with pytest.raises(ConfigError, match="self_similarity or passage_cdf"):
        mc_time_changed_expectation(_K1, bare, cl_from_kernel(_K1), [0.0], 1.0, 10, seed=14)


def test_inverse_draws_ignore_ds(gamma):
    # ds is kept for positional callers only and is neither read nor checked
    np.testing.assert_array_equal(sample_inverse_many(gamma, 1.0, None, 50, seed=15),
                                  sample_inverse_many(gamma, 1.0, -1.0, 50, seed=15))


@pytest.mark.parametrize("ab", [(2.0, 0.5), (1.0, 1.0)])
@pytest.mark.parametrize("t", [0.01, 1.0, 30.0])
def test_upper_tail_draws_solve_the_complement(t, ab):
    # at u = 1 - 1e-12 the cdf is flat to rounding; P(D(t) > tau) = 1 - u,
    # with 1 - u exact, pins the root to full relative precision
    a, b = ab
    spec = make_gamma_subordinator(a, b)
    u = 1.0 - 1e-12
    got = float(subordinate._invert_passage_cdf(spec, t, np.array([0.3, u]))[1])
    with mp.workdps(40):
        q = 1 - mp.mpf(u)
        ref = mp.findroot(lambda tau: mp.gammainc(b * tau, 0, a * t, regularized=True) - q, mp.mpf(got))
    assert abs(got / float(ref) - 1.0) <= 1e-12


def test_gamma_draws_are_the_roots_of_the_seeded_uniforms(gamma):
    # one uniform per draw from the seed's stream, in order, whichever side solves it
    u = np.random.default_rng(17).uniform(size=500)
    np.testing.assert_array_equal(sample_inverse_many(gamma, 2.0, 1e-3, 500, seed=17),
                                  subordinate._invert_passage_cdf(gamma, 2.0, u))
    lower = dataclasses.replace(gamma, passage_sf=None)
    low = u <= 0.5
    np.testing.assert_array_equal(subordinate._invert_passage_cdf(lower, 2.0, u)[low],
                                  subordinate._invert_passage_cdf(gamma, 2.0, u)[low])


def _searched_roots(spec, t, u):
    """The roots of passage_cdf(t, tau) = u, each bracket searched outward from tau = 1."""
    def gap(tau, u):
        return spec.passage_cdf(t, tau) - u

    bracket = elementwise.bracket_root(gap, 1.0, xmin=0.0, args=(u,))
    root = elementwise.find_root(gap, bracket.bracket, args=(u,))
    assert bracket.success.all() and root.success.all()
    return root.x


@pytest.mark.parametrize("ab", [GAMMA_AB, (1.0, 1.0)])
@pytest.mark.parametrize("t", [1e-2, 1.0, 30.0])
def test_table_bracketed_inversion_matches_searched_brackets(ab, t):
    spec = make_gamma_subordinator(*ab)
    u = np.array([1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-12])
    ref = _searched_roots(spec, t, u)
    got = subordinate._invert_passage_cdf(spec, t, u)
    # F rounds to u on a tau-interval of width about spacing(u) / F'(tau):
    # below 1e-15 tau except near u = 1, where F is flat to rounding
    # (about 1e-6 relative at u = 1 - 1e-12) and any root in it is as good
    h = 1e-3 * ref
    slope = (spec.passage_cdf(t, ref + h) - spec.passage_cdf(t, ref - h)) / (2.0 * h)
    np.testing.assert_array_less(np.abs(got - ref), 1e-13 * ref + 4.0 * np.spacing(u) / slope)
    np.testing.assert_allclose(got[u < 0.99], ref[u < 0.99], rtol=1e-13, atol=0.0)


ORACLE_U = np.concatenate([np.geomspace(1e-12, 0.5, 12), 1.0 - np.geomspace(0.3, 1e-12, 12)])


@pytest.mark.parametrize("ab", [GAMMA_AB, (1.0, 1.0)])
@pytest.mark.parametrize("t", [1e-2, 1.0, 30.0])
def test_inversion_matches_mpmath_roots(ab, t):
    # each root against the 40-digit root of P(b tau, a t) = 1 - u, which is Q(b tau, a t) = u
    a, b = ab
    spec = make_gamma_subordinator(a, b)
    u = ORACLE_U
    got = subordinate._invert_passage_cdf(spec, t, u)
    with mp.workdps(40):
        ref = np.array([float(mp.findroot(lambda tau: mp.gammainc(b * tau, 0, a * t, regularized=True) - (1 - mp.mpf(v)),
                                          mp.mpf(g))) for v, g in zip(u, got)])
    np.testing.assert_allclose(got[u < 0.99], ref[u < 0.99], rtol=1e-13, atol=0.0)
    # the flat-cdf bound of the comparison with searched brackets
    h = 1e-3 * ref
    slope = (spec.passage_cdf(t, ref + h) - spec.passage_cdf(t, ref - h)) / (2.0 * h)
    np.testing.assert_array_less(np.abs(got - ref), 1e-13 * ref + 4.0 * np.spacing(u) / slope)


@pytest.mark.parametrize("ab", [GAMMA_AB, (1.0, 1.0)])
@pytest.mark.parametrize("t", [1e-2, 1.0, 30.0])
def test_inversion_takes_at_most_four_law_evaluations_per_draw(ab, t):
    # every tau at which either side's law is evaluated counts, the table and its range included
    spec = make_gamma_subordinator(*ab)
    taus = []

    def counted(law):
        return lambda t, tau: taus.append(np.size(tau)) or law(t, tau)

    counting = dataclasses.replace(spec, passage_cdf=counted(spec.passage_cdf), passage_sf=counted(spec.passage_sf))
    draws = sample_inverse_many(counting, t, None, 2000, seed=41)
    np.testing.assert_array_equal(draws, sample_inverse_many(spec, t, None, 2000, seed=41))
    assert sum(taus) / draws.size <= 4.0


def test_table_bracketed_inversion_maps_zero_to_zero(gamma):
    got = subordinate._invert_passage_cdf(gamma, 1.0, np.array([0.0, 0.5, 0.0]))
    assert got[0] == got[2] == 0.0 and got[1] > 0.0
    np.testing.assert_array_equal(subordinate._invert_passage_cdf(gamma, 1.0, np.zeros(3)), 0.0)


def _nan_between(spec, lo, hi):
    def passage_cdf(t, tau):
        tau = np.asarray(tau, dtype=float)
        return np.where((tau > lo) & (tau < hi), np.nan, spec.passage_cdf(t, tau))

    return dataclasses.replace(spec, passage_cdf=passage_cdf)


@pytest.mark.parametrize("lo, hi", [(2.0, np.inf), (0.5, 1.0)], ids=["beyond-2", "on-table"])
def test_table_bracketed_inversion_raises_on_nan(gamma, lo, hi):
    # NaN beyond tau = 2 keeps the table range from covering max u; NaN on
    # (0.5, 1) falls on table nodes
    with pytest.raises(TruncationError):
        subordinate._invert_passage_cdf(_nan_between(gamma, lo, hi), 1.0, np.array([0.1, 0.5, 0.99]))


def test_table_bracketed_inversion_raises_when_the_root_search_meets_nan(gamma):
    # NaN on a window around the root that holds no table node: only the
    # Newton-secant iterates, which start within it, see it
    root = float(_searched_roots(gamma, 1.0, np.array([0.5]))[0])
    nodes = np.linspace(0.0, 2.0, subordinate._PASSAGE_NODES)  # F(1) < 0.5 <= F(2)
    assert np.min(np.abs(nodes - root)) > 2e-4
    with pytest.raises(TruncationError):
        subordinate._invert_passage_cdf(_nan_between(gamma, root - 1e-4, root + 1e-4), 1.0, np.array([0.5]))


def test_table_bracketed_inversion_raises_when_the_law_never_reaches_u(gamma):
    # a passage law capped at 0.5 never covers u = 0.9; the doubling of the
    # table range stops at its cap and raises
    capped = dataclasses.replace(gamma, passage_cdf=lambda t, tau: np.minimum(gamma.passage_cdf(t, tau), 0.5))
    with pytest.raises(TruncationError):
        subordinate._invert_passage_cdf(capped, 1.0, np.array([0.2, 0.9]))
    np.testing.assert_array_equal(
        subordinate._invert_passage_cdf(capped, 1.0, np.array([0.2, 0.4])),
        subordinate._invert_passage_cdf(gamma, 1.0, np.array([0.2, 0.4])),
    )


# ---------------------------------------------------------------------------
# marginal density of the inverse process
# ---------------------------------------------------------------------------


def test_rho_closed_form_half_normal(stable):
    t, tau = 2.0, 1.0
    expected = np.exp(-(tau**2) / (4 * t)) / np.sqrt(np.pi * t)
    assert rho_density(stable, t, tau) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("t", [1e300, 1e308])
def test_rho_closed_form_half_normal_at_huge_t(stable, t):
    # at t = 1e308 the product pi t overflows; e^{-tau^2/4t}/sqrt(pi t) is about 5.6e-155
    tau = 2.5
    with mp.workdps(30):
        expected = mp.exp(-mp.mpf(tau) ** 2 / (4 * mp.mpf(t))) / mp.sqrt(mp.pi * mp.mpf(t))
    assert rho_density(stable, t, tau) == pytest.approx(float(expected), rel=1e-14)


def test_rho_laplace_matches_closed_form(stable):
    for t, tau in [(1.0, 0.5), (1.0, 1.0), (4.0, 2.0)]:
        closed = rho_density(stable, t, tau)
        talbot = rho_density(dataclasses.replace(stable, rho_closed_form=None), t, tau)
        assert talbot == pytest.approx(closed, rel=1e-6)


def test_rho_gamma_integrates_to_one(gamma):
    taus = np.linspace(1e-6, 60.0, 400)
    dens = np.array([rho_density(gamma, 1.0, tau) for tau in taus])
    mass = np.trapezoid(dens, taus)
    assert mass == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("t, tau", [(0.05, 5.0), (0.5, 8.0)])
def test_rho_density_raises_when_the_transform_overflows(t, tau):
    # e^{-tau lambda K(lambda)} overflows on the contour for alpha = 0.7; the
    # resulting NaN must fail the order gate instead of being returned, and
    # without a RuntimeWarning (the suite turns those into errors)
    with pytest.raises(InversionInstabilityError):
        rho_density(dataclasses.replace(make_stable_subordinator(0.7), rho_closed_form=None), t, tau)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_rho_stable_kanter_matches_mpmath(alpha):
    # the t-transform of rho_t(tau) is lambda^{alpha-1} e^{-tau lambda^alpha};
    # rho_t(0) = k(t)
    spec = make_stable_subordinator(alpha)
    for t in (0.05, 1.0, 20.0):
        assert rho_density(spec, t, 0.0) == pytest.approx(float(spec.k_eval(t)), rel=1e-14)
        with mp.workdps(30):
            for tau in (0.01, 0.5, 1.0, 3.0, 8.0):
                ref = float(mp.invertlaplace(lambda s: s ** (alpha - 1) * mp.exp(-tau * s**alpha), t))
                assert rho_density(spec, t, tau) == pytest.approx(ref, rel=1e-9, abs=1e-13)


def test_kanter_rule_is_built_once(monkeypatch):
    # the 12-node rule is a module constant, equal to leggauss(12); with
    # leggauss broken, rho and clipped_mean return the same bits
    np.testing.assert_array_equal(subordinate._KANTER_RULE, np.polynomial.legendre.leggauss(12))
    specs = [make_stable_subordinator(alpha) for alpha in (0.7, 0.3)]
    taus = np.array([0.0, 1e-3, 0.5, 3.0])

    def values():
        rho = [rho_density(spec, t, float(tau)) for spec in specs for t in (0.05, 1.0) for tau in taus]
        return np.array(rho), np.array([spec.clipped_mean(T, taus) for spec in specs for T in (1e2, 2.0**21)])

    before = values()

    def broken(deg):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", broken)
    after = values()
    for b, a in zip(before, after):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# mixture weights E e^{-r D(t)} and W_T(r) = int_0^T E e^{-r D(s)} ds
# ---------------------------------------------------------------------------

RATES = np.linspace(0.0, 2.0, 9)


def test_mixture_weights_gamma_match_mpmath(gamma):
    # t-transform of E e^{-r D(t)} is K/(r + Phi) with Phi = log(1 + lambda)
    with mp.workdps(30):
        for t in (0.1, 1.0, 4.0):
            ref = [
                float(mp.invertlaplace(lambda s: mp.log1p(s) / (s * (r + mp.log1p(s))), t))
                for r in RATES
            ]
            np.testing.assert_allclose(_mixture_weights(gamma, t, RATES), ref, rtol=0, atol=1e-11)


def test_mixture_weights_stable07_match_mittag_leffler():
    spec = make_stable_subordinator(0.7)
    with mp.workdps(40):
        for t in (0.1, 1.0, 4.0):
            ref = [
                float(mp.nsum(lambda k: (-r * t**0.7) ** k / mp.gamma(0.7 * k + 1), [0, mp.inf]))
                for r in RATES
            ]
            np.testing.assert_allclose(_mixture_weights(spec, t, RATES), ref, rtol=0, atol=1e-11)


def test_mixture_weights_half_stable_inversion_matches_erfcx(stable):
    talbot = dataclasses.replace(stable, laplace_closed_form=None)
    for t in (0.02, 1.0, 4.0, 100.0):
        exact = special.erfcx(RATES * np.sqrt(t))
        np.testing.assert_array_equal(_mixture_weights(stable, t, RATES), exact)
        np.testing.assert_allclose(_mixture_weights(talbot, t, RATES), exact, rtol=0, atol=1e-11)


def test_mixture_weights_are_exact_at_rate_zero(gamma):
    for spec in (gamma, make_stable_subordinator(0.7)):
        for t in (0.02, 1.0, 100.0):
            assert _mixture_weights(spec, t, [0.0])[0] == 1.0
            assert _mixture_weights(spec, t, [0.0], integrated=True)[0] == t


def test_occupation_weights_half_stable_closed_form(stable):
    # int_0^T erfcx(r sqrt(s)) ds = (erfcx(x) + 2 x / sqrt(pi) - 1) / r^2, x = r sqrt(T)
    rates = RATES[1:]
    for T in (1.0, 512.0, 2.0**21):
        x = rates * np.sqrt(T)
        exact = (special.erfcx(x) + 2.0 * x / np.sqrt(np.pi) - 1.0) / rates**2
        got = _mixture_weights(stable, T, rates, integrated=True)
        np.testing.assert_allclose(got, exact, rtol=1e-9)


def test_occupation_weights_integrate_the_weights(gamma):
    for spec in (gamma, make_stable_subordinator(0.7)):
        for T in (0.5, 3.0):
            quad = [
                integrate.quad(lambda s: _mixture_weights(spec, s, [r])[0], 0.0, T, epsabs=1e-13)[0]
                for r in RATES
            ]
            np.testing.assert_allclose(
                _mixture_weights(spec, T, RATES, integrated=True), quad, rtol=1e-10, atol=1e-12
            )


def test_mixture_inversion_outside_talbot_validity_raises():
    # r + e^{-lambda} vanishes on the line Re lambda = -log r, right of the
    # imaginary axis for r < 1, where the Talbot contour cannot enclose it
    spec = dataclasses.replace(make_stable_subordinator(0.7), phi_eval=lambda lam: np.exp(-lam))
    with np.errstate(all="ignore"):
        for integrated in (False, True):
            with pytest.raises(InversionInstabilityError):
                _mixture_weights(spec, 1.0, RATES, integrated=integrated)


def test_occupation_weights_keep_relative_precision_where_W_is_small(stable):
    # W_T << T for r sqrt(T) >> 1, where T - r L^{-1}[1/(lambda^2 (r + Phi))]
    # cancelled about three digits (1.2e-10 relative at T = 2^21, r = 2)
    rates = np.array([1e-3, 0.05, 0.5, 2.0])
    for T in (512.0, 2.0**21):
        got = _mixture_weights(stable, T, rates, integrated=True)
        with mp.workdps(60):
            exact = [
                float((mp.exp(x**2) * mp.erfc(x) + 2 * x / mp.sqrt(mp.pi) - 1) / r**2)
                for r, x in ((mp.mpf(r), mp.mpf(r) * mp.sqrt(T)) for r in rates)
            ]
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# the batched fixed-Talbot core
# ---------------------------------------------------------------------------

TIMES = np.array([0.003, 0.1, 1.0, 4.0, 60.0, 2.0**21])


@pytest.mark.parametrize("integrated", [False, True])
def test_mixture_weights_batch_equals_the_per_time_calls(stable, gamma, integrated):
    rates = np.linspace(0.0, 2.0, 77)
    talbot = [gamma, make_stable_subordinator(0.7), dataclasses.replace(stable, laplace_closed_form=None)]
    for spec in talbot + [stable]:
        batch = _mixture_weights(spec, TIMES, rates, integrated=integrated)
        single = np.array([_mixture_weights(spec, t, rates, integrated=integrated) for t in TIMES])
        assert batch.shape == (TIMES.size, rates.size)
        if spec is stable and not integrated:
            np.testing.assert_array_equal(batch, single)  # the closed form, broadcast
        else:
            np.testing.assert_allclose(batch / (TIMES[:, None] if integrated else 1.0),
                                       single / (TIMES[:, None] if integrated else 1.0), rtol=0, atol=1e-13)


def test_mixture_weights_batch_raises_when_one_time_fails(gamma):
    # Phi is NaN far out on the contour, which only the nodes z/t of small t reach
    spec = dataclasses.replace(
        gamma, phi_eval=lambda lam: np.where(np.abs(lam) > 1e4, np.nan, gamma.phi_eval(lam))
    )
    for t in (0.5, 2.0):
        _mixture_weights(spec, t, RATES)
    with pytest.raises(InversionInstabilityError, match=r"t = 0\.001 \(1 of 3 times fail\)"):
        _mixture_weights(spec, np.array([0.5, 1e-3, 2.0]), RATES)


def test_rho_density_array_of_tau_equals_the_scalar_calls(stable, gamma):
    # tau up to 3.5: beyond, the 0.7-stable inversion fails its gate at t = 1
    taus = np.linspace(0.0, 3.5, 36)
    talbot07 = dataclasses.replace(make_stable_subordinator(0.7), rho_closed_form=None)
    for spec in (gamma, talbot07, stable, make_stable_subordinator(0.3)):
        for t in (1.0, 3.0):
            got = rho_density(spec, t, taus)
            assert got.shape == taus.shape
            # the node sums run in another order for a column of tau than for
            # one tau, which moves the Talbot roundoff (up to 1.4e-13 here)
            np.testing.assert_allclose(got, [rho_density(spec, t, float(tau)) for tau in taus], rtol=0, atol=5e-13)
            assert isinstance(rho_density(spec, t, 1.5), float)
    with pytest.raises(ValueError):
        rho_density(gamma, 1.0, np.array([0.5, -1.0]))


def test_talbot_contour_is_built_once(monkeypatch, gamma, stable):
    # the nodes and weights of orders 16 and 24 are module constants; with
    # np.tan broken after import, every inversion returns the same bits
    for M, z_c in zip((16, 24), np.split(np.stack([laplace._TALBOT_Z, laplace._TALBOT_C]), [16], axis=1)):
        np.testing.assert_array_equal(z_c, np.stack(laplace._talbot_contour(M)))
    st07 = make_stable_subordinator(0.7)
    talbot07 = dataclasses.replace(st07, rho_closed_form=None)

    def values():
        return (
            rho_density(gamma, 1.0, np.array([0.0, 0.5, 3.0])),
            rho_density(talbot07, 0.5, 1.0),
            _mixture_weights(st07, TIMES, RATES),
            _mixture_weights(gamma, 2.0, RATES, integrated=True),
            np.array(time_averaged_ratio(stable, 1.0, 100.0)),
        )

    before = values()

    def broken(x):
        raise AssertionError("np.tan called")

    monkeypatch.setattr(np, "tan", broken)
    for b, a in zip(before, values()):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# clipped mean C_T(tau) = E[S(tau) ^ T]
# ---------------------------------------------------------------------------

CLIPPED_SPECS = [
    (make_gamma_subordinator(1.0, 1.0), None),
    (make_stable_subordinator(0.3), lambda s: s**0.3),
    (make_stable_subordinator(0.7), lambda s: s**0.7),
]


@pytest.mark.parametrize("spec, phi", CLIPPED_SPECS, ids=["gamma", "stable0.3", "stable0.7"])
@pytest.mark.parametrize("T", [1e2, 2.0**21])
def test_clipped_mean_matches_mpmath(spec, phi, T):
    # C_T(tau) inverts (1 - e^{-tau Phi(lambda)})/lambda^2 at T.  For gamma,
    # S(tau) ~ Gamma(tau, 1) is so sharply peaked near the horizon that
    # mpmath's inversion loses digits there, so the oracle is mpmath's
    # incomplete gammas: C_T = tau P(tau + 1, T) + T Q(tau, T).
    taus = np.geomspace(1e-3, _horizon(spec.clipped_mean, T), 6)
    with mp.workdps(30):
        if phi is None:
            ref = [tau * mp.gammainc(tau + 1, 0, T, regularized=True)
                   + T * mp.gammainc(tau, T, mp.inf, regularized=True) for tau in taus]
        else:
            ref = [mp.invertlaplace(lambda s: (1 - mp.exp(-tau * phi(s))) / s**2, T) for tau in taus]
    np.testing.assert_allclose(spec.clipped_mean(T, taus), np.array(ref, dtype=float), rtol=1e-9)


def test_kanter_clipped_mean_matches_erf_form_at_one_half(stable):
    for T in (1.0, 1e2, 1e4, 2.0**21):
        taus = np.geomspace(1e-3, _horizon(stable.clipped_mean, T), 50)
        np.testing.assert_allclose(
            _stable_clipped_mean(0.5, T, taus), stable.clipped_mean(T, taus), rtol=1e-12
        )


@pytest.mark.parametrize("spec", [make_gamma_subordinator(1.0, 1.0)] + [
    make_stable_subordinator(a) for a in (0.3, 0.5, 0.7)])
def test_clipped_mean_small_tau_limit(spec):
    # E[S(tau) ^ T] = tau int_0^T k(s) ds + O(tau^2): S(tau) makes one jump
    # of Levy-tail mass tau k(s) beyond s, or none
    for T in (1e2, 2.0**21):
        N_T = float(spec.k_primitive(T))
        for tau in (1e-4, 1e-6, 1e-8):
            ratio = float(spec.clipped_mean(T, np.array([tau]))[0]) / (tau * N_T)
            assert abs(ratio - 1.0) <= 0.2 * tau
        assert spec.clipped_mean(T, np.array([0.0]))[0] == 0.0


def test_time_averaged_ratio_near_one_at_large_t(stable):
    _, _, ratio = time_averaged_ratio(stable, 1.0, 1e3)
    assert abs(ratio - 1.0) < 0.1


@pytest.mark.parametrize("t", [1.0, 1e2, 1e4])
def test_time_averaged_ratio_gamma_matches_mpmath(t):
    # int_0^t rho_s(tau) ds = d/dtau E[S(tau) ^ t], and for gamma (a, b)
    # E[S(tau) ^ t] = (b tau / a) P(b tau + 1, a t) + t Q(b tau, a t)
    a, b = GAMMA_AB
    tau = 1.0

    def clipped(x):
        return (b * x / a) * mp.gammainc(b * x + 1, 0, a * t, regularized=True) + t * mp.gammainc(
            b * x, a * t, mp.inf, regularized=True
        )

    with mp.workdps(30):
        exact = float(mp.diff(clipped, tau)) / t
    m_rho, _, _ = time_averaged_ratio(make_gamma_subordinator(a, b), tau, t)
    assert m_rho == pytest.approx(exact, rel=1e-8)


# ---------------------------------------------------------------------------
# generalized fractional derivative
# ---------------------------------------------------------------------------


def test_cell_masses_match_primitive(stable):
    dt, m = 0.1, 5
    masses = kernel_cell_masses(stable, dt, m)
    edges = dt * np.arange(m + 1)
    np.testing.assert_allclose(masses, np.diff(2 * np.sqrt(edges / np.pi)), rtol=1e-12)


def grid_and_kernel(spec, dt, T):
    m = int(round(T / dt))
    ts = dt * np.arange(m + 1)
    with np.errstate(divide="ignore"):
        ks = np.asarray(spec.k_eval(np.maximum(ts, 1e-300)), dtype=float)
    return ts, ks, kernel_cell_masses(spec, dt, m)


def test_gfd_reads_only_the_cell_masses(stable, gamma):
    # k_samples is not read: None gives the same bits as k on the grid
    for spec in (stable, gamma):
        ts, ks, masses = grid_and_kernel(spec, 0.01, 1.0)
        np.testing.assert_array_equal(gfd_apply(None, np.sqrt(ts), 0.01, cell_masses=masses),
                                      gfd_apply(ks, np.sqrt(ts), 0.01, cell_masses=masses), strict=True)


def test_gfd_of_constant_is_exactly_zero(stable):
    ts, ks, masses = grid_and_kernel(stable, 0.01, 1.0)
    out = gfd_apply(ks, np.full(ts.size, 3.7), 0.01, cell_masses=masses)
    assert np.max(np.abs(out)) == 0.0


@settings(max_examples=25)
@given(
    family=st.sampled_from(["stable", "gamma"]),
    c=st.floats(-1e6, 1e6),
    dt=st.floats(1e-3, 0.05),
    T=st.floats(0.2, 2.0),
)
def test_gfd_of_random_constant_is_zero(stable, gamma, family, c, dt, T):
    spec = stable if family == "stable" else gamma
    ts, ks, masses = grid_and_kernel(spec, dt, T)
    assert np.max(np.abs(gfd_apply(ks, np.full(ts.size, c), dt, cell_masses=masses))) == 0.0


def test_gfd_is_linear(stable):
    dt = 0.01
    ts, ks, masses = grid_and_kernel(stable, dt, 1.0)
    f, g = ts**2, np.sin(ts)
    combo = gfd_apply(ks, 2.0 * f + g, dt, cell_masses=masses)
    parts = 2.0 * gfd_apply(ks, f, dt, cell_masses=masses) + gfd_apply(
        ks, g, dt, cell_masses=masses
    )
    np.testing.assert_allclose(combo, parts, atol=1e-13)


def caputo_error(spec, dt):
    # Caputo oracle: D^{(k)} t = t^{1-alpha}/Gamma(2-alpha) = 2 sqrt(t/pi).
    # Evaluate at t = 1, away from the t -> 0 boundary layer where the
    # memory-kernel singularity limits the local order.
    ts, ks, masses = grid_and_kernel(spec, dt, 1.2)
    out = gfd_apply(ks, ts.copy(), dt, cell_masses=masses)
    i = int(round(1.0 / dt)) - 1  # gfd output starts at t_1
    return float(abs(out[i] - 2.0 * np.sqrt(ts[i + 1] / np.pi)))


def test_gfd_caputo_oracle(stable):
    assert caputo_error(stable, 4e-3) < 0.01 * 2.0 / np.sqrt(np.pi)


def test_gamma_k_primitive_is_zero_at_zero(gamma):
    assert gamma.k_primitive(0.0) == 0.0
    prims = gamma.k_primitive(np.array([0.0, 0.5]))
    assert prims[0] == 0.0 and prims[1] == pytest.approx(integrate.quad(gamma.k_eval, 0.0, 0.5)[0])


# ---------------------------------------------------------------------------
# N(T) of a spec without k_primitive: the Talbot inverse of Phi / lambda^2
# ---------------------------------------------------------------------------


def _no_primitive(spec):
    return dataclasses.replace(spec, k_primitive=None)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
def test_k_integral_inversion_matches_the_stable_primitive(alpha):
    spec, ts = make_stable_subordinator(alpha), np.geomspace(1e-6, 1e8, 29)
    np.testing.assert_allclose(normalization_N(_no_primitive(spec), ts), spec.k_primitive(ts), rtol=1e-11, atol=0)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5)])
def test_k_integral_inversion_matches_the_gamma_primitive(a, b):
    spec, ts = make_gamma_subordinator(a, b), np.geomspace(1e-6, 1e3, 19)
    np.testing.assert_allclose(normalization_N(_no_primitive(spec), ts), spec.k_primitive(ts), rtol=1e-10, atol=0)


def test_k_integral_inversion_is_exactly_zero_at_zero(gamma):
    spec = _no_primitive(gamma)
    assert normalization_N(spec, 0.0) == 0.0
    prims = normalization_N(spec, np.array([0.0, 1.0]))
    assert prims[0] == 0.0 and prims[1] == pytest.approx(float(gamma.k_primitive(1.0)), rel=1e-10)


@pytest.mark.parametrize("spec", [make_gamma_subordinator(1.0, 1.0), make_gamma_subordinator(2.0, 0.5),
                                  make_stable_subordinator(0.5), make_stable_subordinator(0.7)],
                         ids=["gamma1-1", "gamma2-0.5", "stable0.5", "stable0.7"])
@pytest.mark.parametrize("dt, m", [(0.02, 25), (0.01, 200)])
def test_cell_masses_without_a_primitive_match_the_closed_form(spec, dt, m):
    # each mass is a difference of two N values, so it keeps fewer digits than N
    np.testing.assert_allclose(kernel_cell_masses(_no_primitive(spec), dt, m), kernel_cell_masses(spec, dt, m),
                               rtol=1e-8, atol=0)


def test_k_integral_inversion_raises_where_the_orders_disagree():
    # for gamma (2, 0.5) at t = 1e8 the orders 16 and 24 differ by 6.5e-7 of N
    with pytest.raises(InversionInstabilityError, match=r"t = 1e\+08 \(1 of 2 times fail\)"):
        normalization_N(_no_primitive(make_gamma_subordinator(2.0, 0.5)), np.array([1.0, 1e8]))


@pytest.mark.parametrize("spec", [make_stable_subordinator(0.3), make_stable_subordinator(0.5),
                                  make_stable_subordinator(0.7), make_gamma_subordinator(1.0, 1.0)],
                         ids=["stable0.3", "stable0.5", "stable0.7", "gamma1-1"])
def test_normalization_of_an_array_equals_its_scalar_calls(spec):
    # one call for the curve's seven T, and 1,000 random T, give the per-T values bit for bit
    for ts in (np.array([1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]), np.random.default_rng(16).uniform(0.0, 50.0, 1000)):
        one = [normalization_N(spec, t) for t in ts]
        assert all(type(v) is float for v in one)
        np.testing.assert_array_equal(normalization_N(spec, ts), one)
    assert normalization_N(spec, 0.0) == 0.0 and type(normalization_N(spec, 0.0)) is float
    with pytest.raises(ValueError, match=r"\bT\b"):
        normalization_N(spec, np.array([1.0, -1.0]))


@pytest.mark.parametrize("spec", [make_stable_subordinator(0.3), make_stable_subordinator(0.5),
                                  make_stable_subordinator(0.7), make_gamma_subordinator(1.0, 1.0),
                                  make_gamma_subordinator(2.0, 0.5)],
                         ids=["stable0.3", "stable0.5", "stable0.7", "gamma1-1", "gamma2-0.5"])
def test_normalization_inversion_of_an_array_matches_its_scalar_calls(spec):
    # the batch contract of greenwalk.laplace: numpy rounds the terms and their
    # sums differently for one T than for many (up to 2e-13 relative here)
    spec, ts = _no_primitive(spec), np.random.default_rng(16).uniform(0.0, 50.0, 1000)
    one = [normalization_N(spec, t) for t in ts]
    assert all(type(v) is float for v in one)
    np.testing.assert_allclose(normalization_N(spec, ts), one, rtol=1e-12, atol=0)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5)])
def test_admissibility_without_a_primitive_matches_the_closed_form(a, b):
    # the probes reach t = 1.1e6, where the gamma inversion keeps about 8 digits
    spec = make_gamma_subordinator(a, b)
    ref, inv = check_admissible(spec, s0=1.0), check_admissible(_no_primitive(spec), s0=1.0)
    assert inv.passed and ref.passed
    assert inv.a1_estimate == pytest.approx(ref.a1_estimate, abs=1e-7)
    assert inv.a2_max_deviation == pytest.approx(ref.a2_max_deviation, abs=1e-7)


def test_gfd_gamma_of_t_is_the_primitive(gamma):
    # D^{(k)} t = int_0^t k(s) ds for every kernel k
    dt = 4e-3
    ts, ks, masses = grid_and_kernel(gamma, dt, 1.2)
    out = gfd_apply(ks, ts.copy(), dt, cell_masses=masses)
    assert np.all(np.isfinite(out))
    i = int(round(1.0 / dt)) - 1  # gfd output starts at t_1
    assert out[i] == pytest.approx(float(gamma.k_primitive(ts[i + 1])), rel=1e-4)


def test_gfd_second_order_convergence(stable):
    e1, e2 = caputo_error(stable, 8e-3), caputo_error(stable, 4e-3)
    assert e1 / e2 > 1.8

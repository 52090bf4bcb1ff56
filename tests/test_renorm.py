"""Subordination formula and renormalized Green measure tests.

Oracles for the 1/2-stable time change: N(T) = int_0^T k = 2 sqrt(T/pi),
so N(pi) = 2 exactly, and E[exp(-r D(t))] = erfcx(r sqrt(t)).  Before the
periodic box is felt, the renormalized curve of any stable index matches
the rate-class sum against W_T(r) = int_0^T E e^{-r D(s)} ds.
"""

import dataclasses
import inspect

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from green_oracles import ZETA_ORACLE
from greenwalk import laplace, renorm, simulate
from greenwalk.errors import (AliasingError, ConfigError, DivergentGreenMeasureError, InvalidInputError,
                             InversionInstabilityError)
from greenwalk.grids import GridSpec
from greenwalk.green import CLFunction, _RateClasses, cl_from_kernel, potential
from greenwalk.kernels import make_cauchy_kernel, make_gaussian_kernel
from greenwalk.renorm import (
    RenormCurve,
    _quadrature_weights,
    _state_weights,
    fke_residual,
    mc_time_changed_expectation,
    normalization_N,
    renormalized_green_histogram,
    renormalized_potential_curve,
    subordinated_solution,
    unnormalized_potential_integral,
)
from greenwalk.laplace import state_weights
from greenwalk.simulate import BinSpec
from greenwalk.subordinate import (_half_stable_occupation, _mixture_weights, make_gamma_subordinator,
                                  make_stable_subordinator)

GRID1 = GridSpec(1, 1024, 40.0)
GRID3 = GridSpec(3, 64, 16.0)


@pytest.fixture(scope="module")
def stable():
    return make_stable_subordinator(0.5)


@pytest.fixture(scope="module")
def gamma():
    return make_gamma_subordinator(1.0, 1.0)


@pytest.fixture(scope="module")
def k1():
    return make_gaussian_kernel(1)


@pytest.fixture(scope="module")
def k3():
    return make_gaussian_kernel(3)


def const_cl(value):
    return CLFunction(lambda p: np.full(len(p), float(value)))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalization_stable_closed_form(stable):
    assert normalization_N(stable, np.pi) == pytest.approx(2.0, rel=1e-12)


def test_normalization_gamma_closed_form(gamma):
    # int_0^1 E_1(s) ds = E_1(1) + 1 - e^{-1}
    expected = special.exp1(1.0) + 1.0 - np.exp(-1.0)
    assert normalization_N(gamma, 1.0) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# subordination formula
# ---------------------------------------------------------------------------


def test_subordinated_constant_is_preserved(k1, stable, gamma):
    f = const_cl(1.0)
    for spec in (stable, gamma):
        assert subordinated_solution(k1, spec, f, [0.0], 1.0, grid=GRID1) == pytest.approx(
            1.0, abs=1e-6
        )


def test_subordinated_solution_matches_mc(k1, stable):
    f = cl_from_kernel(k1)
    v = subordinated_solution(k1, stable, f, [0.0], 1.0, grid=GRID1)
    est = mc_time_changed_expectation(k1, stable, f, [0.0], 1.0, n=200000, seed=17)
    assert abs(est.mean - v) < 3 * est.stderr


def test_subordinated_solution_small_time_limit(k1, stable):
    # v(t, x) -> f(x) as t -> 0; with f = a*a the relative gap at t = 1e-3
    # is ~0.7% (E[D(t)] = 2 sqrt(t/pi) times the logarithmic derivative of f)
    f = CLFunction(lambda p: np.exp(-p[:, 0] ** 2 / 8.0) / np.sqrt(8.0 * np.pi), name="a2")
    v = subordinated_solution(k1, stable, f, [0.0], 1e-3, grid=GRID1)
    assert v == pytest.approx(f.value_at([0.0]), rel=0.01)


def test_subordinated_solution_stable07_matches_mc(k1):
    spec = make_stable_subordinator(0.7)
    f = cl_from_kernel(k1)
    v = subordinated_solution(k1, spec, f, [0.0], 1.0, grid=GRID1)
    est = mc_time_changed_expectation(k1, spec, f, [0.0], 1.0, n=200000, seed=23)
    assert abs(est.mean - v) <= 5 * est.stderr


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 0.5)])
def test_subordinated_solution_gamma_matches_mc(k1, a, b):
    # gamma D(t) is drawn exactly, by inverting its passage law
    spec = make_gamma_subordinator(a, b)
    f = cl_from_kernel(k1)
    v = subordinated_solution(k1, spec, f, [0.0], 1.0, grid=GRID1)
    est = mc_time_changed_expectation(k1, spec, f, [0.0], 1.0, n=20_000, seed=29)
    assert abs(est.mean - v) <= 5 * est.stderr


@pytest.mark.parametrize("x", [[0.0, 0.0], [np.nan]], ids=["wrong-dim", "nan"])
def test_mc_time_changed_checks_x_before_any_draw(k1, gamma, x):
    # a bad point is refused before D(t) is drawn, which costs law evaluations
    calls = []

    def counted(law):
        return lambda t, tau: calls.append(np.size(tau)) or law(t, tau)

    spec = dataclasses.replace(gamma, passage_cdf=counted(gamma.passage_cdf), passage_sf=counted(gamma.passage_sf))
    with pytest.raises(InvalidInputError, match="^x must be"):
        mc_time_changed_expectation(k1, spec, cl_from_kernel(k1), x, 1.0, 2000, seed=31)
    assert calls == []
    mc_time_changed_expectation(k1, spec, cl_from_kernel(k1), [0.0], 1.0, 20, seed=31)
    assert calls


def test_mc_time_changed_constant(k1, stable):
    est = mc_time_changed_expectation(k1, stable, const_cl(1.0), [0.0], 1.0, 64, seed=3)
    assert est.mean == pytest.approx(1.0)
    assert est.stderr == 0.0


def test_mc_time_changed_reproducible(k1, stable):
    f = cl_from_kernel(k1)
    a = mc_time_changed_expectation(k1, stable, f, [0.0], 1.0, 2000, seed=5)
    b = mc_time_changed_expectation(k1, stable, f, [0.0], 1.0, 2000, seed=5)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


# ---------------------------------------------------------------------------
# renormalized potential curve
# ---------------------------------------------------------------------------


def test_curve_gap_decreases_and_n_matches(k3, stable):
    f = cl_from_kernel(k3)
    T_grid = np.array([2.0**9, 2.0**13, 2.0**17])
    curve = renormalized_potential_curve(k3, stable, f, [0.0, 0.0, 0.0], T_grid, GRID3)
    # the target is V(0, a) from potential itself, the continuum radial rule
    assert curve.target == pytest.approx(ZETA_ORACLE, rel=1e-12)
    assert curve.target == potential(k3, f, [0.0, 0.0, 0.0], GRID3)
    np.testing.assert_allclose(curve.N_values, 2 * np.sqrt(T_grid / np.pi), rtol=1e-12)
    gaps = curve.rel_gaps
    assert np.all(np.diff(gaps) < 0)


CURVE_TS = 2.0 ** np.arange(9, 22, 2)


@pytest.fixture(scope="module")
def half_curve(k3, stable):
    return renormalized_potential_curve(k3, stable, cl_from_kernel(k3), [0.0, 0.0, 0.0], CURVE_TS, GRID3)


@pytest.mark.parametrize("alpha", [0.49, 0.51])
def test_curve_is_continuous_in_the_stable_index(k3, half_curve, alpha):
    # every stable index shares one curve route; a grid sum over W_T(r) felt
    # the periodic box and read 51% (0.49) and 71% (0.51) high at T = 2^21
    spec = make_stable_subordinator(alpha)
    curve = renormalized_potential_curve(k3, spec, cl_from_kernel(k3), [0.0, 0.0, 0.0], CURVE_TS, GRID3)
    np.testing.assert_allclose(curve.values, half_curve.values, rtol=0.02)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_curve_matches_rate_class_sum_before_the_box_is_felt(k3, alpha):
    # at small T the grid's rate-class sum sum_c w_c W_T(r_c) does not feel the
    # box, so it equals the continuum radial quadrature
    spec = make_stable_subordinator(alpha)
    f = cl_from_kernel(k3)
    u = _RateClasses.build(k3, f, [0.0, 0.0, 0.0], GRID3)
    for T in (2.0, 8.0):
        ref = u.weights @ _mixture_weights(spec, T, u.rates, integrated=True)
        got = unnormalized_potential_integral(k3, spec, f, [0.0, 0.0, 0.0], T)
        assert got == pytest.approx(ref, rel=1e-4)


def test_curve_and_integral_need_no_grid(k3, stable, half_curve):
    # the curve's grid is optional and unread: the same bits with and without it
    f = cl_from_kernel(k3)
    curve = renormalized_potential_curve(k3, stable, f, [0.0, 0.0, 0.0], CURVE_TS)
    np.testing.assert_array_equal(curve.values, half_curve.values)
    assert curve.target == half_curve.target


def test_limit_needs_a_clipped_mean(k3, stable):
    # the curve reads Phi, not the clipped mean; the histogram needs the clipped mean
    bare = dataclasses.replace(stable, clipped_mean=None)
    T_grid = np.array([1.0, 2.0])
    f = cl_from_kernel(k3)
    with_mean = renormalized_potential_curve(k3, stable, f, [0.0, 0.0, 0.0], T_grid, GRID3)
    without = renormalized_potential_curve(k3, bare, f, [0.0, 0.0, 0.0], T_grid, GRID3)
    np.testing.assert_array_equal(without.values, with_mean.values)
    assert without.target == with_mean.target
    for method in ("conditional", "raw"):
        with pytest.raises(ConfigError):
            renormalized_green_histogram(
                k3, bare, [0.0, 0.0, 0.0], 10.0, BinSpec.cube(8.0, 4, 3), 10, seed=1, method=method
            )


def half_stable_W(r, T):
    """W_T(r) = int_0^T erfcx(r sqrt s) ds = (erfcx(x) + 2 x / sqrt(pi) - 1) / r^2, x = r sqrt T.

    Below x = 0.05 the closed form cancels; there W_T / T = sum_m (-x)^m / Gamma(m/2 + 2).
    """
    x = r * np.sqrt(T)
    if x < 0.05:
        m = np.arange(16)
        return T * float(np.sum((-x) ** m / special.gamma(0.5 * m + 2.0)))
    return (special.erfcx(x) + 2.0 * x / np.sqrt(np.pi) - 1.0) / r**2


def half_stable_occupation(T, r):
    """int_0^T v(s, x) ds at |x| = r for the 3-D Gaussian and f = a, by adaptive quadrature."""

    def integrand(k):
        angular = 1.0 if r == 0.0 else np.sin(k * r) / (k * r)
        return k * k * angular * np.exp(-k * k) * half_stable_W(-np.expm1(-k * k), T) / (2 * np.pi**2)

    points = T**-0.25 * np.array([0.1, 1.0, 10.0])
    val, _ = integrate.quad(integrand, 0.0, 12.0, points=points, limit=400, epsabs=0.0, epsrel=1e-13)
    return val


@pytest.mark.parametrize("x", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
def test_curve_matches_closed_form_W_and_records_its_quadrature_error(k3, stable, x):
    T_grid = np.array([2.0**9, 2.0**21])
    curve = renormalized_potential_curve(k3, stable, cl_from_kernel(k3), x, T_grid, GRID3)
    exact = [half_stable_occupation(T, x[0]) / (2 * np.sqrt(T / np.pi)) for T in T_grid]
    np.testing.assert_allclose(curve.values, exact, rtol=1e-10)
    assert curve.quad_errors.shape == T_grid.shape
    assert np.all(curve.quad_errors <= 1e-10 * curve.values)


S0 = 0.1


def gaussian_f(s0):
    """f = (4 pi s0)^{-3/2} e^{-|x|^2/(4 s0)} on R^3, with f_hat = e^{-s0 k^2}."""
    density = lambda p: (4 * np.pi * s0) ** -1.5 * np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=-1) / (4 * s0))
    return CLFunction(density, name="gaussian_f", fourier=lambda k: np.exp(-s0 * k * k))


@pytest.mark.parametrize("T", [1e-6, 1.0, 2.0**21])
def test_integral_of_an_f_hat_that_a_hat_does_not_damp(k3, stable, T):
    # f_hat = e^{-0.1 k^2} is still 1.7e-3 where a_hat = e^{-k^2} reaches 1e-28, so a
    # cutoff set by a_hat alone would leave out about 0.5% of the integral
    def integrand(k):
        return k * k * np.exp(-S0 * k * k) * _half_stable_occupation(T, -np.expm1(-k * k)) / (2 * np.pi**2)

    edges = [0.0, 1e-3, 1.0, 10.0, 60.0]
    exact = sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
    value = unnormalized_potential_integral(k3, stable, gaussian_f(S0), [0.0, 0.0, 0.0], T)
    assert value == pytest.approx(exact, rel=1e-12)


def test_potential_of_a_gaussian_f_matches_the_hurwitz_zeta(k3):
    # V(0, f) = f(0) + sum_{n >= 1} (4 pi (n + s0))^{-3/2}
    exact = (4 * np.pi * S0) ** -1.5 + (4 * np.pi) ** -1.5 * float(mp.zeta(1.5, 1 + S0))
    assert potential(k3, gaussian_f(S0), [0.0, 0.0, 0.0]) == pytest.approx(exact, rel=1e-13)


def test_curve_needs_the_fourier_transform_of_f(k3, stable):
    f = CLFunction(cl_from_kernel(k3).samples_on(GRID3).values_at, name="a_table")
    with pytest.raises(ConfigError, match="a_table"):
        renormalized_potential_curve(k3, stable, f, [0.0, 0.0, 0.0], np.array([1.0, 2.0]), GRID3)


def test_subordinated_solution_rejects_an_aliased_symbol(stable):
    # on this box the sampled Cauchy symbol reaches 1.0083 near k = 0, so
    # 1 - a_hat would be a negative rate; it used to be clipped at 0
    kernel = make_cauchy_kernel()
    grid = GridSpec(1, 2**20, 6e5)
    with pytest.raises(AliasingError, match="exceeds 1"):
        subordinated_solution(kernel, stable, cl_from_kernel(kernel), [0.0], 1.0, grid=grid)


def test_unnormalized_integral_diverges(k3, stable):
    f = cl_from_kernel(k3)
    vals = [
        unnormalized_potential_integral(k3, stable, f, [0.0, 0.0, 0.0], T)
        for T in (0.5, 1.0, 2.0)
    ]
    assert vals[1] / vals[0] > 1.8
    assert vals[2] / vals[1] > 1.4  # asymptotic growth per doubling is sqrt(2)


def test_limit_requires_green_existence(k1, stable):
    with pytest.raises(DivergentGreenMeasureError):
        renormalized_potential_curve(
            k1, stable, cl_from_kernel(k1), [0.0], np.array([1.0, 2.0]), GRID1
        )


def test_limit_rejects_unknown_tail_exponent(stable):
    # without a tail exponent the Green measure's existence is undecided
    unknown = dataclasses.replace(make_gaussian_kernel(3), tail_params=None)
    f = cl_from_kernel(unknown)
    with pytest.raises(DivergentGreenMeasureError):
        renormalized_potential_curve(unknown, stable, f, [0.0, 0.0, 0.0], np.array([1.0, 2.0]), GRID3)
    with pytest.raises(DivergentGreenMeasureError):
        unnormalized_potential_integral(unknown, stable, f, [0.0, 0.0, 0.0], 1.0)


def test_limit_rejects_inadmissible_subordinator(k3, gamma):
    # the gamma family has bounded K near zero, so the limit theorem's
    # kernel conditions fail and the curve must refuse to run
    with pytest.raises(ConfigError):
        renormalized_potential_curve(
            k3, gamma, cl_from_kernel(k3), [0.0, 0.0, 0.0], np.array([1.0, 2.0]), GRID3
        )


def test_renorm_curve_validates_inputs():
    with pytest.raises(ValueError):
        RenormCurve(np.array([1.0, 1.0]), np.array([0.1, 0.1]), 1.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RenormCurve(np.array([1.0, 2.0]), np.array([0.1, 0.1]), 1.0, np.array([2.0, 1.0]))


# ---------------------------------------------------------------------------
# renormalized occupation histogram
# ---------------------------------------------------------------------------


def test_histogram_total_mass_identity(k3, stable, gamma):
    # per replica the clipped occupation times plus the time left after the
    # horizon sum to T, so the normalized total is T/N(T) deterministically
    bins = BinSpec.cube(8.0, 4, 3)
    T = 1000.0
    for spec in (stable, gamma, make_stable_subordinator(0.7)):
        for method in ("conditional", "raw"):
            hist, _ = renormalized_green_histogram(
                k3, spec, [0.0, 0.0, 0.0], T, bins, 200, seed=2, method=method
            )
            assert hist.total_mass() == pytest.approx(T / normalization_N(spec, T), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.8, 0.9])
@pytest.mark.parametrize("T", [10.0, 1e3, 1e4])
def test_histogram_runs_for_stable_index_near_one(k3, alpha, T):
    # the horizon used to evaluate the Kanter clipped mean at every power of 2
    # from 2^-40 to 2^199 at once, where tau T^-alpha over- or underflows
    spec = make_stable_subordinator(alpha)
    for method in ("conditional", "raw"):
        hist, _ = renormalized_green_histogram(
            k3, spec, [0.0, 0.0, 0.0], T, BinSpec.cube(8.0, 4, 3), 4, seed=3, method=method
        )
        assert hist.total_mass() == pytest.approx(T / normalization_N(spec, T), rel=1e-12)


def test_histogram_methods_are_conditional_and_raw(k3, stable):
    # "auto" was an alias of "conditional", which is now the default
    default = inspect.signature(renormalized_green_histogram).parameters["method"].default
    assert default == "conditional"
    with pytest.raises(ValueError, match="auto"):
        renormalized_green_histogram(k3, stable, [0.0, 0.0, 0.0], 10.0, BinSpec.cube(4.0, 2, 3), 2, 1, method="auto")


@pytest.mark.parametrize("T", [1e-6, 1e-3])
@pytest.mark.parametrize("spec", [make_stable_subordinator(0.5), make_stable_subordinator(0.9),
                                  make_gamma_subordinator(1.0, 1.0)], ids=["stable0.5", "stable0.9", "gamma"])
def test_horizon_is_the_least_tau_whose_tail_is_below_1e_8_T(spec, T):
    # at small T both stable horizons lie below tau = 1, so the bracket is found by halving;
    # gamma's lies above 1 at both T and is found by doubling
    tau = renorm._horizon(spec.clipped_mean, T)
    tail = lambda s: T - spec.clipped_mean(T, np.array([s]))[0]
    assert (tau < 1.0) == (spec.family == "stable")
    assert tail(tau) <= 1e-8 * T < tail(tau * (1.0 - 2e-6))


@pytest.mark.parametrize("method", ["conditional", "raw"])
def test_histogram_path_length(k3, stable, method, monkeypatch):
    # raw draws X paths up to tau* = min{tau : T - C_T(tau) <= 1e-8 T}; the
    # conditional walks have no clock and take exactly the weight table's n_max jumps
    seen = []
    occupation = renorm._mc_occupation

    def recording(kernel, x, h, *args, jumps=None):
        seen.append((h, jumps))
        return occupation(kernel, x, h, *args, jumps=jumps)

    monkeypatch.setattr(renorm, "_mc_occupation", recording)
    T = 100.0
    bins = BinSpec.cube(8.0, 4, 3)
    renormalized_green_histogram(k3, stable, [0.0, 0.0, 0.0], T, bins, 10, seed=1, method=method)
    if method == "raw":
        assert seen == [(renorm._horizon(stable.clipped_mean, T), None)]
    else:
        assert seen == [(None, _state_weights(stable, T).size - 1)]


def test_conditional_histogram_reads_no_clipped_mean_and_no_clock(k3, stable, monkeypatch):
    # where the Talbot gate passes (1/2- and 0.7-stable at T = 1e3), the weights
    # come from Phi alone and the walks draw no holding time and no S-increment
    calls = []

    def no_draw(*args):
        raise AssertionError("drawn")

    monkeypatch.setattr(simulate._PathChunk, "durations", property(no_draw))
    for base in (stable, make_stable_subordinator(0.7)):
        def counting(T, tau, base=base):
            calls.append(tau)
            return base.clipped_mean(T, tau)

        spec = dataclasses.replace(base, clipped_mean=counting, increment_sampler=no_draw)
        renormalized_green_histogram(k3, spec, [0.0, 0.0, 0.0], 1e3, BinSpec.cube(8.0, 4, 3), 20, seed=1)
    assert calls == []


def box_probability(lo, hi, x, n):
    """P(Y_n in [lo, hi)) for Y_n = x + n jumps of the Gaussian kernel, N(x, 2n I); Y_0 = x."""
    if n == 0:
        return float(np.all((lo <= x) & (x < hi)))
    scale = 2.0 * np.sqrt(n)
    return float(np.prod(0.5 * (special.erf((hi - x) / scale) - special.erf((lo - x) / scale))))


@pytest.mark.parametrize("spec", [make_stable_subordinator(0.5), make_stable_subordinator(0.7),
                                  make_stable_subordinator(0.9), make_gamma_subordinator(1.0, 1.0)],
                         ids=["stable0.5", "stable0.7", "stable0.9", "gamma"])
@pytest.mark.parametrize("method", ["conditional", "raw"])
def test_histogram_matches_the_per_bin_mean(k3, spec, method):
    # the exact mean of bin B is sum_n w_n P(Y_n in B) / N(T), with Y_n ~ N(x, 2n I);
    # raw never reads w, so it checks the weight table independently.  At T = 100
    # stable 0.5 and 0.7 take the Talbot weights, stable 0.9 and gamma the quadrature
    T, x, bins = 100.0, np.zeros(3), BinSpec.cube(8.0, 4, 3)
    w = _state_weights(spec, T)
    hist, se = renormalized_green_histogram(k3, spec, x, T, bins, 4000, seed=21, method=method)
    edges = bins.edges()
    for idx in np.ndindex(bins.shape):
        lo = np.array([edges[i][j] for i, j in enumerate(idx)])
        hi = np.array([edges[i][j + 1] for i, j in enumerate(idx)])
        mean = sum(w_n * box_probability(lo, hi, x, n) for n, w_n in enumerate(w)) / normalization_N(spec, T)
        assert abs(hist.masses[idx] - mean) <= 5.0 * se[idx], idx


@pytest.mark.parametrize("n", [0, 1, 10, 100, 700])
def test_half_stable_weights_match_mpmath(stable, n):
    # w_n = int Poisson(n; tau) c_T(tau) dtau with c_T = dC_T/dtau = 2 sqrt(T) ierfc(tau / (2 sqrt T))
    T = 1e4
    a = 2.0 * np.sqrt(T)
    with mp.workdps(30):
        def integrand(tau):
            z = tau / a
            ierfc = mp.exp(-z * z) / mp.sqrt(mp.pi) - z * mp.erfc(z)
            return mp.exp(-tau + n * mp.log(tau) - mp.loggamma(n + 1)) * a * ierfc

        sd = np.sqrt(n + 1.0)
        points = [0] + [p for p in (n - 10 * sd, n, n + 10 * sd) if p > 0] + [mp.inf]
        ref = float(mp.quad(integrand, points))
    assert _state_weights(stable, T)[n] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha, T", [(a, T) for a in (0.3, 0.5, 0.7) for T in (10.0, 1e3, 1e4)]
                         + [(0.8, 10.0), (0.9, 10.0)])
def test_talbot_weights_match_the_quadrature(alpha, T):
    # at alpha = 0.9, T = 10, T - C_T falls like exp(-c s^20) in s = sqrt(tau): unit panels in s left 1.2e-10 T
    spec = make_stable_subordinator(alpha)
    talbot, quad = state_weights(spec.phi_eval, T), _quadrature_weights(spec, T)
    assert talbot.size == quad.size
    np.testing.assert_allclose(talbot, quad, rtol=0, atol=1e-11 * T)


@pytest.mark.parametrize("spec, T", [(make_gamma_subordinator(1.0, 1.0), 100.0), (make_stable_subordinator(0.9), 1e3)],
                         ids=["gamma", "stable0.9"])
def test_weights_fall_back_to_the_quadrature_where_the_gate_fails(spec, T):
    # gamma's (1 + Phi)^-(n+1) acts like a delay of about n b / a, which fixed Talbot cannot invert
    with pytest.raises(InversionInstabilityError):
        state_weights(spec.phi_eval, T)
    w = _state_weights(spec, T)
    np.testing.assert_array_equal(w, _quadrature_weights(spec, T))
    assert w.sum() == pytest.approx(T, rel=1e-8)


def test_histogram_converges_toward_green_measure(k3, stable):
    # the normalized occupation histogram of Z approaches |B| G_0 on bins
    # away from the origin atom; the finite-T bias shrinks like T^{-1/4}
    from greenwalk.green import green_regular_series

    bins = BinSpec.cube(8.0, 4, 3)
    g0 = green_regular_series(k3, GRID3, 0.0).regular_part
    centers = bins.centers()
    widths = (np.array(bins.hi) - np.array(bins.lo)) / np.array(bins.shape)

    def bin_target(idx):
        # 3-point Gauss-Legendre per axis over the bin
        nodes, weights = np.polynomial.legendre.leggauss(3)
        total = 0.0
        for ia, wa in zip(nodes, weights):
            for ib, wb in zip(nodes, weights):
                for ic, wc in zip(nodes, weights):
                    p = [
                        centers[0][idx[0]] + 0.5 * widths[0] * ia,
                        centers[1][idx[1]] + 0.5 * widths[1] * ib,
                        centers[2][idx[2]] + 0.5 * widths[2] * ic,
                    ]
                    total += wa * wb * wc * g0.value_at(p)
        return total * np.prod(widths / 2.0)

    probes = [(3, 2, 2), (2, 3, 2), (2, 2, 3)]
    gaps = []
    for T in (1e3, 1e5):
        hist, _ = renormalized_green_histogram(
            k3, stable, [0.0, 0.0, 0.0], T, bins, 2000, seed=14
        )
        rel = [abs(hist.masses[idx] / bin_target(idx) - 1.0) for idx in probes]
        gaps.append(float(np.mean(rel)))
    assert gaps[1] < gaps[0]


@pytest.mark.parametrize("spec", ["stable", "gamma"])
def test_histogram_methods_agree(k3, spec, request):
    spec = request.getfixturevalue(spec)
    bins = BinSpec.cube(8.0, 4, 3)
    cond, cse = renormalized_green_histogram(
        k3, spec, [0.0, 0.0, 0.0], 100.0, bins, 3000, seed=6, method="conditional"
    )
    raw, rse = renormalized_green_histogram(
        k3, spec, [0.0, 0.0, 0.0], 100.0, bins, 3000, seed=7, method="raw"
    )
    idx = (3, 2, 2)
    combined = np.hypot(cse[idx], rse[idx])
    assert abs(cond.masses[idx] - raw.masses[idx]) < 4 * combined


def test_histogram_reproducible(k3, stable):
    bins = BinSpec.cube(8.0, 4, 3)
    a, ase = renormalized_green_histogram(k3, stable, [0.0, 0.0, 0.0], 100.0, bins, 300, seed=9)
    b, bse = renormalized_green_histogram(k3, stable, [0.0, 0.0, 0.0], 100.0, bins, 300, seed=9)
    np.testing.assert_array_equal(a.masses, b.masses)
    np.testing.assert_array_equal(ase, bse)


# ---------------------------------------------------------------------------
# fractional Kolmogorov residual
# ---------------------------------------------------------------------------


def test_fke_residual_zero_for_constant(k1, stable):
    f = const_cl(2.0)
    t_grid = 0.02 * np.arange(51)
    assert fke_residual(k1, stable, f, [0.0], t_grid, grid=GRID1) < 1e-12


def test_fke_residual_finite_for_gamma(k1, gamma):
    f = cl_from_kernel(k1)
    t_grid = 0.02 * np.arange(51)
    res = fke_residual(k1, gamma, f, [0.0], t_grid, grid=GRID1, t_min=0.1)
    assert np.isfinite(res) and res < 1e-2


def test_fke_residual_small_on_fine_grid(k1, stable):
    f = cl_from_kernel(k1)
    t_grid = 0.02 * np.arange(101)
    res = fke_residual(k1, stable, f, [0.0], t_grid, grid=GRID1, t_min=0.1)
    assert res < 2e-3


# residuals of the parent code (one _mixture_weights call per node), 1-D
# Gaussian, f = a, x = 0, t in [0, 2], t_min = 0.1; the batched weights move
# them at roundoff only
FKE_PARENT = {
    "stable": {0.02: 0.0010804941348019903, 0.01: 0.00035693692549199074},
    "gamma": {0.02: 0.0014877728529253675, 0.01: 0.0006177687485509203},
    "stable07": {0.02: 0.00121682104379571, 0.01: 0.0004448846693135555},
}


@pytest.mark.parametrize("name", sorted(FKE_PARENT))
def test_fke_residual_matches_the_per_node_weights(k1, name, request):
    spec = make_stable_subordinator(0.7) if name == "stable07" else request.getfixturevalue(name)
    f = cl_from_kernel(k1)
    for dt, parent in FKE_PARENT[name].items():
        t_grid = dt * np.arange(int(round(2.0 / dt)) + 1)
        res = fke_residual(k1, spec, f, [0.0], t_grid, grid=GRID1, t_min=0.1)
        assert res == pytest.approx(parent, rel=1e-10, abs=0.0)


def _counting(spec, name):
    calls = []

    def wrapped(*args):
        calls.append(args)
        return getattr(spec, name)(*args)

    return dataclasses.replace(spec, **{name: wrapped}), calls


@pytest.mark.parametrize("name", ["stable", "gamma", "stable07", "stable_talbot"])
def test_fke_residual_inverts_every_node_in_one_call(k1, stable, gamma, name):
    # 200 nodes: one Phi evaluation on the contour nodes of every time (at
    # most two), or one closed-form call
    spec = {"stable": stable, "gamma": gamma, "stable07": make_stable_subordinator(0.7),
            "stable_talbot": dataclasses.replace(stable, laplace_closed_form=None)}[name]
    capability = "laplace_closed_form" if spec.laplace_closed_form is not None else "phi_eval"
    counted, calls = _counting(spec, capability)
    t_grid = 0.01 * np.arange(201)
    res = fke_residual(k1, counted, cl_from_kernel(k1), [0.0], t_grid, grid=GRID1, t_min=0.1)
    assert res == fke_residual(k1, spec, cl_from_kernel(k1), [0.0], t_grid, grid=GRID1, t_min=0.1)
    assert 1 <= len(calls) <= (1 if capability == "laplace_closed_form" else 2)


def test_half_stable_curve_inverts_no_laplace_transform(k3, stable, half_curve, monkeypatch):
    # one closed-form call gives W_T at every T and radial node; Phi is seen only by
    # check_H's real probes, never on a Talbot contour
    def no_inversion(*args, **kwargs):
        raise AssertionError("laplace.mixture_weights called")

    monkeypatch.setattr(laplace, "mixture_weights", no_inversion)
    counted, closed = _counting(stable, "laplace_closed_form")
    counted, phi = _counting(counted, "phi_eval")
    f = cl_from_kernel(k3)
    curve = renormalized_potential_curve(k3, counted, f, [0.0, 0.0, 0.0], CURVE_TS)
    np.testing.assert_array_equal(curve.values, half_curve.values)
    assert len(closed) == 1 and closed[0][2] is True
    assert np.shape(closed[0][0]) == (CURVE_TS.size, 1)
    assert phi and not any(np.iscomplexobj(args[0]) for args in phi)
    del closed[:], phi[:]
    unnormalized_potential_integral(k3, counted, f, [0.0, 0.0, 0.0], 2.0)
    assert len(closed) == 1 and not any(np.iscomplexobj(args[0]) for args in phi)


def test_subordinated_solution_array_of_t_equals_the_scalar_calls(k1, stable, gamma):
    f = cl_from_kernel(k1)
    ts = np.array([0.05, 0.5, 1.0, 4.0])
    for spec in (stable, gamma, make_stable_subordinator(0.7)):
        got = subordinated_solution(k1, spec, f, [0.0], ts, grid=GRID1)
        assert got.shape == ts.shape
        single = [subordinated_solution(k1, spec, f, [0.0], float(t), grid=GRID1) for t in ts]
        np.testing.assert_allclose(got, single, rtol=1e-13, atol=0.0)
        assert isinstance(single[0], float)
    with pytest.raises(ValueError):
        subordinated_solution(k1, stable, f, [0.0], np.array([1.0, 0.0]), grid=GRID1)

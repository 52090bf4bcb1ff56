"""Green kernel, semigroup and potential tests.

Primary oracle: for the Gaussian kernel in d = 3 the convolution powers are
explicit, a_n(0) = (4 pi n)^{-3/2}, so

    G_0(0) = sum_{n >= 1} a_n(0) = (4 pi)^{-3/2} zeta(3/2) = 0.0586436...

is an independent zeta-series target for both Green constructions.  The
potential with f = a satisfies a + G_0 * a = sum_{n >= 1} a_n, so
V(0, a) equals the same zeta series.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from green_oracles import ZETA_ORACLE, gaussian_g0
from greenwalk import green
from greenwalk.errors import (
    AliasingError,
    DivergentGreenMeasureError,
    InvalidKernelError,
    MissingNormsError,
    TruncationError,
)
from greenwalk.grids import FieldGrid, GridSpec, field_from_function
from greenwalk.green import (
    CLFunction,
    GreenExistence,
    _RateClasses,
    apply_generator,
    check_green_existence,
    cl_from_grid,
    cl_from_kernel,
    convolve_fields,
    evolve_semigroup,
    green_regular_fourier,
    green_regular_series,
    potential,
    potential_field,
)
from greenwalk.kernels import (
    JumpKernel,
    convolve_power,
    fit_small_k_expansion,
    make_cauchy_kernel,
    make_gaussian_kernel,
    make_tabulated_kernel,
    sample_density,
    spectral_density,
)

GRID1 = GridSpec(1, 1024, 40.0)
GRID3 = GridSpec(3, 64, 16.0)
SMALL_GRID3 = GridSpec(3, 32, 12.0)


def gaussian_n(x, n, d):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r2 = np.sum(x**2, axis=-1)
    return (4.0 * np.pi * n) ** (-d / 2.0) * np.exp(-r2 / (4.0 * n))


@pytest.fixture(scope="module")
def k1():
    return make_gaussian_kernel(1)


@pytest.fixture(scope="module")
def k3():
    return make_gaussian_kernel(3)


@pytest.fixture(scope="module")
def g0_series_3d(k3):
    return green_regular_series(k3, GRID3, 0.0)


# ---------------------------------------------------------------------------
# CL functions
# ---------------------------------------------------------------------------


def test_cl_function_with_neither_evaluator_nor_samples_raises(k3):
    f = CLFunction()
    with pytest.raises(MissingNormsError, match="neither evaluator nor samples"):
        f.values_at(np.zeros((1, 3)))
    with pytest.raises(MissingNormsError, match="neither evaluator nor samples"):
        f.samples_on(SMALL_GRID3)
    with pytest.raises(MissingNormsError):
        potential_field(k3, f, SMALL_GRID3)


def test_cl_function_with_samples_on_another_grid_and_no_evaluator_raises(k3):
    f = cl_from_grid(cl_from_kernel(k3).samples_on(SMALL_GRID3))
    assert f.samples_on(SMALL_GRID3) is f.grid_samples
    with pytest.raises(MissingNormsError, match="samples on another grid and no evaluator"):
        f.samples_on(GridSpec(3, 8, 4.0))


def test_potential_field_of_a_bare_evaluator_equals_the_kernel_cl_function(k3):
    # an f with an evaluator is sampled on the grid, whatever else it carries
    bare = potential_field(k3, CLFunction(evaluator=k3.density), SMALL_GRID3)
    np.testing.assert_array_equal(bare.values, potential_field(k3, cl_from_kernel(k3), SMALL_GRID3).values)


# ---------------------------------------------------------------------------
# generator and semigroup
# ---------------------------------------------------------------------------


def test_generator_annihilates_constants(k1):
    ones = FieldGrid(GRID1, np.ones(GRID1.shape))
    assert np.max(np.abs(apply_generator(k1, ones).values)) < 1e-12


def test_generator_on_kernel_is_a2_minus_a(k1):
    fs = sample_density(k1, GRID1)
    lf = apply_generator(k1, fs)
    xs = GRID1.axis[:, None]
    expected = gaussian_n(xs, 2, 1) - gaussian_n(xs, 1, 1)
    np.testing.assert_allclose(lf.values, expected, atol=1e-8)


def test_generator_integral_vanishes_for_odd_function(k1):
    f = field_from_function(
        GRID1, lambda x: np.atleast_2d(x)[:, 0] * np.exp(-np.atleast_2d(x)[:, 0] ** 2)
    )
    assert abs(apply_generator(k1, f).integral()) < 1e-8


def test_semigroup_identity_at_time_zero(k1):
    fs = sample_density(k1, GRID1)
    u0 = evolve_semigroup(k1, fs, 0.0)
    np.testing.assert_array_equal(u0.values, fs.values)


def test_semigroup_preserves_constants(k1):
    ones = FieldGrid(GRID1, np.ones(GRID1.shape))
    u = evolve_semigroup(k1, ones, 2.0)
    np.testing.assert_allclose(u.values, 1.0, atol=1e-10)


def test_semigroup_value_matches_poisson_series(k1):
    # u(1, 0) = e^{-1} sum_n (1/n!) a_{n+1}(0) with a_m(0) = (4 pi m)^{-1/2}
    fs = sample_density(k1, GRID1)
    u = evolve_semigroup(k1, fs, 1.0)
    ns = np.arange(0, 60)
    oracle = np.exp(-1.0) * np.sum(
        (4 * np.pi * (ns + 1)) ** -0.5 / special.factorial(ns)
    )
    assert u.value_at([0.0]) == pytest.approx(oracle, abs=1e-8)


def test_semigroup_point_values_match_evolve(k1):
    fs = sample_density(k1, GRID1)
    taus = np.array([0.5, 1.0, 3.0])
    x = float(GRID1.axis[GRID1.nearest_index(np.array([0.7]))[0]])  # grid node
    pointwise = _RateClasses.build(k1, fs, [x])(taus)
    dense = [evolve_semigroup(k1, fs, t).value_at([x]) for t in taus]
    np.testing.assert_allclose(pointwise, dense, atol=1e-8)


def test_kolmogorov_residual_is_second_order_in_h(k1):
    # d/dt u = L u; central difference of the exact semigroup should show
    # O(h^2) residual, i.e. ratio ~ 4 under halving
    fs = sample_density(k1, GRID1)
    lu = apply_generator(k1, evolve_semigroup(k1, fs, 1.0))

    def residual(h):
        up = evolve_semigroup(k1, fs, 1.0 + h)
        um = evolve_semigroup(k1, fs, 1.0 - h)
        return np.max(np.abs((up.values - um.values) / (2 * h) - lu.values))

    r1, r2 = residual(0.2), residual(0.1)
    assert r1 / r2 > 3.5


# ---------------------------------------------------------------------------
# rate classes of the point semigroup
# ---------------------------------------------------------------------------

# The 64^3 Gaussian grid has 748 rate classes.  Grouping symbols by exact
# float equality gives 176,190 (FFT roundoff splits equal symbols), so a
# grouping that roundoff defeats cannot pass this ceiling.
RATE_CLASS_CEILING = 1000


def per_mode_sum(kernel, fs, x, taus):
    """sum_k w_k e^{-tau max(1 - a_hat_k, 0)} over every grid mode, ungrouped."""
    grid = fs.grid
    rates = np.maximum(1.0 - spectral_density(kernel, grid).ravel(), 0.0)
    phase = sum(kmesh * xi for kmesh, xi in zip(grid.wavenumbers(), x))
    f_hat = np.fft.fftn(np.fft.ifftshift(fs.values)) * grid.cell_volume
    w = (f_hat * np.exp(1j * phase)).real.ravel() / (2.0 * grid.half_width) ** grid.dim
    return np.array([np.sum(w * np.exp(-tau * rates)) for tau in taus])


def test_rate_classes_stay_few_on_gaussian_grid(k3):
    classes = _RateClasses.build(k3, sample_density(k3, GRID3), (0.0, 0.0, 0.0))
    assert classes.rates.size <= RATE_CLASS_CEILING


@pytest.mark.parametrize("x", [(0.0, 0.0, 0.0), (1.5, -0.5, 2.0)])
def test_grouped_semigroup_matches_per_mode_sum(k3, x):
    fs = sample_density(k3, GRID3)
    taus = np.linspace(0.0, GRID3.half_width**2 / 16.0, 33)  # up to the tail-fit tau0
    got = _RateClasses.build(k3, fs, x)(taus)
    np.testing.assert_allclose(got, per_mode_sum(k3, fs, x, taus), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("x", [(0.0,), (3.0,)])
def test_rate_classes_reject_the_aliased_cauchy_symbol(x):
    # the 1/(pi(1+x^2)) tail is undersampled even at half width 6e5: the sampled
    # symbol reaches 1 + 8.3e-3 near k = 0, a negative decay rate
    kernel = make_cauchy_kernel()
    fs = sample_density(kernel, GridSpec(1, 2**20, 6e5))
    with pytest.raises(AliasingError, match="exceeds 1 by 8.28"):
        _RateClasses.build(kernel, fs, x)


# ---------------------------------------------------------------------------
# half-layout spectral pair against a full complex fftn reference
# ---------------------------------------------------------------------------

REFERENCE_GRIDS = [GridSpec(1, 64, 12.0), GridSpec(2, 32, 12.0), GridSpec(3, 32, 12.0)]


def full_to_spectral(field):
    return np.fft.fftn(np.fft.ifftshift(field.values)) * field.grid.cell_volume


def full_from_spectral(grid, spec):
    return np.fft.fftshift(np.fft.ifftn(spec).real) / grid.cell_volume


def off_centre_field(grid, seed):
    """A bump centred off the origin plus noise: neither even nor band-limited."""
    pts = grid.points()
    bump = np.exp(-np.sum((pts - 1.3) ** 2, axis=-1))
    noise = 0.1 * np.random.default_rng(seed).uniform(-1.0, 1.0, pts.shape[0])
    return FieldGrid(grid, bump + noise)


@pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=lambda g: f"d{g.dim}")
def test_half_layout_matches_full_fftn_reference(grid):
    kernel = make_gaussian_kernel(grid.dim)
    f, g = off_centre_field(grid, 1), off_centre_field(grid, 2)
    a_hat = spectral_density(kernel, grid)
    f_hat = full_to_spectral(f)
    tol = 1e-13 * np.max(np.abs(f.values))
    cases = [
        (convolve_fields(f, g), full_from_spectral(grid, f_hat * full_to_spectral(g))),
        (evolve_semigroup(kernel, f, 0.7), full_from_spectral(grid, np.exp(0.7 * (a_hat - 1.0)) * f_hat)),
        (apply_generator(kernel, f), full_from_spectral(grid, a_hat * f_hat) - f.values),
    ]
    for got, want in cases:
        np.testing.assert_allclose(got.values, want, rtol=0.0, atol=tol)
    a3 = full_from_spectral(grid, a_hat**3)
    np.testing.assert_allclose(convolve_power(kernel, 3, grid).values, a3, rtol=0.0,
                               atol=1e-13 * np.max(a3))
    # an off-node x and tau = 0 keep the Nyquist plane's share of f(x) in the sum
    x, taus = (0.37, -1.21, 0.55)[: grid.dim], np.array([0.0, 0.3, 2.0])
    np.testing.assert_allclose(_RateClasses.build(kernel, f, x)(taus), per_mode_sum(kernel, f, x, taus),
                               rtol=0.0, atol=tol)


PROPERTY_GRIDS = [GridSpec(1, 256, 20.0), GridSpec(2, 64, 12.0)]


def random_field(grid, seed, scale):
    return FieldGrid(grid, scale * np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape))


def grid_node(grid, flat):
    return np.array([c.ravel()[flat] for c in grid.meshgrid()])


@settings(max_examples=25, deadline=None)
@given(
    which=st.integers(0, len(PROPERTY_GRIDS) - 1),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    node=st.integers(0, 2**31),
    tau=st.floats(0.0, 25.0),
)
def test_semigroup_is_a_contraction_at_grid_nodes(which, seed, scale, node, tau):
    grid = PROPERTY_GRIDS[which]
    kernel = make_gaussian_kernel(grid.dim)
    fs = random_field(grid, seed, scale)
    u = _RateClasses.build(kernel, fs, grid_node(grid, node % fs.values.size))([tau])[0]
    assert abs(u) <= np.max(np.abs(fs.values)) + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    which=st.integers(0, len(PROPERTY_GRIDS) - 1),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    node=st.integers(0, 2**31),
)
def test_semigroup_at_time_zero_returns_f_at_grid_nodes(which, seed, scale, node):
    grid = PROPERTY_GRIDS[which]
    kernel = make_gaussian_kernel(grid.dim)
    fs = random_field(grid, seed, scale)
    flat = node % fs.values.size
    u0 = _RateClasses.build(kernel, fs, grid_node(grid, flat))([0.0])[0]
    assert u0 == pytest.approx(fs.values.ravel()[flat], abs=1e-12 * scale)


# ---------------------------------------------------------------------------
# existence gate
# ---------------------------------------------------------------------------


def test_existence_classification():
    assert check_green_existence(make_gaussian_kernel(3)) is GreenExistence.EXISTS
    assert check_green_existence(make_gaussian_kernel(2)) is GreenExistence.DIVERGENT
    assert check_green_existence(make_cauchy_kernel()) is GreenExistence.DIVERGENT
    unknown = JumpKernel(
        dim=1,
        density=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        fourier=lambda k: np.exp(-np.abs(np.asarray(k, dtype=float))),
        tail_params=None,
    )
    assert check_green_existence(unknown) is GreenExistence.UNKNOWN


def test_green_series_diverges_in_low_dimension(k1):
    with pytest.raises(DivergentGreenMeasureError):
        green_regular_series(k1, GRID1, 0.0)


def test_green_fourier_diverges_for_cauchy():
    with pytest.raises(DivergentGreenMeasureError):
        green_regular_fourier(make_cauchy_kernel(), [0.0], 0.0)


def test_unknown_tail_exponent_names_tail_params(k3):
    # alpha lives only on the kernel: the gate asks for tail_params, and
    # restoring them gives the built-in kernel's Green measure exactly
    unknown = dataclasses.replace(k3, tail_params=None)
    with pytest.raises(DivergentGreenMeasureError, match="tail_params"):
        green_regular_series(unknown, SMALL_GRID3, 0.0)
    with pytest.raises(DivergentGreenMeasureError, match="tail_params"):
        green_regular_fourier(unknown, [0.0, 0.0, 0.0], 0.0)
    restored = dataclasses.replace(unknown, tail_params=(1.0, 2.0))
    np.testing.assert_array_equal(
        green_regular_series(restored, SMALL_GRID3, 0.0).regular_part.values,
        green_regular_series(k3, SMALL_GRID3, 0.0).regular_part.values,
    )


# ---------------------------------------------------------------------------
# Green kernel: series and Fourier
# ---------------------------------------------------------------------------


def test_green_series_origin_matches_zeta_oracle(g0_series_3d):
    assert g0_series_3d.regular_part.value_at([0.0, 0.0, 0.0]) == pytest.approx(
        ZETA_ORACLE, rel=0.01
    )


def test_green_series_lambda_one_mass(k1):
    # integral of G_1 = sum_n (1+1)^{-n} integral a_n = sum_n 2^{-n} = 1
    res = green_regular_series(k1, GRID1, 1.0)
    assert res.regular_part.integral() == pytest.approx(1.0, abs=1e-4)
    assert res.singular_weight == pytest.approx(0.5)


def test_green_fourier_origin_matches_zeta_oracle(k3):
    assert green_regular_fourier(k3, [0.0, 0.0, 0.0], 0.0) == pytest.approx(
        ZETA_ORACLE, rel=1e-12
    )


def test_green_fourier_origin_equals_zeta_oracle_with_symbol_gap(k3):
    # -expm1(-k^2) keeps 1 - a_hat exact near k = 0; the tail form A k^alpha is off
    # by k^2/2 relative there, 2.4e-13 in G_0(0)
    assert abs(green_regular_fourier(k3, [0.0, 0.0, 0.0], 0.0) - ZETA_ORACLE) <= 1e-14


@pytest.mark.parametrize("lam", [0.5, 1e-3])
def test_cauchy_resolvent_at_origin_matches_closed_form(lam):
    # (1/pi) int_0^inf e^{-k} / (1 + lam - e^{-k}) dk = log(1 + 1/lam) / pi
    value = green_regular_fourier(make_cauchy_kernel(), [0.0], lam)
    assert value == pytest.approx(np.log1p(1.0 / lam) / np.pi, rel=1e-13)


@pytest.mark.parametrize("r", [15.0, 30.0])
def test_green_fourier_matches_far_field_at_large_x(k3, r):
    # G_0 = sum_n (4 pi n)^{-3/2} e^{-r^2/(4n)} tends to erf(r/2)/(4 pi r), the
    # Newton kernel 1/(4 pi r) smoothed by the kernel; the gap is e^{-r^2/4}-small
    far = special.erf(r / 2.0) / (4.0 * np.pi * r)
    assert abs(green_regular_fourier(k3, [0.0, r, 0.0], 0.0) - far) < 1e-10


def test_green_fourier_raises_where_the_panels_miss_the_oscillation(k3):
    # at |x| = 120 the geometric panels under-resolve sin(k |x|): orders 16 and 8
    # differ by 2.2e-2 relative (8.0e-7 at |x| = 30)
    with pytest.raises(TruncationError, match="orders 16 and 8"):
        green_regular_fourier(k3, [120.0, 0.0, 0.0], 0.0)


def test_green_methods_agree_pointwise(k1):
    res = green_regular_series(k1, GRID1, 1.0)
    for x in (0.0, 0.5, 1.5, 3.0):
        series = res.regular_part.value_at([x])
        fourier = green_regular_fourier(k1, [x], 1.0)
        assert series == pytest.approx(fourier, rel=0.01)


def test_resolvent_identity(k1):
    # (lambda - L) R_lambda f = f with R_lambda f = (f + G_lambda * f)/(1+lambda)
    fs = sample_density(k1, GRID1)
    for lam in (0.5, 1.0, 2.0):
        g = green_regular_series(k1, GRID1, lam)
        r = FieldGrid(
            GRID1, (fs.values + convolve_fields(g.regular_part, fs).values) / (1 + lam)
        )
        back = lam * r.values - apply_generator(k1, r).values
        np.testing.assert_allclose(back, fs.values, atol=1e-3)


def series_per_term_ifft(kernel, grid, lam, tol=1e-18, max_terms=1000):
    """Reference Green series for lambda > 0, summed term by term.

    Each term's sup is checked by its own inverse FFT; the loop stops once a
    term is below tol.  Returns (n_terms, regular part).
    """
    ratio = spectral_density(kernel, grid) / (1.0 + lam)
    power, acc, n = np.ones(grid.shape), np.zeros(grid.shape), 0
    while n < max_terms:
        n += 1
        power = power * ratio
        acc += power
        if np.max(np.abs(np.fft.ifftn(power).real)) / grid.cell_volume < tol:
            break
    vals = np.fft.fftshift(np.fft.ifftn(acc).real) / grid.cell_volume
    return n, np.maximum(vals, 0.0)


def box_kernel():
    return make_tabulated_kernel(field_from_function(GRID1, lambda x: (np.abs(x[:, 0]) <= 1.0) * 1.0))


@pytest.mark.parametrize(
    "make, grid, lam",
    [
        (lambda: make_gaussian_kernel(3), GRID3, 0.5),
        (lambda: make_gaussian_kernel(1), GRID1, 0.2),
        (lambda: make_gaussian_kernel(1), GRID1, 1.0),
        (box_kernel, GRID1, 0.5),
    ],
    ids=["gaussian3d-0.5", "gaussian1d-0.2", "gaussian1d-1", "box1d-0.5"],
)
def test_resolvent_division_matches_converged_series(make, grid, lam):
    # a_hat / (1 + lambda - a_hat) is the whole geometric series; the box
    # kernel's a_hat is a sinc with negative lobes, so its terms alternate in sign
    kernel = make()
    if kernel.name == "tabulated":
        assert spectral_density(kernel, grid).min() < 0
    n, ref = series_per_term_ifft(kernel, grid, lam)
    assert n < 1000
    res = green_regular_series(kernel, grid, lam)
    assert res.n_terms == 0
    assert np.max(np.abs(res.regular_part.values - ref)) <= 1e-12 * np.max(ref)


def test_resolvent_identity_is_exact_for_positive_lambda(k1):
    # (lambda - L)(f + G_lambda * f)/(1 + lambda) = f up to roundoff: in
    # Fourier space it is (1 + lambda - a_hat) / (1 + lambda - a_hat)
    fs = sample_density(k1, GRID1)
    for lam in (0.5, 1.0, 2.0):
        g = green_regular_series(k1, GRID1, lam)
        r = FieldGrid(
            GRID1, (fs.values + convolve_fields(g.regular_part, fs).values) / (1 + lam)
        )
        back = lam * r.values - apply_generator(k1, r).values
        np.testing.assert_allclose(back, fs.values, rtol=0.0, atol=1e-12)


def test_green_origin_and_potential_match_zeta_oracle_to_roundoff(g0_series_3d, k3):
    assert g0_series_3d.regular_part.value_at([0.0, 0.0, 0.0]) == pytest.approx(
        ZETA_ORACLE, rel=1e-12
    )
    v = potential(k3, cl_from_kernel(k3), [0.0, 0.0, 0.0], GRID3)
    assert abs(v - ZETA_ORACLE) <= 1e-15


def test_green_origin_on_small_box_matches_zeta_oracle(k3):
    # the k = 0 mode of the bounded part is all the box truncates
    g0 = green_regular_series(k3, SMALL_GRID3, 0.0).regular_part
    assert g0.value_at([0.0, 0.0, 0.0]) == pytest.approx(ZETA_ORACLE, rel=1e-8)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.0])
def test_green_off_origin_matches_fourier_quadrature(g0_series_3d, k3, x):
    series = g0_series_3d.regular_part.value_at([x, 0.0, 0.0])
    assert series == pytest.approx(green_regular_fourier(k3, [x, 0.0, 0.0], 0.0), rel=1e-10)


@pytest.mark.parametrize(
    "dim, grid, tail, evals", [(3, GRID3, (1.0, 2.0), 3 * 32**2 + 1), (1, GRID1, (1.0, 0.5), 1024)]
)
def test_singular_part_evaluates_1f1_once_per_radius(dim, grid, tail, evals, monkeypatch):
    # |x|^2/h^2 is an integer: a table over 0..max needs fewer 1F1 values than
    # the 64^3 grid has points; in d = 1 it would need N^2/4, so each point gets one
    # (the 1-D Gaussian has no Green measure: its tail_params only reach the branch,
    # so the check that they fit a_hat near 0 is switched off)
    sizes = []
    hyp1f1 = special.hyp1f1
    monkeypatch.setattr(special, "hyp1f1", lambda a, b, z: sizes.append(np.size(z)) or hyp1f1(a, b, z))
    monkeypatch.setattr(green, "_TAIL_SPREAD", np.inf)
    kernel = dataclasses.replace(make_gaussian_kernel(dim), tail_params=tail)
    g = green_regular_series(kernel, grid, 0.0)
    assert sizes == [evals]
    assert np.all(np.isfinite(g.regular_part.values))


def test_green_origin_with_fitted_tail_params(k3):
    # the split reads (A, alpha) from tail_params; a small-k fit is close enough
    A, alpha, _ = fit_small_k_expansion(k3)
    fitted = dataclasses.replace(k3, tail_params=(A, alpha))
    g0 = green_regular_series(fitted, GRID3, 0.0).regular_part
    assert g0.value_at([0.0, 0.0, 0.0]) == pytest.approx(ZETA_ORACLE, rel=1e-4)


@pytest.mark.parametrize("tail", [(1.01, 2.0), (2.0, 2.0), (1.0, 1.9)])
def test_green_origin_rejects_wrong_tail_params(k3, tail):
    # R = a_hat/(1 - a_hat) - e^{-k^2}/(A k^alpha) spreads by 14.9, 750 and 473
    # over k = 0.025 .. 0.1 (the true (1, 2): 0.004); (2, 2) used to return
    # G_0(0) 49% high
    wrong = dataclasses.replace(k3, tail_params=tail)
    with pytest.raises(InvalidKernelError, match="tail_params"):
        green_regular_series(wrong, GRID3, 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_green_series_makes_one_inverse_fft(k3, lam, monkeypatch):
    # one real inverse transform in half layout, never a complex one; it names the
    # output shape, which the half layout cannot tell for an odd N
    calls = []
    irfftn = np.fft.irfftn
    monkeypatch.setattr(
        np.fft, "irfftn", lambda a, *args, **kw: calls.append(kw.get("s")) or irfftn(a, *args, **kw)
    )
    monkeypatch.setattr(np.fft, "ifftn", lambda *args, **kw: pytest.fail("complex ifftn called"))
    green_regular_series(k3, GRID3, lam)
    assert calls == [GRID3.shape]


def test_density_is_sampled_once_per_kernel_and_grid():
    grid = SMALL_GRID3
    base = make_gaussian_kernel(3)
    calls = []
    kernel = dataclasses.replace(base, density=lambda x: calls.append(1) or base.density(x))
    f = cl_from_grid(sample_density(base, grid))
    green_regular_series(kernel, grid, 0.0)
    potential(kernel, f, [0.0, 0.0, 0.0], grid)
    evolve_semigroup(kernel, f.grid_samples, 1.0)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_potential_of_kernel_matches_zeta_oracle(k3):
    f = cl_from_kernel(k3)
    assert potential(k3, f, [0.0, 0.0, 0.0], GRID3) == pytest.approx(ZETA_ORACLE, rel=0.01)


@pytest.mark.parametrize("r", [0.5, 3.0, 5.0, 12.0, 15.0, 25.0, 40.0])
def test_potential_of_kernel_matches_g0_oracle_off_centre(k3, r):
    # V(x, a) = sum_{n>=1} a_n(x) = G_0(x); the periodic 64^3 box wraps, 8.0e-5 off
    # at r = 12 and 2.3e-2 at r = 15, and ends at r = 16
    v = potential(k3, cl_from_kernel(k3), [r, 0.0, 0.0], GRID3)
    assert v == pytest.approx(gaussian_g0(r), rel=1e-13)


def test_potential_raises_where_the_radial_rule_fails(k3):
    with pytest.raises(TruncationError, match="orders 16 and 8"):
        potential(k3, cl_from_kernel(k3), [80.0, 0.0, 0.0], GRID3)


def test_potential_with_fourier_makes_no_fft_and_samples_no_grid(k3, monkeypatch):
    # f.fourier routes to the radial rule: the kernel's density is never sampled
    # (f evaluates its own copy at x alone) and no FFT runs
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, lambda *args, **kw: pytest.fail("FFT called"))
    kernel = dataclasses.replace(k3, density=lambda x: pytest.fail("density sampled"))
    v = potential(kernel, cl_from_kernel(k3), [3.0, 0.0, 0.0], GRID3)
    assert v == pytest.approx(gaussian_g0(3.0), rel=1e-13)


def test_potential_of_a_tabulated_kernel_takes_the_grid_route(k3):
    # a table's transform is a cosine sum periodic in k, so the radial rule
    # raised TruncationError on it after about 1.7 s; the grid route is exact
    grid = GridSpec(3, 32, 12.0)
    kt = dataclasses.replace(make_tabulated_kernel(sample_density(k3, grid)), tail_params=(1.0, 2.0))
    f = cl_from_kernel(kt)
    assert potential(kt, f, [0.0, 0.0, 0.0], grid) == pytest.approx(ZETA_ORACLE, rel=1e-10)
    assert f.fourier is None


@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 2.0, -2.0]])
def test_potential_of_tabulated_f_matches_radial_route(k3, x):
    # a tabulated f has no fourier and takes the grid route; at grid nodes with
    # |x| <= 3 it stays within 6.3e-13 of the radial route
    a = cl_from_kernel(k3)
    tabulated = cl_from_grid(a.samples_on(GRID3))
    assert potential(k3, tabulated, x, GRID3) == pytest.approx(potential(k3, a, x, GRID3), rel=1e-10)


def test_potential_of_zero_is_zero(k3):
    zero = cl_from_grid(FieldGrid(GRID3, np.zeros(GRID3.shape)))
    assert potential(k3, zero, [0.0, 0.0, 0.0], GRID3) == 0.0


def test_potential_is_linear(k3):
    f = cl_from_kernel(k3)
    fs = f.samples_on(GRID3)
    g = cl_from_grid(FieldGrid(GRID3, np.roll(fs.values, 4, axis=0)))
    combo = cl_from_grid(FieldGrid(GRID3, 2.0 * fs.values + g.samples_on(GRID3).values))
    vf = potential_field(k3, f, GRID3)
    vg = potential_field(k3, g, GRID3)
    vc = potential_field(k3, combo, GRID3)
    np.testing.assert_allclose(vc.values, 2.0 * vf.values + vg.values, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(
    c1=st.floats(-1e3, 1e3),
    c2=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
    node=st.integers(0, 2**31),
)
def test_potential_is_linear_in_random_coefficients(k3, c1, c2, seed, node):
    f = sample_density(k3, SMALL_GRID3)
    g = random_field(SMALL_GRID3, seed, 1.0)
    x = grid_node(SMALL_GRID3, node % f.values.size)
    vf, vg = (potential(k3, cl_from_grid(h), x, SMALL_GRID3) for h in (f, g))
    combo = cl_from_grid(FieldGrid(SMALL_GRID3, c1 * f.values + c2 * g.values))
    v = potential(k3, combo, x, SMALL_GRID3)
    assert abs(v - (c1 * vf + c2 * vg)) <= 1e-12 * (abs(c1) + abs(c2))


def test_potential_solves_minus_L_V_equals_f(k3):
    # fundamental-solution property: -L V(., f) = f
    f = cl_from_kernel(k3)
    v = potential_field(k3, f, GRID3)
    residual = -apply_generator(k3, v).values - f.samples_on(GRID3).values
    assert np.max(np.abs(residual)) < 1e-3


def test_potential_requires_existence():
    k2 = make_gaussian_kernel(2)
    g2 = GridSpec(2, 256, 24.0)
    with pytest.raises(DivergentGreenMeasureError):
        potential(k2, cl_from_kernel(k2), [0.0, 0.0], g2)


def test_potential_is_time_integral_of_semigroup(k3):
    # V(0, a) = int_0^infty u(t, 0) dt: Simpson's rule on the grid semigroup over
    # [0, tau0] plus the exact tail int_tau0^infty u dt, the radial integral of
    # a_hat e^{-tau0 (1 - a_hat)} / (1 - a_hat) times a_hat.  tau0 = 8 keeps the
    # head off the periodic box (at tau0 = 24 the box moves it by 4.5e-6)
    fs = cl_from_kernel(k3).samples_on(GRID3)
    target = potential(k3, cl_from_kernel(k3), [0.0, 0.0, 0.0], GRID3)
    tau0 = 8.0
    taus = np.linspace(0.0, tau0, 1025)
    head = integrate.simpson(_RateClasses.build(k3, fs, [0.0, 0.0, 0.0])(taus), x=taus)
    tail, _ = green._radial_value(
        k3, [0.0, 0.0, 0.0], 0.0, lambda k, a_hat, gap: a_hat * np.exp(-tau0 * gap) / gap
    )
    assert tail > 0.25 * target  # the t^{-1/2} tail is not small
    assert head + tail == pytest.approx(target, rel=1e-8)

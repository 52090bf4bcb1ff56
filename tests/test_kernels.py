"""Jump-kernel tests.

Oracles are analytic: the Gaussian kernel a(x) = (4 pi)^{-d/2} e^{-|x|^2/4}
has Fourier transform e^{-|k|^2} and n-fold convolution
(4 pi n)^{-d/2} e^{-|x|^2/(4n)}; the Cauchy kernel 1/(pi (1+x^2)) has
Fourier transform e^{-|k|}.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk.errors import AliasingError, InvalidKernelError
from greenwalk.grids import FieldGrid, GridSpec
from greenwalk.kernels import (
    JumpKernel,
    fit_small_k_expansion,
    make_cauchy_kernel,
    make_gaussian_kernel,
    sample_density,
    spectral_density,
    validate_kernel,
)


GRID1 = GridSpec(1, 1024, 40.0)


def gaussian_n(x, n, d):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r2 = np.sum(x**2, axis=-1)
    return (4.0 * np.pi * n) ** (-d / 2.0) * np.exp(-r2 / (4.0 * n))


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def test_fourier_at_zero_is_one():
    for kernel in (make_gaussian_kernel(1), make_gaussian_kernel(3), make_cauchy_kernel()):
        assert float(kernel.fourier(0.0)) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_pointwise_values():
    k = make_gaussian_kernel(1)
    assert k.tail_params == (1.0, 2.0)
    assert float(k.density(np.array([[0.0]]))[0]) == pytest.approx((4 * np.pi) ** -0.5)
    assert float(k.fourier(1.0)) == pytest.approx(np.exp(-1.0))


def test_cauchy_pointwise_values():
    k = make_cauchy_kernel()
    assert k.tail_params == (1.0, 1.0)
    assert float(k.density(np.array([[1.0]]))[0]) == pytest.approx(1.0 / (2 * np.pi))
    assert float(k.fourier(2.0)) == pytest.approx(np.exp(-2.0))


@pytest.mark.parametrize("kernel", [make_gaussian_kernel(3), make_cauchy_kernel()], ids=lambda k: k.name)
def test_symbol_gap_is_one_minus_fourier_without_cancellation(kernel):
    ks = np.geomspace(0.1, 10.0, 9)
    np.testing.assert_allclose(kernel.symbol_gap(ks), 1.0 - kernel.fourier(ks), rtol=1e-14)
    # 1 - a_hat rounds to 0 at k = 1e-9 for the Gaussian; the gap keeps its k^alpha leading term
    A, alpha = kernel.tail_params
    np.testing.assert_allclose(kernel.symbol_gap(np.array([1e-9, 1e-6])), A * np.array([1e-9, 1e-6]) ** alpha,
                               rtol=1e-6)


# each built-in's a_hat and gap as its own factory wrote them before one stable builder served both
EXPLICIT_SYMBOLS = {
    "gaussian3d": (lambda k: np.exp(-(k**2)), lambda k: -np.expm1(-k**2)),
    "cauchy1d": (lambda k: np.exp(-np.abs(k)), lambda k: -np.expm1(-np.abs(k))),
}


@pytest.mark.parametrize("kernel", [make_gaussian_kernel(3), make_cauchy_kernel()], ids=lambda k: k.name)
def test_stable_builder_gives_each_built_in_symbol_bit_for_bit(kernel):
    # one np.abs(k) ** alpha serves both: numpy squares for alpha = 2.0 and copies for 1.0
    rng = np.random.default_rng(34)
    tiny_to_huge = np.geomspace(1e-300, 1e300, 1001)
    draws = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-5.0, 5.0, 100_000)
    ks = np.concatenate(([0.0], tiny_to_huge, -tiny_to_huge, draws))
    fourier, gap = EXPLICIT_SYMBOLS[kernel.name]
    with np.errstate(over="ignore"):
        assert kernel.fourier(ks).tobytes() == fourier(ks).tobytes()
        assert kernel.symbol_gap(ks).tobytes() == gap(ks).tobytes()
    assert kernel.tail_params == (1.0, {"gaussian3d": 2.0, "cauchy1d": 1.0}[kernel.name])


def test_fourier_is_cosine_transform_of_density():
    # independent check of the analytic pairs: trapezoidal cosine transform
    # of the sampled density against the declared a_hat on |k| <= 5
    k = make_gaussian_kernel(1)
    samples = sample_density(k, GRID1)
    xs = GRID1.axis
    ks = np.linspace(0.0, 5.0, 41)
    numeric = np.array(
        [np.sum(np.cos(kk * xs) * samples.values) * GRID1.spacing for kk in ks]
    )
    np.testing.assert_allclose(numeric, k.fourier(ks), atol=1e-6)


# ---------------------------------------------------------------------------
# small-frequency expansion fits
# ---------------------------------------------------------------------------


def test_fit_small_k_gaussian():
    A, alpha, resid = fit_small_k_expansion(make_gaussian_kernel(3))
    assert A == pytest.approx(1.0, rel=0.02)
    assert alpha == pytest.approx(2.0, rel=0.02)
    assert resid < 0.05


def test_fit_small_k_cauchy():
    A, alpha, _ = fit_small_k_expansion(make_cauchy_kernel())
    assert A == pytest.approx(1.0, rel=0.02)
    assert alpha == pytest.approx(1.0, rel=0.02)


def test_fit_rejects_flat_symbol():
    flat = JumpKernel(
        dim=1,
        density=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        fourier=lambda k: np.ones_like(np.asarray(k, dtype=float)),
        tail_params=None,
        name="flat",
    )
    with pytest.raises(InvalidKernelError):
        fit_small_k_expansion(flat)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolution_semigroup_property():
    # a_{m+n} = a_m * a_n: the FFT convolution of the sampled a_2 and a_3 is the analytic a_5
    from greenwalk.green import convolve_fields

    xs = GRID1.axis[:, None]
    a2, a3 = (FieldGrid(GRID1, gaussian_n(xs, n, 1)) for n in (2, 3))
    np.testing.assert_allclose(convolve_fields(a2, a3).values, gaussian_n(xs, 5, 1), atol=1e-8)


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------


def test_validate_gaussian_passes():
    report = validate_kernel(make_gaussian_kernel(1), GRID1)
    assert report.passed
    assert report.mass == pytest.approx(1.0, abs=1e-9)


def test_validate_flags_asymmetric_density():
    odd = JumpKernel(
        dim=1,
        density=lambda x: np.exp(-((np.atleast_2d(x)[:, 0] - 1.0) ** 2)),
        fourier=lambda k: np.exp(-np.asarray(k, dtype=float) ** 2),
        tail_params=None,
        name="shifted",
    )
    report = validate_kernel(odd, GRID1)
    assert not report.symmetric
    assert not report.passed


@settings(max_examples=25)
@given(
    dim=st.sampled_from([1, 2]),
    log_n=st.integers(5, 7),
    half_width=st.floats(12.0, 20.0),
    table=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_has_unit_mass_and_even_symmetry(dim, log_n, half_width, table, seed):
    grid = GridSpec(dim, 2**log_n, half_width)
    n = grid.points_per_axis
    flip = lambda v: v[np.ix_(*[(-np.arange(n)) % n] * dim)]
    if table:
        # the interpolant of a random even table at unit mass, zero next to the box boundary;
        # its transform is the table's cosine sum along the first axis
        raw = np.random.default_rng(seed).uniform(0.0, 1.0, grid.shape)
        inside = np.all([np.abs(c) < half_width - 1.5 * grid.spacing for c in grid.meshgrid()], axis=0)
        even = FieldGrid(grid, (raw + flip(raw)) * inside)
        density = FieldGrid(grid, even.values / even.integral())
        x0, mass = grid.points()[:, 0], density.values.ravel() * grid.cell_volume
        fourier = lambda k: np.cos(np.multiply.outer(np.atleast_1d(k), x0)) @ mass
        kernel = JumpKernel(dim, density.values_at, fourier, None, name="table")
    else:
        kernel = make_gaussian_kernel(dim)
    report = validate_kernel(kernel, grid)
    assert report.symmetric and report.nonnegative
    assert report.mass == pytest.approx(1.0, abs=1e-9)
    a_hat = spectral_density(kernel, grid)
    assert a_hat.flat[0] == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(a_hat, flip(a_hat), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# spectral density cache
# ---------------------------------------------------------------------------


def test_spectral_density_is_cached_and_read_only():
    kernel = make_gaussian_kernel(1)
    a_hat = spectral_density(kernel, GRID1)
    assert spectral_density(kernel, GRID1) is a_hat
    with pytest.raises(ValueError):
        a_hat[0] = 0.0


def test_spectral_cache_keys_on_the_kernel_object():
    base = make_gaussian_kernel(1)
    # a list is unhashable, so a field-wise hash could not key this kernel
    listed = JumpKernel(1, base.density, base.fourier, [1.0, 2.0])
    assert spectral_density(listed, GRID1) is spectral_density(listed, GRID1)
    assert spectral_density(base, GRID1) is not spectral_density(listed, GRID1)


def test_spectral_cache_entry_dies_with_its_kernel():
    kernel = make_gaussian_kernel(1)
    entry = weakref.ref(spectral_density(kernel, GRID1))
    assert entry() is not None  # held by the cache alone
    del kernel
    gc.collect()
    assert entry() is None


def test_aliasing_kernel_raises_on_every_call():
    kernel = make_cauchy_kernel()  # density 2e-4 at the box edge x = -40
    for _ in range(2):
        with pytest.raises(AliasingError):
            spectral_density(kernel, GRID1)

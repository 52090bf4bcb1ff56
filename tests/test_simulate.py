"""Path simulation and Monte Carlo estimator tests.

Distributional oracles: the jump count on [0, T] is Poisson(T); Gaussian
jumps have per-coordinate variance 2; f identically constant makes every
path functional deterministic, so stderr must be exactly zero.
"""

import os
import warnings
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import greenwalk.simulate as simulate

from greenwalk.errors import InvalidKernelError
from greenwalk.grids import GridSpec
from greenwalk.green import CLFunction, cl_from_kernel, evolve_semigroup
from greenwalk.kernels import JumpKernel, make_cauchy_kernel, make_gaussian_kernel, sample_density
from greenwalk.renorm import _horizon, mc_time_changed_expectation, normalization_N, renormalized_green_histogram
from greenwalk.subordinate import _standard_stable, make_stable_subordinator
from greenwalk.simulate import (
    BinSpec,
    average_random_green_measure,
    empirical_random_green_measure,
    mc_expectation,
    mc_truncated_potential,
    _Moments,
    _map_paths,
)

GRID1 = GridSpec(1, 1024, 40.0)
GRID3 = GridSpec(3, 64, 16.0)


@pytest.fixture(scope="module")
def k1():
    return make_gaussian_kernel(1)


@pytest.fixture(scope="module")
def k3():
    return make_gaussian_kernel(3)


def const_cl(value):
    return CLFunction(lambda p: np.full(len(p), float(value)))


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_gaussian_jump_variance(k1):
    rng = np.random.default_rng(3)
    jumps = k1.sampler(rng, 100000)
    assert jumps.var(ddof=1) == pytest.approx(2.0, rel=0.03)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_sampler_and_density_match_their_formulas_bit_for_bit(d):
    # the sampler scales standard normals in place and the density runs its
    # exp and scale in place: neither moves a bit from the plain formulas
    kernel, n = make_gaussian_kernel(d), 100_000
    jumps = kernel.sampler(np.random.default_rng(d), n)
    np.testing.assert_array_equal(jumps, np.random.default_rng(d).normal(0.0, np.sqrt(2.0), (n, d)), strict=True)
    x = np.random.default_rng(10 + d).normal(0.0, 3.0, (n, d))
    exact = (4.0 * np.pi) ** (-d / 2.0) * np.exp(-np.einsum("ij,ij->i", x, x) / 4.0)
    np.testing.assert_array_equal(kernel.density(x), exact, strict=True)


# ---------------------------------------------------------------------------
# batched path engine
# ---------------------------------------------------------------------------


def chunk_counts(chunk):
    # rows past a path's count have duration exactly 0, the others a positive one
    return np.count_nonzero(chunk.durations, axis=0) - 1


def path_chunks(kernel, x, h, n, rng, row_width=0):
    # the engine's chunks themselves, in chunk order
    chunks, _ = _map_paths(kernel, x, h, n, rng, lambda c: c, row_width)
    return chunks


def unit_jump_kernel():
    return JumpKernel(1, lambda x: np.zeros(len(x)), np.ones_like, None, lambda rng, size: np.ones((size, 1)))


def test_engine_jump_counts_are_poisson(k1):
    h, n = 10.0, 20000
    chunks = path_chunks(k1, [0.0], h, n, np.random.default_rng(7))
    counts = np.concatenate([chunk_counts(c) for c in chunks])
    assert counts.size == n
    # the paths run in order of their jump count, and each chunk's layout
    # has exactly one row more than its largest count
    assert np.all(np.diff(counts) >= 0)
    assert all(c.durations.shape[0] == chunk_counts(c)[-1] + 1 for c in chunks)
    assert abs(counts.mean() - h) < 4 * counts.std(ddof=1) / np.sqrt(n)
    assert counts.var(ddof=1) == pytest.approx(h, rel=0.05)


@pytest.mark.parametrize("cap", [1, 64, 4096, 1 << 17, simulate._CHUNK_ELEMENTS])
def test_engine_states_are_exact_partial_sums(cap):
    # with unit jumps, row j of a path with N jumps holds x + min(j, N) exactly;
    # the states are (d, rows, n_paths), one contiguous block per coordinate
    unit, x = unit_jump_kernel(), 0.25
    with mock.patch.object(simulate, "_CHUNK_ELEMENTS", cap):
        chunks = path_chunks(unit, [x], 15.0, 200, np.random.default_rng(8))
    assert sum(c.n_paths for c in chunks) == 200
    for c in chunks:
        rows = np.arange(c.durations.shape[0])[:, None]
        assert c.states.shape == (1, *c.durations.shape)
        np.testing.assert_array_equal(c.states[0], x + np.minimum(rows, chunk_counts(c)))


@settings(max_examples=40)
@given(
    h=st.floats(1e-3, 40.0),
    n=st.integers(1, 50),
    cap=st.integers(1, 2000),
    row_width=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_holding_times_cover_each_horizon(k3, h, n, cap, row_width, seed):
    x = np.array([0.5, 0.0, -1.0])
    with mock.patch.object(simulate, "_CHUNK_ELEMENTS", cap):
        chunks = path_chunks(k3, x, h, n, np.random.default_rng(seed), row_width)
    assert sum(c.n_paths for c in chunks) == n
    for c in chunks:
        assert np.all(c.durations >= 0.0)
        np.testing.assert_allclose(c.durations.sum(axis=0), h, rtol=1e-12)
        np.testing.assert_array_equal(c.states[:, 0], np.tile(x[:, None], (1, c.n_paths)))
        # a chunk's padded layout stays under the cap unless it holds a single path
        cost = c.durations.size * (x.size + 2) + c.n_paths * row_width
        assert c.n_paths == 1 or cost <= cap


def heavy_tailed_kernel():
    """alpha = 0.3 in d = 1: sqrt(2A) Z with A one-sided 0.15-stable, so a_hat(k) = e^{-|k|^0.3}."""

    def sampler(rng, size):
        return (np.sqrt(2.0 * _standard_stable(0.15, rng, size)) * rng.standard_normal(size))[:, None]

    def gap(k):
        return -np.expm1(-np.abs(k) ** 0.3)

    return JumpKernel(1, None, lambda k: 1.0 - gap(k), None, sampler, "stable0.3", gap)


class Recorder:
    """A kernel's sampler that keeps every array it returns."""

    def __init__(self, kernel):
        self.calls = []
        self.kernel = replace(kernel, sampler=self.sample)
        self._sampler = kernel.sampler

    def sample(self, rng, size):
        self.calls.append(self._sampler(rng, size))
        return self.calls[-1]


@pytest.mark.parametrize("kernel", [make_gaussian_kernel(3), heavy_tailed_kernel()], ids=["gaussian3", "stable0.3"])
def test_each_column_is_the_cumsum_of_its_own_jumps(kernel):
    # one sampler call per chunk, laid out row by row: row j holds the j-th
    # jump of every path with at least j jumps, in column order; path p's
    # states are the column states[:, :, p]
    rec, x = Recorder(kernel), np.linspace(-0.5, 0.5, kernel.dim)
    counts = np.sort(np.random.default_rng(4).poisson(6.0, 40))
    c = simulate._build_chunk(rec.kernel, x, 6.0, counts, np.random.default_rng(5))
    (jumps,) = rec.calls
    owner = [p for j in range(1, counts[-1] + 1) for p in range(counts.size) if counts[p] >= j]
    assert len(owner) == jumps.shape[0]
    for p, N in enumerate(counts):
        own = jumps[[i for i, q in enumerate(owner) if q == p]]
        path = c.states[:, :, p].T
        np.testing.assert_array_equal(path[:N + 1], np.cumsum(np.concatenate(([x], own)), axis=0), strict=True)
        np.testing.assert_array_equal(path[N + 1:], np.broadcast_to(path[N], path[N + 1:].shape))
        assert np.all(c.durations[:N + 1, p] > 0.0)
        assert np.all(c.durations[N + 1:, p] == 0.0)


def test_truncated_potential_is_the_conditional_mean_of_each_path():
    # with unit jumps a path with N jumps visits x, x + 1, ..., x + N, and
    # given N each holding time has mean h / (N + 1): the path contributes
    # h / (N + 1) sum_{j <= N} f(x + j).  f(y) = y^2 at y = 0.25 + j is a
    # multiple of 1/16, so every partial sum is exact in any order
    f = CLFunction(evaluator=lambda p: p[:, 0] * p[:, 0])
    x, h, n, seed, values = 0.25, 15.0, 300, 8, []
    with mock.patch.object(simulate, "_CHUNK_ELEMENTS", 256), \
            mock.patch.object(simulate, "_mc_reduce", lambda chunks, plan, seed: values.extend(chunks)):
        mc_truncated_potential(unit_jump_kernel(), f, [x], h, n, seed)
    exact = []
    for N in np.sort(np.random.default_rng(seed).poisson(h, n)):
        total = 0.0
        for j in range(N + 1):
            total += (x + j) * (x + j)
        exact.append(h / (N + 1) * total)
    assert len(values) > 1
    np.testing.assert_array_equal(np.concatenate(values), exact)


def test_linear_estimators_draw_no_holding_times(k1, k3):
    # the holding times are drawn only when a consumer reads them; the
    # single-path histogram is a sample of one path and still reads them
    def no_durations(chunk):
        raise AssertionError("durations read")

    bins = BinSpec.cube(8.0, 4, 3)
    with mock.patch.object(simulate._PathChunk, "durations", property(no_durations)):
        mc_truncated_potential(k1, cl_from_kernel(k1), [0.0], 20.0, 500, seed=1)
        average_random_green_measure(k3, (0.0, 0.0, 0.0), 50.0, bins, 200, seed=1)
        with pytest.raises(AssertionError, match="durations read"):
            empirical_random_green_measure(k3, (0.0, 0.0, 0.0), 50.0, bins, np.random.default_rng(1))


def test_conditional_holding_times_cut_the_truncated_potential_stderr(k3):
    # the same paths (same seed) with Dirichlet holding times drawn: their
    # integral along each path has the same mean and a larger variance
    f, x, T, n, seed = cl_from_kernel(k3), [0.0, 0.0, 0.0], 200.0, 20_000, 24
    est = mc_truncated_potential(k3, f, x, T, n, seed)

    def along_path(c):
        return np.einsum("ij,ij->j", f.values_at(c.points()).reshape(c.durations.shape), c.durations)

    drawn = simulate._mc_reduce(*_map_paths(k3, x, T, n, np.random.default_rng(seed), along_path), seed)
    assert est.stderr <= 0.85 * drawn.stderr
    assert abs(est.mean - drawn.mean) <= 5.0 * drawn.stderr


def test_raw_histogram_padded_rows_add_nothing(k1):
    # an increment sampler that ignores dt gives every interval of Z length 1:
    # inside a box that holds every path, a path with N < T jumps deposits
    # N + 1 and its padded rows, drawn with dt = 0, deposit nothing
    spec = replace(make_stable_subordinator(0.5), increment_sampler=lambda dt, rng, size: np.ones(size))
    T, n, seed = 1e3, 300, 4
    hist, _ = renormalized_green_histogram(k1, spec, [0.0], T, BinSpec.cube(1e4, 4, 1), n, seed, method="raw")
    counts = np.random.default_rng(seed).poisson(_horizon(spec.clipped_mean, T), n)
    assert counts.max() + 1 < T
    assert hist.masses.sum() * normalization_N(spec, T) == pytest.approx(np.mean(counts + 1.0), rel=1e-12)


def engine_outputs(k1, k3):
    """Every chunk-map estimator once, on small chunks so each runs several."""
    f, bins, half = cl_from_kernel(k1), BinSpec.cube(8.0, 4, 3), make_stable_subordinator(0.5)
    ests = [
        mc_truncated_potential(k1, f, [0.0], 20.0, 3000, seed=3),
        mc_expectation(k1, f, [0.0], 1.0, 3000, seed=3),
        mc_time_changed_expectation(k1, half, f, [0.0], 1.0, 3000, seed=3),
    ]
    hists = [average_random_green_measure(k3, (0.0, 0.0, 0.0), 50.0, bins, 300, seed=3)]
    for method in ("conditional", "raw"):
        hists.append(renormalized_green_histogram(k3, half, [0.0] * 3, 100.0, bins, 200, seed=3, method=method))
    return [(e.mean, e.stderr, e.extra) for e in ests], [(h.masses, h.escaped, se) for h, se in hists]


def test_engine_results_do_not_depend_on_the_pool_size(k1, k3, monkeypatch):
    # chunk i draws from its own spawned stream, so the thread count that
    # builds and consumes the chunks changes no bit of any estimate; three
    # workers on a short switch interval interleave the chunks the most
    monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", 4096)
    runs, interval = [], sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for workers in (1, 2, 3):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(simulate, "_pool", lambda: pool)
                runs.append(engine_outputs(k1, k3))
    finally:
        sys.setswitchinterval(interval)
    (ests, hists), others = runs[0], runs[1:]
    assert all(e[2]["chunks"] > 1 for e in ests)
    for other_ests, other_hists in others:
        assert other_ests == ests
        for a, b in zip(hists, other_hists):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y, strict=True)


def test_estimates_record_the_chunk_plan(k1):
    f, n = cl_from_kernel(k1), 3000
    with mock.patch.object(simulate, "_CHUNK_ELEMENTS", 4096):
        for estimator, h in ((mc_truncated_potential, 20.0), (mc_expectation, 1.0)):
            est = estimator(k1, f, [0.0], h, n, seed=5)
            # the chunk map's one up-front draw is the Poisson counts, and the
            # end values plan their chunks as the paths do, but sum each path's
            # own segment of jumps and so lay out no padded row
            counts = np.random.default_rng(5).poisson(h, n)
            chunks = path_chunks(k1, [0.0], h, n, np.random.default_rng(5))
            rows = sum(c.durations.size for c in chunks)
            assert est.extra["jumps"] == counts.sum()
            assert est.extra["chunks"] == len(chunks) > 1
            assert est.extra["paths"] == n
            padded = 1.0 - (counts.sum() + n) / rows if estimator is mc_truncated_potential else 0.0
            assert est.extra["padded_share"] == padded
            assert 0.0 <= est.extra["padded_share"] < 1.0


def test_time_changed_estimate_records_the_chunk_plan(k1):
    est = mc_time_changed_expectation(k1, make_stable_subordinator(0.5), cl_from_kernel(k1), [0.0], 1.0, 500, seed=2)
    assert {"chunks", "paths", "jumps", "padded_share", "time_change"} <= est.extra.keys()
    assert est.extra["paths"] == 500
    assert 0.0 <= est.extra["padded_share"] < 1.0


def test_heavy_tailed_truncated_potential_is_exact():
    # alpha = 0.3: a path's running sum meets jumps of 1e17 and more, so a
    # state must sum its own path's jumps only, or it loses every digit.
    # E int_0^T f(X_t) dt = (1/pi) int_0^inf e^{-k^2} (1 - e^{-T gap}) / gap dk
    # for f = cl_from_kernel of the 1-D Gaussian, f_hat(k) = e^{-k^2}
    kernel, T = heavy_tailed_kernel(), 50.0
    gap = kernel.symbol_gap
    exact = integrate.quad(lambda k: np.exp(-k * k) * -np.expm1(-T * gap(k)) / gap(k), 0.0, np.inf)[0] / np.pi
    assert exact == pytest.approx(0.5642697, abs=1e-7)
    est = mc_truncated_potential(kernel, cl_from_kernel(make_gaussian_kernel(1)), [0.0], T, 20000, seed=7)
    assert abs(est.mean - exact) <= 5.0 * est.stderr


def broken_kernel(value):
    # one jump of each sampler call is value
    def sampler(rng, size):
        jumps = rng.normal(0.0, np.sqrt(2.0), size=(size, 1))
        jumps[size // 2:size // 2 + 1] = value
        return jumps

    return JumpKernel(1, None, None, None, sampler)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("estimator", [mc_truncated_potential, mc_expectation])
def test_non_finite_jumps_raise(k1, estimator, value):
    # the sampler's contract is finite jumps; a broken one is named, not
    # returned as a NaN mean and a NaN stderr
    with pytest.raises(InvalidKernelError, match="non-finite"):
        estimator(broken_kernel(value), cl_from_kernel(k1), [0.0], 5.0, 200, seed=1)
    with pytest.raises(InvalidKernelError, match="non-finite"):
        average_random_green_measure(broken_kernel(value), [0.0], 5.0, BinSpec.cube(8.0, 4, 1), 200, seed=1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_a_fresh_pool():
    # the child inherits the parent's pool object but none of its threads
    code = (
        "import os, greenwalk as g\n"
        "k = g.make_gaussian_kernel(1)\n"
        "f = g.cl_from_kernel(k)\n"
        "a = g.mc_expectation(k, f, [0.0], 1.0, 100, 1).mean\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0 if g.mc_expectation(k, f, [0.0], 1.0, 100, 1).mean == a else 1)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "0"


def test_chunked_moments_match_two_pass():
    rows = np.random.default_rng(2).normal(3.0, 2.0, size=(1000, 5))
    acc = _Moments()
    for part in np.array_split(rows, [1, 7, 300, 301]):
        acc.merge(_Moments.of(part))
    assert acc.n == 1000
    np.testing.assert_allclose(acc.mean, rows.mean(axis=0), rtol=1e-13)
    np.testing.assert_allclose(acc.stderr(), rows.std(axis=0, ddof=1) / np.sqrt(1000), rtol=1e-12)


def test_batched_truncated_potential_matches_path_loop(k1):
    # E int_0^T a(X_t) dt = sum_n P(n + 1, T) a^{*(n+1)}(0): the time spent
    # before jump n + 1 is P(n + 1, T), the regularized lower incomplete
    # gamma, and the 1-D Gaussian a^{*m}(0) is (4 pi m)^{-1/2}
    T, n = 10.0, 4000
    m = np.arange(1, 200)
    exact = np.sum(special.gammainc(m, T) / np.sqrt(4.0 * np.pi * m))
    assert exact == pytest.approx(1.394825084470967, rel=1e-15)
    est = mc_truncated_potential(k1, cl_from_kernel(k1), [0.0], T, n, seed=31)
    assert abs(est.mean - exact) <= 5.0 * est.stderr


def test_tiny_chunk_cap_keeps_law_and_mass(k1, k3):
    bins = BinSpec.cube(8.0, 4, 3)
    T, n = 50.0, 400
    f = cl_from_kernel(k1)
    ref_hist, ref_se = average_random_green_measure(k3, (0.0, 0.0, 0.0), T, bins, n, seed=12)
    ref_pot = mc_truncated_potential(k1, f, [0.0], 5.0, 2000, seed=12)
    ref_end = mc_expectation(k1, f, [0.0], 1.0, 2000, seed=12)
    with mock.patch.object(simulate, "_CHUNK_ELEMENTS", 64):
        hist, se = average_random_green_measure(k3, (0.0, 0.0, 0.0), T, bins, n, seed=13)
        pot = mc_truncated_potential(k1, f, [0.0], 5.0, 2000, seed=13)
        end = mc_expectation(k1, f, [0.0], 1.0, 2000, seed=13)
    for h in (ref_hist, hist):
        assert abs(h.total_mass() / T - 1.0) < 1e-12
    spread = np.hypot(ref_se, se)
    seen = spread > 0
    assert np.max(np.abs(ref_hist.masses - hist.masses)[seen] / spread[seen]) <= 5.0
    for a, b in ((ref_pot, pot), (ref_end, end)):
        assert abs(a.mean - b.mean) <= 5.0 * np.hypot(a.stderr, b.stderr)


# ---------------------------------------------------------------------------
# transient expectations
# ---------------------------------------------------------------------------


def test_mc_expectation_at_time_zero_is_exact(k1):
    f = cl_from_kernel(k1)
    est = mc_expectation(k1, f, [0.3], 0.0, 100, seed=1)
    assert est.mean == pytest.approx(f.value_at([0.3]))
    assert est.stderr == 0.0


def test_mc_expectation_of_constant(k1):
    est = mc_expectation(k1, const_cl(1.0), [0.0], 1.0, 64, seed=1)
    assert est.mean == pytest.approx(1.0)
    assert est.stderr == 0.0


def test_mc_expectation_matches_semigroup(k1):
    f = cl_from_kernel(k1)
    est = mc_expectation(k1, f, [0.0], 1.0, 100000, seed=5)
    target = evolve_semigroup(k1, sample_density(k1, GRID1), 1.0).value_at([0.0])
    assert abs(est.mean - target) < 3 * est.stderr


def test_mc_expectation_draws_cauchy_jumps():
    # a_n is the Cauchy density of scale n, a_n(0) = 1/(pi n), so the density seen at
    # time t from 0 is E a(X_t) = sum_n e^{-t} t^n/n! / (pi (n + 1)) = (1 - e^{-t})/(pi t)
    cauchy = make_cauchy_kernel()
    est = mc_expectation(cauchy, CLFunction(cauchy.density), [0.0], 1.0, 200_000, seed=5)
    assert abs(est.mean - (1.0 - np.exp(-1.0)) / np.pi) < 3 * est.stderr


# ---------------------------------------------------------------------------
# truncated random potentials
# ---------------------------------------------------------------------------


def test_truncated_potential_of_zero(k1):
    est = mc_truncated_potential(k1, const_cl(0.0), [0.0], 5.0, 16, seed=2)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_truncated_potential_of_constant(k1):
    T, c = 7.0, 2.5
    est = mc_truncated_potential(k1, const_cl(c), [0.0], T, 16, seed=2)
    assert est.mean == pytest.approx(c * T, rel=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_random_potential_has_positive_variance(k1):
    est = mc_truncated_potential(k1, cl_from_kernel(k1), [0.0], 10.0, 1000, seed=4)
    assert est.stderr > 0.0


# ---------------------------------------------------------------------------
# occupation histograms
# ---------------------------------------------------------------------------


def test_histogram_mass_identity_is_exact(k3):
    bins = BinSpec.cube(8.0, 16, 3)
    hist = empirical_random_green_measure(
        k3, [0.0, 0.0, 0.0], 50.0, bins, np.random.default_rng(6)
    )
    assert hist.total_mass() == pytest.approx(50.0, abs=1e-10)


def test_zero_jump_histogram_hits_one_bin(k1):
    bins = BinSpec.cube(8.0, 16, 1)
    # with T = 0.01 the one path drawn from this seed makes no jump
    T = 0.01
    (chunk,) = path_chunks(k1, [1.5], T, 1, np.random.default_rng(0))
    assert chunk_counts(chunk).tolist() == [0]
    hist = empirical_random_green_measure(k1, [1.5], T, bins, np.random.default_rng(0))
    assert hist.escaped == 0.0
    idx = bins.flat_index(np.array([[1.5]]))[0]
    assert hist.masses.ravel()[idx] == pytest.approx(T)
    assert np.count_nonzero(hist.masses) == 1


@pytest.mark.parametrize("x", [[100.0], [1.7e308]], ids=["x-100", "x-1.7e308"])
def test_a_start_outside_the_bins_deposits_all_its_mass_as_escaped(k1, x):
    # no path from so far out reaches [-1, 1), and 1.7e308 / w overflows to inf, which is outside
    bins, T = BinSpec.cube(1.0, 8, 1), 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist, stderr = average_random_green_measure(k1, x, T, bins, 20, seed=4)
        single = empirical_random_green_measure(k1, x, T, bins, np.random.default_rng(4))
    for h in (hist, single):
        assert not h.masses.any()
        assert h.escaped == pytest.approx(T, rel=1e-14) and h.total_mass() == h.escaped
    assert not stderr.any()


@pytest.mark.parametrize("T, n, match", [(5.0, 0, "n >= 2"), (5.0, 1, "n >= 2"), (-1.0, 20, "positive"),
                                         (0.0, 20, "positive")])
def test_average_histogram_rejects_bad_inputs(k1, T, n, match):
    # n < 2 leaves no standard error and T <= 0 no path to run: both are named
    # errors, not numpy's TypeError, a zero stderr or its "lam < 0"
    with pytest.raises(ValueError, match=match):
        average_random_green_measure(k1, [0.0], T, BinSpec.cube(8.0, 16, 1), n, seed=1)


def test_average_histogram_matches_delta_plus_green(k3):
    # E[occupation of bin B] -> |B| (delta_0 + G_0) as T grows; at T = 2000
    # the t^{-1/2} truncation tail is ~2% on near bins, below the tolerance
    from greenwalk.green import green_regular_series

    bins = BinSpec.cube(8.0, 16, 3)
    hist, stderr = average_random_green_measure(
        k3, (0.0, 0.0, 0.0), 2000.0, bins, n=2000, seed=9
    )
    g0 = green_regular_series(k3, GRID3, 0.0).regular_part
    centers = bins.centers()
    vol = bins.volume_per_bin()
    checked = 0
    for idx in [(9, 8, 8), (8, 9, 8), (8, 8, 9), (7, 8, 8), (8, 8, 7), (9, 9, 8)]:
        c = [centers[ax][idx[ax]] for ax in range(3)]
        target = g0.value_at(c) * vol
        tol = max(3 * stderr[idx], 0.05 * target)
        assert abs(hist.masses[idx] - target) < tol
        checked += 1
    assert checked == 6


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_seeded_estimates_are_reproducible(k1):
    f = cl_from_kernel(k1)
    a = mc_expectation(k1, f, [0.0], 1.0, 5000, seed=42)
    b = mc_expectation(k1, f, [0.0], 1.0, 5000, seed=42)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    ta = mc_truncated_potential(k1, f, [0.0], 5.0, 200, seed=42)
    tb = mc_truncated_potential(k1, f, [0.0], 5.0, 200, seed=42)
    assert (ta.mean, ta.stderr) == (tb.mean, tb.stderr)


def _flat_index_reference(bins, point) -> int:
    idx = 0
    for p, lo, hi, n in zip(point, bins.lo, bins.hi, bins.shape):
        q = (p - lo) / ((hi - lo) / n)
        if not 0 <= q < n:  # also NaN
            return -1
        idx = idx * n + int(np.floor(q))
    return idx


@pytest.mark.parametrize("bins", [
    BinSpec((-8.0,), (8.0,), (16,)),
    BinSpec((-3.0, 0.5), (5.0, 2.0), (7, 3)),
    BinSpec.cube(8.0, 8, 3),
])
def test_flat_index_of_far_points_and_bin_edges(bins):
    # every bin edge, a hair to either side, and points far beyond the box:
    # floor((p - lo) / w) of 1e300 is far outside int64, and casting it
    # first warned and gave an undefined index
    rng = np.random.default_rng(7)
    coords = []
    for e in bins.edges():
        near = np.concatenate((e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)))
        coords.append(np.concatenate((near, [1e300, -1e300, 9.3e18, -9.3e18, np.inf, -np.inf, np.nan])))
    points = np.stack([rng.choice(c, size=4000) for c in coords], axis=1)
    points[: coords[0].size, 0] = coords[0]  # each first-axis value at least once
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bins.flat_index(points)
    ref = [_flat_index_reference(bins, p) for p in points]
    np.testing.assert_array_equal(got, ref)
    assert got.dtype == np.int64 and (got == -1).any() and (got >= 0).any()

"""Path simulation and Monte Carlo estimator tests.

Distributional oracles: the jump count on [0, T] is Poisson(T); Gaussian
jumps have per-coordinate variance 2; f identically constant makes every
path functional deterministic, so stderr must be exactly zero.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import greenwalk.simulate as simulate

from greenwalk.grids import FieldGrid, GridSpec
from greenwalk.green import cl_from_grid, cl_from_kernel, evolve_semigroup
from greenwalk.kernels import make_gaussian_kernel, sample_density
from greenwalk.renorm import mc_time_changed_expectation, renormalized_green_histogram
from greenwalk.subordinate import make_stable_subordinator
from greenwalk.simulate import (
    BinSpec,
    average_random_green_measure,
    empirical_random_green_measure,
    mc_expectation,
    mc_truncated_potential,
    sample_cpp_path,
    sample_random_potential,
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


def const_cl(grid, value):
    return cl_from_grid(FieldGrid(grid, np.full(grid.shape, float(value))))


def zero_jump_path(kernel, x, T=0.01):
    # with T = 0.01 the first Exp(1) holding time exceeds T for this seed
    path = sample_cpp_path(kernel, x, T, np.random.default_rng(0))
    assert path.jump_times.size == 0
    return path


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_jump_count_is_poisson(k1):
    rng = np.random.default_rng(7)
    T, n = 10.0, 20000
    counts = np.array([sample_cpp_path(k1, [0.0], T, rng).jump_times.size for _ in range(n)])
    stderr = counts.std(ddof=1) / np.sqrt(n)
    assert abs(counts.mean() - T) < 3 * stderr
    # Poisson variance equals the mean
    assert counts.var(ddof=1) == pytest.approx(T, rel=0.05)


def test_gaussian_jump_variance(k1):
    rng = np.random.default_rng(3)
    jumps = k1.sampler(rng, 100000)
    assert jumps.var(ddof=1) == pytest.approx(2.0, rel=0.03)


def test_zero_jump_path_is_constant(k1):
    path = zero_jump_path(k1, [1.5])
    assert np.array_equal(path.state_at(0.0), [1.5])
    assert np.array_equal(path.state_at(path.horizon), [1.5])
    assert path.time_integral(lambda s: np.atleast_2d(s)[:, 0]) == pytest.approx(
        1.5 * path.horizon
    )


def test_path_state_lookup_consistent(k1):
    path = sample_cpp_path(k1, [0.0], 20.0, np.random.default_rng(11))
    states, durations = path.holding_intervals()
    assert durations.sum() == pytest.approx(path.horizon, abs=1e-12)
    for i, t in enumerate(path.jump_times):
        np.testing.assert_array_equal(path.state_at(t + 1e-9), path.positions[i])


# ---------------------------------------------------------------------------
# batched path engine
# ---------------------------------------------------------------------------


def chunk_counts(chunk):
    return np.diff(np.append(chunk.first, chunk.path.size)) - 1


def path_chunks(kernel, x, horizons, rng, row_width=0):
    # the engine's chunks themselves, in chunk order
    chunks, _ = _map_paths(kernel, x, horizons, rng, lambda c: c, row_width)
    return chunks


def test_engine_jump_counts_are_poisson(k1):
    h, n = 10.0, 20000
    chunks = path_chunks(k1, [0.0], np.full(n, h), np.random.default_rng(7))
    counts = np.concatenate([chunk_counts(c) for c in chunks])
    assert counts.size == n
    assert abs(counts.mean() - h) < 4 * counts.std(ddof=1) / np.sqrt(n)
    assert counts.var(ddof=1) == pytest.approx(h, rel=0.05)


@settings(max_examples=40, deadline=None)
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
        chunks = path_chunks(k3, x, np.full(n, h), np.random.default_rng(seed), row_width)
    assert sum(c.n_paths for c in chunks) == n
    for c in chunks:
        assert np.all(c.durations >= 0.0)
        totals = np.bincount(c.path, weights=c.durations, minlength=c.n_paths)
        np.testing.assert_allclose(totals, h, rtol=1e-12)
        np.testing.assert_array_equal(c.states[c.first], np.tile(x, (c.n_paths, 1)))
        # a chunk stays under the cap unless it holds a single path
        cost = c.path.size * (x.size + 2) + c.n_paths * row_width
        assert c.n_paths == 1 or cost <= cap


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
                monkeypatch.setattr(simulate, "_POOL", pool)
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
            horizons = np.full(n, h)
            # the chunk map's one up-front draw is the Poisson counts
            assert est.extra["jumps"] == np.random.default_rng(5).poisson(horizons).sum()
            assert est.extra["chunks"] == len(path_chunks(k1, [0.0], horizons, np.random.default_rng(5)))


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
    f = cl_from_kernel(k1)
    T, n = 10.0, 4000
    batched = mc_truncated_potential(k1, f, [0.0], T, n, seed=31)
    rng = np.random.default_rng(32)
    loop = np.array([sample_random_potential(k1, f, [0.0], T, rng) for _ in range(n)])
    se = np.hypot(batched.stderr, loop.std(ddof=1) / np.sqrt(n))
    assert abs(batched.mean - loop.mean()) < 5 * se


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
    est = mc_expectation(k1, const_cl(GRID1, 1.0), [0.0], 1.0, 64, seed=1)
    assert est.mean == pytest.approx(1.0)
    assert est.stderr == 0.0


def test_mc_expectation_matches_semigroup(k1):
    f = cl_from_kernel(k1)
    est = mc_expectation(k1, f, [0.0], 1.0, 100000, seed=5)
    target = evolve_semigroup(k1, sample_density(k1, GRID1), 1.0).value_at([0.0])
    assert abs(est.mean - target) < 3 * est.stderr


# ---------------------------------------------------------------------------
# truncated random potentials
# ---------------------------------------------------------------------------


def test_truncated_potential_of_zero(k1):
    est = mc_truncated_potential(k1, const_cl(GRID1, 0.0), [0.0], 5.0, 16, seed=2)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_truncated_potential_of_constant(k1):
    T, c = 7.0, 2.5
    est = mc_truncated_potential(k1, const_cl(GRID1, c), [0.0], T, 16, seed=2)
    assert est.mean == pytest.approx(c * T, rel=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)


def test_random_potential_single_draws(k1):
    T = 4.0
    assert sample_random_potential(
        k1, const_cl(GRID1, 1.0), [0.0], T, np.random.default_rng(0)
    ) == pytest.approx(T)
    path = zero_jump_path(k1, [0.5])
    f = cl_from_kernel(k1)
    assert sample_random_potential(
        k1, f, [0.5], path.horizon, np.random.default_rng(0)
    ) == pytest.approx(f.value_at([0.5]) * path.horizon)


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
    path = zero_jump_path(k1, [1.5])
    hist = empirical_random_green_measure(
        k1, [1.5], path.horizon, bins, np.random.default_rng(0)
    )
    assert hist.escaped == 0.0
    idx = bins.flat_index(np.array([[1.5]]))[0]
    assert hist.masses.ravel()[idx] == pytest.approx(path.horizon)
    assert np.count_nonzero(hist.masses) == 1


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

"""The one input gate: every bad input raises a typed InvalidInputError naming its argument.

The property test calls the public numeric entry points of greenwalk with each
float argument (a slot) drawn either from a list of bad values or from a range
the function accepts.  A call must return finite values or raise a
GreenwalkError; a non-finite draw must raise InvalidInputError, and its
message must name a slot that drew a bad value.  A plain ValueError, a
TypeError or a RuntimeWarning fails the test.
"""

import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenwalk
from greenwalk import (
    BinSpec,
    CLFunction,
    GreenwalkError,
    GridSpec,
    InvalidInputError,
    average_random_green_measure,
    check_admissible,
    cl_from_kernel,
    empirical_random_green_measure,
    evolve_semigroup,
    fit_small_k_expansion,
    fke_residual,
    gfd_apply,
    green_regular_fourier,
    green_regular_series,
    make_gamma_subordinator,
    make_gaussian_kernel,
    make_stable_subordinator,
    mc_expectation,
    mc_time_changed_expectation,
    mc_truncated_potential,
    normalization_N,
    potential,
    renormalized_green_histogram,
    renormalized_potential_curve,
    rho_density,
    subordinated_solution,
    time_averaged_ratio,
)
from greenwalk.renorm import unnormalized_potential_integral

BAD = [np.nan, np.inf, -np.inf, -1.0, 0.0, 1e308]

K1, K3 = make_gaussian_kernel(1), make_gaussian_kernel(3)
F1, F3 = cl_from_kernel(K1), cl_from_kernel(K3)
HALF = make_stable_subordinator(0.5)
SPECS = [HALF, make_stable_subordinator(0.7), make_gamma_subordinator(1.0, 1.0)]
GRID1 = GridSpec(1, 64, 16.0)  # the 1-D Gaussian is below 1e-12 at the boundary
GRID3 = GridSpec(3, 16, 8.0)  # unused by the radial routes that take it
BINS1 = BinSpec.cube(4.0, 8, 1)
T_GRID = np.linspace(0.0, 1.0, 9)

# entry point -> (call(spec, **slots), {slot: strategy of values it accepts})
ENTRIES = {
    "evolve_semigroup": (lambda spec, t: evolve_semigroup(K1, F1.samples_on(GRID1), t), {"t": (0.0, 3.0)}),
    "green_regular_series": (lambda spec, lam: green_regular_series(K1, GRID1, lam), {"lam": (0.1, 3.0)}),
    "green_regular_fourier": (lambda spec, x, lam: green_regular_fourier(K3, [x, 0.0, 0.0], lam),
                              {"x": (-2.0, 2.0), "lam": (0.0, 3.0)}),
    "potential": (lambda spec, x: potential(K3, F3, [x, 0.0, 0.0], GRID3), {"x": (-2.0, 2.0)}),
    "fit_small_k_expansion": (lambda spec, k_min, k_max: fit_small_k_expansion(K1, k_min, k_max),
                              {"k_min": (1e-4, 1e-3), "k_max": (1e-2, 1e-1)}),
    "mc_expectation": (lambda spec, x, t: mc_expectation(K1, F1, [x], t, 4, 0), {"x": (-2.0, 2.0), "t": (0.0, 3.0)}),
    "mc_truncated_potential": (lambda spec, x, T: mc_truncated_potential(K1, F1, [x], T, 4, 0),
                               {"x": (-2.0, 2.0), "T": (0.1, 5.0)}),
    "average_random_green_measure": (lambda spec, x, T: average_random_green_measure(K1, [x], T, BINS1, 4, 0),
                                     {"x": (-2.0, 2.0), "T": (0.1, 5.0)}),
    "empirical_random_green_measure": (
        lambda spec, x, T: empirical_random_green_measure(K1, [x], T, BINS1, np.random.default_rng(0)),
        {"x": (-2.0, 2.0), "T": (0.1, 5.0)}),
    "BinSpec.cube": (lambda spec, half_width: BinSpec.cube(half_width, 4, 1), {"half_width": (0.5, 10.0)}),
    "GridSpec": (lambda spec, half_width: GridSpec(1, 64, half_width), {"half_width": (0.5, 10.0)}),
    "normalization_N": (lambda spec, T: normalization_N(spec, T), {"T": (0.0, 50.0)}),
    "rho_density": (lambda spec, t, tau: rho_density(spec, t, tau), {"t": (0.1, 5.0), "tau": (0.0, 5.0)}),
    "time_averaged_ratio": (lambda spec, tau, t: time_averaged_ratio(spec, tau, t),
                            {"tau": (0.0, 5.0), "t": (0.5, 20.0)}),
    "check_admissible": (lambda spec, s0: check_admissible(spec, s0), {"s0": (0.5, 2.0)}),
    "gfd_apply": (lambda spec, dt: gfd_apply(None, [0.0, 1.0, 4.0, 9.0], dt, cell_masses=np.ones(3)),
                  {"dt": (1e-3, 1.0)}),
    "make_gamma_subordinator": (lambda spec, a, b: make_gamma_subordinator(a, b), {"a": (0.5, 2.0), "b": (0.5, 2.0)}),
    "make_stable_subordinator": (lambda spec, alpha: make_stable_subordinator(alpha), {"alpha": (0.1, 0.9)}),
    "subordinated_solution": (lambda spec, x, t: subordinated_solution(K1, HALF, F1, [x], t, grid=GRID1),
                              {"x": (-2.0, 2.0), "t": (0.1, 5.0)}),
    "mc_time_changed_expectation": (lambda spec, x, t: mc_time_changed_expectation(K1, HALF, F1, [x], t, 4, 0),
                                    {"x": (-2.0, 2.0), "t": (0.0, 3.0)}),
    "renormalized_green_histogram": (lambda spec, x, T: renormalized_green_histogram(K1, HALF, [x], T, BINS1, 4, 0),
                                     {"x": (-2.0, 2.0), "T": (1.0, 20.0)}),
    "renormalized_potential_curve": (
        lambda spec, x, T_grid: renormalized_potential_curve(K3, HALF, F3, [x, 0.0, 0.0], [T_grid], GRID3),
        {"x": (-2.0, 2.0), "T_grid": (1.0, 50.0)}),
    "fke_residual": (lambda spec, x, t_min: fke_residual(K1, HALF, F1, [x], T_GRID, grid=GRID1, t_min=t_min),
                     {"x": (-2.0, 2.0), "t_min": (0.0, 0.5)}),
}


def _slot(lo: float, hi: float):
    """(value, drawn from BAD) for one float slot."""
    return st.one_of(st.sampled_from(BAD).map(lambda v: (v, True)), st.floats(lo, hi).map(lambda v: (v, False)))


def _finite(out) -> bool:
    """Every number in out, through arrays, containers and dataclass fields, is finite."""
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, dict):
        return all(_finite(v) for v in out.values())
    if isinstance(out, (list, tuple)):
        return all(_finite(v) for v in out)
    if isinstance(out, (float, int, np.number, np.ndarray)):
        return bool(np.all(np.isfinite(out)))
    return True  # names, callables and generators hold no number


@pytest.mark.parametrize("entry", ENTRIES)
@settings(max_examples=20)
@given(data=st.data())
def test_bad_floats_raise_the_typed_error_naming_the_slot(entry, data):
    call, valid = ENTRIES[entry]
    drawn = {name: data.draw(_slot(*bounds), label=name) for name, bounds in valid.items()}
    spec = data.draw(st.sampled_from(SPECS), label="spec")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            out = call(spec, **{name: value for name, (value, _) in drawn.items()})
    except GreenwalkError as exc:
        if any(not np.isfinite(value) for value, _ in drawn.values()):
            assert isinstance(exc, InvalidInputError), exc
            bad = [name for name, (_, is_bad) in drawn.items() if is_bad]
            assert any(re.search(rf"\b{name}\b", str(exc)) for name in bad), (str(exc), bad)
        return
    assert all(np.isfinite(value) for value, _ in drawn.values()), f"{entry} accepted {drawn}"
    assert _finite(out), out


def test_every_input_check_goes_through_the_one_gate():
    # errors._require and errors._require_count raise InvalidInputError; no module
    # raises a bare ValueError or NotImplementedError, or tests for integers on its own
    for path in Path(greenwalk.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert "raise ValueError" not in source, path.name
        assert "raise NotImplementedError" not in source, path.name
        assert path.name == "errors.py" or "Integral" not in source, path.name


# ---------------------------------------------------------------------------
# one dimension gate: x has kernel.dim coordinates, bins kernel.dim axes
# ---------------------------------------------------------------------------

X2 = [0.0, 0.0]
BINS2 = BinSpec.cube(8.0, 4, 2)
GRID_ONLY_F3 = CLFunction(F3.evaluator)  # no fourier: potential takes the grid route

# (call, the argument its error must name)
WRONG_DIMENSION = {
    "green_regular_fourier": (lambda: green_regular_fourier(K3, [0.5, 0.0], 0.0), "x"),
    "potential": (lambda: potential(K3, F3, X2), "x"),
    "potential-grid-route": (lambda: potential(K3, GRID_ONLY_F3, X2, GridSpec(3, 16, 16.0)), "x"),
    "mc_expectation": (lambda: mc_expectation(K1, F1, [0, 0, 0], 1.0, 10, 1), "x"),
    "mc_truncated_potential": (lambda: mc_truncated_potential(K1, F1, X2, 1.0, 10, 1), "x"),
    "empirical_random_green_measure": (
        lambda: empirical_random_green_measure(K1, X2, 1.0, BINS1, np.random.default_rng(0)), "x"),
    "average_random_green_measure": (lambda: average_random_green_measure(K1, X2, 1.0, BINS1, 4, 0), "x"),
    "subordinated_solution": (lambda: subordinated_solution(K3, HALF, F3, [0.0], 1.0, GRID3), "x"),
    "subordinated_solution-1d-grid": (lambda: subordinated_solution(K1, HALF, F1, X2, 1.0, GRID1), "x"),
    "mc_time_changed_expectation": (lambda: mc_time_changed_expectation(K1, HALF, F1, X2, 1.0, 4, 0), "x"),
    "renormalized_potential_curve": (lambda: renormalized_potential_curve(K3, HALF, F3, X2, [10.0]), "x"),
    "unnormalized_potential_integral": (lambda: unnormalized_potential_integral(K3, HALF, F3, X2, 1.0), "x"),
    "renormalized_green_histogram": (lambda: renormalized_green_histogram(K1, HALF, X2, 10.0, BINS1, 4, 0), "x"),
    "fke_residual-1d-grid": (lambda: fke_residual(K1, HALF, F1, X2, T_GRID, grid=GRID1), "x"),
    "renormalized_green_histogram-bins": (
        lambda: renormalized_green_histogram(K3, HALF, [0.0] * 3, 10.0, BINS2, 10, 1), "bins"),
    "average_random_green_measure-bins": (lambda: average_random_green_measure(K1, [0.0], 1.0, BINS2, 4, 0), "bins"),
    "empirical_random_green_measure-bins": (
        lambda: empirical_random_green_measure(K3, [0.0] * 3, 1.0, BINS2, np.random.default_rng(0)), "bins"),
    "BinSpec-shape-shorter": (lambda: BinSpec((-1, -1), (1, 1), (4,)), "lo, hi, shape"),
    "BinSpec-0d": (lambda: BinSpec((), (), ()), "lo, hi, shape"),
    "make_gaussian_kernel-fraction": (lambda: make_gaussian_kernel(2.5), "d"),
    "make_gaussian_kernel-bool": (lambda: make_gaussian_kernel(True), "d"),
    "make_gaussian_kernel-0": (lambda: make_gaussian_kernel(0), "d"),
}


@pytest.mark.parametrize("entry", WRONG_DIMENSION)
def test_a_wrong_dimension_raises_the_typed_error_naming_its_argument(entry):
    # each used to return a number computed on the shared axes, or to leak a numpy ValueError
    call, name = WRONG_DIMENSION[entry]
    with pytest.raises(InvalidInputError) as info:
        call()
    assert str(info.value).startswith(f"{name} must be "), str(info.value)


def test_the_right_dimension_still_runs():
    # the gate passes a point of kernel.dim coordinates, given as a list, a tuple or a 1-D scalar
    assert green_regular_fourier(K3, (0.5, 0.0, 0.0), 0.0) > 0
    assert mc_expectation(K1, F1, 0.0, 1.0, 10, 1).n_samples == 10
    assert BinSpec((-1.0,), (1.0,), (4,)).dim == 1

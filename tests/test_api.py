"""The public names of the package and of its modules."""

import ast
import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

import greenwalk
from greenwalk import errors, green, grids, kernels, laplace, renorm, simulate, subordinate

PUBLIC = [
    "AliasingError", "BinSpec", "CLFunction", "ConfigError", "DivergentGreenMeasureError",
    "FieldGrid", "GreenExistence", "GreenwalkError", "GridMismatchError", "GridSpec",
    "InvalidInputError", "InvalidKernelError", "InversionInstabilityError", "JumpKernel", "McEstimate",
    "OccupationHistogram", "RenormCurve", "ResolventKernel",
    "SubordinatorSpec", "TruncationError", "average_random_green_measure", "check_H",
    "check_admissible", "check_green_existence", "cl_from_kernel",
    "empirical_random_green_measure", "errors", "evolve_semigroup", "fit_small_k_expansion",
    "fke_residual", "gfd_apply", "green", "green_regular_fourier", "green_regular_series",
    "grids", "kernels", "make_cauchy_kernel", "make_gamma_subordinator", "make_gaussian_kernel",
    "make_stable_subordinator", "mc_expectation",
    "mc_time_changed_expectation", "mc_truncated_potential", "normalization_N", "potential",
    "potential_field", "renorm", "renormalized_green_histogram", "renormalized_potential_curve",
    "rho_density", "simulate", "subordinate", "subordinated_solution", "time_averaged_ratio",
    "validate_kernel",
]


def test_package_exports_are_pinned():
    assert sorted(greenwalk.__all__) == PUBLIC


def test_no_internal_module_is_exported():
    # laplace and cli are submodules that imports load; rebuilt with both in the package
    # namespace, __all__ still holds only the seven public modules
    import greenwalk.cli  # noqa: F401

    importlib.reload(greenwalk)
    modules = {name for name in dir(greenwalk) if isinstance(getattr(greenwalk, name), types.ModuleType)}
    assert {"laplace", "cli"} <= modules
    public = {"errors", "grids", "kernels", "green", "simulate", "subordinate", "renorm"}
    assert modules & set(greenwalk.__all__) == public
    assert sorted(greenwalk.__all__) == PUBLIC


@pytest.mark.parametrize("module, name", [
    (simulate, "CppPath"),
    (simulate, "sample_cpp_path"),
    (simulate, "sample_random_potential"),
    (subordinate, "InverseSubSample"),
    (subordinate, "sample_inverse_subordinator"),
    (subordinate, "inverse_subordinator_curve"),
])
def test_single_path_and_single_draw_helpers_are_gone(module, name):
    assert name not in module.__all__
    with pytest.raises(AttributeError):
        getattr(module, name)
    with pytest.raises(AttributeError):
        getattr(greenwalk, name)


@pytest.mark.parametrize("owner, name", [
    (grids, "save_field"),
    (grids, "load_field"),
    (grids, "field_to_csv"),
    (green, "cl_norm"),
    (simulate.OccupationHistogram, "integrate"),
    (subordinate, "_grid_first_passage"),
    (subordinate, "_MAX_STEPS"),
    (subordinate, "_PASSAGE_BLOCK"),
    (subordinate, "_k_integral"),
    (kernels, "make_tabulated_kernel"),
    (green, "cl_from_grid"),
    (errors, "MissingNormsError"),
    (grids.GridSpec, "nearest_index"),
])
def test_field_io_declared_norms_and_histogram_integral_are_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(owner, name)


def test_cl_function_has_no_declared_norms():
    assert [f.name for f in dataclasses.fields(green.CLFunction)] == ["evaluator", "name", "fourier"]


@pytest.mark.parametrize("fn, option", [
    (subordinate.rho_density, "method"),
    (subordinate.sample_inverse_many, "max_steps"),
    (renorm.mc_time_changed_expectation, "ds"),
    (kernels.check_aliasing, "threshold"),
    (kernels.validate_kernel, "decay_cutoff"),
    (kernels.fit_small_k_expansion, "n_probe"),
])
def test_options_no_caller_sets_are_gone(fn, option):
    assert option not in inspect.signature(fn).parameters


@pytest.mark.parametrize("owner, name", [
    (renorm.RenormCurve, "write_csv"),
    (simulate, "_histogram"),
    (simulate, "_end_values"),
    (simulate, "_deposit"),
])
def test_second_copies_of_the_engine_and_the_csv_writer_are_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(owner, name)


def test_renorm_imports_only_the_two_engine_drivers():
    # renorm reaches the path engine through simulate's end-value and occupation
    # drivers, never through its chunk map, deposit or moment accumulator
    tree = ast.parse(inspect.getsource(renorm))
    names = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "simulate"
             for a in node.names}
    assert names == {"BinSpec", "McEstimate", "_mc_end_values", "_mc_occupation"}


def test_only_laplace_knows_the_talbot_rule():
    # the contour, its two orders and their gate live behind greenwalk.laplace,
    # which takes Phi as a callable and imports nothing but the errors
    for path in Path(greenwalk.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert path.name == "laplace.py" or ("_talbot_" not in source and "_TALBOT_" not in source), path.name
    tree = ast.parse(inspect.getsource(laplace))
    assert {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level} == {"errors"}


@pytest.mark.parametrize("fn, default", [
    (green.potential, None),
    (renorm.subordinated_solution, inspect.Parameter.empty),
    (renorm.fke_residual, inspect.Parameter.empty),
    (renorm.unnormalized_potential_integral, "no grid parameter"),
])
def test_grid_is_required_exactly_where_it_is_always_read(fn, default):
    # potential reads a grid only for an f without fourier; the rate classes always read one;
    # the unnormalized integral is a radial quadrature and takes none
    grid = inspect.signature(fn).parameters.get("grid")
    assert (grid.default if grid else "no grid parameter") is default


def test_gfd_needs_the_cell_masses():
    params = inspect.signature(subordinate.gfd_apply).parameters
    assert params["cell_masses"].kind is inspect.Parameter.KEYWORD_ONLY
    assert params["cell_masses"].default is inspect.Parameter.empty

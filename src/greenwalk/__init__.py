"""greenwalk: Green measures and potentials of compound Poisson processes.

Numerical tools for pure-jump Markov processes with heavy-tailed jump
kernels: Green kernels and potentials, exact path simulation, inverse
subordinators and time changes, and the renormalized Green measure limit
for the time-changed process.
"""

__version__ = "0.1.0"

from .errors import (
    AliasingError,
    ConfigError,
    DivergentGreenMeasureError,
    GreenwalkError,
    GridMismatchError,
    InvalidKernelError,
    InversionInstabilityError,
    MissingNormsError,
    TruncationError,
)
from .grids import FieldGrid, GridSpec
from .kernels import (
    JumpKernel,
    fit_small_k_expansion,
    make_cauchy_kernel,
    make_gaussian_kernel,
    make_tabulated_kernel,
    validate_kernel,
)
from .green import (
    CLFunction,
    GreenExistence,
    ResolventKernel,
    check_green_existence,
    cl_from_grid,
    cl_from_kernel,
    evolve_semigroup,
    green_regular_fourier,
    green_regular_series,
    potential,
    potential_field,
)
from .simulate import (
    BinSpec,
    McEstimate,
    OccupationHistogram,
    average_random_green_measure,
    empirical_random_green_measure,
    mc_expectation,
    mc_truncated_potential,
)
from .subordinate import (
    SubordinatorSpec,
    check_H,
    check_admissible,
    gfd_apply,
    make_gamma_subordinator,
    make_stable_subordinator,
    normalization_N,
    rho_density,
    time_averaged_ratio,
)
from .renorm import (
    RenormCurve,
    fke_residual,
    mc_time_changed_expectation,
    renormalized_green_histogram,
    renormalized_potential_curve,
    subordinated_solution,
)

__all__ = [name for name in dir() if not name.startswith("_")]

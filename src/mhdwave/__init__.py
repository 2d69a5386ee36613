"""mhdwave: pseudo-spectral simulator and verification harness for the 2D
damped wave-type MHD system on a periodic box."""

__version__ = "0.1.0"

from .grid import GridSpec, transform_inverse  # noqa: F401
from .initial import make_initial_data  # noqa: F401
from .kernels import duhamel_k1_weight, verify_kernel_bounds  # noqa: F401
from .solver import (  # noqa: F401
    SolverConfig,
    State,
    Trajectory,
    run,
    step_exp,
)
from .diagnostics import (  # noqa: F401
    energy_functionals,
    linear_energy_residual,
    lq_norm,
)
from .decay import (  # noqa: F401
    PowerLawFit,
    TheoryRate,
    fit_power_law,
    gamma_prefactor_scan,
    run_decay_experiment,
    singular_limit_experiment,
    theory_rate,
    verify_expintegral,
)

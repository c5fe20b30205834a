"""Structure-preserving time discretizations for the Euler, Lagrange, and
Kowalevski tops."""

from types import ModuleType as _ModuleType

from .algebra import NumericalError, SingularSystemError, solve3
from .euler_lagrange import (ConvergenceError, bs_stepper, lagrange_invariants,
                             lagrange_stepper, symmetric_stepper)
from .harness import (ConfigError, RunConfig, Trajectory, convergence_study, drift_report,
                      estimate_period, reversal_test, run)
from .hk import hk_omega_stage, hk_stepper
from .kowalevski import (bohlin_stage, bohlin_stepper, gamma_step_bs, gamma_step_rotation,
                         gamma_step_stereo, hybrid_stepper)
from .models import KOWALEVSKI_INERTIA, euler_poisson_rhs, invariants, kowalevski_invariants, xi

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"

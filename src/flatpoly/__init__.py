"""Flatness-based polynomial trajectory optimization for constrained
linear systems.

Pipeline: a controllable LTI system is parameterized by its flat outputs
(`flat`), trajectories become degree-N polynomials affine in a free
parameter vector (`polybasis`), quadratic costs and pointwise constraints
condition into a finite-dimensional QP (`costcond`, `polyconstraint`),
solved exactly or via an L1 surrogate LP (`solver`).  `pmsm_sim` applies
the pipeline as a receding-horizon torque controller for a PMSM, and `cli`
exposes everything as a command-line tool.
"""

__version__ = "0.1.0"

from . import costcond, errors, flat, pmsm_sim, polybasis, polyconstraint, solver
from .errors import *  # noqa: F403
from .flat import *  # noqa: F403
from .polybasis import *  # noqa: F403
from .costcond import *  # noqa: F403
from .polyconstraint import *  # noqa: F403
from .solver import *  # noqa: F403
from .pmsm_sim import *  # noqa: F403

__all__ = ["__version__", *errors.__all__, *flat.__all__, *polybasis.__all__,
           *costcond.__all__, *polyconstraint.__all__, *solver.__all__,
           *pmsm_sim.__all__]

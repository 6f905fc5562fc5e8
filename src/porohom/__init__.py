"""porohom: two-phase poroelastic microsimulation and periodic homogenization."""

__version__ = "0.1.0"

from .grid import Grid, ScalarField, VectorField, l2_norm  # noqa: F401
from .geometry import PhaseMask, UnitCellPattern, build_phase_mask, porosity  # noqa: F401
from .microsim import MaterialParams, MicroSolver, SimState  # noqa: F401

"""Multi-well phase-transition toolkit.

Computational side of the vector order-parameter model Delta u = W_u(u):
finite reflection groups and equivariant fields, a catalog of multi-well
potentials, 1D heteroclinic connections, junction field solves, interface
diagnostics, and the sharp-interface partition calculus (weighted Steiner
points, surface-tension metrics, cone densities).
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the environment says otherwise, set before numpy
# loads its BLAS: OpenBLAS splits the conjugate-gradient reductions and long
# matrix products across its threads, which changes their rounding, so the
# same config and seed would write other bytes on a machine with more cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import kernels
from . import groups
from . import potentials
from . import connect
from . import fields
from . import diagnostics
from . import partitions

__all__ = [
    "kernels",
    "groups",
    "potentials",
    "connect",
    "fields",
    "diagnostics",
    "partitions",
    "__version__",
]

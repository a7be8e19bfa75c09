"""Toolkit for measuring the sensitivity of a spatially intensive variable to
the Modifiable Areal Unit Problem.

The library covers the full workflow: build contiguity weights, simulate SAR
random fields at chosen autocorrelation levels, aggregate areas into random
contiguous regions, evaluate the closed-form sensitivity statistic against
embedded critical values (or a simulated null distribution), and reproduce
the Monte Carlo experiments behind those critical values at configurable
scale.

The package exports every API module's ``__all__``; each public name is
declared once, in the module that defines it.
"""

from ._version import __version__
from .core import *
from .critical_values import *
from .errors import *
from .experiments import *
from .regionalize import *
from .sar import *
from .stats import *
from .weights import *

# Importing a submodule binds it in this namespace, so each is reachable here.
__all__ = [
    "__version__",
    *core.__all__,
    *critical_values.__all__,
    *errors.__all__,
    *experiments.__all__,
    *regionalize.__all__,
    *sar.__all__,
    *stats.__all__,
    *weights.__all__,
]

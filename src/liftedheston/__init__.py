"""Monte Carlo engine for the lifted Heston model.

Two simulation schemes over a shared parameter and state layer: a
large-step scheme that samples integrated variance from a constrained
linear projection onto its driver, and an Euler-Maruyama baseline.
Deterministic moment curves, VIX extraction and Black-76 utilities
round out the toolkit; the ``lifted-heston`` entry point drives the
experiment harness.  The package re-exports each layer's ``__all__``.
"""

from .clp import *
from .euler import *
from .numerics import *
from .params import *
from .pricing import *
from .sampling import *
from .state import *

__version__ = "0.1.0"

# importing a submodule binds its name here, so each layer's list is in reach
__all__ = [
    *clp.__all__, *euler.__all__, *numerics.__all__, *params.__all__,
    *pricing.__all__, *sampling.__all__, *state.__all__,
]

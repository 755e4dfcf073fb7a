"""Graph energy toolkit.

Builds the two regular graph families whose energy ratio E/e0 is driven
toward 0 (the ring of cliques) and toward 1 (Paley graphs), computes graph
energy with a from-scratch threshold-cyclic Jacobi eigensolver, evaluates
the Koolen-Moulton bound e0 = k + sqrt(k(n-1)(n-k)), and exposes the
edge-deletion inequality and both families' closed forms as checkable
operations. The package exports exactly its modules' `__all__` lists.
"""

from . import bounds, finitefield, graphcore, spectral
from .bounds import *
from .finitefield import *
from .graphcore import *
from .spectral import *

__version__ = "0.1.0"

__all__ = sorted(bounds.__all__ + finitefield.__all__ + graphcore.__all__ + spectral.__all__)

"""minflow: a desk-scale symbolic dynamics laboratory.

Substitution subshifts (Thue-Morse, Fibonacci, period-doubling), their
points and sliding block codes, proximal/asymptotic pair classification,
odometer factor maps (ℓ-adic for a substitution of constant length ℓ),
and semi-regularity experiments.
"""

from .words import REGISTRY, SubshiftSystem, Substitution, get_system

__version__ = "0.1.0"
# the kernels are pure Python; kept as a name for tools that record it
BACKEND = "pure"

__all__ = ["BACKEND", "REGISTRY", "SubshiftSystem", "Substitution",
           "get_system", "__version__"]

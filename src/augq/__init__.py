"""Exact augmentation-ideal quotients of commutative augmented rings.

Everything runs over the integers with exact arithmetic: Hermite and Smith
normal forms drive the lattice work, finite abelian groups carry the
quotient invariants, and a small stable of constructors (group rings,
Burnside rings, representation rings) supplies rings to experiment on.
Stabilization of the quotient sequence is only ever detected empirically;
no report claims certainty.

Each public name is declared once, in the ``__all__`` of the module that
defines it; the package exports the union of those lists.
"""

from . import abgroup, augring, constructors, intlinalg, stabilize
from .abgroup import *
from .augring import *
from .constructors import *
from .intlinalg import *
from .stabilize import *

__version__ = "0.1.0"

__all__ = []
__all__ += abgroup.__all__
__all__ += augring.__all__
__all__ += constructors.__all__
__all__ += intlinalg.__all__
__all__ += stabilize.__all__

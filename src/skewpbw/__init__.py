"""Exact computer algebra for skew PBW extensions.

Construct a presentation (twists, twisted derivations, and pairwise
commutation parameters over an exact coefficient ring), verify that it
defines an extension by overlap checking, and compute canonical normal
forms, products, and induced homomorphisms -- all in exact arithmetic.

The package itself holds only the quick-start names below; every other name
is imported from its own module (skewpbw.rings, skewpbw.reduction, ...).
"""

from . import catalog
from .algebra import Poly, star
from .presentation import check_all

__version__ = "0.1.0"

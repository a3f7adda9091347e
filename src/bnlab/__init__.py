"""Numerical laboratory for least-energy solutions of the critically
perturbed Lane-Emden problem on the unit ball, with quantitative checks of
the blow-up asymptotics, Green/Robin identities, bubble decomposition, and
the spectrum of the linearization.
"""

from .asymptotics import *
from .constants import *
from .decomposition import *
from .errors import *
from .linearization import *
from .solver import *

__all__ = (asymptotics.__all__ + constants.__all__ + decomposition.__all__
           + errors.__all__ + linearization.__all__ + solver.__all__)

__version__ = "0.1.0"

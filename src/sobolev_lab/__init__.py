"""Extremal Sobolev functions, sharp constants, and reverse Holder verification."""

from .core import *
from .radial import *
from .elliptic import *
from .rearrange import *
from . import formats
from .chiti import *
from . import chiti, core, elliptic, radial, rearrange

__version__ = "0.1.0"

__all__ = [*core.__all__, *radial.__all__, *elliptic.__all__, *rearrange.__all__,
           *chiti.__all__, "formats", "__version__"]

"""Matrix-free Newton-Krylov reconstruction for compressed sensing with
coherent and redundant dictionaries (l1-analysis and isotropic TV)."""

from .continuation import *
from .diagnostics import *
from .krylov import *
from .linops import *
from .precond import *
from .problems import *
from .smoothing import *
from .solver import *

__version__ = "0.1.0"

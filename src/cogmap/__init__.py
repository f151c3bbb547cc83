"""Mutual-influence analysis of cognitive maps (weighted signed digraphs).

The core result is the accumulated influence matrix: every ordered vertex
pair is scored by walking all simple paths between it with a damped,
scale-free accumulation, which stays finite on any map, unstable ones
included (unlike the impulse baseline), unless its weights come near the
float maximum, and scales proportionally when all weights are scaled.  Impulse
simulation with spectral stability verdicts and the weakest-link baseline
are included for comparison, along with file I/O, bundled example maps and
a command-line interface.
"""

from . import eigen, errors, fixtures, impulse, influence, kosko, maps, paths
from .eigen import *
from .errors import *
from .fixtures import *
from .impulse import *
from .influence import *
from .kosko import *
from .maps import *
from .paths import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *maps.__all__,
    *paths.__all__,
    *influence.__all__,
    *eigen.__all__,
    *impulse.__all__,
    *kosko.__all__,
    *fixtures.__all__,
    "__version__",
]

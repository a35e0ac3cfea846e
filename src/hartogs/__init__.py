"""Numerical Kaehler geometry of Hartogs domains.

Closed-form metric, curvature, pseudoconvexity and extremality evaluators
for domains ``|z_1|^2 + ... + |z_{n-1}|^2 < F(|z_0|^2)``, each paired with
an independent finite-difference or linear-algebra oracle.  The package
re-exports the ``__all__`` of each module below; its own ``__all__`` also
lists the modules.
"""

__version__ = "0.1.0"

from .errors import *
from .profiles import *
from .sampling import *
from .geometry import *
from .curvature import *
from .extremal import *
from .pseudoconvexity import *
from .classification import *

__all__ = [name for name in dir() if not name.startswith("_")]

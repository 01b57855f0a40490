"""Monte Carlo approximation of Piterbarg constants.

Piterbarg constants are expectations of penalized suprema of fractional
Brownian motion,

    E sup_{t in K} exp( sqrt(2) B_alpha(t) - (1 + d) |t|^alpha ),

with K the half-line or the whole line.  Exact values are known only for
the Brownian case alpha = 1; this package approximates the general case by
restricting the supremum to a grid delta * Z truncated to [-T, T], samples
the paths exactly through one of two row maps (iid increments at
alpha = 1, circulant embedding otherwise), and reports the discretization,
truncation, and statistical error components of the approximation.
"""

from . import fbm, estimator, budget, closed_form, rate_study
from .fbm import *
from .estimator import *
from .budget import *
from .closed_form import *
from .rate_study import *

__version__ = "0.1.0"

__all__ = [*fbm.__all__, *estimator.__all__, *budget.__all__, *closed_form.__all__,
           *rate_study.__all__, "__version__"]

"""leggettlab: exact and stochastic auditing of two-sided realist correlation bounds.

The toolkit evaluates the bound

    -1 + |a_bar + b_bar|  <=  ab_bar  <=  1 - |a_bar - b_bar|

for entangled two-photon polarization states, realizes finite
hidden-variable models that satisfy it by construction, simulates
measurement records, and scans state/analyzer parameter space for the
supremum of the bound's left-hand side — adjudicating whether a
first-order truncation's predicted violation survives exact evaluation
(it does not: the supremum is exactly 1).
"""

from . import domain, quantum, inequalities, hidden_variables, montecarlo, scan
from .domain import *
from .quantum import *
from .inequalities import *
from .hidden_variables import *
from .montecarlo import *
from .scan import *

__version__ = "1.0.0"

__all__ = ["__version__", *domain.__all__, *quantum.__all__, *inequalities.__all__,
           *hidden_variables.__all__, *montecarlo.__all__, *scan.__all__]

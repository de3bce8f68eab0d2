"""Frugal forward-backward operator splitting with deviation steps.

Solves monotone inclusions 0 in (sum_i F_i + sum_j B_j)(x) with one
resolvent call per F_i and one evaluation per cocoercive B_j per iteration,
while letting a policy inject norm-bounded deviations into every step
without losing convergence.
"""

from .deviations import *
from .exceptions import *
from .markowitz import *
from .operators import *
from .scheme import *
from .solver import *

__version__ = "0.1.0"

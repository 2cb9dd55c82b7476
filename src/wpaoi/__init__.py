"""Average age of information for a wireless-powered charge-and-transmit link.

A sensor harvests RF energy into a capacitor of size B and sends a status
update with full discharge each time the capacitor fills. This package
evaluates the closed-form average age of the delivered updates and checks
it against Monte Carlo simulation. It also sizes the capacitor to minimize
that age.
"""

from . import analytics, experiments, model, optimizer, simulator
from .analytics import *  # noqa: F403
from .experiments import *  # noqa: F403
from .model import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .simulator import *  # noqa: F403

__version__ = "0.1.0"

# The public API is the layers' own; the CLI is not imported.
__all__ = sorted(
    analytics.__all__ + experiments.__all__ + model.__all__ + optimizer.__all__ + simulator.__all__
)

"""Spatial eigenmodes and capacity of line-of-sight electromagnetic links.

The channel between two finite apertures is modeled with the plane-wave
(addition-theorem) expansion of the free-space Green's function, windowed to
its finite angular bandwidth; optimal transmit currents, receive combiners,
and water-filling capacity follow from the singular system of the channel
restricted to a Legendre basis of transmitter currents.
"""

from .capacity import *  # noqa: F403
from .channel import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import BudgetError, ConfigError
from .geometry import *  # noqa: F403
from .greens import *  # noqa: F403
from .modes import *  # noqa: F403
from .specfun import *  # noqa: F403

__version__ = "0.1.0"

"""Spatial eigenmodes and capacity of line-of-sight electromagnetic links.

The channel between two finite apertures is modeled with the plane-wave
(addition-theorem) expansion of the free-space Green's function, windowed to
its finite angular bandwidth; optimal transmit currents, receive combiners,
and water-filling capacity follow from the singular system of the channel
restricted to a Legendre basis of transmitter currents.
"""

from .capacity import (
    CapacityPoint,
    PowerAllocation,
    SpectrumFit,
    capacity_equal,
    capacity_vs_snr,
    capacity_waterfill,
    dof_geometric,
    spectrum_fit,
    waterfill,
)
from .channel import FREE_SPACE_IMPEDANCE, propagate_current
from .config import PRESETS, ExperimentConfig, load_config
from .errors import BudgetError, ConfigError
from .geometry import (
    Aperture,
    DirectionGrid,
    LinkGeometry,
    SurfaceGrid,
    cap_direction_grid,
    default_cap_densities,
    rect_aperture,
    tensor_grid,
    truncation_order,
)
from .greens import (
    expansion_error_sweep,
    sgf_exact,
    sgf_planewave,
    translator_series,
    translator_table,
    tukey_window,
)
from .modes import (
    ModeSet,
    ModesResult,
    basis_order_table,
    combiner_field,
    gram_currents,
    gram_fields,
    load_mode_set,
    mode_current_field,
    received_field,
    save_mode_set,
    solve_modes,
)
from .specfun import gauss_legendre_rule, legendre_sequence, spherical_hankel_paper

__version__ = "0.1.0"

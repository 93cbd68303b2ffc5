"""Spatial eigenmodes and capacity of line-of-sight electromagnetic links.

The channel between two finite apertures is modeled with the plane-wave
(addition-theorem) expansion of the free-space Green's function, windowed to
its finite angular bandwidth; optimal transmit currents, receive combiners,
and water-filling capacity follow from a Galerkin eigen-decomposition of the
power-transfer kernel.
"""

from .capacity import (
    CapacityCurve,
    CapacityPoint,
    PowerAllocation,
    SpectrumFit,
    capacity_equal,
    capacity_vs_snr,
    capacity_waterfill,
    dof_geometric,
    effective_dof,
    spectrum_fit,
    waterfill,
)
from .channel import (
    FREE_SPACE_IMPEDANCE,
    KernelMatrix,
    kernel_matrix,
    propagate_current,
    reference_field,
)
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
    TranslatorTable,
    expansion_error_sweep,
    sgf_exact,
    sgf_planewave,
    translator_series,
    translator_table,
    tukey_window,
)
from .modes import (
    BasisIndexTable,
    ModeSet,
    ModesResult,
    assemble_galerkin,
    basis_eval,
    basis_order_table,
    build_mode_set,
    combiner_field,
    gram_currents,
    gram_fields,
    hermitian_eig,
    load_mode_set,
    mode_current_field,
    received_field,
    save_mode_set,
    solve_modes,
)
from .specfun import (
    QuadratureRule,
    gauss_legendre_rule,
    legendre_sequence,
    spherical_bessel_j,
    spherical_hankel_paper,
    spherical_neumann_y,
)

__version__ = "0.1.0"

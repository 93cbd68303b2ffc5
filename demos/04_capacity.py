#!/usr/bin/env python3
"""Water-filling capacity of the aperture link across SNR.

Takes the eigen-spectrum from the reduced geometry, then compares the
water-filling optimum against the flat-plateau (equal power) estimate.  The
two agree in the mid-SNR band; at high SNR water-filling activates channels
beyond the geometric DoF count and pulls ahead.
"""

import numpy as np

from emlink import (
    LinkGeometry,
    capacity_vs_snr,
    dof_geometric,
    rect_aperture,
    solve_modes,
    spectrum_fit,
    truncation_order,
    waterfill,
)

k = 2 * np.pi
geo = LinkGeometry(
    rect_aperture((0, 0, 0), 4.0, 4.0),
    rect_aperture((0, 0, 10.2), 3.2, 3.2),
    k,
)
result = solve_modes(
    geo, theta_e=np.radians(60.0), L=truncation_order(k, 4.0), t=14, n_surface=144
)
betas = result.modes.normalized
n_geo = dof_geometric(geo.transmitter.area, geo.receiver.area, geo.distance)
n_plateau = max(1, int(np.floor(n_geo)))

fit = spectrum_fit(betas, n_plateau, tail_floor_rel=1e-6)
print(f"geometric DoF {n_geo:.2f} -> plateau count {n_plateau}")
print(f"spectrum fit: plateau avg {fit.plateau_avg:.3f}, "
      f"decay rate c = {fit.decay_rate:.3f} per mode, R^2 = {fit.r_squared:.3f}\n")

points = capacity_vs_snr(betas, 1.0, range(0, 31, 3), n_plateau)
print(f"{'SNR dB':>6} {'C_waterfill':>12} {'C_equal':>10} {'active':>7}")
for p in points:
    print(f"{p.snr_db:>6.0f} {p.c_waterfill_bits:>12.3f} {p.c_equal_bits:>10.3f} "
          f"{p.allocation.active_count:>7d}")

alloc = waterfill(betas, 1.0, 10 ** (-30 / 10))
print(f"\nat 30 dB the water level is {alloc.water_level:.4f} W over "
      f"{alloc.active_count} channels (geometric DoF was {n_geo:.1f}):")
print("  " + "  ".join(f"{p:.3f}" for p in alloc.powers[: alloc.active_count]))

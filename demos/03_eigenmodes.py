#!/usr/bin/env python3
"""Optimal transmit currents between two apertures.

Solving the power-transfer eigenproblem on a reduced geometry (4 x 3.2
wavelength apertures, 10.2 wavelengths apart) yields a staircase spectrum:
a handful of strongly coupled modes near the geometric degree-of-freedom
count, then exponential decay.  Mode currents are orthonormal on the
transmitter and their received fields are orthogonal on the receiver.
"""

import numpy as np

from emlink import (
    FREE_SPACE_IMPEDANCE,
    LinkGeometry,
    dof_geometric,
    gram_currents,
    gram_fields,
    rect_aperture,
    solve_modes,
    truncation_order,
)

k = 2 * np.pi
geo = LinkGeometry(
    rect_aperture((0, 0, 0), 4.0, 4.0),
    rect_aperture((0, 0, 10.2), 3.2, 3.2),
    k,
)
L = truncation_order(k, 4.0)
print(f"solving: 4.0 x 4.0 -> 3.2 x 3.2 apertures at 10.2 wavelengths, "
      f"theta_e = 60 deg, L = {L}, basis order 14")
result = solve_modes(geo, theta_e=np.radians(60.0), L=L, t=14, n_surface=144)
ms = result.modes

n_geo = dof_geometric(geo.transmitter.area, geo.receiver.area, geo.distance)
bn = ms.normalized
with np.errstate(divide="ignore"):
    db = 10 * np.log10(bn)
print(f"\ngeometric DoF estimate: {n_geo:.2f}")
print(f"modes above -3 dB:      {int(np.sum(db >= -3.0))}")
print("\nleading relative eigenvalues (dB):")
for i in range(0, 12, 4):
    print("  " + "  ".join(f"beta_{n + 1:<2d} {db[n]:>7.2f}" for n in range(i, i + 4)))

count = 12
gc = gram_currents(ms, count)
gf = gram_fields(result, count)
unit = ms.power_w / FREE_SPACE_IMPEDANCE
off_c = np.max(np.abs(gc - np.diag(np.diag(gc)))) / np.max(np.abs(np.diag(gc)))
off_f = np.max(np.abs(gf - np.diag(np.diag(gf)))) / np.max(np.abs(np.diag(gf)))
print(f"\ncurrent Gram: diagonal = P_t/eta = {unit:.4e}, "
      f"worst off-diagonal/diagonal = {off_c:.1e}")
print(f"field Gram:   diagonal tracks beta_n, worst leakage = {off_f:.1e}")
print("\nfirst three field powers vs eigenvalues (receiver integral):")
for n in range(3):
    print(f"  mode {n + 1}: {np.real(gf[n, n]):.4e}  vs  beta*P_t/eta = {ms.eigenvalues[n] * unit:.4e}")

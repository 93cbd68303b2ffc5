#!/usr/bin/env python3
"""Reconstructing the scalar Green's function from plane waves.

Between two separated apertures, e^{-jkR}/(4 pi R) equals an integral of
plane waves weighted by the translator.  Over the full sphere the identity is
exact to machine precision; restricting the integral to a cap around the link
axis trades accuracy for speed, and the Tukey window makes that trade sharp.
"""

import numpy as np

from emlink import (
    LinkGeometry,
    cap_direction_grid,
    default_cap_densities,
    expansion_error_sweep,
    rect_aperture,
    sgf_exact,
    sgf_planewave,
    translator_table,
    truncation_order,
)

k = 2 * np.pi
geo = LinkGeometry(
    rect_aperture((0, 0, 0), 10.0, 10.0),
    rect_aperture((0, 0, 20.0), 10.0, 10.0),
    k,
)
s = (-5.0, 1.0, 1.0)    # a point near the transmitter
r = (-3.5, 5.0, 20.0)   # a point on the receiver plane

L = truncation_order(k, 10.0)
grid = cap_direction_grid(geo.axis, np.pi, *default_cap_densities(L, np.pi))
alpha = translator_table(grid, k, geo.r_pq, L, windowed=False)  # one value per ring of the cap

exact = sgf_exact(r, s, k)
recon = sgf_planewave(r, s, geo, grid, alpha)
print(f"exact  G = {exact:.10e}")
print(f"plane  G = {recon:.10e}")
print(f"full-sphere relative error: {abs(recon - exact) / abs(exact):.2e}\n")

angles = np.radians(np.arange(10, 91, 10))
print("cap half-angle sweep, relative error |G_cap - G| / |G|:")
print(f"{'theta_e':>8} {'unwindowed':>12} {'windowed':>12}")
for t, eu, ew in expansion_error_sweep(geo, s, r, angles):
    print(f"{np.degrees(t):>6.0f}   {eu:>12.3e} {ew:>12.3e}")

print("\nwith the window, a 60-degree cap already reconstructs the propagator "
      "to a fraction of a percent -- the channel is angularly bandlimited")

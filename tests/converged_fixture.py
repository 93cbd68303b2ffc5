"""The headline numbers of each link's model, and the fixtures that pin them.

Regenerate fixtures, from the package in src/, with

    python tests/converged_fixture.py [NAME ...]

(every fixture when no NAME is given).  It solves each link's windowed model
(its preset's L, theta_e and window unchanged) and writes
tests/data/converged_<name>.json: beta_1..beta_40 / beta_1, the tail decay
rate c and the -3 dB count of the spectrum, and the water-filling capacity
at SNR_DB, with NODES[name] and the commit of the code that made it.  The
links are the paper and ci presets and `paper-x10`, the paper apertures
with the receiver centre moved to (10, 0, 25.5).

The solve takes no node count: its patterns are closed forms at both ends,
and NODES only sets the output grids.  The committed fixtures came from the
earlier surface-grid solve, on NODES[name] Gauss nodes per axis on both
apertures, where its spectrum had converged, at the commit each records.
Regenerate only when the model changes (not its discretization), and say
why in CHANGES.md.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
NODES = {"paper": 60, "ci": 40, "paper-x10": 60}  # Gauss nodes per axis of the grid route that made each fixture
RECEIVER_CENTERS = {"paper-x10": (10.0, 0.0, 25.5)}  # links off their preset's axis
SNR_DB = (0.0, 10.0, 20.0, 30.0)
COUNT = 40  # leading normalized eigenvalues kept


def headline(name: str) -> dict:
    """The headline numbers of link `name`, with NODES[name]^2 output points."""
    from emlink import PRESETS, LinkGeometry, capacity_vs_snr, rect_aperture, solve_modes, spectrum_fit
    from emlink.cli import _plateau_count

    cfg = replace(PRESETS[name.split("-")[0]], surface_points=NODES[name] ** 2)
    geometry = cfg.link_geometry()
    if name in RECEIVER_CENTERS:
        geometry = LinkGeometry(geometry.transmitter, rect_aperture(RECEIVER_CENTERS[name], cfg.rx_side_x,
                                                                    cfg.rx_side_y), geometry.k)
    modes = solve_modes(geometry, np.radians(cfg.theta_e_deg), cfg.truncation(), cfg.basis_order,
                        cfg.surface_points, cfg.windowed, cfg.power_w, cfg.modes_keep or None).modes
    betas = modes.normalized
    n_plateau = _plateau_count(modes)  # as the capacity command counts it
    return {
        "beta_rel": betas[:COUNT].tolist(),
        "decay_rate_c": spectrum_fit(betas, n_plateau, tail_floor_rel=cfg.fit_floor_rel).decay_rate,
        "count_3db": int(np.count_nonzero(betas >= 10 ** -0.3)),
        "snr_db": list(SNR_DB),
        "c_waterfill_bits": [point.c_waterfill_bits for point in capacity_vs_snr(betas, cfg.power_w, SNR_DB, n_plateau)],
    }


def _commit() -> str:
    """HEAD's hash, with "+dirty" when src/ differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    return git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain", "--", "src") else "")


def main(names: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    DATA.mkdir(exist_ok=True)
    commit = _commit()
    for name in names or NODES:
        doc = {"preset": name, "nodes_per_axis": NODES[name], "commit": commit, **headline(name)}
        path = DATA / f"converged_{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main(sys.argv[1:])

"""The headline numbers of each preset's model on converged grids, and the fixture that pins them.

Regenerate both fixtures, from the package in src/, with

    python tests/converged_fixture.py

It solves each preset's windowed model (its L, theta_e and window unchanged)
on a surface grid of NODES Gauss nodes per axis on both apertures, where the
spectrum has converged, and writes tests/data/converged_<preset>.json:
beta_1..beta_40 / beta_1, the tail decay rate c and the -3 dB count of the
spectrum, and the water-filling capacity at SNR_DB, with the node count and
the commit of the code that made it.  Regenerate only when the model changes
(not its discretization), and say why in CHANGES.md.
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
NODES = {"paper": 60, "ci": 40}  # Gauss nodes per axis on each aperture
SNR_DB = (0.0, 10.0, 20.0, 30.0)
COUNT = 40  # leading normalized eigenvalues kept


def headline(preset: str) -> dict:
    """The preset's headline numbers on NODES[preset]^2 surface points."""
    from emlink import PRESETS, capacity_vs_snr, spectrum_fit
    from emlink.cli import _plateau_count

    cfg = replace(PRESETS[preset], surface_points=NODES[preset] ** 2)
    modes = cfg.solve().modes
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


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    DATA.mkdir(exist_ok=True)
    commit = _commit()
    for preset in NODES:
        doc = {"preset": preset, "nodes_per_axis": NODES[preset], "commit": commit, **headline(preset)}
        path = DATA / f"converged_{preset}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()

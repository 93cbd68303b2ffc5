"""Independent checks of emlink's outputs, written against numpy alone.

Nothing here imports emlink: each check recomputes what the program claims
from the documented formats (docs/formats.md, docs/modeset.schema.json) with
numpy.polynomial.legendre quadrature, direct e^{-jkR}/(4 pi R) sums and
numpy.linalg.lstsq.  A failed check raises CheckError with a message.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre as npleg


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(-1, len(header))


# ---------------------------------------------------------------- geometry

def gauss_grid(center, side_x: float, side_y: float, n1: int):
    """Tensor Gauss-Legendre points (n1*n1, 3) and weights on a z-normal rectangle."""
    x, w = npleg.leggauss(n1)
    cx, cy, cz = (float(v) for v in center)
    X, Y = np.meshgrid(cx + 0.5 * side_x * x, cy + 0.5 * side_y * x, indexing="ij")
    points = np.stack([X.ravel(), Y.ravel(), np.full(n1 * n1, cz)], axis=1)
    weights = np.outer(0.5 * side_x * w, 0.5 * side_y * w).ravel()
    return points, weights


def legendre_basis(center, side_x: float, side_y: float, t: int, points) -> np.ndarray:
    """Orthonormal 2-D Legendre basis, total order j ascending then x-order m ascending."""
    u = 2.0 * (points[:, 0] - center[0]) / side_x
    v = 2.0 * (points[:, 1] - center[1]) / side_y
    Vu = npleg.legvander(u, t)
    Vv = npleg.legvander(v, t)
    cols = [
        np.sqrt((2 * m + 1) * (2 * (j - m) + 1) / (side_x * side_y)) * Vu[:, m] * Vv[:, j - m]
        for j in range(t + 1)
        for m in range(j + 1)
    ]
    return np.column_stack(cols)


def green_matrix(field_points, source_points, k: float) -> np.ndarray:
    """Direct scalar Green's function e^{-jkR}/(4 pi R) between two point sets."""
    R = np.linalg.norm(field_points[:, None, :] - source_points[None, :, :], axis=2)
    return np.exp(-1j * k * R) / (4.0 * np.pi * R)


# ---------------------------------------------------------------- mode sets

class ModeDoc:
    """A parsed modeset.json document."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.k = float(doc["wavenumber"])
        self.tx = doc["transmitter"]
        self.rx = doc["receiver"]
        self.t = int(doc["basis_order"])
        self.n1 = int(np.ceil(np.sqrt(int(doc["surface_points"]))))
        self.eta = float(doc["impedance_ohm"])
        self.power = float(doc["power_w"])
        self.scale = float(doc["normalization_scale"])
        self.eigenvalues = np.asarray(doc["eigenvalues"], dtype=float)
        shape = (doc["coefficients"]["modes"], doc["coefficients"]["basis"])
        flat = np.asarray(doc["coefficients"]["re_im"], dtype=float)
        self.coefficients = (flat[0::2] + 1j * flat[1::2]).reshape(shape)

    @classmethod
    def load(cls, path: Path) -> "ModeDoc":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    @property
    def normalized(self) -> np.ndarray:
        return self.eigenvalues / self.eigenvalues[0]

    def currents(self, points, count: int) -> np.ndarray:
        """Mode currents phi_n (columns) rebuilt from the stored coefficients."""
        E = legendre_basis(self.tx["center"], self.tx["side_x"], self.tx["side_y"], self.t, points)
        return self.scale * (E @ self.coefficients[:count].T)


def geometric_dof(doc: ModeDoc) -> float:
    area_t = doc.tx["side_x"] * doc.tx["side_y"]
    area_r = doc.rx["side_x"] * doc.rx["side_y"]
    d = float(np.linalg.norm(np.subtract(doc.rx["center"], doc.tx["center"])))
    wavelength = 2.0 * np.pi / doc.k
    return area_t * area_r / (wavelength * d) ** 2


def tail_fit(betas, n_plateau: int, floor_rel: float) -> tuple[float, float]:
    """Decay rate c and log-domain R^2 of the plateau + exponential-tail model."""
    bn = np.asarray(betas, dtype=float) / betas[0]
    n = np.arange(1, len(bn) + 1)
    mask = (n > n_plateau) & (bn > floor_rel)
    x = (n[mask] - (n_plateau + 1)).astype(float)
    (slope, intercept), *_ = np.linalg.lstsq(np.stack([x, np.ones_like(x)], 1), np.log10(bn[mask]), rcond=None)
    model = np.where(n <= n_plateau, np.log10(np.mean(bn[:n_plateau])), intercept + slope * (n - n_plateau - 1))
    keep = bn > floor_rel
    y = np.log10(bn[keep])
    r2 = 1.0 - np.sum((y - model[keep]) ** 2) / np.sum((y - y.mean()) ** 2)
    return -float(slope), float(r2)


def plateau_count(doc: ModeDoc) -> int:
    return min(max(1, int(np.floor(geometric_dof(doc)))), len(doc.eigenvalues))


def fingerprint(doc: ModeDoc, floor_rel: float = 1e-6) -> dict:
    """Reference fingerprint: normalized beta_1..beta_40, decay rate c and R^2."""
    c, r2 = tail_fit(doc.eigenvalues, plateau_count(doc), floor_rel)
    return {"beta_norm_1_40": [float(v) for v in doc.normalized[:40]], "c": c, "r_squared": r2}


def check_mode_set(doc: ModeDoc, distance: float, src_green: np.ndarray, src_grid, rcv_grid) -> int:
    """Spectrum, plateau count, received power and current orthogonality of one mode set.

    src_green is the direct Green's matrix from the transmitter grid to the
    receiver grid for this distance.  Returns the -3 dB plateau count.
    """
    require(abs(doc.rx["center"][2] - distance) < 1e-9, "mode set echoes the wrong link distance")
    ev = doc.eigenvalues
    require(np.all(np.isfinite(ev)), "eigenvalues are not all finite")
    require(np.all(np.diff(ev) <= 0), "eigenvalues are not descending")
    require(ev[0] > 0, "leading eigenvalue is not positive")
    bn = doc.normalized
    plateau = int(np.sum(bn >= 10.0 ** -0.3))
    dof = geometric_dof(doc)
    require(abs(plateau - dof) <= 3, f"{plateau} modes at or above -3 dB, geometric DoF {dof:.2f}")

    ps, ws = src_grid
    _, wr = rcv_grid
    phi = doc.currents(ps, plateau)
    psi = -1j * doc.k * doc.eta * (src_green @ (ws[:, None] * phi))
    received = np.sum(wr[:, None] * np.abs(psi) ** 2, axis=0)
    err = rel_err(received, ev[:plateau] * doc.power / doc.eta)
    require(err <= 0.05, f"received power of a plateau mode is off by {err:.3%}")

    count = min(40, len(ev))
    pg, wg = gauss_grid(doc.tx["center"], doc.tx["side_x"], doc.tx["side_y"], doc.t + 1)
    cur = doc.currents(pg, count)
    gram = np.abs((cur.T * wg) @ np.conj(cur))
    diag = np.diag(gram)
    off = gram / np.sqrt(np.outer(diag, diag)) - np.eye(count)
    require(np.max(off) <= 1e-3, f"current Gram leakage {np.max(off):.2e} exceeds 1e-3")
    return plateau


def check_gram_csv(path: Path, power: float, eta: float) -> None:
    _, rows = read_csv(path)
    count = int(rows[:, 0].max())
    gram = np.zeros((count, count))
    gram[rows[:, 0].astype(int) - 1, rows[:, 1].astype(int) - 1] = rows[:, 2]
    diag = np.diag(gram)
    require(rel_err(diag, np.full(count, power / eta)) <= 1e-6, "written current Gram diagonal is not P_t/eta")
    require(np.max(gram - np.diag(diag)) <= 1e-3 * diag.min(), "written current Gram off-diagonals exceed 1e-3")


# ---------------------------------------------------------------- capacity

def check_capacity(out: Path, betas: np.ndarray, snrs, power: float, n_plateau: int, floor_rel: float) -> None:
    """capacity_curve.csv, allocation.csv and spectrum_fit.json against a recomputation."""
    _, curve = read_csv(out / "capacity_curve.csv")
    _, alloc = read_csv(out / "allocation.csv")
    fit = json.loads((out / "spectrum_fit.json").read_text(encoding="utf-8"))
    require(len(curve) == len(snrs), "capacity curve has the wrong number of SNR points")
    require(rel_err(curve[:, 0] + 1.0, np.asarray(snrs) + 1.0) <= 1e-11, "SNR column differs from the input")
    require(len(alloc) == int(curve[:, 4].sum()), "allocation rows disagree with the active counts")
    beta_avg = float(np.mean(betas[:n_plateau]))
    first = 0
    for snr, sigma2, c_wf, c_eq, active in curve:
        require(rel_err(sigma2, power * 10.0 ** (-snr / 10.0)) <= 1e-9, f"sigma2 wrong at {snr} dB")
        rows = alloc[first:first + int(active)]
        first += int(active)
        require(np.all(rows[:, 0] == snr), f"allocation rows out of order at {snr} dB")
        idx = rows[:, 1].astype(int) - 1
        require(np.array_equal(idx, np.arange(len(idx))), f"active set is not the strongest channels at {snr} dB")
        p = rows[:, 2]
        require(np.all(p > 0), f"non-positive allocated power at {snr} dB")
        require(abs(p.sum() - power) <= 1e-9 * power, f"powers do not sum to P_t at {snr} dB")
        level = p + sigma2 / betas[idx]
        require(np.ptp(level) <= 1e-9 * level.mean(), f"active powers break the water level at {snr} dB")
        inactive = betas[len(idx):]
        inactive = inactive[inactive > 0]
        require(np.all(sigma2 / inactive >= level.mean() * (1 - 1e-9)), f"an inactive channel is under water at {snr} dB")
        c_ref = float(np.sum(np.log2(1.0 + betas[idx] * p / sigma2)))
        require(abs(c_wf - c_ref) <= 1e-9 * max(1.0, c_ref), f"c_waterfill_bits {c_wf} != {c_ref} at {snr} dB")
        c_eq_ref = n_plateau * np.log2(1.0 + beta_avg * power / (n_plateau * sigma2))
        require(abs(c_eq - c_eq_ref) <= 1e-9 * max(1.0, c_eq_ref), f"c_equal_bits wrong at {snr} dB")
    c, r2 = tail_fit(betas, n_plateau, floor_rel)
    require(abs(fit["decay_rate_c"] - c) <= 1e-9 * abs(c), f"decay rate {fit['decay_rate_c']} != refit {c}")
    require(abs(fit["r_squared"] - r2) <= 1e-9, f"R^2 {fit['r_squared']} != refit {r2}")
    require(fit["n_plateau"] == n_plateau, "plateau count differs from floor(geometric DoF)")


def check_translator(path: Path) -> None:
    _, rows = read_csv(path)
    theta, unw, win = rows.T
    require(len(theta) == 721 and theta[0] == 0.0 and theta[-1] == 180.0, "translator angles are not 0:180:0.25")
    for name, col in (("unwindowed", unw), ("windowed", win)):
        require(abs(col.max() - 1.0) <= 1e-12, f"{name} translator column does not peak at 1")
    wide = theta >= 90.0
    require(win[wide].max() <= 1e-2 * unw[wide].max(), "windowed wide-angle lobe is not well below the unwindowed one")


def check_sgf_error(path: Path, angles) -> None:
    _, rows = read_csv(path)
    require(np.array_equal(rows[:, 0], np.asarray(angles, dtype=float)), "sweep angles differ from the preset")
    err = rows[:, 2]
    require(np.all(np.isfinite(rows[:, 1:])), "reconstruction errors are not finite")
    head = err[rows[:, 0] <= 20.0].min()
    tail = err[rows[:, 0] >= 50.0].max()
    require(tail < 0.1 * head, f"windowed error does not fall with cap angle ({head:.2e} -> {tail:.2e})")
    require(err[-1] <= 1e-3, f"windowed error at {rows[-1, 0]:g} deg is {err[-1]:.2e}")

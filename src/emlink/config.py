"""Experiment configuration: flat key = value files, presets, validation.

The file format is one `key = value` pair per line with `#` comments.  Values
are numbers, booleans (true/false), comma lists, or `start:stop:step` ranges
where a list of numbers is expected.  Unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import LinkGeometry, rect_aperture, truncation_order
from .modes import ModesResult, solve_modes

__all__ = ["ExperimentConfig", "PRESETS", "load_config"]


def _parse_number_list(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(round(v)) for v in _parse_number_list(text))


def _parse_vector(text: str) -> tuple[float, float, float]:
    vals = tuple(float(p) for p in text.split(","))
    if len(vals) != 3:
        raise ValueError("vector values need exactly three components")
    return vals


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; lengths in wavelengths (lambda = 1)."""

    preset: str = "paper"
    wavelength: float = 1.0
    tx_side_x: float = 10.0
    tx_side_y: float = 10.0
    rx_side_x: float = 8.0
    rx_side_y: float = 8.0
    distance: float = 25.5
    theta_e_deg: float = 60.0
    l_override: int = 0            # 0 means: use the truncation rule
    windowed: bool = True
    basis_order: int = 36
    surface_points: int = 512
    n_theta: int = 0               # 0 means: automatic density
    n_phi: int = 0
    power_w: float = 1.0
    snr_db: tuple[float, ...] = tuple(float(v) for v in range(31))
    mode_map_indices: tuple[int, ...] = (1, 3, 5)
    sweep_theta_deg: tuple[float, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90)
    check_aperture: float = 10.0
    check_distance: float = 20.0
    check_src: tuple[float, float, float] = (-5.0, 1.0, 1.0)
    check_field: tuple[float, float, float] = (-3.5, 5.0, 20.0)
    modes_keep: int = 120          # 0 means: keep every mode
    fit_floor_rel: float = 1e-6
    entry_budget: int = 10**7

    @property
    def k(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def link_geometry(self) -> LinkGeometry:
        tx = rect_aperture((0.0, 0.0, 0.0), self.tx_side_x, self.tx_side_y)
        rx = rect_aperture((0.0, 0.0, self.distance), self.rx_side_x, self.rx_side_y)
        return LinkGeometry(tx, rx, self.k)

    def check_geometry(self) -> LinkGeometry:
        side = self.check_aperture
        tx = rect_aperture((0.0, 0.0, 0.0), side, side)
        rx = rect_aperture((0.0, 0.0, self.check_distance), side, side)
        return LinkGeometry(tx, rx, self.k)

    def truncation(self) -> int:
        if self.l_override > 0:
            return self.l_override
        D = max(self.tx_side_x, self.tx_side_y, self.rx_side_x, self.rx_side_y)
        return truncation_order(self.k, D)

    def solve(self) -> ModesResult:
        """Run the eigenmode pipeline on the main link with this configuration."""
        return solve_modes(
            self.link_geometry(),
            theta_e=np.radians(self.theta_e_deg),
            L=self.truncation(),
            t=self.basis_order,
            n_surface=self.surface_points,
            windowed=self.windowed,
            n_theta=self.n_theta or None,
            n_phi=self.n_phi or None,
            power_w=self.power_w,
            keep=self.modes_keep or None,
            entry_budget=self.entry_budget,
        )

    def validate(self) -> "ExperimentConfig":
        if self.wavelength != 1.0:
            raise ConfigError("wavelength is fixed at 1.0 (all lengths in wavelengths)")
        for name in ("tx_side_x", "tx_side_y", "rx_side_x", "rx_side_y",
                     "distance", "power_w", "check_aperture", "check_distance"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.theta_e_deg <= 180.0:
            raise ConfigError("theta_e_deg must lie in (0, 180]")
        if self.basis_order < 0:
            raise ConfigError("basis_order must be non-negative")
        if self.surface_points < 1:
            raise ConfigError("surface_points must be >= 1")
        if min(self.n_theta, self.n_phi, self.l_override, self.modes_keep) < 0:
            raise ConfigError("counts must be non-negative")
        if not self.snr_db:
            raise ConfigError("snr_db must list at least one value")
        if not self.sweep_theta_deg:
            raise ConfigError("sweep_theta_deg must list at least one angle")
        if any(not 0 < a <= 180 for a in self.sweep_theta_deg):
            raise ConfigError("sweep angles must lie in (0, 180] degrees")
        if not 0 < self.fit_floor_rel < 1:
            raise ConfigError("fit_floor_rel must lie in (0, 1)")
        if self.entry_budget < 1:
            raise ConfigError("entry_budget must be positive")
        try:
            self.link_geometry()
            self.check_geometry()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self


_PARSERS = {
    "preset": str,
    "wavelength": float,
    "tx_side_x": float,
    "tx_side_y": float,
    "rx_side_x": float,
    "rx_side_y": float,
    "distance": float,
    "theta_e_deg": float,
    "l_override": int,
    "windowed": _parse_bool,
    "basis_order": int,
    "surface_points": int,
    "n_theta": int,
    "n_phi": int,
    "power_w": float,
    "snr_db": _parse_number_list,
    "mode_map_indices": _parse_int_list,
    "sweep_theta_deg": _parse_number_list,
    "check_aperture": float,
    "check_distance": float,
    "check_src": _parse_vector,
    "check_field": _parse_vector,
    "modes_keep": int,
    "fit_floor_rel": float,
    "entry_budget": int,
}

assert set(_PARSERS) == {f.name for f in fields(ExperimentConfig)}

PRESETS: dict[str, ExperimentConfig] = {
    "paper": ExperimentConfig(preset="paper", l_override=93),
    "ci": ExperimentConfig(
        preset="ci",
        tx_side_x=4.0,
        tx_side_y=4.0,
        rx_side_x=3.2,
        rx_side_y=3.2,
        distance=10.2,
        basis_order=14,
        surface_points=144,
        snr_db=tuple(float(v) for v in range(0, 31, 5)),
        check_aperture=4.0,
        check_distance=8.0,
        check_src=(-2.0, 0.4, 0.4),
        check_field=(-1.4, 2.0, 8.0),
        modes_keep=0,
    ),
}


def _apply_pairs(cfg: ExperimentConfig, pairs, origin: str) -> ExperimentConfig:
    updates = {}
    for lineno, key, value in pairs:
        where = f"{origin}:{lineno}" if lineno else origin
        if key == "preset":
            raise ConfigError(f"{where}: preset can only be chosen up front")
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            updates[key] = parser(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    return replace(cfg, **updates)


def _read_pairs(path: Path):
    pairs = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.append((lineno, key, value))
    return pairs


def load_config(
    preset: str | None = None,
    path: str | Path | None = None,
    overrides: list[str] | None = None,
) -> ExperimentConfig:
    """Resolve a configuration from preset, optional file, and key=value overrides."""
    name = preset or "paper"
    base = PRESETS.get(name)
    if base is None:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = base
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        cfg = _apply_pairs(cfg, _read_pairs(p), str(p))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        cfg = _apply_pairs(cfg, [(0, key, value)], "--set")
    return cfg.validate()

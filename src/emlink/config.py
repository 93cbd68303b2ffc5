"""Experiment configuration: flat key = value files, presets, validation.

The file format is one `key = value` pair per line with `#` comments.  Values
are numbers, booleans (true/false), comma lists, or `start:stop:step` ranges
where a list of numbers is expected.  Unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .capacity import _noise_power
from .errors import ConfigError
from .geometry import LinkGeometry, rect_aperture, truncation_order
from .modes import DEFAULT_ENTRY_BUDGET, ModesResult, _check_series, solve_modes
from .specfun import spherical_hankel_paper

__all__ = ["ExperimentConfig", "PRESETS", "load_config"]

_MAX_RANGE_COUNT = 10_000  # values one start:stop:step range may expand to


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
        if count > _MAX_RANGE_COUNT:
            raise ValueError(f"range holds {count} values, more than {_MAX_RANGE_COUNT}")
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    values = _parse_number_list(text)
    if any(v != int(v) for v in values):
        raise ValueError("list entries must be integers")
    return tuple(int(v) for v in values)


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

    tx_side_x: float = 10.0
    tx_side_y: float = 10.0
    rx_side_x: float = 8.0
    rx_side_y: float = 8.0
    distance: float = 25.5
    theta_e_deg: float = 60.0
    l_override: int = 0            # 0 means: the truncation rule on rho_max
    windowed: bool = True
    basis_order: int = 36
    surface_points: int = 512
    power_w: float = 1.0
    snr_db: tuple[float, ...] = tuple(float(v) for v in range(31))
    mode_map_indices: tuple[int, ...] = (1, 3, 5)
    sweep_theta_deg: tuple[float, ...] = tuple(float(v) for v in range(10, 91, 10))
    check_aperture: float = 10.0
    check_distance: float = 20.0
    check_src: tuple[float, float, float] = (-5.0, 1.0, 1.0)
    check_field: tuple[float, float, float] = (-3.5, 5.0, 20.0)
    modes_keep: int = 120          # 0 means: keep every mode
    fit_floor_rel: float = 1e-6
    entry_budget: int = DEFAULT_ENTRY_BUDGET

    @property
    def k(self) -> float:
        return 2.0 * np.pi

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
        """l_override, or the truncation rule on the main link's rho_max (`LinkGeometry.rho_max`)."""
        if self.l_override > 0:
            return self.l_override
        return truncation_order(self.k, self.link_geometry().rho_max)

    def solve(self) -> ModesResult:
        """Run the eigenmode pipeline on the main link with this configuration."""
        return solve_modes(
            self.link_geometry(),
            theta_e=np.radians(self.theta_e_deg),
            L=self.truncation(),
            t=self.basis_order,
            n_surface=self.surface_points,
            windowed=self.windowed,
            power_w=self.power_w,
            keep=self.modes_keep or None,
            entry_budget=self.entry_budget,
        )

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name} must be finite")
        for name in ("tx_side_x", "tx_side_y", "rx_side_x", "rx_side_y",
                     "distance", "power_w", "check_aperture", "check_distance"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.theta_e_deg <= 180.0:
            raise ConfigError("theta_e_deg must lie in (0, 180]")
        if self.basis_order < 0:
            raise ConfigError("basis_order must be non-negative")
        n1 = int(np.ceil(np.sqrt(max(self.surface_points, 0))))
        if n1 < 2:
            raise ConfigError("surface_points must give at least 2 grid nodes per axis (>= 2)")
        if min(self.l_override, self.modes_keep) < 0:
            raise ConfigError("counts must be non-negative")
        basis_size = (self.basis_order + 1) * (self.basis_order + 2) // 2
        n_modes = min(self.modes_keep, basis_size) if self.modes_keep else basis_size
        for i, index in enumerate(self.mode_map_indices):
            if index in self.mode_map_indices[:i]:
                raise ConfigError(f"mode_map_indices entry {index} is repeated; each mode's maps are written once")
            if not 1 <= index <= n_modes:
                raise ConfigError(f"mode_map_indices entry {index} is outside [1, {n_modes}], the modes kept")
        if not self.snr_db:
            raise ConfigError("snr_db must list at least one value")
        for snr in self.snr_db:
            if not 0.0 < _noise_power(self.power_w, snr) < math.inf:
                raise ConfigError(f"snr_db entry {snr:g} puts power_w * 10^(-snr/10) out of the float range")
        if not self.sweep_theta_deg:
            raise ConfigError("sweep_theta_deg must list at least one angle")
        if any(not 0 < a <= 180 for a in self.sweep_theta_deg):
            raise ConfigError("sweep angles must lie in (0, 180] degrees")
        if not 0 < self.fit_floor_rel < 1:
            raise ConfigError("fit_floor_rel must lie in (0, 1)")
        if self.entry_budget < 1:
            raise ConfigError("entry_budget must be positive")
        try:
            _check_series(self.link_geometry(), np.radians(self.theta_e_deg), self.truncation())
            self.check_geometry()
            spherical_hankel_paper(self.truncation(), self.k * self.distance)  # the translator's Hankel orders
        except (ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc
        return self


# one parser per field annotation (the annotations are strings here)
_TYPE_PARSERS = {
    "float": float,
    "int": int,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_number_list,
    "tuple[int, ...]": _parse_int_list,
    "tuple[float, float, float]": _parse_vector,
}

_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ExperimentConfig)}

PRESETS: dict[str, ExperimentConfig] = {
    "paper": ExperimentConfig(),
    "ci": ExperimentConfig(
        tx_side_x=4.0,
        tx_side_y=4.0,
        rx_side_x=3.2,
        rx_side_y=3.2,
        distance=10.2,
        l_override=34,  # the rule on rho_max gives 42
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
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            updates[key] = parser(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    return replace(cfg, **updates)


def _read_pairs(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"invalid config file {path}: {exc}") from exc
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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

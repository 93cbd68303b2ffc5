"""Command-line surface: the four reproduction commands and CSV/JSON emission.

Commands
--------
translator   normalized |alpha(theta)| profile, windowed and unwindowed
sgf-error    plane-wave reconstruction error versus cap half-angle
modes        full eigenmode pipeline: mode-set JSON, eigenvalue CSV, Gram
             matrices, per-mode magnitude/phase maps
capacity     water-filling / flat-plateau capacity curve from a mode-set file

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error.
All files are deterministic for a fixed configuration: one CSV writer takes
columns and gives each one format from its dtype (integers %d, the rest
%.12e), fixed ordering, no timestamps.  A command writes into a temporary
directory beside --out and moves its files into --out only when it succeeds,
so a failed run leaves --out as it was.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import capacity as cap
from . import greens, modes
from .config import ExperimentConfig, load_config
from .errors import BudgetError, ConfigError
from .geometry import truncation_order
from .specfun import legendre_sequence

_FMT = "%.12e"


def _write_csv(path: Path, header: str, *columns) -> Path:
    """One row per index of the equal-length columns: integer columns as %d, every other one as _FMT."""
    columns = [np.asarray(column) for column in columns]
    row = ",".join("%d" if column.dtype.kind in "iu" else _FMT for column in columns)
    lines = [header, *(row % cells for cells in zip(*(column.tolist() for column in columns), strict=True))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def cmd_translator(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    theta = np.arange(0.0, 180.0 + 1e-9, 0.25)
    L = truncation_order(cfg.k, cfg.check_aperture)
    legendre = legendre_sequence(L, np.cos(np.radians(theta)))
    # |alpha| over the angle to the link axis for both windows, each normalized to its own peak
    mag = np.abs([row @ legendre for row in greens._window_rows(L, cfg.k * cfg.check_distance)])
    header = "theta_deg,alpha_abs_norm_unwindowed,alpha_abs_norm_windowed"
    return [_write_csv(out_dir / "translator.csv", header, theta, *(mag / mag.max(axis=1, keepdims=True)))]


def cmd_sgf_error(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    angles = np.asarray(cfg.sweep_theta_deg, dtype=float)
    sweep = greens.expansion_error_sweep(cfg.check_geometry(), cfg.check_src, cfg.check_field, np.radians(angles))
    header = "theta_e_deg,rel_error_unwindowed,rel_error_windowed"
    return [_write_csv(out_dir / "sgf_error.csv", header, angles, *np.array(sweep)[:, 1:].T)]


def cmd_modes(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    result = cfg.solve()
    ms = result.modes
    json_path = out_dir / "modeset.json"
    modes.save_mode_set(ms, json_path)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(ms.normalized)
    written = [
        json_path,
        _write_csv(out_dir / "eigenvalues.csv", "mode_index,beta_raw,beta_rel_db",
                   np.arange(1, len(ms) + 1), ms.eigenvalues, db),
    ]

    count = min(40, len(ms))
    row, col = divmod(np.arange(count * count), count)
    for name, gram in (("gram_currents.csv", modes.gram_currents(ms, count)),
                       ("gram_fields.csv", modes.gram_fields(result, count))):
        # hypot of the parts is abs() of each complex entry, bit for bit
        magnitude = np.hypot(gram.real, gram.imag).ravel()
        written.append(_write_csv(out_dir / name, "row_mode,col_mode,magnitude_sys", row + 1, col + 1, magnitude))

    header = "x_lambda,y_lambda,magnitude_sys,phase_rad"
    for index in cfg.mode_map_indices:
        for kind, values, grid in (("current", modes.mode_current_field(ms, index - 1), ms.src_grid),
                                   ("field", modes.received_field(result, index - 1), ms.rcv_grid)):
            path = out_dir / f"mode_{kind}_{index:02d}.csv"
            written.append(_write_csv(path, header, *grid.points[:, :2].T, np.abs(values), np.angle(values)))
    return written


def _plateau_count(ms: modes.ModeSet) -> int:
    geom = ms.geometry
    n_geo = cap.dof_geometric(geom.transmitter.area, geom.receiver.area, geom.distance)
    return min(max(1, int(np.floor(n_geo))), len(ms.eigenvalues))


def cmd_capacity(cfg: ExperimentConfig, out_dir: Path, modes_file: Path) -> list[Path]:
    if not modes_file.is_file():
        raise ConfigError(f"mode-set file not found: {modes_file}")
    try:
        ms = modes.load_mode_set(modes_file)
    except ValueError as exc:  # JSON and Unicode decode errors are ValueErrors too
        raise ConfigError(f"invalid mode-set file {modes_file}: {exc}") from exc
    betas = ms.normalized
    n_plateau = _plateau_count(ms)
    curve = cap.capacity_vs_snr(betas, cfg.power_w, cfg.snr_db, n_plateau)
    columns = ("snr_db", "sigma2_w", "c_waterfill_bits", "c_equal_bits")
    active = [p.allocation.active_count for p in curve]
    written = [
        _write_csv(out_dir / "capacity_curve.csv", ",".join((*columns, "active_channels")),
                   *([getattr(p, name) for p in curve] for name in columns), active),
        _write_csv(out_dir / "allocation.csv", "snr_db,channel_index,power_w",
                   np.repeat([p.snr_db for p in curve], active),
                   np.concatenate([np.arange(1, n + 1) for n in active]),
                   np.concatenate([p.allocation.powers[:n] for p, n in zip(curve, active)])),
    ]
    fit = cap.spectrum_fit(betas, n_plateau, tail_floor_rel=cfg.fit_floor_rel)
    fit_doc = {
        "plateau_avg": fit.plateau_avg,
        "decay_rate_c": fit.decay_rate,
        "r_squared": fit.r_squared,
        "n_plateau": fit.n_plateau,
        "n_tail_points": fit.n_tail_points,
        "tail_floor_rel": cfg.fit_floor_rel,
    }
    fit_path = out_dir / "spectrum_fit.json"
    fit_path.write_text(json.dumps(fit_doc, sort_keys=True), encoding="utf-8")
    written.append(fit_path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emlink",
        description="Eigenmodes and capacity of line-of-sight aperture links",
    )
    parser.add_argument("--preset", choices=["paper", "ci"], default="paper")
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    parser.add_argument("--out", default="out", metavar="DIR", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("translator", help="emit the translator magnitude profile")
    sub.add_parser("sgf-error", help="emit the reconstruction error sweep")
    sub.add_parser("modes", help="solve the eigenmode pipeline and emit results")
    p_cap = sub.add_parser("capacity", help="emit capacity curves from a mode set")
    p_cap.add_argument(
        "--modes-file",
        metavar="PATH",
        help="mode-set JSON (default: <out>/modeset.json)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    staging = None
    try:
        cfg = load_config(args.preset, args.config, args.overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.resolve().name}.", dir=out_dir.resolve().parent))
        # built per call, so each entry runs the module's current cmd_* binding
        commands = {
            "translator": lambda: cmd_translator(cfg, staging),
            "sgf-error": lambda: cmd_sgf_error(cfg, staging),
            "modes": lambda: cmd_modes(cfg, staging),
            "capacity": lambda: cmd_capacity(cfg, staging, Path(args.modes_file or out_dir / "modeset.json")),
        }
        written = commands[args.command]()
        for path in written:
            os.replace(path, out_dir / path.name)
        written = [out_dir / path.name for path in written]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(
            f"runtime error: {exc}\nhint: the ci preset fits comfortably (--preset ci)",
            file=sys.stderr,
        )
        return 2
    except Exception as exc:  # numerical/runtime problems map to exit code 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

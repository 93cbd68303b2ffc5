"""Command-line surface: the four reproduction commands and CSV/JSON emission.

Commands
--------
translator   normalized |alpha(theta)| profile, windowed and unwindowed
sgf-error    plane-wave reconstruction error versus cap half-angle
modes        full eigenmode pipeline: mode-set JSON, eigenvalue CSV, Gram
             matrices, per-mode magnitude/phase maps
capacity     water-filling / flat-plateau capacity curve from a mode-set file

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error.
All files are deterministic for a fixed configuration: fixed float format,
fixed ordering, no timestamps.  A command writes into a temporary directory
beside --out and moves its files into --out only when it succeeds, so a
failed run leaves --out as it was.
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

_FMT = "%.12e"


def _write_csv(path: Path, header: str, rows) -> Path:
    lines = [header]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            else:
                cells.append(_FMT % float(value))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _translator_profile(cfg: ExperimentConfig, theta_deg: np.ndarray, windowed: bool) -> np.ndarray:
    """|alpha| over the angle to the link axis, normalized to its own peak."""
    L = truncation_order(cfg.k, cfg.check_aperture)
    cos_theta = np.cos(np.radians(theta_deg))
    mag = np.abs(greens.translator_series(L, cfg.k * cfg.check_distance, cos_theta, windowed))
    return mag / mag.max()


def cmd_translator(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    theta = np.arange(0.0, 180.0 + 1e-9, 0.25)
    unw = _translator_profile(cfg, theta, windowed=False)
    win = _translator_profile(cfg, theta, windowed=True)
    path = _write_csv(
        out_dir / "translator.csv",
        "theta_deg,alpha_abs_norm_unwindowed,alpha_abs_norm_windowed",
        zip(theta, unw, win),
    )
    return [path]


def cmd_sgf_error(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    geometry = cfg.check_geometry()
    sweeps = {}
    for windowed in (False, True):
        sweeps[windowed] = greens.expansion_error_sweep(
            geometry,
            cfg.check_src,
            cfg.check_field,
            [np.radians(a) for a in cfg.sweep_theta_deg],
            windowed=windowed,
        )
    rows = [
        (ang, sweeps[False][i][1], sweeps[True][i][1])
        for i, ang in enumerate(cfg.sweep_theta_deg)
    ]
    path = _write_csv(
        out_dir / "sgf_error.csv",
        "theta_e_deg,rel_error_unwindowed,rel_error_windowed",
        rows,
    )
    return [path]


def cmd_modes(cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    result = cfg.solve()
    ms = result.modes
    written = []

    json_path = out_dir / "modeset.json"
    modes.save_mode_set(ms, json_path)
    written.append(json_path)

    bn = ms.normalized
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(bn)
    written.append(
        _write_csv(
            out_dir / "eigenvalues.csv",
            "mode_index,beta_raw,beta_rel_db",
            zip(range(1, len(ms) + 1), ms.eigenvalues, db),
        )
    )

    count = min(40, len(ms))
    gram_c = modes.gram_currents(ms, count)
    gram_f = modes.gram_fields(result, count)
    for name, gram in (("gram_currents.csv", gram_c), ("gram_fields.csv", gram_f)):
        rows = [
            (i + 1, j + 1, abs(gram[i, j]))
            for i in range(count)
            for j in range(count)
        ]
        written.append(_write_csv(out_dir / name, "row_mode,col_mode,magnitude_sys", rows))

    for index in cfg.mode_map_indices:
        n = index - 1
        phi = modes.mode_current_field(ms, n)
        pts = ms.src_grid.points
        written.append(
            _write_csv(
                out_dir / f"mode_current_{index:02d}.csv",
                "x_lambda,y_lambda,magnitude_sys,phase_rad",
                zip(pts[:, 0], pts[:, 1], np.abs(phi), np.angle(phi)),
            )
        )
        psi = modes.received_field(result, n)
        rpts = ms.rcv_grid.points
        written.append(
            _write_csv(
                out_dir / f"mode_field_{index:02d}.csv",
                "x_lambda,y_lambda,magnitude_sys,phase_rad",
                zip(rpts[:, 0], rpts[:, 1], np.abs(psi), np.angle(psi)),
            )
        )
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
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"invalid mode-set file {modes_file}: {exc}") from exc
    betas = ms.normalized
    n_plateau = _plateau_count(ms)
    curve = cap.capacity_vs_snr(betas, cfg.power_w, cfg.snr_db, n_plateau)
    written = [
        _write_csv(
            out_dir / "capacity_curve.csv",
            "snr_db,sigma2_w,c_waterfill_bits,c_equal_bits,active_channels",
            (
                (p.snr_db, p.sigma2_w, p.c_waterfill_bits, p.c_equal_bits, p.active_channels)
                for p in curve
            ),
        ),
        _write_csv(
            out_dir / "allocation.csv",
            "snr_db,channel_index,power_w",
            (
                (p.snr_db, i + 1, p.allocation.powers[i])
                for p in curve
                for i in range(p.allocation.active_count)
            ),
        ),
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
        if args.command == "translator":
            written = cmd_translator(cfg, staging)
        elif args.command == "sgf-error":
            written = cmd_sgf_error(cfg, staging)
        elif args.command == "modes":
            written = cmd_modes(cfg, staging)
        else:
            modes_file = Path(args.modes_file) if args.modes_file else out_dir / "modeset.json"
            written = cmd_capacity(cfg, staging, modes_file)
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

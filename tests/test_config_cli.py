import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emlink import cli, config, modes
from emlink.cli import main
from emlink.config import PRESETS, load_config
from emlink.errors import ConfigError


class TestPresets:
    def test_paper_preset_values(self):
        cfg = load_config("paper")
        assert cfg.distance == 25.5
        assert cfg.theta_e_deg == 60.0
        assert cfg.basis_order == 36
        assert cfg.truncation() == 93
        assert cfg.windowed is True
        assert cfg.power_w == 1.0
        assert cfg.tx_side_x == 10.0 and cfg.rx_side_x == 8.0
        assert cfg.snr_db == tuple(float(v) for v in range(31))

    def test_ci_preset_values(self):
        cfg = load_config("ci")
        assert cfg.tx_side_x == 4.0 and cfg.rx_side_x == 3.2
        assert cfg.distance == 10.2
        assert cfg.basis_order == 14
        # the rule on rho_max, the sum of the half-diagonals (5.09 wavelengths), would give 42
        assert cfg.l_override == 34
        assert cfg.truncation() == 34
        assert replace(cfg, l_override=0).truncation() == 42

    def test_paper_truncation_is_the_rule_on_rho_max(self):
        # rho_max = 9 sqrt(2) = 12.73 wavelengths: ceil(k rho_max + 2.9 (k rho_max)^(1/3)) = 93
        cfg = load_config("paper")
        assert cfg.l_override == 0
        assert cfg.truncation() == 93

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config("nope")


class TestConfigFile:
    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# tighter cap\n"
            "theta_e_deg = 45   # degrees\n"
            "basis_order=20\n"
            "\n"
            "snr_db = 0:20:5\n"
        )
        cfg = load_config("paper", path)
        assert cfg.theta_e_deg == 45.0
        assert cfg.basis_order == 20
        assert cfg.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0)

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("theta_e_deg = 45\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match=r":2.*bogus_key"):
            load_config("paper", path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("basis_order = many\n")
        with pytest.raises(ConfigError, match=r":1"):
            load_config("paper", path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config("paper", tmp_path / "absent.cfg")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config("paper", path)


class TestValidation:
    def test_separation_guard(self):
        with pytest.raises(ConfigError, match="validity"):
            load_config("paper", overrides=["distance=5"])

    @pytest.mark.parametrize("preset, order", [("paper", 80), ("ci", 32)])
    def test_truncation_below_k_rho_max_rejected(self, preset, order):
        # the series converges only for L >= k rho_max; each message names L and the bound
        assert load_config(preset, overrides=[f"l_override={order}"]).truncation() == order
        with pytest.raises(ConfigError, match=rf"L = {order - 1} is below ceil\(k rho_max\) = {order}"):
            load_config(preset, overrides=[f"l_override={order - 1}"])

    @pytest.mark.parametrize("preset", ["paper", "ci"])
    def test_cap_below_the_link_half_angle_rejected(self, preset):
        # atan(rho_max / d) is 26.53 deg on both presets
        assert load_config(preset, overrides=["theta_e_deg=26.6"]).theta_e_deg == 26.6
        with pytest.raises(ConfigError, match=r"theta_e = 26.5 deg is below .* atan\(rho_max / d\) = 26.53 deg"):
            load_config(preset, overrides=["theta_e_deg=26.5"])

    @pytest.mark.parametrize("override", ["theta_e_deg=10", "l_override=20"])
    def test_unconverged_series_writes_nothing(self, tmp_path, override):
        out = tmp_path / "o"
        out.mkdir()
        (out / "eigenvalues.csv").write_text("stale\n")
        assert run_cli(["--preset", "ci", "--out", str(out), "--set", override, "modes"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["o"]
        assert [p.name for p in out.iterdir()] == ["eigenvalues.csv"]
        assert (out / "eigenvalues.csv").read_text() == "stale\n"

    def test_wavelength_fixed(self):
        with pytest.raises(ConfigError, match="wavelength"):
            load_config("paper", overrides=["wavelength=2"])

    @pytest.mark.parametrize(
        "override, key",
        [("check_field=0,inf,8", "check_field"), ("snr_db=0,nan", "snr_db"),
         ("snr_db=0:inf:1", "snr_db"), ("mode_map_indices=inf", "mode_map_indices")],
    )
    def test_non_finite_values(self, override, key):
        with pytest.raises(ConfigError, match=key):
            load_config("ci", overrides=[override])

    def test_integer_lists_reject_fractions(self):
        assert load_config("ci", overrides=["mode_map_indices=1:5:2"]).mode_map_indices == (1, 3, 5)
        assert load_config("ci", overrides=["mode_map_indices=2.0,4"]).mode_map_indices == (2, 4)
        for value in ("1.6,3", "0.5:2.5:1"):
            with pytest.raises(ConfigError, match="mode_map_indices"):
                load_config("ci", overrides=[f"mode_map_indices={value}"])

    def test_range_length_bounded(self):
        # a range is counted before it is built: 10 000 values load, one more does not (the
        # values span -2500 to 2499.5 dB, where the noise power is a positive float)
        assert len(load_config("ci", overrides=["snr_db=-2500:2499.5:0.5"]).snr_db) == 10_000
        for value in ("0:10000:1", "0:1e5:1"):
            with pytest.raises(ConfigError, match="snr_db"):
                load_config("ci", overrides=[f"snr_db={value}"])

    def test_theta_range(self):
        with pytest.raises(ConfigError):
            load_config("paper", overrides=["theta_e_deg=190"])

    def test_empty_sweep_list(self):
        with pytest.raises(ConfigError, match="sweep_theta_deg"):
            load_config("paper", overrides=["sweep_theta_deg=,"])

    def test_override_applies(self):
        cfg = load_config("paper", overrides=["basis_order=12", "windowed=false"])
        assert cfg.basis_order == 12
        assert cfg.windowed is False

    def test_bad_override_syntax(self):
        with pytest.raises(ConfigError, match="--set"):
            load_config("paper", overrides=["basis_order"])

    def test_mode_map_indices_bounded_by_kept_modes(self):
        # the paper preset keeps 120 of its 703 modes; modes_keep=0 keeps all
        assert load_config("paper", overrides=["mode_map_indices=1,120"]).mode_map_indices == (1, 120)
        with pytest.raises(ConfigError, match="mode_map_indices"):
            load_config("paper", overrides=["mode_map_indices=121"])
        fine = ["modes_keep=0"]
        cfg = load_config("paper", overrides=fine + ["mode_map_indices=703"])
        assert cfg.mode_map_indices == (703,)
        with pytest.raises(ConfigError, match="mode_map_indices"):
            load_config("paper", overrides=fine + ["mode_map_indices=704"])

    def test_mode_map_indices_not_bounded_by_receiver_points(self):
        # the receiver is a basis, so surface_points sets only the output grids: a mode past the
        # n1^2 = 529 receiver points, or past 2 x 2 of them, is no null mode
        cfg = load_config("paper", overrides=["modes_keep=0", "mode_map_indices=530,703"])
        assert cfg.mode_map_indices == (530, 703)
        assert load_config("ci", overrides=["surface_points=4"]).mode_map_indices == (1, 3, 5)

    def test_surface_grid_needs_two_nodes_per_axis(self):
        with pytest.raises(ConfigError, match="surface_points"):
            load_config("ci", overrides=["surface_points=1", "mode_map_indices=1"])
        cfg = load_config("ci", overrides=["surface_points=2", "mode_map_indices=1"])
        assert cfg.surface_points == 2


ROOT = Path(__file__).resolve().parents[1]


def run_cli(args):
    return main(args)


def _read_mode_set(path):
    """(eigenvalues, coefficient rows) of a modeset.json document."""
    doc = json.loads(path.read_text())
    flat = np.array(doc["coefficients"]["re_im"])
    shape = (doc["coefficients"]["modes"], doc["coefficients"]["basis"])
    return np.array(doc["eigenvalues"]), (flat[0::2] + 1j * flat[1::2]).reshape(shape)


def _read_map(path):
    """Complex samples of a mode_current_NN.csv or mode_field_NN.csv map."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows[:, 2] * np.exp(1j * rows[:, 3])


def _per_cell_csv(header, rows):
    """The per-cell rule the writer keeps: integers as str(int(v)), every other value as %.12e."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            str(int(v)) if isinstance(v, (int, np.integer)) else "%.12e" % float(v) for v in row
        ))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_matches_per_cell_rule(self, tmp_path):
        columns = (
            [1, 2, 3],
            np.array([7, -8, 2**40], dtype=np.int64),
            np.array([-np.inf, 0.0, 1e-300]),  # -inf is a null mode's beta_rel_db
            [np.float64(0.1), np.float64(-2.5e12), np.float64(np.pi)],
            [10.0, 20.0, 90.0],
            [-0.0, 0.0, -0.0],
            [np.nan, -np.nan, 2.5e12],
        )
        path = cli._write_csv(tmp_path / "t.csv", "a,b,c,d,e,f,g", *columns)
        assert path.read_text(encoding="utf-8") == _per_cell_csv("a,b,c,d,e,f,g", zip(*columns))

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "t.csv", "a,b", [1, 2], [1.0])


class TestCliCommands:
    def test_translator_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(["--preset", "ci", "--out", str(out), "translator"])
        assert code == 0
        text = (out / "translator.csv").read_text().splitlines()
        assert text[0] == "theta_deg,alpha_abs_norm_unwindowed,alpha_abs_norm_windowed"
        values = np.array([row.split(",") for row in text[1:]], dtype=float)
        assert values[0, 0] == 0.0 and values[-1, 0] == 180.0
        assert values[:, 1].max() == pytest.approx(1.0)
        assert values[:, 2].max() == pytest.approx(1.0)
        # beyond the taper onset the windowed profile falls below the
        # unwindowed sidelobe envelope
        wide = values[values[:, 0] >= 60.0]
        assert wide[:, 2].max() < wide[:, 1].max()

    def test_sgf_error_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(["--preset", "ci", "--out", str(out), "sgf-error"])
        assert code == 0
        rows = (out / "sgf_error.csv").read_text().splitlines()
        assert rows[0] == "theta_e_deg,rel_error_unwindowed,rel_error_windowed"
        data = np.array([row.split(",") for row in rows[1:]], dtype=float)
        assert len(data) == 9
        # decreasing-then-settled shape: late errors far below early ones
        assert data[-1, 2] < 0.05 * data[0, 2]

    def test_sweep_angles_print_the_same_either_way(self, tmp_path):
        # the preset default and the same angles given as a range are one
        # configuration, so they give one file
        outs = [tmp_path / "default", tmp_path / "range"]
        assert run_cli(["--preset", "ci", "--out", str(outs[0]), "sgf-error"]) == 0
        as_range = ["--set", "sweep_theta_deg=10:90:10"]
        assert run_cli(["--preset", "ci", "--out", str(outs[1]), *as_range, "sgf-error"]) == 0
        first, second = ((out / "sgf_error.csv").read_bytes() for out in outs)
        assert first == second
        assert first.splitlines()[1].startswith(b"1.000000000000e+01,")

    def test_single_angle_sweep(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            ["--preset", "ci", "--out", str(out), "--set", "sweep_theta_deg=180", "sgf-error"]
        )
        assert code == 0
        rows = (out / "sgf_error.csv").read_text().splitlines()
        assert len(rows) == 2
        # full sphere sits at the reconstruction floor
        _, unw, win = (float(v) for v in rows[1].split(","))
        assert unw < 1e-9

    def test_modes_and_capacity_compose(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(["--preset", "ci", "--out", str(out), "modes"])
        assert code == 0
        for name in (
            "modeset.json",
            "eigenvalues.csv",
            "gram_currents.csv",
            "gram_fields.csv",
            "mode_current_01.csv",
            "mode_field_01.csv",
            "mode_current_03.csv",
            "mode_current_05.csv",
        ):
            assert (out / name).is_file(), name
        doc = json.loads((out / "modeset.json").read_text())
        assert doc["format"] == "emlink.modeset/1"
        assert doc["basis_order"] == 14

        code = run_cli(["--preset", "ci", "--out", str(out), "capacity"])
        assert code == 0
        curve = (out / "capacity_curve.csv").read_text().splitlines()
        assert curve[0] == "snr_db,sigma2_w,c_waterfill_bits,c_equal_bits,active_channels"
        assert len(curve) == 1 + len(PRESETS["ci"].snr_db)
        alloc_rows = (out / "allocation.csv").read_text().splitlines()
        assert alloc_rows[0] == "snr_db,channel_index,power_w"
        fit = json.loads((out / "spectrum_fit.json").read_text())
        assert set(fit) == {
            "plateau_avg",
            "decay_rate_c",
            "r_squared",
            "n_plateau",
            "n_tail_points",
            "tail_floor_rel",
        }

        # every emitted JSON document validates against its shipped schema
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        docs = Path(__file__).resolve().parents[1] / "docs"
        jsonschema.validate(doc, json.loads((docs / "modeset.schema.json").read_text()))
        jsonschema.validate(fit, json.loads((docs / "spectrum-fit.schema.json").read_text()))

    def test_capacity_missing_modes_file(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(["--preset", "ci", "--out", str(out), "capacity"])
        assert code == 1

    def test_capacity_on_synthetic_spectrum(self, tmp_path):
        # a mode-set whose eigenvalues follow the piecewise model exactly:
        # the emitted fit echoes the decay rate
        out = tmp_path / "o"
        out.mkdir()
        # the command derives n_plateau = floor(16 * 10.24 / 10.2^2) = 1 from
        # the geometry echo, so anchor the synthetic tail at n = 2
        n_plateau, c = 1, 0.127
        n = np.arange(1, 41)
        betas = np.where(n <= n_plateau, 1.0, 0.5 * 10.0 ** (-c * (n - n_plateau - 1)))
        doc = {
            "format": "emlink.modeset/1",
            "wavenumber": 2 * np.pi,
            "transmitter": {"center": [0.0, 0.0, 0.0], "side_x": 4.0, "side_y": 4.0},
            "receiver": {"center": [0.0, 0.0, 10.2], "side_x": 3.2, "side_y": 3.2},
            "surface_points": 16,
            "basis_order": 0,
            "power_w": 1.0,
            "impedance_ohm": 376.730,
            "normalization_scale": float(np.sqrt(1.0 / 376.730)),
            "clamped_count": 0,
            "eigenvalues": [float(b) for b in betas],
            "coefficients": {"modes": 40, "basis": 1, "re_im": [0.0] * 80},
        }
        (out / "modeset.json").write_text(json.dumps(doc))
        code = run_cli(
            ["--preset", "ci", "--out", str(out), "--set", "snr_db=10", "capacity"]
        )
        assert code == 0
        fit = json.loads((out / "spectrum_fit.json").read_text())
        assert fit["n_plateau"] == 1
        assert fit["decay_rate_c"] == pytest.approx(0.127, abs=1e-9)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-9)
        curve = (out / "capacity_curve.csv").read_text().splitlines()
        assert len(curve) == 2  # single SNR row

    def test_capacity_with_overflowing_tail_writes_finite_numbers(self, tmp_path):
        # 30 noise floors of 1e307 at 0 dB each fit a float, but their sum does not
        out = tmp_path / "o"
        out.mkdir()
        n = np.arange(1, 41)
        betas = np.r_[np.where(n <= 1, 1.0, 0.5 * 10.0 ** (-0.127 * (n - 2))), [1e-307] * 30]
        doc = {
            "format": "emlink.modeset/1",
            "wavenumber": 2 * np.pi,
            "transmitter": {"center": [0.0, 0.0, 0.0], "side_x": 4.0, "side_y": 4.0},
            "receiver": {"center": [0.0, 0.0, 10.2], "side_x": 3.2, "side_y": 3.2},
            "surface_points": 16,
            "basis_order": 0,
            "power_w": 1.0,
            "impedance_ohm": 376.730,
            "normalization_scale": float(np.sqrt(1.0 / 376.730)),
            "clamped_count": 0,
            "eigenvalues": [float(b) for b in betas],
            "coefficients": {"modes": 70, "basis": 1, "re_im": [0.0] * 140},
        }
        (out / "modeset.json").write_text(json.dumps(doc))
        assert run_cli(["--preset", "ci", "--out", str(out), "capacity"]) == 0
        for name in ("capacity_curve.csv", "allocation.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            values = [float(v) for row in rows for v in row.split(",")]
            assert values and np.all(np.isfinite(values)), name
        fit = json.loads((out / "spectrum_fit.json").read_text())
        assert np.all(np.isfinite(list(fit.values())))

    @pytest.mark.parametrize(
        "override, reason",
        [("modes_keep=3", "too short beyond the plateau"), ("basis_order=1", "too short beyond the plateau"),
         ("distance=2000 theta_e_deg=0.175", "not enough usable tail points")],
        ids=["three-modes", "basis-order-1", "narrow-cap"],
    )
    def test_capacity_on_unfittable_spectrum_leaves_out_as_it_was(self, tmp_path, capsys, override, reason):
        # a valid mode set whose spectrum has too few tail points to fit is a bad input, not a runtime error;
        # a cap of 0.175 deg is valid on a link 2000 wavelengths long, whose half-angle is 0.146 deg
        made, out = tmp_path / "d", tmp_path / "o"
        sets = [arg for pair in override.split() for arg in ("--set", pair)]
        assert run_cli(["--preset", "ci", "--out", str(made), *sets, "--set", "mode_map_indices=1", "modes"]) == 0
        out.mkdir()
        (out / "capacity_curve.csv").write_text("stale\n")
        capsys.readouterr()
        code = run_cli(["--preset", "ci", "--out", str(out), "capacity", "--modes-file", str(made / "modeset.json")])
        assert code == 1
        error = capsys.readouterr().err
        assert error.startswith("error: ") and str(made / "modeset.json") in error and reason in error
        assert [p.name for p in out.iterdir()] == ["capacity_curve.csv"]
        assert (out / "capacity_curve.csv").read_text() == "stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "o"]

    def test_exit_code_on_validation_error(self, tmp_path):
        code = run_cli(
            ["--preset", "paper", "--out", str(tmp_path), "--set", "distance=5", "modes"]
        )
        assert code == 1

    def test_exit_code_on_runtime_error(self, tmp_path):
        code = run_cli(
            ["--preset", "ci", "--out", str(tmp_path), "--set", "entry_budget=10", "modes"]
        )
        assert code == 2

    def test_determinism(self, tmp_path, capsys):
        printed = []
        for out in (tmp_path / "a", tmp_path / "b"):
            for command in ("translator", "sgf-error", "modes", "capacity"):
                assert run_cli(["--preset", "ci", "--out", str(out), command]) == 0
            printed.append([Path(line) for line in capsys.readouterr().out.splitlines()])
        first, second = printed
        # 1 + 1 + (modeset, eigenvalues, 2 Grams, 3 current and 3 field maps) + 3
        assert len(first) == 15
        assert [p.name for p in first] == [p.name for p in second]
        for path1, path2 in zip(first, second):
            assert path1.read_bytes() == path2.read_bytes(), path1.name

    def test_modes_reproducible_across_blas_threads(self, tmp_path):
        # the BLAS thread count changes roundoff only: the spectrum and every
        # mode with beta >= 1e-8 beta_1 agree, gauge included
        sets = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "emlink.cli", "--preset", "ci", "--out", str(out), "modes"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            sets.append((*_read_mode_set(out / "modeset.json"), out))
        (b1, a1, out1), (b2, a2, out2) = sets
        top = b1[0]
        assert np.max(np.abs(b1 - b2)) <= 1e-14 * top
        # the exact pairs of the square link sit in the eo and oe parity
        # blocks, so every mode is pinned, degenerate ones included
        strong = b1 >= 1e-8 * top
        assert np.max(np.abs(a1[strong] - a2[strong])) <= 1e-9
        for name in ("mode_current_03.csv", "mode_field_03.csv"):
            f1, f2 = _read_map(out1 / name), _read_map(out2 / name)
            assert np.max(np.abs(f1 - f2)) <= 1e-9 * np.max(np.abs(f1)), name

    def test_mode_map_index_out_of_range(self, tmp_path):
        # rejected when the config loads, before anything is solved or written
        for index in (9999, 0):
            out = tmp_path / f"o{index}"
            out.mkdir()
            code = run_cli(
                [
                    "--preset",
                    "ci",
                    "--out",
                    str(out),
                    "--set",
                    f"mode_map_indices={index}",
                    "modes",
                ]
            )
            assert code == 1
            assert list(out.iterdir()) == []

    def test_fractional_mode_map_index_writes_nothing(self, tmp_path):
        # 1.6 is not rounded to a map of mode 2
        out = tmp_path / "o"
        out.mkdir()
        code = run_cli(["--preset", "ci", "--out", str(out), "--set", "mode_map_indices=1.6,3", "modes"])
        assert code == 1
        assert list(out.iterdir()) == []

    def test_repeated_mode_map_index_leaves_out_as_it_was(self, tmp_path, capsys):
        # each mode's maps are one pair of files, so a repeated index is bad input, rejected before any solve
        out = tmp_path / "o"
        out.mkdir()
        (out / "eigenvalues.csv").write_text("stale\n")
        code = run_cli(["--preset", "ci", "--out", str(out), "--set", "mode_map_indices=1,3,1", "modes"])
        assert code == 1
        assert "mode_map_indices entry 1 is repeated" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["o"]
        assert [p.name for p in out.iterdir()] == ["eigenvalues.csv"]
        assert (out / "eigenvalues.csv").read_text() == "stale\n"

    def test_failed_modes_leaves_out_as_it_was(self, tmp_path, monkeypatch):
        # the run fails after modeset.json and eigenvalues.csv are written:
        # --out keeps its old file and nothing of the run is left beside it
        out = tmp_path / "o"
        out.mkdir()
        (out / "eigenvalues.csv").write_text("stale\n")

        def fail(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(modes, "gram_currents", fail)
        code = run_cli(["--preset", "ci", "--out", str(out), "modes"])
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["o"]
        assert [p.name for p in out.iterdir()] == ["eigenvalues.csv"]
        assert (out / "eigenvalues.csv").read_text() == "stale\n"

    def test_non_finite_mode_set_leaves_out_as_it_was(self, tmp_path, monkeypatch):
        # the writer refuses a NaN eigenvalue, which JSON cannot hold, before modeset.json is written
        out = tmp_path / "o"
        out.mkdir()
        (out / "eigenvalues.csv").write_text("stale\n")

        def nan_sixth(*args, **kwargs):
            result = modes.solve_modes(*args, **kwargs)
            result.modes.eigenvalues[5] = np.nan
            return result

        monkeypatch.setattr(config, "solve_modes", nan_sixth)
        code = run_cli(["--preset", "ci", "--out", str(out), "modes"])
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["o"]
        assert [p.name for p in out.iterdir()] == ["eigenvalues.csv"]
        assert (out / "eigenvalues.csv").read_text() == "stale\n"

    def test_coefficient_rows_over_budget_leave_out_as_it_was(self, tmp_path):
        # t = 80 gives 3 321 basis functions: R (144 x 3 321) fits the default
        # budget of 1e7 entries, the 3 321 x 3 321 coefficient rows do not
        out = tmp_path / "o"
        out.mkdir()
        (out / "eigenvalues.csv").write_text("stale\n")
        code = run_cli(["--preset", "ci", "--out", str(out), "--set", "basis_order=80", "modes"])
        assert code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["o"]
        assert [p.name for p in out.iterdir()] == ["eigenvalues.csv"]
        assert (out / "eigenvalues.csv").read_text() == "stale\n"

    @pytest.mark.parametrize("points", [1], ids=["one-node"])
    def test_degenerate_surface_grid_writes_nothing(self, tmp_path, points):
        # one point per aperture is no output grid: a map needs 2 nodes per axis
        code = run_cli(["--preset", "ci", "--out", str(tmp_path), "--set", f"surface_points={points}", "modes"])
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    def test_surface_points_set_only_the_output_grids(self, tmp_path):
        # 2 x 2 output points: the mode set and eigenvalues are the preset's, byte for byte, and the
        # default map of mode 5 holds a field, sampled at the 4 points
        small, usual = tmp_path / "small", tmp_path / "usual"
        assert run_cli(["--preset", "ci", "--out", str(small), "--set", "surface_points=4", "modes"]) == 0
        assert run_cli(["--preset", "ci", "--out", str(usual), "modes"]) == 0
        assert (small / "eigenvalues.csv").read_bytes() == (usual / "eigenvalues.csv").read_bytes()
        doc, usual_doc = (json.loads((out / "modeset.json").read_text()) for out in (small, usual))
        assert doc.pop("surface_points") == 4 and usual_doc.pop("surface_points") == 144
        assert doc == usual_doc
        field = _read_map(small / "mode_field_05.csv")
        assert field.shape == (4,) and np.all(np.abs(field) > 0)


def _nan_sixth(doc):
    doc["eigenvalues"][5] = float("nan")


def _first_sixty(doc):
    doc["eigenvalues"] = doc["eigenvalues"][:60]


def _reversed(doc):
    doc["eigenvalues"] = doc["eigenvalues"][::-1]


def _negative_last(doc):
    doc["eigenvalues"][-1] = -1e-3 * doc["eigenvalues"][0]


def _short_re_im(doc):
    doc["coefficients"]["re_im"] = doc["coefficients"]["re_im"][:-2]


def _nan_coefficient(doc):
    doc["coefficients"]["re_im"][7] = float("nan")


def _empty_spectrum(doc):
    doc["eigenvalues"] = []
    doc["coefficients"]["modes"] = 0
    doc["coefficients"]["re_im"] = []


def _zero_spectrum(doc):
    doc["eigenvalues"] = [0.0] * len(doc["eigenvalues"])


def _negative_power(doc):
    doc["power_w"] = -1.0


def _nan_scale(doc):
    doc["normalization_scale"] = float("nan")


def _infinite_impedance(doc):
    doc["impedance_ohm"] = float("inf")


def _unit_scale(doc):
    doc["normalization_scale"] = 1.0


def _infinite_surface_points(doc):
    doc["surface_points"] = float("inf")


def _zero_surface_points(doc):
    doc["surface_points"] = 0


def _infinite_basis_order(doc):
    doc["basis_order"] = float("inf")


def _huge_basis_order(doc):
    # the width check must reject this before ~5e17 order pairs are built
    doc["basis_order"] = 10**9


def _fractional_surface_points(doc):
    doc["surface_points"] = 144.9


def _fractional_basis_order(doc):
    # the width 120 matches the truncated order 14
    doc["basis_order"] = 14.6


def _fractional_mode_count(doc):
    doc["coefficients"]["modes"] = 120.5


def _fractional_basis_width(doc):
    doc["coefficients"]["basis"] = 120.5


def _fractional_clamped_count(doc):
    doc["clamped_count"] = 0.5


def _negative_clamped_count(doc):
    doc["clamped_count"] = -3


def _infinite_mode_count(doc):
    doc["coefficients"]["modes"] = float("inf")


def _nan_wavenumber(doc):
    doc["wavenumber"] = float("nan")


def _infinite_wavenumber(doc):
    doc["wavenumber"] = float("inf")


def _nan_transmitter_side(doc):
    doc["transmitter"]["side_x"] = float("nan")


def _nan_receiver_center(doc):
    doc["receiver"]["center"][1] = float("nan")


def _top_level_list(doc):
    return [doc]


def _transmitter_list(doc):
    doc["transmitter"] = [0, 0, 0]


def _null_eigenvalues(doc):
    doc["eigenvalues"] = None


def _object_eigenvalue(doc):
    doc["eigenvalues"][5] = {}


def _object_coefficient(doc):
    doc["coefficients"]["re_im"][7] = {}


# each string holds the number it replaces, which a parser of strings would take
def _string_coefficient(doc):
    doc["coefficients"]["re_im"][7] = str(doc["coefficients"]["re_im"][7])


def _string_eigenvalue(doc):
    doc["eigenvalues"][5] = str(doc["eigenvalues"][5])


def _string_center(doc):
    doc["receiver"]["center"][0] = str(doc["receiver"]["center"][0])


# an integer of 400 digits is valid JSON but past the float range
def _huge_integer_coefficient(doc):
    doc["coefficients"]["re_im"][7] = 10**400


def _huge_integer_eigenvalue(doc):
    doc["eigenvalues"][0] = 10**400


def _huge_integer_power(doc):
    doc["power_w"] = 10**400


@pytest.fixture(scope="module")
def ci_mode_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("ci-modes")
    assert run_cli(["--preset", "ci", "--out", str(out), "modes"]) == 0
    doc = json.loads((out / "modeset.json").read_text())
    assert doc["coefficients"]["modes"] == len(doc["eigenvalues"]) == 120
    return doc


class TestMalformedModeSet:
    @pytest.mark.parametrize(
        "rewrite",
        [_nan_sixth, _first_sixty, _reversed, _negative_last, _short_re_im,
         _empty_spectrum, _zero_spectrum, _nan_coefficient, _negative_power, _nan_scale,
         _infinite_impedance, _top_level_list, _transmitter_list, _null_eigenvalues,
         _unit_scale, _infinite_surface_points, _zero_surface_points, _infinite_basis_order,
         _huge_basis_order,
         _infinite_mode_count, _nan_wavenumber, _infinite_wavenumber, _nan_transmitter_side,
         _nan_receiver_center, _fractional_surface_points, _fractional_basis_order,
         _fractional_mode_count, _fractional_basis_width, _fractional_clamped_count,
         _negative_clamped_count, _object_eigenvalue, _object_coefficient, _string_coefficient,
         _string_eigenvalue, _string_center, _huge_integer_coefficient, _huge_integer_eigenvalue,
         _huge_integer_power],
        ids=["nan-eigenvalue", "short-eigenvalues", "ascending-eigenvalues",
             "negative-eigenvalue", "short-re-im", "empty-spectrum", "zero-spectrum",
             "nan-coefficient", "negative-power", "nan-scale", "infinite-impedance",
             "top-level-list", "transmitter-list", "null-eigenvalues",
             "unit-scale", "infinite-surface-points", "zero-surface-points", "infinite-basis-order",
             "huge-basis-order", "infinite-mode-count", "nan-wavenumber",
             "infinite-wavenumber", "nan-transmitter-side", "nan-receiver-center",
             "fractional-surface-points", "fractional-basis-order", "fractional-mode-count",
             "fractional-basis-width", "fractional-clamped-count", "negative-clamped-count",
             "object-eigenvalue", "object-coefficient", "string-coefficient", "string-eigenvalue",
             "string-center", "huge-integer-coefficient", "huge-integer-eigenvalue", "huge-integer-power"],
    )
    def test_capacity_rejects_and_writes_nothing(self, tmp_path, ci_mode_doc, rewrite):
        doc = json.loads(json.dumps(ci_mode_doc))
        replaced = rewrite(doc)  # in place, or a whole new document
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc if replaced is None else replaced))
        out = tmp_path / "o"
        code = run_cli(["--preset", "ci", "--out", str(out), "capacity", "--modes-file", str(path)])
        assert code == 1
        assert list(out.iterdir()) == []


def _extra_top_level_key(doc):
    doc["comment"] = "made by hand"


def _extra_coefficients_key(doc):
    doc["coefficients"]["order"] = "row-major"


def _extra_aperture_key(doc):
    doc["receiver"]["normal"] = [0, 0, 1]


@pytest.mark.parametrize(
    "rewrite, key",
    [(_extra_top_level_key, "comment"), (_extra_coefficients_key, "order"), (_extra_aperture_key, "normal")],
    ids=["top-level", "coefficients", "aperture"],
)
def test_capacity_rejects_keys_the_schema_forbids(tmp_path, capsys, ci_mode_doc, rewrite, key):
    # docs/modeset.schema.json sets additionalProperties false on the document, its coefficients and apertures
    doc = json.loads(json.dumps(ci_mode_doc))
    rewrite(doc)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    out.mkdir()
    (out / "capacity_curve.csv").write_text("stale\n")
    assert run_cli(["--preset", "ci", "--out", str(out), "capacity", "--modes-file", str(path)]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["capacity_curve.csv"]
    assert (out / "capacity_curve.csv").read_text() == "stale\n"


def test_mode_set_loads_without_clamped_count(ci_mode_doc):
    # the one optional key of the schema
    doc = json.loads(json.dumps(ci_mode_doc))
    del doc["clamped_count"]
    assert len(modes.mode_set_from_dict(doc)) == 120


@pytest.mark.parametrize("content", [b"\xff\xfe{", b'{"format": '], ids=["not-utf8", "truncated-json"])
def test_capacity_rejects_undecodable_file(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = tmp_path / "o"
    assert run_cli(["--preset", "ci", "--out", str(out), "capacity", "--modes-file", str(path)]) == 1
    assert list(out.iterdir()) == []


def test_capacity_builds_no_surface_grid(tmp_path, monkeypatch, ci_mode_doc):
    # capacity reads no grid, so a mode set that asks for 10**9 points per
    # aperture loads and gives the same files as the unedited one
    def built(*args, **kwargs):
        raise AssertionError("a surface grid was built")

    monkeypatch.setattr(modes, "tensor_grid", built)
    outs = []
    for points in (ci_mode_doc["surface_points"], 10**9):
        out = tmp_path / str(points)
        out.mkdir()
        path = out / "modeset.json"
        path.write_text(json.dumps(dict(ci_mode_doc, surface_points=points)))
        assert modes.load_mode_set(path).surface_points == points
        assert run_cli(["--preset", "ci", "--out", str(out), "capacity"]) == 0
        outs.append(out)
    for name in ("capacity_curve.csv", "allocation.csv", "spectrum_fit.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "command, override",
    [("modes", "power_w=inf"), ("modes", "power_w=nan"), ("sgf-error", "check_distance=nan"),
     ("sgf-error", "check_src=nan,0,0"), ("modes", "distance=inf"), ("modes", "tx_side_x=nan"),
     ("capacity", "snr_db=nan")],
)
def test_non_finite_config_leaves_out_as_it_was(tmp_path, ci_mode_doc, command, override):
    out = tmp_path / "o"
    out.mkdir()
    (out / "modeset.json").write_text(json.dumps(ci_mode_doc))
    code = run_cli(["--preset", "ci", "--out", str(out), "--set", override, command])
    assert code == 1
    assert [p.name for p in tmp_path.iterdir()] == ["o"]
    assert [p.name for p in out.iterdir()] == ["modeset.json"]
    assert json.loads((out / "modeset.json").read_text()) == ci_mode_doc


@pytest.mark.parametrize(
    "overrides",
    [("power_w=1e308", "snr_db=-10"), ("power_w=1e-300", "snr_db=300"), ("snr_db=-4000",)],
    ids=["noise-overflows", "noise-underflows", "snr-factor-overflows"],
)
def test_noise_power_out_of_range_leaves_out_as_it_was(tmp_path, ci_mode_doc, overrides):
    # sigma2 = power_w * 10^(-snr_db / 10) must be a positive float at every SNR entry
    out = tmp_path / "o"
    out.mkdir()
    (out / "modeset.json").write_text(json.dumps(ci_mode_doc))
    sets = [arg for override in overrides for arg in ("--set", override)]
    with pytest.raises(ConfigError, match="snr_db"):
        load_config("ci", overrides=list(overrides))
    assert run_cli(["--preset", "ci", "--out", str(out), *sets, "capacity"]) == 1
    assert [p.name for p in out.iterdir()] == ["modeset.json"]


def test_translator_order_past_the_recurrence_writes_nothing(tmp_path):
    # y_415(k * 10.2) passes the float range: the config is rejected before any grid is built
    with pytest.raises(ConfigError, match="y_415.* exceeds the supported range"):
        load_config("ci", overrides=["l_override=2000"])
    assert run_cli(["--preset", "ci", "--out", str(tmp_path), "--set", "l_override=2000", "modes"]) == 1
    assert list(tmp_path.iterdir()) == []


def test_coinciding_probes_leave_out_as_it_was(tmp_path, capsys):
    # g(r, s) has no value at r = s: the probes are rejected before anything is computed or written
    out = tmp_path / "o"
    out.mkdir()
    (out / "sgf_error.csv").write_text("stale\n")
    assert run_cli(["--preset", "ci", "--out", str(out), "--set", "check_src=-1.4,2.0,8.0", "sgf-error"]) == 1
    assert "check_src and check_field must differ" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["o"]
    assert [p.name for p in out.iterdir()] == ["sgf_error.csv"]
    assert (out / "sgf_error.csv").read_text() == "stale\n"


@pytest.mark.parametrize(
    "override, key, distance",
    [("check_src=50,0,0", "check_src", 50.0), ("check_src=0,0,5", "check_src", 5.0),
     ("check_src=1e6,0,0", "check_src", 1e6), ("check_field=2,2.000001,8", "check_field", math.hypot(2, 2.000001))],
    ids=["far-lateral", "between-the-apertures", "far-off", "just-past-a-corner"],
)
def test_probe_off_its_aperture_leaves_out_as_it_was(tmp_path, capsys, override, key, distance):
    # the expansion covers each check aperture's half-diagonal sphere: a probe past it is rejected before any sweep
    out = tmp_path / "o"
    out.mkdir()
    (out / "sgf_error.csv").write_text("stale\n")
    assert run_cli(["--preset", "ci", "--out", str(out), "--set", override, "sgf-error"]) == 1
    err = capsys.readouterr().err
    assert f"{key} lies {distance!r}" in err and f"half-diagonal {math.hypot(2.0, 2.0)!r}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["o"]
    assert [p.name for p in out.iterdir()] == ["sgf_error.csv"]
    assert (out / "sgf_error.csv").read_text() == "stale\n"


def test_probes_on_their_aperture_corners_pass():
    # the bound is inclusive: a probe on a corner of its check square lies exactly on the half-diagonal
    cfg = load_config("ci", overrides=["check_src=2,-2,0", "check_field=-2,2,8"])
    assert (cfg.check_src, cfg.check_field) == ((2.0, -2.0, 0.0), (-2.0, 2.0, 8.0))


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_out_on_a_file_is_a_config_error(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "o" if below else blocker
    assert run_cli(["--preset", "ci", "--out", str(out), "translator"]) == 1
    assert f"error: --out {out} is not a directory" in capsys.readouterr().err
    assert blocker.read_text() == "keep\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["taken"]


def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"theta_e_deg = 45 # \xff\n")
    out = tmp_path / "o"
    assert run_cli(["--preset", "ci", "--config", str(path), "--out", str(out), "translator"]) == 1
    assert f"error: invalid config file {path}" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="invalid config file"):
        load_config("ci", path)


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process, so no call may leave state in it for the next
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    args = parser.parse_args(["--set", "basis_order=3", "--set", "L=9", "capacity", "--modes-file", "m"])
    assert args.overrides == ["basis_order=3", "L=9"] and args.modes_file == "m"
    again = parser.parse_args(["translator"])
    assert again.overrides == [] and not hasattr(again, "modes_file")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2 and "invalid choice: 'bogus'" in capsys.readouterr().err

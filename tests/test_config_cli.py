import json

import numpy as np
import pytest

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
        assert cfg.l_override == 0
        assert cfg.truncation() == 34  # rule applied to the 4-wavelength side

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

    def test_wavelength_fixed(self):
        with pytest.raises(ConfigError, match="wavelength"):
            load_config("paper", overrides=["wavelength=2"])

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


def run_cli(args):
    return main(args)


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
            "normalization_scale": 0.0515,
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

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["--preset", "ci", "--out", str(out), "translator"]) == 0
            assert run_cli(["--preset", "ci", "--out", str(out), "sgf-error"]) == 0
            assert run_cli(["--preset", "ci", "--out", str(out), "modes"]) == 0
            assert run_cli(["--preset", "ci", "--out", str(out), "capacity"]) == 0
        for name in (
            "translator.csv",
            "sgf_error.csv",
            "modeset.json",
            "eigenvalues.csv",
            "gram_currents.csv",
            "gram_fields.csv",
            "capacity_curve.csv",
            "allocation.csv",
            "spectrum_fit.json",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_mode_map_index_out_of_range(self, tmp_path):
        code = run_cli(
            [
                "--preset",
                "ci",
                "--out",
                str(tmp_path),
                "--set",
                "mode_map_indices=9999",
                "modes",
            ]
        )
        assert code == 1


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


def _empty_spectrum(doc):
    doc["eigenvalues"] = []
    doc["coefficients"]["modes"] = 0
    doc["coefficients"]["re_im"] = []


def _zero_spectrum(doc):
    doc["eigenvalues"] = [0.0] * len(doc["eigenvalues"])


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
         _empty_spectrum, _zero_spectrum],
        ids=["nan-eigenvalue", "short-eigenvalues", "ascending-eigenvalues",
             "negative-eigenvalue", "short-re-im", "empty-spectrum", "zero-spectrum"],
    )
    def test_capacity_rejects_and_writes_nothing(self, tmp_path, ci_mode_doc, rewrite):
        doc = json.loads(json.dumps(ci_mode_doc))
        rewrite(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = run_cli(["--preset", "ci", "--out", str(out), "capacity", "--modes-file", str(path)])
        assert code == 1
        assert list(out.iterdir()) == []

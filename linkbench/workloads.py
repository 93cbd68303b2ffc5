"""The three workloads: inputs drawn from the seed, operations and their checks.

Each workload is set up with `setup()` and then yields whole rounds of
operations from `round()`.  An operation's `run` is the timed call into the
program; its `check` runs afterwards, outside the timed region, and raises
oracles.CheckError when an output is wrong.  Operations with `counted=False`
are the malformed-document probes of paper-post: their times stay out of the
end-to-end metrics and a failed check counts them as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from oracles import ModeDoc, require

from emlink import channel, cli, config, geometry, greens

ETA = 376.730  # free-space impedance (ohm), the README's stated convention
PAPER_DISTANCE = 25.5
DISTANCE_BAND = 0.25         # paper-modes draws d from 25.5 +- 0.25 wavelengths
CURRENT_ORDER = 3            # field-eval currents: Legendre total order <= 3
# The 60-degree windowed cap misses the direct sum by 0.4-3.9% across the
# order-3 current space (generalized eigenvalues of the error over the
# field), so 4% holds for every seeded current; 3% fails about 1 in 800.
FIELD_TOLERANCE = 0.04
SNR_POINTS = 31              # paper-post SNR list length
PROBE_OFFSET = 4.5           # paper-post lateral probe separation limit (wavelengths)

MODES_FILES = ["modeset.json", "eigenvalues.csv", "gram_currents.csv", "gram_fields.csv"] + [
    f"mode_{kind}_{i:02d}.csv" for i in (1, 3, 5) for kind in ("current", "field")
]


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], None]
    counted: bool = True
    label: str = "op"


def run_cli(argv: list[str]) -> tuple[int, list[str]]:
    """emlink's command line in-process; returns the exit code and printed lines."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue().splitlines()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def paper_reference(work: Path) -> ModeDoc:
    """The paper preset mode set, solved in-process (for the fingerprint)."""
    out = fresh_dir(work / "reference")
    code, lines = run_cli(["--preset", "paper", "--out", str(out), "modes"])
    require(code == 0, f"reference modes run exited {code}: {lines[-1:]}")
    return ModeDoc.load(out / "modeset.json")


class PaperModes:
    """`emlink --preset paper modes` at a seeded link distance, all outputs written."""

    name = "paper-modes"

    def __init__(self, seed: int, work: Path, root: Path):
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.out = work / "modes"

    def setup(self) -> None:
        self.cfg = config.load_config("paper")
        warm = fresh_dir(self.work / "warm")
        code, lines = run_cli(["--preset", "ci", "--out", str(warm), "modes"])
        require(code == 0, f"ci warm-up exited {code}: {lines[-1:]}")
        n1 = int(np.ceil(np.sqrt(self.cfg.surface_points)))
        self.src_grid = oracles.gauss_grid((0, 0, 0), self.cfg.tx_side_x, self.cfg.tx_side_y, n1)
        self.n1 = n1

    def round(self) -> list[Op]:
        distance = round(PAPER_DISTANCE + self.rng.uniform(-DISTANCE_BAND, DISTANCE_BAND), 6)
        out = fresh_dir(self.out)
        argv = ["--preset", "paper", "--out", str(out), "--set", f"distance={distance!r}", "modes"]

        def check(result):
            code, lines = result
            require(code == 0, f"modes exited {code}: {lines[-1:]}")
            require(sorted(Path(p).name for p in lines) == sorted(MODES_FILES), f"modes wrote {lines}")
            doc = ModeDoc.load(out / "modeset.json")
            rcv_grid = oracles.gauss_grid((0, 0, distance), self.cfg.rx_side_x, self.cfg.rx_side_y, self.n1)
            green = oracles.green_matrix(rcv_grid[0], self.src_grid[0], doc.k)
            oracles.check_mode_set(doc, distance, green, self.src_grid, rcv_grid)
            oracles.check_gram_csv(out / "gram_currents.csv", doc.power, doc.eta)

        return [Op(lambda: run_cli(argv), check)]

    def reference(self) -> ModeDoc:
        return paper_reference(self.work)


class FieldEval:
    """One propagate_current of a seeded Legendre current through the fixed paper link."""

    name = "field-eval"

    def __init__(self, seed: int, work: Path, root: Path):
        self.rng = np.random.default_rng(seed)
        self.work = work

    def setup(self) -> None:
        cfg = config.load_config("paper")
        self.geo = cfg.link_geometry()
        L = cfg.truncation()
        theta_e = np.radians(cfg.theta_e_deg)
        n_theta, n_phi = geometry.default_cap_densities(L, theta_e)
        self.grid = geometry.cap_direction_grid(self.geo.axis, theta_e, n_theta, n_phi)
        self.table = greens.translator_table(self.grid, self.geo.k, self.geo.r_pq, L, cfg.windowed)
        self.src = geometry.tensor_grid(self.geo.transmitter, cfg.surface_points)
        self.rcv = geometry.tensor_grid(self.geo.receiver, cfg.surface_points)

        n1 = int(np.ceil(np.sqrt(cfg.surface_points)))
        tx, rx = self.geo.transmitter, self.geo.receiver
        ps, self.ws = oracles.gauss_grid(tx.center, tx.side_x, tx.side_y, n1)
        pr, _ = oracles.gauss_grid(rx.center, rx.side_x, rx.side_y, n1)
        require(np.allclose(ps, self.src.points, rtol=0, atol=1e-12), "source grid is not the Gauss tensor grid")
        require(np.allclose(pr, self.rcv.points, rtol=0, atol=1e-12), "receiver grid is not the Gauss tensor grid")
        self.green = oracles.green_matrix(pr, ps, self.geo.k)
        self.basis = oracles.legendre_basis(tx.center, tx.side_x, tx.side_y, CURRENT_ORDER, ps)
        warm = self.current(np.ones(self.basis.shape[1], dtype=complex))
        self.check_field(warm, channel.propagate_current(warm, self.src, self.rcv, self.geo, self.grid, self.table))

    def current(self, coef) -> np.ndarray:
        return self.basis @ coef

    def check_field(self, current, field) -> None:
        ref = -1j * self.geo.k * ETA * (self.green @ (self.ws * current))
        err = float(np.linalg.norm(field - ref) / np.linalg.norm(ref))
        require(err <= FIELD_TOLERANCE, f"propagated field is {err:.2%} from the direct sum")

    def round(self) -> list[Op]:
        n = self.basis.shape[1]
        current = self.current(self.rng.normal(size=n) + 1j * self.rng.normal(size=n))

        def run():
            return channel.propagate_current(current, self.src, self.rcv, self.geo, self.grid, self.table)

        return [Op(run, lambda field: self.check_field(current, field))]

    def reference(self) -> ModeDoc:
        return paper_reference(self.work)


# Malformed mode-set documents for `emlink capacity`, made from the set-up
# mode set by rewriting its eigenvalue list; the right outcome for each is
# exit code 1 with nothing written.
MALFORMED = {
    "nan-eigenvalue": lambda ev: ev[:5] + [float("nan")] + ev[6:],
    "short-eigenvalues": lambda ev: ev[:60],
    "ascending-eigenvalues": lambda ev: ev[::-1],
}


class PaperPost:
    """capacity + sgf-error + translator at the paper preset, plus malformed mode sets."""

    name = "paper-post"

    def __init__(self, seed: int, work: Path, root: Path):
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.root = root

    def setup(self) -> None:
        self.cfg = config.load_config("paper")
        source = fresh_dir(self.work / "input")
        subprocess.run(
            [sys.executable, "-m", "emlink.cli", "--preset", "paper", "--out", str(source), "modes"],
            cwd=self.root, env=child_env(self.root), check=True, timeout=150,
            stdout=subprocess.DEVNULL,
        )
        self.modes_file = source / "modeset.json"
        self.doc = ModeDoc.load(self.modes_file)
        self.n_plateau = oracles.plateau_count(self.doc)
        bad = fresh_dir(self.work / "malformed")
        self.malformed = {}
        for fault, rewrite in MALFORMED.items():
            doc = dict(self.doc.doc, eigenvalues=rewrite(self.doc.doc["eigenvalues"]))
            path = bad / f"{fault}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.malformed[fault] = path
        for op in self.round():
            result = op.run()
            if op.counted:
                op.check(result)

    def probes(self) -> tuple[str, str]:
        """A source point on the check transmitter and a field point on the check
        receiver, laterally at most PROBE_OFFSET apart (the windowed expansion's
        converged range)."""
        half = 0.5 * self.cfg.check_aperture
        s = self.rng.uniform(-half, half, 2)
        while True:
            radius = PROBE_OFFSET * np.sqrt(self.rng.uniform())
            angle = self.rng.uniform(0.0, 2.0 * np.pi)
            r = s + radius * np.array([np.cos(angle), np.sin(angle)])
            if np.all(np.abs(r) <= half):
                break
        sx, sy, rx, ry = (float(v) for v in (*s, *r))
        return f"{sx!r},{sy!r},0", f"{rx!r},{ry!r},{self.cfg.check_distance!r}"

    def round(self) -> list[Op]:
        snr_text = [f"{v:.3f}" for v in np.sort(self.rng.uniform(0.0, 30.0, SNR_POINTS))]
        snrs = [float(v) for v in snr_text]
        src, fld = self.probes()
        out = fresh_dir(self.work / "post")
        base = ["--preset", "paper", "--out", str(out)]
        commands = [
            base + ["--set", "snr_db=" + ",".join(snr_text), "capacity", "--modes-file", str(self.modes_file)],
            base + ["--set", f"check_src={src}", "--set", f"check_field={fld}", "sgf-error"],
            base + ["translator"],
        ]

        def cycle():
            return [run_cli(argv) for argv in commands]

        def check(results):
            for argv, (code, lines) in zip(commands, results):
                require(code == 0, f"{argv[-1]} exited {code}: {lines[-1:]}")
            oracles.check_capacity(
                out, self.doc.normalized, snrs, self.cfg.power_w, self.n_plateau, self.cfg.fit_floor_rel
            )
            oracles.check_sgf_error(out / "sgf_error.csv", self.cfg.sweep_theta_deg)
            oracles.check_translator(out / "translator.csv")

        ops = [Op(cycle, check)]
        for fault, path in self.malformed.items():
            ops.append(self._malformed_op(fault, path))
        return ops

    def _malformed_op(self, fault: str, path: Path) -> Op:
        out = fresh_dir(self.work / f"bad-{fault}")
        argv = ["--preset", "paper", "--out", str(out), "capacity", "--modes-file", str(path)]

        def run():
            code, lines = run_cli(argv)
            return code, sorted(os.listdir(out)), lines[-1:]

        def check(result):
            code, left, last = result
            require(code == 1 and not left, f"exit {code}, left {left}, said {last}")

        return Op(run, check, counted=False, label=fault)

    def reference(self) -> ModeDoc:
        return self.doc


WORKLOADS = {w.name: w for w in (PaperModes, FieldEval, PaperPost)}

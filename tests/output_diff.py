"""Compare the output files of two emlink source trees, file by file.

    python tests/output_diff.py PARENT_SRC [CHANGE_SRC]

Each tree (a directory holding the `emlink` package, such as the `src` of
a `git archive` of the parent commit; CHANGE_SRC defaults to this
repository's `src`) runs `translator`, `sgf-error`, `modes` and
`capacity` on the `paper` and `ci` presets, in one child process per tree.
For each of the 15 files per preset it prints "identical" or the largest
difference in the file's own units: eigenvalues as a fraction of beta_1,
mode maps as |delta (magnitude e^{j phase})| over the map's peak magnitude,
and every other column or JSON number as its absolute difference, so
`sgf_error.csv` reads in |delta G| / |G|, capacities in bits, powers in W.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PRESETS = ("paper", "ci")
COMMANDS = ("translator", "sgf-error", "modes", "capacity")
SRC = Path(__file__).resolve().parent.parent / "src"

# run in a child whose PYTHONPATH is the tree: argv is the output root, then the presets
_CHILD = """
import sys
from emlink.cli import main
for preset in sys.argv[2:]:
    for command in {commands!r}:
        if main(["--preset", preset, "--out", f"{{sys.argv[1]}}/{{preset}}", command]) != 0:
            raise SystemExit(f"{{command}} failed on {{preset}}")
"""


def _json_numbers(value, prefix=""):
    """{dotted key: float array} of every number in a JSON document."""
    if isinstance(value, dict):
        return {k: v for key in value for k, v in _json_numbers(value[key], f"{prefix}{key}.").items()}
    if isinstance(value, list) or isinstance(value, (int, float)) and not isinstance(value, bool):
        return {prefix.rstrip("."): np.asarray(value, dtype=float)}
    return {}


def _gap(a: np.ndarray, b: np.ndarray, axis=None) -> np.ndarray:
    """max |a - b|, with equal entries (infinities too) counted as 0."""
    with np.errstate(invalid="ignore"):
        return np.max(np.where(a == b, 0.0, np.abs(a - b)), axis=axis, initial=0.0)


def gaps(name: str, old: str, new: str) -> str:
    """The largest difference between two versions of one output file, in its own units, or "identical"."""
    if old == new:
        return "identical"
    if name.endswith(".json"):
        a, b = _json_numbers(json.loads(old)), _json_numbers(json.loads(new))
        if a.keys() != b.keys() or any(a[key].shape != b[key].shape for key in a):
            return "different keys or shapes"
        if "eigenvalues" in a:
            beta_1 = a["eigenvalues"][0]
            a["eigenvalues"], b["eigenvalues"] = a["eigenvalues"] / beta_1, b["eigenvalues"] / beta_1
        moved = {key: _gap(a[key], b[key]) for key in a}
    else:
        header = old.splitlines()[0].split(",")
        if header != new.splitlines()[0].split(","):
            return "different columns"
        a, b = (np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2) for text in (old, new))
        if a.shape != b.shape:
            return f"different shapes {a.shape} and {b.shape}"
        if name.startswith("mode_"):
            za, zb = (t[:, 2] * np.exp(1j * t[:, 3]) for t in (a, b))
            return f"map moved by {_gap(za, zb) / np.max(np.abs(za)):.2e} of its peak"
        if name == "eigenvalues.csv":
            a[:, 1], b[:, 1] = a[:, 1] / a[0, 1], b[:, 1] / a[0, 1]
            header[1] = "beta_raw / beta_1"
        moved = dict(zip(header, _gap(a, b, axis=0)))
    return ", ".join(f"{key} {gap:.2e}" for key, gap in moved.items() if gap > 0) or "same numbers, other text"


def compare(parent_src: Path, change_src: Path = SRC, presets=PRESETS) -> dict[str, str]:
    """{"<preset>/<file>": gaps(...)} over every file either tree writes."""
    with tempfile.TemporaryDirectory() as tmp:
        roots = Path(tmp, "parent"), Path(tmp, "change")
        for src, root in zip((parent_src, change_src), roots):
            env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
            subprocess.run([sys.executable, "-c", _CHILD.format(commands=COMMANDS), str(root), *presets],
                           check=True, stdout=subprocess.DEVNULL, env=env)
        out = {}
        for preset in presets:
            for name in sorted({p.name for root in roots for p in (root / preset).iterdir()}):
                old, new = ((root / preset / name) for root in roots)
                both = old.is_file() and new.is_file()
                out[f"{preset}/{name}"] = gaps(name, old.read_text(), new.read_text()) if both else "missing"
        return out


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    for key, result in compare(*map(Path, sys.argv[1:])).items():
        print(f"{key:32s} {result}")

import time

import pytest

from emlink import PRESETS


def _run_preset(name):
    cfg = PRESETS[name]
    start = time.monotonic()
    result = cfg.solve()
    return result, time.monotonic() - start, cfg


@pytest.fixture(scope="session")
def paper_run():
    """Full paper-preset pipeline: (ModesResult, wall seconds, config)."""
    return _run_preset("paper")


@pytest.fixture(scope="session")
def ci_run():
    """Reduced-geometry pipeline: (ModesResult, wall seconds, config)."""
    return _run_preset("ci")

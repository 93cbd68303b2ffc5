import json

import numpy as np
import pytest
from converged_fixture import DATA, NODES, SNR_DB, headline


@pytest.mark.parametrize("preset", sorted(NODES))
def test_converged_model_reproduces_fixture(preset):
    # the closed-form solve at the preset's settings gives the numbers the surface-grid solve gave on
    # converged grids: a change that moves the converged spectrum fails here, however close it stays
    # to its parent, and so does a receiver basis cut short (a margin of 4 orders in place of 12)
    fixture = json.loads((DATA / f"converged_{preset}.json").read_text(encoding="utf-8"))
    assert fixture["nodes_per_axis"] == NODES[preset] and fixture["snr_db"] == list(SNR_DB)
    now = headline(preset)
    assert np.max(np.abs(np.subtract(now["beta_rel"], fixture["beta_rel"]))) <= 1e-12  # beta_1 = 1
    assert now["count_3db"] == fixture["count_3db"]
    assert now["decay_rate_c"] == pytest.approx(fixture["decay_rate_c"], rel=1e-9)
    assert now["c_waterfill_bits"] == pytest.approx(fixture["c_waterfill_bits"], rel=1e-9)

"""Traced peak memory of the experiments that solve the FD equation.

Each run stores only the value levels its lookups read.  The bounds are
on ``tracemalloc``'s peak over ``run_experiment``, which counts NumPy's
array data, and sit well below the peak of a run whose solution stores
every kept level (given beside each bound).
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from degenbsde.cli import run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config(name):
    return json.loads((CONFIGS / name).read_text())


# measured with only the looked-up levels stored: 3.4, 13.1 and 1.6 MB.
# The two configs' bounds sit about halfway between that and the old
# peak, and the workload's near twice its measurement, so that NumPy's
# temporaries may move with the toolchain without failing a bound
@pytest.mark.parametrize("cfg, bound_mb", [
    pytest.param(_config("z-path.json"), 5.5, id="z-path.json"),  # 7.8 MB
    pytest.param(_config("pde-vs-mc.json"), 17.5,
                 id="pde-vs-mc.json"),  # 22.0 MB
    # the zpath benchmark workload: girsanov_const, n_x 801, 101 nodes
    pytest.param({"experiment": "z-path", "model": "girsanov_const",
                  "provider": "pde", "n_paths": 5, "n_steps": 100,
                  "n_x": 801, "seed": 0}, 3.0,
                 id="zpath-workload"),  # 12.5 MB
])
def test_fd_experiment_traced_peak_stays_under_its_bound(cfg, bound_mb,
                                                         tmp_path):
    tracemalloc.start()
    try:
        res = run_experiment(cfg, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok
    assert peak / 1e6 < bound_mb

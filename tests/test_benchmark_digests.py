"""The three benchmark workloads at seed 0 write the same CSV bytes as when
they were pinned.

The configs are copies of ``perfbench/run.py``'s ``WORKLOADS`` (not
imports: the suite must not depend on the benchmark harness), and each
CSV's sha256 is pinned.  Speed-ups to the hot path promise to be bitwise
neutral; this makes a change that is not fail the suite, not only the
benchmark's digest comparison.  The three runs take about 1.5 s.
"""

import hashlib
from pathlib import Path

import pytest

from degenbsde.cli import run_experiment

_WORKLOADS = {
    "blowup": {"experiment": "blowup-rate", "model": "example1",
               "n_paths": 4096, "n_steps": 1000},
    "crossval": {"experiment": "weight-crossval", "model": "tanh_smooth",
                 "n_paths": 16384, "n_steps": 500},
    "zpath": {"experiment": "z-path", "model": "girsanov_const",
              "provider": "pde", "n_paths": 5, "n_steps": 100, "n_x": 801},
}

_CSV_SHA256 = {
    "blowup": {"blowup-rate.csv": "cf26093f5ba4b830a3f48d897198a554"
                                  "7d99d87baf10edbb809979a2ab7734cb"},
    "crossval": {"weight-crossval.csv": "cb7d75901600c2b69cbdd68d77306297"
                                        "4d14de56438604312c1301376309db56"},
    "zpath": {"z-path.csv": "e9d0c475435c30268ef732b99ad59b4a"
                            "3f3c9d0bbe3f9ab3d97b13d2a164be2e"},
}


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_benchmark_workload_csv_bytes_are_pinned(tmp_path, name):
    res = run_experiment(dict(_WORKLOADS[name], seed=0), out_dir=tmp_path)
    assert all(c.passed for c in res.checks)
    got = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
           for p in res.outputs}
    assert got == _CSV_SHA256[name]

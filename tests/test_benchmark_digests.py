"""The three benchmark workloads at seed 0, and the seven checked-in
configs, write the same CSV bytes as when they were pinned.

The workloads are copies of ``perfbench/run.py``'s ``WORKLOADS`` (not
imports: the suite must not depend on the benchmark harness), and each
CSV's sha256 is pinned.  Speed-ups to the hot path, and deletions of code
that claim to leave the outputs alone, promise to be bitwise neutral;
this makes a change that is not fail the suite, not only the benchmark's
digest comparison.  The three workload runs take about 1.5 s, the seven
config runs about 1 s.
"""

import hashlib
import json
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
    "crossval": {"weight-crossval.csv": "6b673215fb83c62bc4310c084e1d62b5"
                                        "131afe907052b6bcb45c8ed5da6220b7"},
    "zpath": {"z-path.csv": "e9d0c475435c30268ef732b99ad59b4a"
                            "3f3c9d0bbe3f9ab3d97b13d2a164be2e"},
}


_CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# every output file of each ``configs/<name>.json`` run, by its sha256
_CONFIG_SHA256 = {
    "blowup-rate": {
        "blowup-rate.csv": "349bdf1fa20325cd686712aff25c95cc"
                           "1b308ad897445bfa31d20efe0cf650ae"},
    "girsanov-equiv": {
        "girsanov-equiv.csv": "05a6adfeb5899a33f441a8901eae7731"
                              "110e2d05ff0c90e1e998e918a512a70f",
        "girsanov-equiv_gamma.csv": "0cd08ae2536d5f14dc34d8a1c6929f75"
                                    "3bf993694abdaca94ed0b647fc605146"},
    "lambda-moment": {
        "lambda-moment.csv": "0f9bc47bae0ae9e61ee47f589d03010c"
                             "a0e9806623c58015ca8e43a888290b75"},
    "pde-vs-mc": {
        "pde-vs-mc.csv": "8058c97eb1f9b1a8c0f5e3792123999c"
                         "75504255c7aaa5a71e5b628a0d180760"},
    "tau-locate": {
        "tau-locate.csv": "3380845268d5df19b6f6cb4dd400f6c4"
                          "167b8d349f6613cfca4ccaadd610a37b",
        "tau-locate_hist.csv": "12f78605f7c5440b1f039f2db621aa84"
                               "108dc2f5c7b083bcd45b6d3a750693bf"},
    "weight-crossval": {
        "weight-crossval.csv": "d249b5fc34c321f7b49a9e52bd9d9ddb"
                               "1728084fd11095931ac2ca896c2e0310"},
    "z-path": {
        "z-path.csv": "92abfa217b57ee61b0da0a0041cbfca2"
                      "f5c207467d568f8ee71b620f841dd6ae"},
}


def _digests(res) -> dict:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in res.outputs}


@pytest.mark.parametrize("name", sorted(_WORKLOADS))
def test_benchmark_workload_csv_bytes_are_pinned(tmp_path, name):
    res = run_experiment(dict(_WORKLOADS[name], seed=0), out_dir=tmp_path)
    assert all(c.passed for c in res.checks)
    assert _digests(res) == _CSV_SHA256[name]


# every config, so that one added without a pin fails here
@pytest.mark.parametrize("name",
                         sorted(p.stem for p in _CONFIG_DIR.glob("*.json")))
def test_checked_in_config_output_bytes_are_pinned(tmp_path, name):
    raw = json.loads((_CONFIG_DIR / f"{name}.json").read_text())
    res = run_experiment(raw, out_dir=tmp_path)
    assert all(c.passed for c in res.checks)
    assert _digests(res) == _CONFIG_SHA256[name]

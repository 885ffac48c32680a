"""``weight-crossval``'s z-scores are paired: each is the mean per-path
difference of two gradient routes over that difference's own stderr, so
the check holds its nominal rate on working code and still catches a
weight that is off by 3%."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import degenbsde.estimators as est_mod
from degenbsde import ProblemPoint, TimeGrid, builtin_model
from degenbsde.cli import run_experiment
from degenbsde.estimators import (_difference_reducer, _estimate,
                                  _ux_pathwise_reducer, _ux_weighted_reducer)

_CONFIG = json.loads((Path(__file__).resolve().parent.parent / "configs"
                      / "weight-crossval.json").read_text())


def _run(tmp_path, **overrides):
    res = run_experiment(dict(_CONFIG, **overrides), out_dir=tmp_path)
    (check,) = res.checks
    assert check.name == "crossval-zscores"
    return check


# declared x-flat, the job draws the terminal law; undeclared, it streams
# the kernel, and the classical weight reads every state
@pytest.mark.parametrize("x_flat", [True, False])
def test_difference_reducer_is_the_paired_difference(x_flat):
    model = dataclasses.replace(builtin_model("tanh_smooth"), x_flat=x_flat)
    point = ProblemPoint(0.0, 0.3)
    grid = TimeGrid(0.0, model.horizon_T, 40)
    pw = _ux_pathwise_reducer(model, point, grid)
    dg = _ux_weighted_reducer(model, point, grid,
                              weight_kind="nondegenerate")
    values = {}

    def capture(name, reducer):
        def inner(n):
            r = reducer(n)
            next(r)
            while (st := (yield)) is not None:
                r.send(st)
            vals, keep = r.send(None)
            values.setdefault(name, []).append(
                np.where(keep, vals, np.nan))
            yield vals, keep
        inner.terminal_only = reducer.terminal_only
        return inner

    [(a, b, diff)] = _estimate(model, 11, 5000, [(point, grid, [
        capture("a", pw), capture("b", dg), _difference_reducer(pw, dg)])])
    per_path = np.concatenate(values["a"]) - np.concatenate(values["b"])
    per_path = per_path[np.isfinite(per_path)]
    assert diff.n_used == per_path.size
    assert diff.mean == pytest.approx(a.mean - b.mean, rel=1e-12, abs=1e-15)
    assert diff.mean == pytest.approx(float(np.mean(per_path)), rel=1e-12)
    assert diff.stderr == pytest.approx(
        float(np.std(per_path, ddof=1)) / math.sqrt(per_path.size), rel=1e-12)
    # on shared paths the two routes are negatively correlated, which two
    # separate stderrs ignore: they understate the difference's
    assert diff.stderr > 1.2 * math.hypot(a.stderr, b.stderr)


def test_identical_routes_give_a_zero_z(tmp_path):
    # on the checked-in config both weights coincide bit for bit
    _run(tmp_path, n_paths=4096)
    row = (tmp_path / "weight-crossval.csv").read_text().splitlines()[1]
    values = [float(v) for v in row.split(",")]
    assert values[2:4] == values[4:6]
    assert values[8] == 0.0


# fixed before the check was first run on them
_SEEDS = range(7000, 7300)


def test_check_holds_its_rate_on_working_code(tmp_path):
    failed = [seed for seed in _SEEDS
              if not _run(tmp_path, n_paths=4096, seed=seed).passed]
    # a nominal rate of 0.27% predicts 0.8 of 300; seed 7045 fails, and
    # two separate stderrs failed 7 of these seeds
    assert len(failed) <= 4, failed


def test_check_catches_a_weight_three_percent_off(tmp_path, monkeypatch):
    # both weights scaled alike, so only the pathwise route can tell
    assert _run(tmp_path).passed
    for name in ("degenerate_weight_values", "nondegenerate_weight_values"):
        monkeypatch.setattr(est_mod, name, _scaled(getattr(est_mod, name)))
    check = _run(tmp_path)
    assert not check.passed, check.measured


def _scaled(weight_values, c=1.03):
    def scaled(*args):
        w, floored = weight_values(*args)
        return w * c, floored
    return scaled

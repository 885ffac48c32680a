import dataclasses
import json
import runpy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenbsde.cli as cli
import degenbsde.estimators as est_mod
from degenbsde import OutsideGamma0Error, builtin_model_names
from degenbsde.cli import ConfigError, main, run_experiment

_ROOT = Path(__file__).resolve().parent.parent


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _first_line(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


# ---------------------------------------------------------------------------
# experiment runs (library entry point)
# ---------------------------------------------------------------------------


def test_blowup_rate_writes_slope_footer(tmp_path):
    cfg = {"experiment": "blowup-rate", "model": "example1",
           "t_lo": 0.5, "t_hi": 0.7, "n_t_points": 3,
           "n_paths": 400, "n_steps": 100}
    res = run_experiment(cfg, out_dir=tmp_path)
    assert res.experiment == "blowup-rate"
    (path,) = res.outputs
    assert _first_line(path) == "t,ux_mc,ux_stderr,ux_oracle"
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 3 + 1
    footer = lines[-1].split(",")
    assert footer[0] == "slope"
    assert footer[2] == ""
    assert len(res.checks) == 1 and res.checks[0].name == "blowup-slope"


@pytest.mark.parametrize("bad", [0.0, float("nan"), -1.0])
def test_blowup_rate_fails_on_an_unusable_mean(tmp_path, monkeypatch, bad):
    real = cli._estimate

    def spoiled(model, seed, n_paths, jobs):
        out = real(model, seed, n_paths, jobs)
        return [[dataclasses.replace(est, mean=bad * abs(est.mean))
                 if abs(point.t0 - 0.6) < 1e-12 else est for est in ests]
                for (point, _, _), ests in zip(jobs, out)]

    monkeypatch.setattr(cli, "_estimate", spoiled)
    cfg = {"experiment": "blowup-rate", "model": "example1",
           "t_lo": 0.5, "t_hi": 0.7, "n_t_points": 3,
           "n_paths": 400, "n_steps": 100}
    check = run_experiment(cfg, out_dir=tmp_path).checks[0]
    assert check.name == "blowup-slope"
    assert not check.passed
    assert "t=0.6" in check.measured


def test_blowup_rate_draws_once_per_chunk_for_all_its_points(tmp_path,
                                                              monkeypatch):
    draws = _count_draws(monkeypatch)
    cfg = {"experiment": "blowup-rate", "model": "example1",
           "t_lo": 0.5, "t_hi": 0.7, "n_t_points": 3,
           "n_paths": 400, "n_steps": 100}
    run_experiment(cfg, out_dir=tmp_path)
    # one chunk; example1 is x-flat and cost-free, so every point draws
    # its terminal state from the exact law: two normals per path
    assert len(draws) == 1
    _, idx, n_steps = draws[0]
    assert idx.size == 400 and n_steps == 2


def test_later_dead_probe_exits_1_before_any_draw(tmp_path, capsys,
                                                  monkeypatch):
    # step_vol dies at 0.5: the second probe is outside the alive set
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": "pde-vs-mc", "model": "step_vol",
        "probes": [[0.0, 0.0], [0.7, 0.0]], "n_paths": 16, "n_steps": 8,
        "n_x": 21})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert "alive set" in capsys.readouterr().err
    assert draws == []


def test_blowup_rate_requires_the_dying_model(tmp_path):
    cfg = {"experiment": "blowup-rate", "model": "tanh_smooth"}
    with pytest.raises(ConfigError, match="example1"):
        run_experiment(cfg, out_dir=tmp_path)


def test_weight_crossval_triangle_agrees(tmp_path):
    cfg = {"experiment": "weight-crossval", "model": "tanh_smooth",
           "x0": 0.2, "n_paths": 2000, "n_steps": 50}
    res = run_experiment(cfg, out_dir=tmp_path)
    (path,) = res.outputs
    assert _first_line(path) == (
        "ux_pathwise,ux_pathwise_stderr,ux_nondegenerate,"
        "ux_nondegenerate_stderr,ux_degenerate,ux_degenerate_stderr,"
        "z_pathwise_nondegenerate,z_pathwise_degenerate,"
        "z_nondegenerate_degenerate")
    assert res.ok


def test_tau_locate_snaps_to_the_cut(tmp_path):
    cfg = {"experiment": "tau-locate", "model": "step_vol",
           "n_paths": 50, "n_steps": 50, "expected_tau": 0.52}
    res = run_experiment(cfg, out_dir=tmp_path)
    main_csv, hist_csv = res.outputs
    assert _first_line(main_csv) == "path_id,tau"
    assert _first_line(hist_csv) == "tau,count"
    data = np.loadtxt(main_csv, delimiter=",", skiprows=1)
    assert data.shape == (50, 2)
    np.testing.assert_allclose(data[:, 1], 0.52, atol=1e-12)
    assert res.ok


def test_lambda_moment_is_stable_for_deterministic_occupation(tmp_path):
    cfg = {"experiment": "lambda-moment", "model": "example1",
           "n_paths": 800, "n_steps": 100, "n_doublings": 2}
    res = run_experiment(cfg, out_dir=tmp_path)
    (path,) = res.outputs
    assert _first_line(path) == "p,n_paths,moment,stderr,n_floored"
    assert res.ok
    names = {c.name for c in res.checks}
    assert names == {"lambda-moment-stable-p1", "lambda-moment-stable-p2"}


def test_girsanov_equiv_reports_invariance(tmp_path):
    cfg = {"experiment": "girsanov-equiv", "model": "girsanov_const",
           "n_paths": 4000, "n_steps": 50, "n_x": 101,
           "equiv_n_t": 5, "equiv_n_x": 5}
    res = run_experiment(cfg, out_dir=tmp_path)
    values_csv, gamma_csv = res.outputs
    assert _first_line(values_csv) == "t,x,u_mc,u_stderr,u_fd,abs_diff"
    assert _first_line(gamma_csv) == (
        "n_points,n_agree,agreement_fraction,n_in_both,max_index_ratio")
    gamma = np.loadtxt(gamma_csv, delimiter=",", skiprows=1)
    assert gamma[2] == 1.0
    assert res.ok


def test_pde_vs_mc_crosses_within_tolerance(tmp_path):
    cfg = {"experiment": "pde-vs-mc", "model": "bachelier_digital",
           "probes": [[0.0, 0.0], [0.25, 0.5]],
           "n_paths": 4000, "n_steps": 50, "n_x": 201}
    res = run_experiment(cfg, out_dir=tmp_path)
    (path,) = res.outputs
    assert _first_line(path) == (
        "t,x,u_fd,u_mc,u_mc_stderr,ux_fd,ux_mc,ux_mc_stderr")
    assert res.ok


def test_z_path_rows_are_clamped_after_tau(tmp_path):
    cfg = {"experiment": "z-path", "model": "step_vol",
           "provider": "pde", "params": {"sigma_bar": 1.0},
           "n_paths": 2, "n_steps": 20}
    res = run_experiment(cfg, out_dir=tmp_path)
    (path,) = res.outputs
    assert _first_line(path) == "path_id,t,X,Z,tau"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (2 * 21, 5)
    dead = data[:, 1] >= data[:, 4]
    assert np.all(data[dead, 3] == 0.0)
    assert np.any(dead)
    assert res.ok


@pytest.mark.parametrize("model, provider",
                         [("bachelier_digital", "bachelier"),
                          ("example1", "example1")])
def test_z_path_closed_form_provider_on_its_own_model(tmp_path, model,
                                                      provider):
    cfg = {"experiment": "z-path", "model": model, "provider": provider,
           "n_paths": 2, "n_steps": 20}
    res = run_experiment(cfg, out_dir=tmp_path)
    data = np.loadtxt(res.outputs[0], delimiter=",", skiprows=1)
    assert data.shape == (2 * 21, 5)
    assert res.ok


def test_z_path_calls_the_provider_at_most_once_per_node(tmp_path,
                                                        monkeypatch):
    # one ux_eval call per node over the live paths, not one per path
    calls = []
    real = cli._zpath_provider

    def counting(*args):
        provider = real(*args)

        def ux_eval(t, x):
            calls.append(t)
            return provider.ux_eval(t, x)

        return dataclasses.replace(provider, ux_eval=ux_eval)

    monkeypatch.setattr(cli, "_zpath_provider", counting)
    res = run_experiment({"experiment": "z-path", "model": "step_vol",
                          "provider": "pde", "n_paths": 16, "n_steps": 20},
                         out_dir=tmp_path)
    assert res.ok
    assert 0 < len(calls) <= 20 + 1
    assert len(set(calls)) == len(calls)


def test_closed_form_oracles_read_the_factory_defaults(monkeypatch):
    # a factory default changed in one place reaches its closed form too
    real, doc = cli.BUILTIN_MODELS["bachelier_digital"]

    def factory(sigma_bar=2.0, strike=0.5, T=1.5):
        return real(sigma_bar, strike, T)

    monkeypatch.setitem(cli.BUILTIN_MODELS, "bachelier_digital",
                        (factory, doc))
    assert cli._oracle_params({"model": "bachelier_digital", "params": {
        "strike": -1}}) == {"sigma_bar": 2.0, "strike": -1.0, "T": 1.5}
    assert cli._oracle_params({"model": "example1", "params": None}) == {
        "alpha": 0.8, "beta": 0.5}


@pytest.mark.parametrize("model, provider",
                         [("tanh_smooth", "bachelier"),
                          ("step_vol", "bachelier"),
                          ("bachelier_digital", "example1"),
                          ("step_vol", "example1")])
def test_z_path_closed_form_provider_on_another_model_exits_1(
        tmp_path, capsys, monkeypatch, model, provider):
    simulated = []
    monkeypatch.setattr(cli, "simulate_batch",
                        lambda *args: simulated.append(args))
    path = _write_config(tmp_path, {
        "experiment": "z-path", "model": model, "provider": provider,
        "n_paths": 2, "n_steps": 20})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert "'provider'" in capsys.readouterr().err
    assert simulated == []
    assert not list(tmp_path.glob("*.csv"))


def test_output_path_key_is_honored(tmp_path):
    cfg = {"experiment": "tau-locate", "model": "step_vol",
           "n_paths": 4, "n_steps": 10, "output_path": "custom.csv"}
    res = run_experiment(cfg, out_dir=tmp_path)
    assert res.outputs[0] == tmp_path / "custom.csv"
    assert (tmp_path / "custom_hist.csv").exists()


def test_reruns_are_byte_identical(tmp_path):
    cfg = {"experiment": "weight-crossval", "model": "tanh_smooth",
           "n_paths": 1500, "n_steps": 40, "seed": 5}
    a = run_experiment(cfg, out_dir=tmp_path / "a")
    b = run_experiment(cfg, out_dir=tmp_path / "b")
    assert a.outputs[0].read_bytes() == b.outputs[0].read_bytes()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = {"experiment": "tau-locate", "model": "step_vol", "bogus": 1}
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        run_experiment(cfg, out_dir=tmp_path)
    # lambda_floor is declared only by the experiments that read it
    for exp in ("tau-locate", "girsanov-equiv", "z-path"):
        cfg = {"experiment": exp, "model": "step_vol", "lambda_floor": 1e300}
        with pytest.raises(ConfigError,
                           match="unknown config key 'lambda_floor'"):
            run_experiment(cfg, out_dir=tmp_path)


def test_unknown_experiment_and_model_are_rejected(tmp_path):
    with pytest.raises(ConfigError, match="experiment"):
        run_experiment({"experiment": "nope", "model": "step_vol"},
                       out_dir=tmp_path)
    with pytest.raises(ConfigError, match="model"):
        run_experiment({"experiment": "tau-locate", "model": "nope"},
                       out_dir=tmp_path)


def test_type_errors_are_config_errors(tmp_path):
    base = {"experiment": "tau-locate", "model": "step_vol"}
    with pytest.raises(ConfigError, match="'seed' must be an integer"):
        run_experiment({**base, "seed": "zero"}, out_dir=tmp_path)
    with pytest.raises(ConfigError, match="'n_paths' must be positive"):
        run_experiment({**base, "n_paths": -3}, out_dir=tmp_path)
    with pytest.raises(ConfigError, match="'eps_sigma'"):
        run_experiment({**base, "eps_sigma": 0.0}, out_dir=tmp_path)


def test_dead_start_is_a_config_error(tmp_path):
    cfg = {"experiment": "pde-vs-mc", "model": "indicator_zero_vol",
           "probes": [[0.0, 0.0]], "n_paths": 16, "n_steps": 8, "n_x": 11}
    with pytest.raises(OutsideGamma0Error):
        run_experiment(cfg, out_dir=tmp_path)


# ---------------------------------------------------------------------------
# command line entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_runs_and_prints_outputs(tmp_path, capsys):
    path = _write_config(tmp_path, {
        "experiment": "tau-locate", "model": "step_vol",
        "n_paths": 8, "n_steps": 20, "expected_tau": 0.55})
    code = main(["run", "--config", path, "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wrote" in out
    # checks are computed but do not gate the exit status without --check
    assert "check" not in out


def test_main_check_pass_and_fail_exit_codes(tmp_path, capsys):
    good = _write_config(tmp_path, {
        "experiment": "tau-locate", "model": "step_vol",
        "n_paths": 8, "n_steps": 50, "expected_tau": 0.52}, "good.json")
    bad = _write_config(tmp_path, {
        "experiment": "tau-locate", "model": "step_vol",
        "n_paths": 8, "n_steps": 50, "expected_tau": 0.9}, "bad.json")
    assert main(["run", "--config", good, "--out-dir", str(tmp_path),
                 "--check"]) == 0
    assert "tau-within-one-step: PASS" in capsys.readouterr().out
    assert main(["run", "--config", bad, "--out-dir", str(tmp_path),
                 "--check"]) == 3
    assert "tau-within-one-step: FAIL" in capsys.readouterr().out
    # without --check the same breach is not an error
    assert main(["run", "--config", bad, "--out-dir", str(tmp_path)]) == 0


def test_main_exit_1_on_config_problems(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["run", "--config", missing]) == 1
    assert "config error" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", "--config", str(broken)]) == 1
    assert "invalid JSON" in capsys.readouterr().err

    unknown = _write_config(tmp_path, {
        "experiment": "tau-locate", "model": "step_vol", "bogus": 1},
        "unknown.json")
    assert main(["run", "--config", unknown]) == 1
    assert "unknown config key" in capsys.readouterr().err

    dead = _write_config(tmp_path, {
        "experiment": "pde-vs-mc", "model": "indicator_zero_vol",
        "probes": [[0.0, 0.0]], "n_paths": 16, "n_steps": 8, "n_x": 11},
        "dead.json")
    assert main(["run", "--config", dead, "--out-dir", str(tmp_path)]) == 1
    assert "alive set" in capsys.readouterr().err


def _count_draws(monkeypatch):
    """Count the normal draws the estimators make from now on, one per
    chunk of paths for all of a call's start points."""
    calls = []
    real = est_mod._normal_matrix

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(est_mod, "_normal_matrix", counting)
    return calls


def test_weight_crossval_without_payoff_derivative_exits_1(tmp_path, capsys,
                                                            monkeypatch):
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": "weight-crossval", "model": "bachelier_digital",
        "n_paths": 16, "n_steps": 8})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert "g_prime" in capsys.readouterr().err
    assert draws == []


def test_weight_crossval_validates_every_estimator_before_simulating(
        tmp_path, capsys, monkeypatch):
    # the pathwise estimator comes first and would run anywhere; the
    # weighted ones refuse the point once eps_sigma exceeds the volatility
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": "weight-crossval", "model": "tanh_smooth",
        "n_paths": 16, "n_steps": 8, "eps_sigma": 2.0})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert "alive set" in capsys.readouterr().err
    assert draws == []


def test_main_exit_2_on_numerical_breakdown(tmp_path, capsys):
    floored = _write_config(tmp_path, {
        "experiment": "lambda-moment", "model": "example1",
        "n_paths": 32, "n_steps": 50, "n_doublings": 1,
        "lambda_floor": 1e9})
    assert main(["run", "--config", floored, "--out-dir",
                 str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_main_lists_models_and_experiments(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    for name in builtin_model_names():
        assert name in out
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in ("blowup-rate", "weight-crossval", "tau-locate",
                 "lambda-moment", "girsanov-equiv", "pde-vs-mc", "z-path"):
        assert name in out


def test_empty_probes_is_a_config_error(tmp_path):
    cfg = {"experiment": "pde-vs-mc", "model": "bachelier_digital",
           "probes": []}
    with pytest.raises(ConfigError, match="'probes' must be non-empty"):
        run_experiment(cfg, out_dir=tmp_path)


@pytest.mark.parametrize("bad", [[1, 2], None, "abc", True, float("nan"),
                                 float("inf")])
def test_girsanov_equiv_rejects_non_numeric_probes_x(tmp_path, capsys,
                                                     monkeypatch, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("validation must precede the FD solve")

    monkeypatch.setattr(cli, "_solve", no_solve)
    path = _write_config(tmp_path, {
        "experiment": "girsanov-equiv", "model": "girsanov_const",
        "probes_x": [bad]})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert "probes_x" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_eps_sigma_is_rejected_before_any_solve(tmp_path,
                                                            monkeypatch, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("validation must precede the FD solve")

    monkeypatch.setattr(cli, "_solve", no_solve)
    cfg = {"experiment": "girsanov-equiv", "model": "girsanov_const",
           "eps_sigma": bad}
    with pytest.raises(ConfigError, match="'eps_sigma' must be a finite"):
        run_experiment(cfg, out_dir=tmp_path)


@pytest.mark.parametrize("bad", [-1, 2 ** 64])
def test_out_of_range_seed_is_rejected_before_any_solve(tmp_path, capsys,
                                                        monkeypatch, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("validation must precede the FD solve")

    monkeypatch.setattr(cli, "_solve", no_solve)
    cfg = {"experiment": "girsanov-equiv", "model": "girsanov_const",
           "seed": bad}
    with pytest.raises(ConfigError, match="'seed' must lie in"):
        run_experiment(cfg, out_dir=tmp_path)
    path = _write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert "config error: key 'seed'" in capsys.readouterr().err


def test_blowup_rate_needs_two_points_for_a_slope(tmp_path):
    cfg = {"experiment": "blowup-rate", "model": "example1",
           "n_t_points": 1, "n_paths": 16, "n_steps": 20}
    with pytest.raises(ConfigError, match="n_t_points"):
        run_experiment(cfg, out_dir=tmp_path)


@pytest.mark.parametrize("experiment, model, key, value", [
    ("pde-vs-mc", "bachelier_digital", "probes", [[10 ** 400, 0.0]]),
    ("pde-vs-mc", "bachelier_digital", "probes", [[0.0, -10 ** 400]]),
    ("pde-vs-mc", "bachelier_digital", "probes", [[0.0, float("nan")]]),
    ("lambda-moment", "example1", "p_values", [10 ** 400]),
    ("lambda-moment", "example1", "p_values", [float("inf")]),
    ("lambda-moment", "example1", "p_values", [1.0, float("nan")]),
    # the rules that need the model or a second key
    ("tau-locate", "step_vol", "t0", 1.0),
    ("z-path", "example1", "t0", 2.0),
    ("pde-vs-mc", "bachelier_digital", "probes", [[0.0, 0.0], [1.0, 0.0]]),
    ("pde-vs-mc", "bachelier_digital", "probes", [[-0.5, 0.0]]),
    ("girsanov-equiv", "girsanov_const", "x_min", 3.0),
], ids=["probes-huge-t", "probes-huge-x", "probes-nan", "p_values-huge",
        "p_values-inf", "p_values-nan", "t0-at-horizon",
        "z-path-t0-at-horizon", "probes-at-horizon", "probes-before-0",
        "x_min-at-x_max"])
def test_bad_list_item_or_start_point_exits_1_before_any_work(
        tmp_path, capsys, monkeypatch, experiment, model, key, value):
    solves = []
    monkeypatch.setattr(cli, "_solve", lambda *args: solves.append(args))
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {"experiment": experiment, "model": model,
                                    key: value})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: key") and repr(key) in err
    assert solves == [] and draws == []


@pytest.mark.parametrize("output_path", ["a\u0000b.csv", "sub", "."],
                         ids=["nul-byte", "directory", "out-dir"])
def test_bad_output_path_exits_1_before_any_work(tmp_path, capsys,
                                                 monkeypatch, output_path):
    (tmp_path / "sub").mkdir()
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": "weight-crossval", "model": "tanh_smooth",
        "n_paths": 16, "n_steps": 8, "output_path": output_path})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: key 'output_path'")
    assert draws == []


@pytest.mark.parametrize("experiment,model,suffix", [
    ("tau-locate", "step_vol", "_hist"),
    ("girsanov-equiv", "girsanov_const", "_gamma"),
])
def test_side_output_that_names_a_directory_exits_1_before_any_work(
        tmp_path, capsys, monkeypatch, experiment, model, suffix):
    (tmp_path / f"x{suffix}.csv").mkdir()
    work = []
    monkeypatch.setattr(cli, "_solve", lambda *args: work.append(args))
    monkeypatch.setattr(cli, "simulate_batch",
                        lambda *args: work.append(args))
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": experiment, "model": model, "n_paths": 16,
        "n_steps": 8, "output_path": "x.csv"})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'output_path'")
    assert f"x{suffix}.csv" in err
    assert work == [] and draws == []
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("experiment,model", [
    ("weight-crossval", "tanh_smooth"),
    ("z-path", "bachelier_digital"),
    ("pde-vs-mc", "bachelier_digital"),
])
def test_overflowing_volatility_exits_1_before_any_work(tmp_path, capsys,
                                                        monkeypatch,
                                                        experiment, model):
    # sigma_bar**2 overflows: Lambda and the FD step limit are meaningless
    solves = []
    monkeypatch.setattr(cli, "_solve", lambda *args: solves.append(args))
    monkeypatch.setattr(cli, "simulate_batch",
                        lambda *args: solves.append(args))
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": experiment, "model": model, "n_paths": 16,
        "n_steps": 8, "params": {"sigma_bar": 1e160}})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'params'")
    assert "lipschitz_K" in err
    assert solves == [] and draws == []


def test_volatility_without_a_finite_fd_step_count_is_a_numerical_failure(
        tmp_path, capsys, monkeypatch):
    # sigma_bar**2 is finite, but dx**2 / sigma_bar**2 underflows
    paths = []
    monkeypatch.setattr(cli, "simulate_batch",
                        lambda *args: paths.append(args))
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": "z-path", "model": "bachelier_digital", "n_paths": 2,
        "n_steps": 8, "params": {"sigma_bar": 1e154}})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert "no finite step count" in capsys.readouterr().err
    assert paths == [] and draws == []


@pytest.mark.parametrize("experiment", ["z-path", "pde-vs-mc"])
def test_step_count_beyond_int64_is_a_numerical_failure(tmp_path, capsys,
                                                        monkeypatch,
                                                        experiment):
    # the explicit limit is positive and finite, but needs ~2.8e303 steps
    paths = []
    monkeypatch.setattr(cli, "simulate_batch",
                        lambda *args: paths.append(args))
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": experiment, "model": "bachelier_digital",
        "n_paths": 2, "n_steps": 8, "params": {"sigma_bar": 1e150}})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert "no int64 step count" in capsys.readouterr().err
    assert paths == [] and draws == []


def test_x_span_that_overflows_exits_1_before_any_work(tmp_path, capsys,
                                                       monkeypatch):
    solves = []
    monkeypatch.setattr(cli, "_solve", lambda *args: solves.append(args))
    draws = _count_draws(monkeypatch)
    path = _write_config(tmp_path, {
        "experiment": "girsanov-equiv", "model": "girsanov_const",
        "x_min": -1e308, "x_max": 1e308})
    assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
    assert "keys 'x_min'/'x_max'" in capsys.readouterr().err
    assert solves == [] and draws == []


def test_integer_too_long_to_parse_is_invalid_json(tmp_path, capsys):
    # Python refuses to convert an int literal of more than 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"experiment": "tau-locate", "model": "step_vol", '
                    '"seed": 1' + "0" * 5000 + "}")
    assert main(["run", "--config", str(path), "--out-dir",
                 str(tmp_path)]) == 1
    assert "config error: invalid JSON" in capsys.readouterr().err


class _Reached(Exception):
    """Raised where a run would start its first FD solve or path."""


def _reached(*args, **kwargs):
    raise _Reached


# each fuzzed key gets a small value of its kind or a wild JSON value
_WILD = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.sampled_from([2 ** 63, 2 ** 64, 10 ** 30, 10 ** 400, -10 ** 400,
                       float("nan"), float("inf"), -float("inf")]),
    lambda items: st.lists(items, max_size=3), max_leaves=6)
_SMALL = st.integers(-1, 8) | st.floats(-2.0, 3.0)
_OF_KIND = {
    "int": st.integers(-1, 8),
    "float": _SMALL,
    "str": st.sampled_from(["pde", "bachelier", "example1", "degenerate",
                            "nondegenerate", *builtin_model_names()]),
    "dict": st.none(),
    "numbers": st.lists(_SMALL, max_size=3),
    "points": st.lists(st.lists(_SMALL, min_size=2, max_size=2), max_size=3),
}


@st.composite
def _fuzzed_configs(draw):
    experiment = draw(st.sampled_from(sorted(cli._EXPERIMENT_KEYS)))
    schema = {**cli._COMMON_KEYS, **cli._EXPERIMENT_KEYS[experiment]}
    del schema["experiment"]
    cfg = {"experiment": experiment,
           "model": draw(st.sampled_from(builtin_model_names()))}
    for key in draw(st.lists(st.sampled_from(sorted(schema)), max_size=4,
                             unique=True)):
        cfg[key] = draw(_OF_KIND[schema[key].kind] | _WILD)
    return cfg


@settings(max_examples=400, deadline=None)
@given(cfg=_fuzzed_configs())
def test_any_config_is_rejected_as_a_config_error_or_reaches_the_work(cfg):
    # a bad config names itself before the first FD solve or path: the
    # only exceptions main maps to exit 1, or the sentinel at that work
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as out_dir:
        for name in ("_solve", "simulate_batch", "simulate_path"):
            mp.setattr(cli, name, _reached)
        mp.setattr(est_mod, "_normal_matrix", _reached)
        try:
            run_experiment(cfg, out_dir=out_dir)
        except (ConfigError, OutsideGamma0Error, _Reached):
            pass


# ---------------------------------------------------------------------------
# checked-in run configs
# ---------------------------------------------------------------------------


_CONFIGS = sorted((_ROOT / "configs").glob("*.json"))
# the benchmark's workloads, which it runs with the seed it is given
_WORKLOADS = runpy.run_path(str(_ROOT / "perfbench" / "run.py"))["WORKLOADS"]
_RUN_CONFIGS = (
    [(p.stem, json.loads(p.read_text())) for p in _CONFIGS]
    + [(f"perfbench-{name}", dict(wl.config, seed=0))
       for name, wl in sorted(_WORKLOADS.items())])


def test_configs_cover_every_experiment():
    names = {json.loads(p.read_text())["experiment"] for p in _CONFIGS}
    assert names == set(cli._RUNNERS)


@pytest.mark.parametrize("raw", [cfg for _, cfg in _RUN_CONFIGS],
                         ids=[name for name, _ in _RUN_CONFIGS])
def test_checked_in_config_is_valid(raw):
    # _build_model also checks the start times against the model's horizon
    cli._build_model(cli._validate_config(raw))

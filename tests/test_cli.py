import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import degenbsde.cli as cli
from degenbsde import OutsideGamma0Error, builtin_model_names
from degenbsde.cli import ConfigError, main, run_experiment


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
    real = cli.estimate_ux_weighted

    def spoiled(model, point, *args, **kwargs):
        est = real(model, point, *args, **kwargs)
        if abs(point.t0 - 0.6) < 1e-12:
            est = dataclasses.replace(est, mean=bad * abs(est.mean))
        return est

    monkeypatch.setattr(cli, "estimate_ux_weighted", spoiled)
    cfg = {"experiment": "blowup-rate", "model": "example1",
           "t_lo": 0.5, "t_hi": 0.7, "n_t_points": 3,
           "n_paths": 400, "n_steps": 100}
    check = run_experiment(cfg, out_dir=tmp_path).checks[0]
    assert check.name == "blowup-slope"
    assert not check.passed
    assert "t=0.6" in check.measured


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
           "provider": "bachelier", "params": {"sigma_bar": 1.0},
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


# ---------------------------------------------------------------------------
# checked-in run configs
# ---------------------------------------------------------------------------


_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs")
                  .glob("*.json"))


def test_configs_cover_every_experiment():
    names = {json.loads(p.read_text())["experiment"] for p in _CONFIGS}
    assert names == set(cli._RUNNERS)


@pytest.mark.parametrize("path", _CONFIGS, ids=lambda p: p.stem)
def test_checked_in_config_is_valid(path):
    cfg = cli._validate_config(json.loads(path.read_text()))
    cli._build_model(cfg)

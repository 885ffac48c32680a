"""Configuration-driven experiment runner.

One invocation runs one experiment from a flat JSON config and writes CSV
artifacts.  Every experiment is a pure function of its config: same file,
same bytes out, no wall-clock seeding, no hidden state.

Config schema: a single JSON object.  ``experiment`` and ``model`` are
required everywhere; ``params`` (nested object) feeds the model factory;
remaining keys are experiment-specific and validated up front -- an
unknown or ill-typed key aborts with exit status 1 before any computation
starts.  ``--check`` additionally evaluates the experiment's acceptance
thresholds and exits with status 3 when one fails.  Numerical failures
(all samples floored, unstable FD grid) exit with status 2.

Reals in CSV output carry 17 significant digits with ``.`` decimal and
``\\n`` line endings, so reruns are byte-comparable across platforms.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .degeneracy import (DEFAULT_EPS_SIGMA, check_gamma_equivalence,
                         locate_tau, locate_tau_batch)
from .estimators import (EstimationError, OutsideGamma0Error,
                         ProviderRequiredError, bachelier_provider,
                         empirical_lambda_moment, estimate_u,
                         estimate_ux_pathwise, estimate_ux_weighted,
                         example1_provider, reconstruct_Z)
from .model import (BUILTIN_MODELS, CoefficientModel, ProblemPoint,
                    builtin_model)
from .oracles import Example1Params, example1_ux_at_zero
from .pde_fd import make_grid, solve_fd
from .sde_sim import SimulationError, TimeGrid, simulate_batch, simulate_path

__all__ = ["ConfigError", "NumericalFailure", "ExperimentResult",
           "run_experiment", "main"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


class NumericalFailure(RuntimeError):
    """A numerical precondition failed at run time (CFL, flooring, ...)."""


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    measured: str
    requirement: str


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    outputs: tuple
    checks: tuple = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Key:
    kind: str  # "str" | "int" | "float" | "dict" | "list"
    required: bool = False
    default: object = None


_COMMON_KEYS = {
    "experiment": _Key("str", required=True),
    "model": _Key("str", required=True),
    "params": _Key("dict", default=None),
    "seed": _Key("int", default=0),
    "output_path": _Key("str", default=None),
    "eps_sigma": _Key("float", default=DEFAULT_EPS_SIGMA),
    "lambda_floor": _Key("float", default=None),
}

_EXPERIMENT_KEYS = {
    "blowup-rate": {
        "t_lo": _Key("float", default=0.5),
        "t_hi": _Key("float", default=0.95),
        "n_t_points": _Key("int", default=8),
        "n_paths": _Key("int", default=100_000),
        "n_steps": _Key("int", default=2000),
        "slope_tol": _Key("float", default=0.05),
    },
    "weight-crossval": {
        "t0": _Key("float", default=0.0),
        "x0": _Key("float", default=0.0),
        "n_paths": _Key("int", default=100_000),
        "n_steps": _Key("int", default=500),
        "z_max": _Key("float", default=3.0),
    },
    "tau-locate": {
        "t0": _Key("float", default=0.0),
        "x0": _Key("float", default=0.0),
        "n_paths": _Key("int", default=1000),
        "n_steps": _Key("int", default=500),
        "expected_tau": _Key("float", default=None),
    },
    "lambda-moment": {
        "t0": _Key("float", default=0.0),
        "x0": _Key("float", default=0.0),
        "n_paths": _Key("int", default=100_000),
        "n_steps": _Key("int", default=500),
        "p_values": _Key("list", default=(1.0, 2.0)),
        "n_doublings": _Key("int", default=3),
        "rel_tol": _Key("float", default=0.05),
    },
    "girsanov-equiv": {
        "t0": _Key("float", default=0.0),
        "probes_x": _Key("list", default=(-0.5, -0.25, 0.0, 0.25, 0.5)),
        "n_paths": _Key("int", default=200_000),
        "n_steps": _Key("int", default=1000),
        "x_min": _Key("float", default=-3.0),
        "x_max": _Key("float", default=3.0),
        "n_x": _Key("int", default=601),
        "equiv_n_t": _Key("int", default=20),
        "equiv_n_x": _Key("int", default=20),
        "fd_tol": _Key("float", default=5e-3),
    },
    "pde-vs-mc": {
        "probes": _Key("list", default=((0.0, 0.0), (0.0, 0.5), (0.25, -0.5))),
        "n_paths": _Key("int", default=200_000),
        "n_steps": _Key("int", default=1000),
        "x_min": _Key("float", default=-3.0),
        "x_max": _Key("float", default=3.0),
        "n_x": _Key("int", default=601),
        "weight_kind": _Key("str", default="degenerate"),
        "tol_u": _Key("float", default=1e-2),
        "tol_ux": _Key("float", default=2e-2),
    },
    "z-path": {
        "t0": _Key("float", default=0.0),
        "x0": _Key("float", default=0.0),
        "n_paths": _Key("int", default=5),
        "n_steps": _Key("int", default=500),
        "provider": _Key("str", default="pde"),
        "x_min": _Key("float", default=-4.0),
        "x_max": _Key("float", default=4.0),
        "n_x": _Key("int", default=401),
    },
}

_EXPERIMENT_DOC = {
    "blowup-rate": "gradient blow-up rate toward the degeneracy onset "
                   "(dying-volatility model), with log-log slope fit",
    "weight-crossval": "pathwise vs weighted gradient estimates with "
                       "pairwise z-scores",
    "tau-locate": "per-path exit time from the alive set, with histogram",
    "lambda-moment": "negative moments of the occupation integral across "
                     "doubling sample sizes",
    "girsanov-equiv": "value estimates under drift absorption vs the FD "
                      "solver, plus alive-set invariance counts",
    "pde-vs-mc": "FD solution vs Monte Carlo value/gradient at probe points",
    "z-path": "martingale integrand along simulated paths, clamped past "
              "the alive-set exit",
}


def _is_finite_number(value) -> bool:
    """A JSON number that converts to a finite float (booleans excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_kind(key: str, value, kind: str):
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r} must be a string")
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r} must be an integer")
        return int(value)
    if kind == "float":
        if not _is_finite_number(value):
            raise ConfigError(f"key {key!r} must be a finite number")
        return float(value)
    if kind == "dict":
        if not isinstance(value, dict):
            raise ConfigError(f"key {key!r} must be an object")
        return value
    if kind == "list":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"key {key!r} must be an array")
        return list(value)
    raise AssertionError(kind)


def _validate_config(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    exp = raw.get("experiment")
    if exp is None:
        raise ConfigError("key 'experiment' is required")
    if not isinstance(exp, str) or exp not in _EXPERIMENT_KEYS:
        known = ", ".join(sorted(_EXPERIMENT_KEYS))
        raise ConfigError(f"key 'experiment' must be one of: {known}")
    schema = dict(_COMMON_KEYS)
    schema.update(_EXPERIMENT_KEYS[exp])
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for experiment "
                              f"{exp!r}")
    out = {}
    for key, rule in schema.items():
        if key in raw and raw[key] is not None:
            out[key] = _check_kind(key, raw[key], rule.kind)
        elif rule.required:
            raise ConfigError(f"key {key!r} is required")
        else:
            out[key] = rule.default
    if not (0 <= out["seed"] < 2 ** 64):
        raise ConfigError(f"key 'seed' must lie in [0, 2**64), got "
                          f"{out['seed']}")
    return out


def _build_model(cfg: dict) -> CoefficientModel:
    params = cfg["params"] or {}
    try:
        return builtin_model(cfg["model"], **params)
    except ValueError as exc:
        raise ConfigError(f"key 'model'/'params': {exc}") from None


def _positive(cfg: dict, *keys) -> None:
    for key in keys:
        if not (cfg[key] > 0):
            raise ConfigError(f"key {key!r} must be positive, got {cfg[key]}")


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _out_path(cfg: dict, out_dir: Path, suffix: str = "") -> Path:
    base = cfg["output_path"] or f"{cfg['experiment']}.csv"
    path = Path(base)
    if not path.is_absolute():
        path = out_dir / path
    if suffix:
        path = path.with_name(path.stem + suffix + path.suffix)
    return path


def _solve(model: CoefficientModel, grid):
    try:
        return solve_fd(model, grid)
    except ValueError as exc:
        raise NumericalFailure(str(exc)) from None


def _zscore(a, b) -> float:
    denom = math.hypot(a.stderr, b.stderr)
    if denom == 0.0:
        return 0.0 if a.mean == b.mean else math.inf
    return (a.mean - b.mean) / denom


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _run_blowup_rate(cfg, model, out_dir):
    if cfg["model"] != "example1":
        raise ConfigError("key 'model': blowup-rate requires 'example1'")
    _positive(cfg, "n_paths", "n_steps")
    if cfg["n_t_points"] < 2:
        raise ConfigError("key 'n_t_points' must be >= 2 to fit a slope")
    if not (0.0 <= cfg["t_lo"] < cfg["t_hi"] < 1.0):
        raise ConfigError("keys 't_lo'/'t_hi' must satisfy "
                          "0 <= t_lo < t_hi < 1")
    params = cfg["params"] or {}
    orc = Example1Params(alpha=float(params.get("alpha", 0.8)),
                         beta=float(params.get("beta", 0.5)))
    ts = np.linspace(cfg["t_lo"], cfg["t_hi"], cfg["n_t_points"])
    rows = []
    means = []
    unusable = []
    for t in ts:
        grid = TimeGrid(float(t), model.horizon_T, cfg["n_steps"])
        est = estimate_ux_weighted(
            model, ProblemPoint(float(t), 0.0), grid, cfg["seed"],
            cfg["n_paths"], weight_kind="degenerate",
            eps_sigma=cfg["eps_sigma"], lambda_floor=cfg["lambda_floor"])
        oracle = example1_ux_at_zero(float(t), orc)
        rows.append((float(t), est.mean, est.stderr, oracle))
        means.append(est.mean)
        # the log-log fit needs a finite mean of the oracle's sign
        if not (math.isfinite(est.mean) and est.mean * oracle > 0.0):
            unusable.append(float(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = _fit_slope(np.log1p(-ts), np.log(np.abs(means)))
    target = -orc.alpha * (1.0 + 2.0 * orc.beta) / 2.0
    rows.append(("slope", slope, None, target))
    path = _write_csv(_out_path(cfg, out_dir),
                      ["t", "ux_mc", "ux_stderr", "ux_oracle"], rows)
    measured = f"slope={slope:.4f}"
    if unusable:
        measured += ("; zero, non-finite or sign-flipped mean at t="
                     + ",".join(f"{t:.6g}" for t in unusable))
    checks = (CheckOutcome(
        "blowup-slope",
        not unusable and abs(slope - target) <= cfg["slope_tol"],
        measured, f"target {target:+.4f} +/- {cfg['slope_tol']}"),)
    return ExperimentResult(cfg["experiment"], (path,), checks)


def _run_weight_crossval(cfg, model, out_dir):
    _positive(cfg, "n_paths", "n_steps")
    point = ProblemPoint(cfg["t0"], cfg["x0"])
    grid = TimeGrid(cfg["t0"], model.horizon_T, cfg["n_steps"])
    common = (model, point, grid, cfg["seed"], cfg["n_paths"])
    pw = estimate_ux_pathwise(*common)
    nd = estimate_ux_weighted(*common, weight_kind="nondegenerate",
                              eps_sigma=cfg["eps_sigma"],
                              lambda_floor=cfg["lambda_floor"])
    dg = estimate_ux_weighted(*common, weight_kind="degenerate",
                              eps_sigma=cfg["eps_sigma"],
                              lambda_floor=cfg["lambda_floor"])
    z_pw_nd = _zscore(pw, nd)
    z_pw_dg = _zscore(pw, dg)
    z_nd_dg = _zscore(nd, dg)
    header = ["ux_pathwise", "ux_pathwise_stderr",
              "ux_nondegenerate", "ux_nondegenerate_stderr",
              "ux_degenerate", "ux_degenerate_stderr",
              "z_pathwise_nondegenerate", "z_pathwise_degenerate",
              "z_nondegenerate_degenerate"]
    row = (pw.mean, pw.stderr, nd.mean, nd.stderr, dg.mean, dg.stderr,
           z_pw_nd, z_pw_dg, z_nd_dg)
    path = _write_csv(_out_path(cfg, out_dir), header, [row])
    worst = max(abs(z_pw_nd), abs(z_pw_dg), abs(z_nd_dg))
    checks = (CheckOutcome(
        "crossval-zscores", worst <= cfg["z_max"],
        f"max|z|={worst:.3f}", f"<= {cfg['z_max']}"),)
    return ExperimentResult(cfg["experiment"], (path,), checks)


def _run_tau_locate(cfg, model, out_dir):
    _positive(cfg, "n_paths", "n_steps")
    point = ProblemPoint(cfg["t0"], cfg["x0"])
    grid = TimeGrid(cfg["t0"], model.horizon_T, cfg["n_steps"])
    batch = simulate_batch(model, point, grid, cfg["seed"], cfg["n_paths"])
    taus = locate_tau_batch(model, batch, eps_sigma=cfg["eps_sigma"])
    rows = [(i, float(taus[i])) for i in range(taus.size)]
    path = _write_csv(_out_path(cfg, out_dir), ["path_id", "tau"], rows)
    uniq, counts = np.unique(taus, return_counts=True)
    hist = _write_csv(_out_path(cfg, out_dir, "_hist"), ["tau", "count"],
                      list(zip(uniq.tolist(), counts.tolist())))
    checks = ()
    if cfg["expected_tau"] is not None:
        tol = grid.dt * (1.0 + 1e-9)
        worst = float(np.max(np.abs(taus - cfg["expected_tau"])))
        checks = (CheckOutcome(
            "tau-within-one-step", worst <= tol,
            f"max|tau-expected|={worst:.6g}", f"<= dt={grid.dt:.6g}"),)
    return ExperimentResult(cfg["experiment"], (path, hist), checks)


def _run_lambda_moment(cfg, model, out_dir):
    _positive(cfg, "n_paths", "n_steps")
    if cfg["n_doublings"] < 1:
        raise ConfigError("key 'n_doublings' must be >= 1")
    p_values = []
    for p in cfg["p_values"]:
        if isinstance(p, bool) or not isinstance(p, (int, float)) or p <= 0:
            raise ConfigError("key 'p_values' must hold positive numbers")
        p_values.append(float(p))
    point = ProblemPoint(cfg["t0"], cfg["x0"])
    grid = TimeGrid(cfg["t0"], model.horizon_T, cfg["n_steps"])
    sizes = sorted({max(1, cfg["n_paths"] >> k)
                    for k in range(cfg["n_doublings"] + 1)})
    rows = []
    last_pair = {}
    for p in p_values:
        for n in sizes:
            est = empirical_lambda_moment(
                model, point, grid, cfg["seed"], n, p,
                eps_sigma=cfg["eps_sigma"], lambda_floor=cfg["lambda_floor"])
            rows.append((p, n, est.mean, est.stderr, est.n_floored))
            last_pair.setdefault(p, []).append(est.mean)
    path = _write_csv(_out_path(cfg, out_dir),
                      ["p", "n_paths", "moment", "stderr", "n_floored"], rows)
    checks = []
    for p in p_values:
        tail = last_pair[p][-2:]
        if len(tail) == 2 and tail[1] != 0.0:
            rel = abs(tail[1] - tail[0]) / abs(tail[1])
        else:
            rel = 0.0
        checks.append(CheckOutcome(
            f"lambda-moment-stable-p{p:g}", rel <= cfg["rel_tol"],
            f"rel-change={rel:.4f}", f"<= {cfg['rel_tol']}"))
    return ExperimentResult(cfg["experiment"], (path,), tuple(checks))


def _run_girsanov_equiv(cfg, model, out_dir):
    _positive(cfg, "n_paths", "n_steps", "n_x", "equiv_n_t", "equiv_n_x")
    if not cfg["probes_x"]:
        raise ConfigError("key 'probes_x' must be non-empty")
    if not all(_is_finite_number(x) for x in cfg["probes_x"]):
        raise ConfigError("key 'probes_x' must hold finite numbers")
    t0 = cfg["t0"]
    if not (0.0 <= t0 < model.horizon_T):
        raise ConfigError("key 't0' must lie in [0, horizon)")
    fd_grid = make_grid(model, cfg["x_min"], cfg["x_max"], cfg["n_x"],
                        t_min=t0)
    sol = _solve(model, fd_grid)
    grid = TimeGrid(t0, model.horizon_T, cfg["n_steps"])
    rows = []
    breaches = 0
    for x in cfg["probes_x"]:
        x = float(x)
        est = estimate_u(model, ProblemPoint(t0, x), grid, cfg["seed"],
                         cfg["n_paths"])
        u_fd = float(sol.u(t0, x))
        diff = abs(est.mean - u_fd)
        rows.append((t0, x, est.mean, est.stderr, u_fd, diff))
        if diff > 3.0 * est.stderr + cfg["fd_tol"]:
            breaches += 1
    path = _write_csv(
        _out_path(cfg, out_dir),
        ["t", "x", "u_mc", "u_stderr", "u_fd", "abs_diff"], rows)

    ts = np.linspace(t0, model.horizon_T, cfg["equiv_n_t"], endpoint=False)
    xs = np.linspace(cfg["x_min"], cfg["x_max"], cfg["equiv_n_x"])
    points = [ProblemPoint(float(t), float(x)) for t in ts for x in xs]
    rep = check_gamma_equivalence(model, points, eps_sigma=cfg["eps_sigma"])
    gpath = _write_csv(
        _out_path(cfg, out_dir, "_gamma"),
        ["n_points", "n_agree", "agreement_fraction", "n_in_both",
         "max_index_ratio"],
        [(rep.n_points, rep.n_agree, rep.agreement_fraction, rep.n_in_both,
          rep.max_index_ratio)])
    checks = (
        CheckOutcome("girsanov-value-match", breaches == 0,
                     f"breaches={breaches}/{len(rows)}",
                     f"|u_mc-u_fd| <= 3*stderr + {cfg['fd_tol']}"),
        CheckOutcome("alive-set-invariance",
                     rep.agreement_fraction == 1.0,
                     f"agreement={rep.agreement_fraction:.4f}", "== 1.0"),
    )
    return ExperimentResult(cfg["experiment"], (path, gpath), checks)


def _run_pde_vs_mc(cfg, model, out_dir):
    _positive(cfg, "n_paths", "n_steps", "n_x")
    if cfg["weight_kind"] not in ("degenerate", "nondegenerate"):
        raise ConfigError("key 'weight_kind' must be 'degenerate' or "
                          "'nondegenerate'")
    if not cfg["probes"]:
        raise ConfigError("key 'probes' must be non-empty")
    probes = []
    for item in cfg["probes"]:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in item)):
            raise ConfigError("key 'probes' must hold [t, x] pairs")
        probes.append((float(item[0]), float(item[1])))
    t_min = min(t for t, _ in probes)
    if not (0.0 <= t_min and max(t for t, _ in probes) < model.horizon_T):
        raise ConfigError("key 'probes' times must lie in [0, horizon)")
    fd_grid = make_grid(model, cfg["x_min"], cfg["x_max"], cfg["n_x"],
                        t_min=t_min)
    sol = _solve(model, fd_grid)
    rows = []
    u_breaches = 0
    ux_breaches = 0
    for t, x in probes:
        grid = TimeGrid(t, model.horizon_T, cfg["n_steps"])
        point = ProblemPoint(t, x)
        eu = estimate_u(model, point, grid, cfg["seed"], cfg["n_paths"])
        eux = estimate_ux_weighted(
            model, point, grid, cfg["seed"], cfg["n_paths"],
            weight_kind=cfg["weight_kind"], eps_sigma=cfg["eps_sigma"],
            lambda_floor=cfg["lambda_floor"])
        u_fd = float(sol.u(t, x))
        ux_fd = float(sol.ux(t, x))
        rows.append((t, x, u_fd, eu.mean, eu.stderr, ux_fd, eux.mean,
                     eux.stderr))
        if abs(u_fd - eu.mean) > 3.0 * eu.stderr + cfg["tol_u"]:
            u_breaches += 1
        if abs(ux_fd - eux.mean) > 3.0 * eux.stderr + cfg["tol_ux"]:
            ux_breaches += 1
    path = _write_csv(
        _out_path(cfg, out_dir),
        ["t", "x", "u_fd", "u_mc", "u_mc_stderr", "ux_fd", "ux_mc",
         "ux_mc_stderr"], rows)
    checks = (
        CheckOutcome("pde-mc-value", u_breaches == 0,
                     f"breaches={u_breaches}/{len(rows)}",
                     f"|u_fd-u_mc| <= 3*stderr + {cfg['tol_u']}"),
        CheckOutcome("pde-mc-gradient", ux_breaches == 0,
                     f"breaches={ux_breaches}/{len(rows)}",
                     f"|ux_fd-ux_mc| <= 3*stderr + {cfg['tol_ux']}"),
    )
    return ExperimentResult(cfg["experiment"], (path,), checks)


def _zpath_provider(cfg, model):
    kind = cfg["provider"]
    params = cfg["params"] or {}
    if kind == "pde":
        fd_grid = make_grid(model, cfg["x_min"], cfg["x_max"], cfg["n_x"],
                            t_min=cfg["t0"])
        return _solve(model, fd_grid).provider()
    if kind == "bachelier":
        return bachelier_provider(float(params.get("sigma_bar", 1.0)),
                                  float(params.get("strike", 0.0)),
                                  float(params.get("T", 1.0)))
    if kind == "example1":
        return example1_provider(Example1Params(
            alpha=float(params.get("alpha", 0.8)),
            beta=float(params.get("beta", 0.5))))
    raise ConfigError("key 'provider' must be 'pde', 'bachelier', or "
                      "'example1'")


def _run_z_path(cfg, model, out_dir):
    _positive(cfg, "n_paths", "n_steps", "n_x")
    if not (0.0 <= cfg["t0"] < model.horizon_T):
        raise ConfigError("key 't0' must lie in [0, horizon)")
    provider = _zpath_provider(cfg, model)
    point = ProblemPoint(cfg["t0"], cfg["x0"])
    grid = TimeGrid(cfg["t0"], model.horizon_T, cfg["n_steps"])
    rows = []
    all_finite = True
    clamped = True
    for i in range(cfg["n_paths"]):
        path = simulate_path(model, point, grid, cfg["seed"], i)
        tau = locate_tau(model, path, eps_sigma=cfg["eps_sigma"])
        zmat = reconstruct_Z(model, path, provider,
                             eps_sigma=cfg["eps_sigma"], tau=tau)
        all_finite &= bool(np.all(np.isfinite(zmat)))
        clamped &= bool(np.all(zmat[zmat[:, 0] >= tau, 1] == 0.0))
        for k in range(zmat.shape[0]):
            rows.append((i, zmat[k, 0], float(path.X[k]), zmat[k, 1], tau))
    out = _write_csv(_out_path(cfg, out_dir),
                     ["path_id", "t", "X", "Z", "tau"], rows)
    checks = (
        CheckOutcome("z-finite", all_finite, f"finite={all_finite}", "true"),
        CheckOutcome("z-clamped-after-tau", clamped, f"clamped={clamped}",
                     "Z == 0 for t >= tau"),
    )
    return ExperimentResult(cfg["experiment"], (out,), checks)


_RUNNERS = {
    "blowup-rate": _run_blowup_rate,
    "weight-crossval": _run_weight_crossval,
    "tau-locate": _run_tau_locate,
    "lambda-moment": _run_lambda_moment,
    "girsanov-equiv": _run_girsanov_equiv,
    "pde-vs-mc": _run_pde_vs_mc,
    "z-path": _run_z_path,
}


def run_experiment(raw_config: dict, out_dir=".") -> ExperimentResult:
    """Validate, run, and write artifacts for one experiment config.

    Raises ConfigError for schema problems, NumericalFailure (or
    EstimationError/SimulationError) for runtime breakdowns.  Check
    outcomes are always computed; main() turns failures into exit status
    3 only under ``--check``.
    """
    cfg = _validate_config(raw_config)
    model = _build_model(cfg)
    if cfg["eps_sigma"] <= 0.0:
        raise ConfigError("key 'eps_sigma' must be positive")
    if cfg["lambda_floor"] is not None and cfg["lambda_floor"] <= 0.0:
        raise ConfigError("key 'lambda_floor' must be positive")
    return _RUNNERS[cfg["experiment"]](cfg, model, Path(out_dir))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenbsde",
        description="Monte Carlo and FD laboratory for degenerate-volatility "
                    "gradient estimation")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON config")
    run.add_argument("--out-dir", default=".", help="directory for CSV output")
    run.add_argument("--check", action="store_true",
                     help="evaluate acceptance thresholds (exit 3 on breach)")
    sub.add_parser("list-models", help="list built-in coefficient models")
    sub.add_parser("list-experiments", help="list available experiments")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-models":
        for name in sorted(BUILTIN_MODELS):
            print(f"{name}: {BUILTIN_MODELS[name][1]}")
        return 0
    if args.command == "list-experiments":
        for name in sorted(_RUNNERS):
            print(f"{name}: {_EXPERIMENT_DOC[name]}")
        return 0

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON in {args.config}: {exc}",
              file=sys.stderr)
        return 1

    try:
        result = run_experiment(raw, out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OutsideGamma0Error, ProviderRequiredError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, EstimationError, SimulationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    for path in result.outputs:
        print(f"wrote {path}")
    if args.check:
        for c in result.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"check {c.name}: {status} ({c.measured}; requires "
                  f"{c.requirement})")
        if not result.ok:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

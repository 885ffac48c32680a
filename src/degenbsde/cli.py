"""Configuration-driven experiment runner.

One invocation runs one experiment from a flat JSON config and writes CSV
artifacts.  Every experiment is a pure function of its config: same file,
same bytes out, no wall-clock seeding, no hidden state.

Config schema: a single JSON object.  ``experiment`` and ``model`` are
required everywhere; ``params`` (nested object) feeds the model factory;
remaining keys are experiment-specific.  The ``_COMMON_KEYS`` and
``_EXPERIMENT_KEYS`` tables declare each key's kind, default and bound;
all of them, and the start times against the model's horizon, are checked
before any computation starts.  Exit status 1 means a ``ConfigError`` or
a start point outside the alive set; 2 a numerical failure (all samples
floored, an unstable FD grid, no finite FD step count, or more than 1% of
simulated paths non-finite); 3, under ``--check``, a failed acceptance
threshold.  A ``ValueError`` from the library is a bug and shows as a
traceback.

Reals in CSV output carry 17 significant digits with ``.`` decimal and
``\\n`` line endings, so reruns are byte-comparable across platforms.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .degeneracy import (DEFAULT_EPS_SIGMA, check_gamma_equivalence,
                         locate_tau, locate_tau_batch)
from .estimators import (EstimationError, OutsideGamma0Error, ValueProvider,
                         _difference_reducer, _estimate,
                         _lambda_moment_reducer, _u_reducer,
                         _ux_pathwise_reducer, _ux_weighted_reducer, _z_matrix,
                         bachelier_provider, empirical_lambda_moment,
                         estimate_u, estimate_ux_pathwise,
                         estimate_ux_weighted, example1_provider,
                         reconstruct_Z)
from .model import (BUILTIN_MODELS, CoefficientModel, ProblemPoint,
                    builtin_model)
from .oracles import (Example1Params, example1_ux_at_zero,
                      example1_ux_exponent)
from .pde_fd import make_grid, solve_fd
from .sde_sim import SimulationError, TimeGrid, simulate_batch, simulate_path

__all__ = ["ConfigError", "NumericalFailure", "ExperimentResult",
           "run_experiment", "main"]

# Kept only because ``perfbench/tracer.py`` wraps these names here: no runner
# calls them, as they go through ``_estimate`` or one batch and ``_z_matrix``.
_TRACED_NAMES = (estimate_u, estimate_ux_pathwise, estimate_ux_weighted,
                 empirical_lambda_moment, reconstruct_Z, simulate_path,
                 locate_tau)


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
    """One config key: its JSON kind, its default and the values it admits.

    A ``float``, and each item of a ``numbers`` list, must be finite; a
    ``points`` list holds finite ``[t, x]`` pairs; neither list may be empty.
    """

    kind: str  # "str" | "int" | "float" | "dict" | "numbers" | "points"
    required: bool = False
    default: object = None
    least: int = 1  # an int lies in [least, 2**bits)
    bits: int = 63
    sign: str = ""  # a float or numbers item: "positive" or "nonnegative"
    choices: tuple = ()  # the values a str may take, if limited


_COMMON_KEYS = {
    "experiment": _Key("str", required=True),
    "model": _Key("str", required=True),
    "params": _Key("dict", default=None),
    "seed": _Key("int", default=0, least=0, bits=64),
    "output_path": _Key("str", default=None),
    "eps_sigma": _Key("float", default=DEFAULT_EPS_SIGMA, sign="positive"),
}

# the weight and Lambda-moment floor, read only where a weight or moment is
_LAMBDA_FLOOR = _Key("float", default=None, sign="positive")

_EXPERIMENT_KEYS = {
    "blowup-rate": {
        "t_lo": _Key("float", default=0.5),
        "t_hi": _Key("float", default=0.95),
        "n_t_points": _Key("int", default=8, least=2),
        "n_paths": _Key("int", default=100_000),
        "n_steps": _Key("int", default=2000),
        "slope_tol": _Key("float", default=0.05, sign="nonnegative"),
        "lambda_floor": _LAMBDA_FLOOR,
    },
    "weight-crossval": {
        "t0": _Key("float", default=0.0),
        "x0": _Key("float", default=0.0),
        "n_paths": _Key("int", default=100_000),
        "n_steps": _Key("int", default=500),
        "z_max": _Key("float", default=3.0, sign="nonnegative"),
        "lambda_floor": _LAMBDA_FLOOR,
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
        "p_values": _Key("numbers", default=(1.0, 2.0), sign="positive"),
        # n_paths >> 63 is already 0: more doublings add no sample size
        "n_doublings": _Key("int", default=3, bits=6),
        "rel_tol": _Key("float", default=0.05, sign="nonnegative"),
        "lambda_floor": _LAMBDA_FLOOR,
    },
    "girsanov-equiv": {
        "t0": _Key("float", default=0.0),
        "probes_x": _Key("numbers", default=(-0.5, -0.25, 0.0, 0.25, 0.5)),
        "n_paths": _Key("int", default=200_000),
        "n_steps": _Key("int", default=1000),
        "x_min": _Key("float", default=-3.0),
        "x_max": _Key("float", default=3.0),
        "n_x": _Key("int", default=601, least=3),
        "equiv_n_t": _Key("int", default=20),
        "equiv_n_x": _Key("int", default=20),
        "fd_tol": _Key("float", default=5e-3, sign="nonnegative"),
    },
    "pde-vs-mc": {
        "probes": _Key("points",
                       default=((0.0, 0.0), (0.0, 0.5), (0.25, -0.5))),
        "n_paths": _Key("int", default=200_000),
        "n_steps": _Key("int", default=1000),
        "x_min": _Key("float", default=-3.0),
        "x_max": _Key("float", default=3.0),
        "n_x": _Key("int", default=601, least=3),
        "weight_kind": _Key("str", default="degenerate",
                            choices=("degenerate", "nondegenerate")),
        "tol_u": _Key("float", default=1e-2, sign="nonnegative"),
        "tol_ux": _Key("float", default=2e-2, sign="nonnegative"),
        "lambda_floor": _LAMBDA_FLOOR,
    },
    "z-path": {
        "t0": _Key("float", default=0.0),
        "x0": _Key("float", default=0.0),
        "n_paths": _Key("int", default=5),
        "n_steps": _Key("int", default=500),
        "provider": _Key("str", default="pde",
                         choices=("pde", "bachelier", "example1")),
        "x_min": _Key("float", default=-4.0),
        "x_max": _Key("float", default=4.0),
        "n_x": _Key("int", default=401, least=3),
    },
}

_EXPERIMENT_DOC = {
    "blowup-rate": "gradient blow-up rate toward the degeneracy onset "
                   "(dying-volatility model), with log-log slope fit",
    "weight-crossval": "pathwise vs weighted gradient estimates with "
                       "paired z-scores",
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
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)  # exact, even for ints


def _has_sign(value: float, sign: str) -> bool:
    if sign == "positive":
        return value > 0.0
    return sign != "nonnegative" or value >= 0.0


def _check_value(key: str, value, rule: _Key):
    """``value`` as the run uses it, or ConfigError naming ``key``."""
    kind = rule.kind
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r} must be a string")
        if "\0" in value:
            raise ConfigError(f"key {key!r} must not hold a NUL byte")
        if rule.choices and value not in rule.choices:
            raise ConfigError(f"key {key!r} must be one of: "
                              + ", ".join(map(repr, rule.choices)))
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r} must be an integer")
        if not rule.least <= value < 2 ** rule.bits:
            span = (f"be positive and below 2**{rule.bits}" if rule.least == 1
                    else f"lie in [{rule.least}, 2**{rule.bits})")
            raise ConfigError(f"key {key!r} must {span}, got {value}")
        return value
    if kind == "float":
        if not _is_finite_number(value):
            raise ConfigError(f"key {key!r} must be a finite number")
        if not _has_sign(value, rule.sign):
            raise ConfigError(f"key {key!r} must be {rule.sign}, got {value}")
        return float(value)
    if kind == "dict":
        if not isinstance(value, dict):
            raise ConfigError(f"key {key!r} must be an object")
        return value
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"key {key!r} must be an array")
    if not value:
        raise ConfigError(f"key {key!r} must be non-empty")
    if kind == "points":
        if not all(isinstance(p, (list, tuple)) and len(p) == 2
                   and all(map(_is_finite_number, p)) for p in value):
            raise ConfigError(f"key {key!r} must hold finite [t, x] pairs")
        return [(float(t), float(x)) for t, x in value]
    if not all(map(_is_finite_number, value)):
        raise ConfigError(f"key {key!r} must hold finite numbers")
    if not all(_has_sign(v, rule.sign) for v in value):
        raise ConfigError(f"key {key!r} must hold {rule.sign} numbers")
    return [float(v) for v in value]


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
            out[key] = _check_value(key, raw[key], rule)
        elif rule.required:
            raise ConfigError(f"key {key!r} is required")
        else:
            out[key] = rule.default
    return out


def _build_model(cfg: dict) -> CoefficientModel:
    """The model the config names, after the rules that need it:
    ``lipschitz_K**2 * horizon`` is finite, every start time lies in
    ``[0, horizon)``, and ``x_max - x_min`` is positive and finite."""
    params = cfg["params"] or {}
    try:
        model = builtin_model(cfg["model"], **params)
    except ValueError as exc:
        raise ConfigError(f"key 'model'/'params': {exc}") from None
    K = model.lipschitz_K
    T = model.horizon_T
    if not math.isfinite(K * K * T):
        # the bound of the occupation integral Lambda and of the FD
        # explicit limit's sigma^2 term
        raise ConfigError(f"key 'params': lipschitz_K**2 * horizon "
                          f"overflows for model {cfg['model']!r} "
                          f"(lipschitz_K={K:g})")
    if "t0" in cfg and not 0.0 <= cfg["t0"] < T:
        raise ConfigError(f"key 't0' must lie in [0, horizon {T:g}), got "
                          f"{cfg['t0']}")
    if "probes" in cfg and not all(0.0 <= t < T for t, _ in cfg["probes"]):
        raise ConfigError(f"key 'probes' times must lie in [0, horizon "
                          f"{T:g})")
    if "x_min" in cfg and not 0.0 < cfg["x_max"] - cfg["x_min"] < math.inf:
        raise ConfigError("keys 'x_min'/'x_max' must satisfy x_min < x_max "
                          "with a finite difference")
    return model


def _oracle_params(cfg: dict) -> dict:
    """The model factory's arguments, its defaults filled in, as floats."""
    bound = inspect.signature(BUILTIN_MODELS[cfg["model"]][0]).bind(
        **(cfg["params"] or {}))
    bound.apply_defaults()
    return {key: float(value) for key, value in bound.arguments.items()}


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _texts(values: np.ndarray) -> np.ndarray:
    """An integer or float array's values as ``_fmt`` writes them, in an
    object array of the same shape."""
    items = values.ravel().tolist()
    texts = (list(map(str, items)) if values.dtype.kind in "iu"
             else [format(v, ".17g") for v in items])
    return np.array(texts, dtype=object).reshape(values.shape)


def _write_csv(path: Path, header, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")
    return path


def _out_path(cfg: dict, out_dir: Path, suffix: str = "") -> Path:
    base = cfg["output_path"] or f"{cfg['experiment']}.csv"
    path = Path(base)
    if not path.is_absolute():
        path = out_dir / path
    if suffix:
        path = path.with_name(path.stem + suffix + path.suffix)
    return path


def _solve(cfg: dict, model: CoefficientModel, t_min: float, at_times):
    """The FD solution on the config's space grid, from ``t_min`` on,
    storing only the levels that lookups at ``at_times`` read."""
    try:
        grid = make_grid(model, cfg["x_min"], cfg["x_max"], cfg["n_x"],
                         t_min=t_min)
        return solve_fd(model, grid, at_times=at_times)
    except ValueError as exc:
        raise NumericalFailure(str(exc)) from None


def _paired_z(diff) -> float:
    """The z-score of a paired difference's ``Estimate``: 0 when the
    difference is identically 0, infinite when it is a nonzero constant."""
    if diff.stderr == 0.0:
        return 0.0 if diff.mean == 0.0 else math.copysign(math.inf, diff.mean)
    return diff.mean / diff.stderr


def _mc_match(name: str, diff: str, pairs: list, tol: float) -> CheckOutcome:
    """Each ``(estimate, reference)`` pair must satisfy
    ``|mc - ref| <= 3 * stderr + tol``; ``diff`` labels the difference in
    the requirement text."""
    breaches = sum(abs(est.mean - ref) > 3.0 * est.stderr + tol
                   for est, ref in pairs)
    return CheckOutcome(name, breaches == 0,
                        f"breaches={breaches}/{len(pairs)}",
                        f"|{diff}| <= 3*stderr + {tol}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _run_blowup_rate(cfg, model, out_dir):
    if cfg["model"] != "example1":
        raise ConfigError("key 'model': blowup-rate requires 'example1'")
    if not (0.0 <= cfg["t_lo"] < cfg["t_hi"] < 1.0):
        raise ConfigError("keys 't_lo'/'t_hi' must satisfy "
                          "0 <= t_lo < t_hi < 1")
    orc = Example1Params(**_oracle_params(cfg))
    ts = np.linspace(cfg["t_lo"], cfg["t_hi"], cfg["n_t_points"])
    jobs = []
    for t in ts:
        point = ProblemPoint(float(t), 0.0)
        grid = TimeGrid(float(t), model.horizon_T, cfg["n_steps"])
        jobs.append((point, grid, [_ux_weighted_reducer(
            model, point, grid, weight_kind="degenerate",
            eps_sigma=cfg["eps_sigma"], lambda_floor=cfg["lambda_floor"])]))
    rows = []
    means = []
    unusable = []
    for t, (est,) in zip(ts, _estimate(model, cfg["seed"], cfg["n_paths"],
                                       jobs)):
        oracle = example1_ux_at_zero(float(t), orc)
        rows.append((float(t), est.mean, est.stderr, oracle))
        means.append(est.mean)
        # the log-log fit needs a finite mean of the oracle's sign
        if not (math.isfinite(est.mean) and est.mean * oracle > 0.0):
            unusable.append(float(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = float(np.polyfit(np.log1p(-ts), np.log(np.abs(means)), 1)[0])
    target = example1_ux_exponent(orc)
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
    if model.g_prime is None:
        raise ConfigError(f"key 'model': weight-crossval needs a payoff "
                          f"derivative g_prime, which {cfg['model']!r} "
                          f"lacks")
    point = ProblemPoint(cfg["t0"], cfg["x0"])
    grid = TimeGrid(cfg["t0"], model.horizon_T, cfg["n_steps"])
    floors = {"eps_sigma": cfg["eps_sigma"],
              "lambda_floor": cfg["lambda_floor"]}
    routes = [_ux_pathwise_reducer(model, point, grid),
              _ux_weighted_reducer(model, point, grid,
                                   weight_kind="nondegenerate", **floors),
              _ux_weighted_reducer(model, point, grid,
                                   weight_kind="degenerate", **floors)]
    # each z-score is the per-path difference of two routes over its own
    # stderr: the routes read the same paths and are strongly correlated
    pairs = [_difference_reducer(routes[i], routes[j])
             for i, j in ((0, 1), (0, 2), (1, 2))]
    [(pw, nd, dg, *diffs)] = _estimate(model, cfg["seed"], cfg["n_paths"],
                                       [(point, grid, routes + pairs)])
    z_pw_nd, z_pw_dg, z_nd_dg = (_paired_z(d) for d in diffs)
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
    p_values = cfg["p_values"]
    point = ProblemPoint(cfg["t0"], cfg["x0"])
    grid = TimeGrid(cfg["t0"], model.horizon_T, cfg["n_steps"])
    sizes = sorted({max(1, cfg["n_paths"] >> k)
                    for k in range(cfg["n_doublings"] + 1)})
    reducers = [_lambda_moment_reducer(model, point, grid, p,
                                       eps_sigma=cfg["eps_sigma"],
                                       lambda_floor=cfg["lambda_floor"])
                for p in p_values]
    by_size = {n: _estimate(model, cfg["seed"], n,
                            [(point, grid, reducers)])[0]
               for n in sizes}
    rows = []
    last_pair = {}
    for i, p in enumerate(p_values):
        for n in sizes:
            est = by_size[n][i]
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
    t0 = cfg["t0"]
    sol = _solve(cfg, model, t0, [t0])
    grid = TimeGrid(t0, model.horizon_T, cfg["n_steps"])
    points = [ProblemPoint(t0, x) for x in cfg["probes_x"]]
    estimates = _estimate(model, cfg["seed"], cfg["n_paths"], [
        (point, grid, [_u_reducer(model, point, grid)]) for point in points])
    rows = []
    pairs = []
    for x, (est,) in zip(cfg["probes_x"], estimates):
        u_fd = float(sol.u(t0, x))
        rows.append((t0, x, est.mean, est.stderr, u_fd, abs(est.mean - u_fd)))
        pairs.append((est, u_fd))
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
        _mc_match("girsanov-value-match", "u_mc-u_fd", pairs, cfg["fd_tol"]),
        CheckOutcome("alive-set-invariance",
                     rep.agreement_fraction == 1.0,
                     f"agreement={rep.agreement_fraction:.4f}", "== 1.0"),
    )
    return ExperimentResult(cfg["experiment"], (path, gpath), checks)


def _run_pde_vs_mc(cfg, model, out_dir):
    probes = cfg["probes"]
    probe_ts = [t for t, _ in probes]
    sol = _solve(cfg, model, min(probe_ts), probe_ts)
    jobs = []
    for t, x in probes:
        grid = TimeGrid(t, model.horizon_T, cfg["n_steps"])
        point = ProblemPoint(t, x)
        jobs.append((point, grid, [
            _u_reducer(model, point, grid),
            _ux_weighted_reducer(model, point, grid,
                                 weight_kind=cfg["weight_kind"],
                                 eps_sigma=cfg["eps_sigma"],
                                 lambda_floor=cfg["lambda_floor"])]))
    rows = []
    u_pairs = []
    ux_pairs = []
    for (t, x), (eu, eux) in zip(probes, _estimate(
            model, cfg["seed"], cfg["n_paths"], jobs)):
        u_fd = float(sol.u(t, x))
        ux_fd = float(sol.ux(t, x))
        rows.append((t, x, u_fd, eu.mean, eu.stderr, ux_fd, eux.mean,
                     eux.stderr))
        u_pairs.append((eu, u_fd))
        ux_pairs.append((eux, ux_fd))
    path = _write_csv(
        _out_path(cfg, out_dir),
        ["t", "x", "u_fd", "u_mc", "u_mc_stderr", "ux_fd", "ux_mc",
         "ux_mc_stderr"], rows)
    checks = (
        _mc_match("pde-mc-value", "u_fd-u_mc", u_pairs, cfg["tol_u"]),
        _mc_match("pde-mc-gradient", "ux_fd-ux_mc", ux_pairs, cfg["tol_ux"]),
    )
    return ExperimentResult(cfg["experiment"], (path,), checks)


# closed-form providers and the one model each is the exact solution of
_CLOSED_FORM_MODEL = {"bachelier": "bachelier_digital", "example1": "example1"}


def _zpath_provider(cfg, model, times):
    """The provider of ``u_x`` at the path nodes' ``times``."""
    kind = cfg["provider"]
    if kind == "pde":
        return ValueProvider(ux_eval=_solve(cfg, model, cfg["t0"], times).ux)
    if cfg["model"] != _CLOSED_FORM_MODEL[kind]:
        raise ConfigError(f"key 'provider': {kind!r} is the closed form of "
                          f"model {_CLOSED_FORM_MODEL[kind]!r}, not "
                          f"{cfg['model']!r}; use 'pde'")
    if kind == "example1":
        return example1_provider(Example1Params(**_oracle_params(cfg)))
    return bachelier_provider(**_oracle_params(cfg))


def _run_z_path(cfg, model, out_dir):
    grid = TimeGrid(cfg["t0"], model.horizon_T, cfg["n_steps"])
    times = grid.times()
    provider = _zpath_provider(cfg, model, times)
    point = ProblemPoint(cfg["t0"], cfg["x0"])
    batch = simulate_batch(model, point, grid, cfg["seed"], cfg["n_paths"])
    taus = locate_tau_batch(model, batch, eps_sigma=cfg["eps_sigma"])
    Z = _z_matrix(times, batch.X, batch.gamma, taus, provider)
    all_finite = bool(np.all(np.isfinite(Z)))
    clamped = bool(np.all(Z[times >= taus[:, None]] == 0.0))
    # each value formatted once, then one row per (path, node)
    cols = np.broadcast_arrays(_texts(np.arange(taus.size))[:, None],
                               _texts(times), _texts(batch.X), _texts(Z),
                               _texts(taus)[:, None])
    out = _write_csv(_out_path(cfg, out_dir),
                     ["path_id", "t", "X", "Z", "tau"],
                     zip(*(c.ravel().tolist() for c in cols)))
    checks = (
        CheckOutcome("z-finite", all_finite, f"finite={all_finite}", "true"),
        CheckOutcome("z-clamped-after-tau", clamped, f"clamped={clamped}",
                     "Z == 0 for t >= tau"),
    )
    return ExperimentResult(cfg["experiment"], (out,), checks)


# the suffixes of the CSVs a runner writes beside its main output
_SIDE_OUTPUTS = {"tau-locate": ("_hist",), "girsanov-equiv": ("_gamma",)}

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

    Raises ConfigError (or OutsideGamma0Error) for config problems,
    NumericalFailure (or EstimationError/SimulationError) for runtime
    breakdowns.  Check outcomes are always computed; main() turns failures
    into exit status 3 only under ``--check``.
    """
    cfg = _validate_config(raw_config)
    model = _build_model(cfg)
    out_dir = Path(out_dir)
    for suffix in ("",) + _SIDE_OUTPUTS.get(cfg["experiment"], ()):
        out = _out_path(cfg, out_dir, suffix)
        if out.is_dir():
            raise ConfigError(f"key 'output_path': {out} is a directory")
    return _RUNNERS[cfg["experiment"]](cfg, model, out_dir)


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
    except ValueError as exc:  # a JSONDecodeError, or an int too long
        print(f"config error: invalid JSON in {args.config}: {exc}",
              file=sys.stderr)
        return 1

    try:
        result = run_experiment(raw, out_dir=args.out_dir)
    except (ConfigError, OutsideGamma0Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, EstimationError, SimulationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

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

"""Outside-in benchmark of the degenbsde experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition runs one
experiment config through ``degenbsde.cli.run_experiment`` in a fresh
process (``child.py``), because users run one experiment per process: every
repetition pays the imports and the cold ``gamma_report`` cache, and its
peak resident memory is its own.  Repetitions run one after another
(closed loop, one client, single-threaded BLAS/OpenMP) until ``--seconds``
have passed, and at least ``MIN_REPS`` times.

Every repetition is checked: the child must exit 0, every experiment check
must pass, and its CSV bytes must equal those of the first repetition.  The
sha256 of the CSVs is printed, so a change that should be bitwise neutral
can show that it is.

``--trace 0`` reports the end-to-end metrics (medians over untraced
repetitions).  Their times are in reference seconds: each timed stretch
runs under a machine-speed probe (``probe.py``) and is scaled to the speed
that probe had on the reference machine, because the shared host's speed
swings too much for raw seconds of runs made minutes apart to compare.
The raw medians are printed as well.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones (``tracer.py``), the
tracing overhead, and checks that tracing changes no output byte and that
every count repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when every repetition passed, 1 when one failed, and 2 when the checkout
holds no ``src/degenbsde`` to benchmark.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"

MIN_REPS = 3
# Every child is killed at this many seconds after the benchmark started,
# so the whole command ends within 180 s.
HARD_LIMIT_S = 165.0
# Thread pools pinned to one thread in every experiment process.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One experiment config, scaled down from the CLI defaults so that a
    run holds several repetitions.

    ``passes`` is the number of Monte Carlo estimates the experiment makes,
    each of ``n_paths x n_steps`` path-steps.  ``accuracy`` names the CSV
    columns (mean, stderr) of the estimate that ``time_to_1pct_s`` is
    reported for; the last CSV row with a stderr is used.  ``probe`` is
    the machine-speed probe kernel that resembles the experiment's hot
    loop.
    """

    config: dict
    passes: int
    accuracy: Optional[tuple]
    probe: str


WORKLOADS = {
    # Degenerate weight on the dying-volatility model: RNG and stepping
    # kernel bound, ~80% of path-steps in the frozen tail after t = 1.
    "blowup": Workload(
        {"experiment": "blowup-rate", "model": "example1",
         "n_paths": 4096, "n_steps": 1000},
        passes=8, accuracy=("ux_mc", "ux_stderr"), probe="vector"),
    # Volatility alive on every step; three estimators re-stream the same
    # paths.
    "crossval": Workload(
        {"experiment": "weight-crossval", "model": "tanh_smooth",
         "n_paths": 16384, "n_steps": 500},
        passes=3, accuracy=("ux_degenerate", "ux_degenerate_stderr"),
        probe="vector"),
    # Alive-set classification (locate_tau) and the FD backward sweep;
    # negligible Monte Carlo work.
    "zpath": Workload(
        {"experiment": "z-path", "model": "girsanov_const",
         "provider": "pde", "n_paths": 5, "n_steps": 100, "n_x": 801},
        passes=1, accuracy=None, probe="scalar"),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "path_steps_per_s": "1/s",
    "time_to_1pct_s": "s",
}

PER_LAYER_UNITS = {
    "sde_sim.rng_s": "s",
    "sde_sim.rng_normals_per_s": "1/s",
    "sde_sim.kernel_s": "s",
    "sde_sim.kernel_path_steps_per_s": "1/s",
    "sde_sim.steps_yielded": "count",
    "sde_sim.live_step_frac": "ratio",
    "sde_sim.simulate_path_s": "s",
    "estimators.reduce_s": "s",
    "estimators.calls": "count",
    "estimators.repeat_stream_frac": "ratio",
    "estimators.n_floored": "count",
    "degeneracy.locate_tau_s": "s",
    "degeneracy.locate_tau_calls": "count",
    "degeneracy.nodes_classified": "count",
    "degeneracy.gamma_report_s": "s",
    "model.coeff_calls": "count",
    "pde_fd.solve_s": "s",
    "pde_fd.node_updates": "count",
    "pde_fd.node_updates_per_s": "1/s",
    "oracles.eval_s": "s",
    "cli.csv_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly from one traced repetition to the next.
EXACT_COUNTS = ("sde_sim.steps_yielded", "estimators.calls",
                "estimators.repeat_stream_frac", "estimators.n_floored",
                "degeneracy.locate_tau_calls", "degeneracy.nodes_classified",
                "model.coeff_calls", "pde_fd.node_updates", "cli.csv_bytes")


@dataclass
class Rep:
    """One repetition: one child process running one experiment.

    ``wall_s`` and ``setup_s`` are in reference seconds, ``*_raw_s`` in
    seconds; neither includes the time spent in the probe.  A traced
    repetition runs without a probe and has no ``wall_s``.
    """

    traced: bool
    error: Optional[str] = None
    wall_s: float = 0.0
    wall_raw_s: float = 0.0
    setup_s: float = 0.0
    setup_raw_s: float = 0.0
    rss_mb: float = 0.0
    sha256: str = ""
    checks_failed: int = 0
    outputs: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in PINNED_THREADS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list, log: Path, deadline: float):
    """Run ``child.py ARGS`` to completion; return (exit code or None on
    timeout, rusage, monotonic spawn time)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), flags, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    done = 0
    t_spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, str(CHILD), *args],
                         _child_env(), file_actions=actions)
    try:
        while time.monotonic() < deadline:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                return os.waitstatus_to_exitcode(status), usage, t_spawn
            time.sleep(0.05)
    finally:
        if not done:
            os.kill(pid, signal.SIGKILL)
            _, _, usage = os.wait4(pid, 0)
    return None, usage, t_spawn


def _outputs_sha256(paths: list) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode() + b"\0")
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _run_rep(wl: Workload, work: Path, k: int, traced: bool,
             deadline: float) -> Rep:
    out = work / f"rep{k}"
    out.mkdir()
    result = out / "result.json"
    args = [str(work / "config.json"), str(out), str(result), wl.probe]
    if traced:
        args += ["--trace", str(out / "spans.json")]
    code, usage, t_spawn = _spawn(args, out / "log.txt", deadline)
    rep = Rep(traced=traced)
    if code != 0 or not result.exists():
        rep.error = ("timed out" if code is None else
                     f"exit status {code}, see {out / 'log.txt'}")
        return rep
    r = json.loads(result.read_text())
    rep.wall_raw_s = r["wall_s"] - r["probe_s"]
    if r["scale"] is not None:
        rep.wall_s = rep.wall_raw_s * r["scale"]
    rep.setup_raw_s = r["ready_monotonic"] - t_spawn - r["setup_probe_s"]
    rep.setup_s = rep.setup_raw_s * r["setup_scale"]
    rep.rss_mb = usage.ru_maxrss / 1024.0
    rep.outputs = r["outputs"]
    rep.sha256 = _outputs_sha256(rep.outputs)
    rep.layers = r.get("trace", {})
    failed = [c for c in r["checks"] if not c[1]]
    rep.checks_failed = len(failed)
    if failed:
        rep.error = "; ".join(f"check {c[0]} failed ({c[2]}; requires {c[3]})"
                              for c in failed)
    return rep


def _accuracy_ratio(wl: Workload, csv_path: str) -> float:
    """``(stderr / (0.01 |mean|))**2`` of the workload's named estimate."""
    mean_col, err_col = wl.accuracy
    with open(csv_path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r[err_col]]
    mean, err = float(rows[-1][mean_col]), float(rows[-1][err_col])
    return (err / (0.01 * abs(mean))) ** 2


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def _end_to_end(wl: Workload, reps: list) -> tuple:
    """(metrics, sample lists) from the untraced repetitions that passed."""
    plain = [r for r in reps if not r.traced and r.error is None]
    ok = [r for r in reps if r.error is None]
    samples = {
        "wall_s": [r.wall_s for r in plain],
        "setup_s": [r.setup_s for r in ok],
        "peak_rss_mb": [r.rss_mb for r in plain],
        "wall_raw_s": [r.wall_raw_s for r in plain],
        "setup_raw_s": [r.setup_raw_s for r in ok],
    }
    wall = statistics.median(samples["wall_s"])
    cfg = wl.config
    path_steps = wl.passes * cfg["n_paths"] * cfg["n_steps"]
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "path_steps_per_s": path_steps / wall,
        # A workload without a Monte Carlo estimate has no sampling error:
        # its answer is at full accuracy after one run.
        "time_to_1pct_s": wall * (_accuracy_ratio(wl, plain[0].outputs[0])
                                  if wl.accuracy else 1.0),
    }
    return values, samples


def _per_layer(reps: list) -> dict:
    traced = [r for r in reps if r.traced and r.error is None]
    plain = [r for r in reps if not r.traced and r.error is None]
    values = {name: statistics.median([r.layers[name] for r in traced])
              for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (
        statistics.median([r.wall_raw_s for r in traced])
        / statistics.median([r.wall_raw_s for r in plain]) - 1.0)
    return values


def _check_reps(reps: list) -> None:
    """Fail repetitions whose CSVs differ from the first passing one, and
    traced repetitions whose counts differ from the first traced one."""
    ok = [r for r in reps if r.error is None]
    if not ok:
        return
    for r in ok[1:]:
        if r.sha256 != ok[0].sha256:
            r.error = (f"CSV sha256 {r.sha256} differs from the first "
                       f"repetition's {ok[0].sha256}")
    traced = [r for r in ok if r.traced and r.error is None]
    for r in traced[1:]:
        moved = [n for n in EXACT_COUNTS if r.layers[n] != traced[0].layers[n]]
        if moved:
            r.error = "counts differ between traced runs: " + ", ".join(moved)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "degenbsde" / "cli.py").is_file():
        print(f"no package to benchmark: {SRC / 'degenbsde'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(
        json.dumps(dict(wl.config, seed=args.seed), indent=1))

    code, _, _ = _spawn(["--import-only"], work / "warmup.log", deadline)
    if code != 0:
        print(f"the package does not import, see {work / 'warmup.log'}",
              file=sys.stderr)
        return 2

    min_reps = 2 * MIN_REPS if args.trace else MIN_REPS
    reps = []
    measure_from = time.monotonic()
    while (len(reps) < min_reps
           or time.monotonic() - measure_from < args.seconds):
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(_run_rep(wl, work, len(reps), traced, deadline))
        if time.monotonic() > deadline:
            break
    _check_reps(reps)

    failed = [r for r in reps if r.error is not None]
    for k, r in enumerate(reps):
        if r.error is not None:
            print(f"repetition {k} failed: {r.error}")
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} "
          f"repetitions, outputs_sha256 {reps[0].sha256 or 'none'}")
    print(f"  {'runs_failed_frac':<18} {len(failed) / len(reps):.6g} ratio")
    print(f"  {'checks_failed':<18} {sum(r.checks_failed for r in reps)} "
          f"count")
    correct = not failed
    metrics = {}
    if correct:
        values, samples = _end_to_end(wl, reps)
        for name, value in values.items():
            detail = _spread(samples[name]) if name in samples else ""
            print(f"  {name:<18} {value:.6g} {END_TO_END_UNITS[name]}  "
                  f"{detail}")
        for name in ("wall_raw_s", "setup_raw_s"):
            print(f"  {name:<18} {statistics.median(samples[name]):.6g} s  "
                  f"{_spread(samples[name])}  (not in the JSON line)")
        if args.trace:
            values = _per_layer(reps)
            for name, value in values.items():
                print(f"  {name:<34} {value:.6g} {PER_LAYER_UNITS[name]}")
            units = PER_LAYER_UNITS
        else:
            units = END_TO_END_UNITS
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

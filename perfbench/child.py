"""Run one experiment in a fresh process, the way a user runs it.

    python3 child.py CONFIG_JSON OUT_DIR RESULT_JSON PROBE [--trace SPANS_JSON]
    python3 child.py --import-only

The process imports the package, loads the config and builds the model
(that is set-up, and ends at the ``ready_monotonic`` time it reports), then
times ``run_experiment`` until its CSVs are on disk.  Set-up runs under the
``scalar`` machine-speed probe and the experiment under the ``PROBE`` one
(``probe.py``); the time each probe took and its scale to reference seconds
are reported with the times.  With ``--trace`` the run goes through
``tracer.Tracer``, without a probe, and the per-layer metrics are reported
too.  ``--import-only`` imports the package and exits; ``run.py`` uses it to
compile the byte code and warm the file cache before anything is timed.
"""

import json
import sys
import time


def main(argv) -> int:
    if argv == ["--import-only"]:
        import degenbsde.cli  # noqa: F401
        return 0
    config_path, out_dir, result_path, probe_kind, *rest = argv
    spans_path = rest[1] if rest[:1] == ["--trace"] else None

    # The probe imports NumPy, so that import is the one part of set-up
    # that runs unsampled.
    from probe import Sampler
    setup = Sampler("scalar").start()
    try:
        from degenbsde.cli import run_experiment
        from degenbsde.model import builtin_model
        with open(config_path) as fh:
            raw = json.load(fh)
        builtin_model(raw["model"], **raw.get("params", {}))
    finally:
        setup.stop()
    ready = time.monotonic()

    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    if tracer is None:
        run = Sampler(probe_kind).start()
        try:
            result = run_experiment(raw, out_dir=out_dir)
        finally:
            run.stop()
    else:
        result = tracer.call("cli.run_experiment", run_experiment, raw,
                             out_dir=out_dir)
    wall = time.perf_counter() - t0

    report = {
        "ready_monotonic": ready,
        "setup_probe_s": setup.probe_s,
        "setup_scale": setup.scale(),
        "wall_s": wall,
        "probe_s": 0.0 if tracer else run.probe_s,
        "scale": None if tracer else run.scale(),
        "outputs": [str(p) for p in result.outputs],
        "checks": [[c.name, c.passed, c.measured, c.requirement]
                   for c in result.checks],
    }
    if tracer is not None:
        tracer.write(spans_path)
        report["trace"] = tracer.metrics()
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

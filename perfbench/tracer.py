"""Outside-in tracer for one experiment run.

The tracer replaces module attributes at the places where the caller looks
them up (``degenbsde.cli.solve_fd``, ``degenbsde.estimators.path_stream``,
...), so the package itself is not edited.  Every wrapped call records a
span ``(id, parent id, name, start, end)`` in memory; the spans are written
out once, after the run, and the per-layer metrics are derived from them.
A layer's self time is its spans' durations minus the time covered by their
direct child spans.

Wrappers return exactly what the wrapped call returns, so a traced run
writes the same CSV bytes as an untraced one.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
from collections import Counter

import numpy as np

# Callable fields of ``CoefficientModel`` whose calls ``model.coeff_calls``
# counts.
_COEFFICIENTS = ("sigma", "sigma_x", "b", "b_x", "f1", "f2", "f2_x", "g",
                 "g_prime", "f1_x", "f1_y")

_ESTIMATORS = ("estimate_u", "estimate_ux_pathwise", "estimate_ux_weighted",
               "empirical_lambda_moment", "reconstruct_Z")


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self._open = []  # ids of the spans that are still running
        self.counts = Counter()
        self._streams_seen = set()

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [len(self.spans), parent, name, time.perf_counter(), None]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` updates
        the counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- layer-specific wrappers -------------------------------------------

    def wrap_path_stream(self, fn):
        """Time the first advance of each stream (the increment draw) as
        ``sde_sim.rng`` and every later advance as ``sde_sim.kernel``."""

        @functools.wraps(fn)
        def traced(model, point, grid, seed, path_indices):
            idx = np.asarray(path_indices, dtype=np.int64)
            key = (model.name, point, grid, int(seed),
                   hashlib.sha256(idx.tobytes()).hexdigest())
            self.counts["stream_calls"] += 1
            self.counts["stream_repeats"] += key in self._streams_seen
            self._streams_seen.add(key)
            self.counts["normals"] += idx.size * grid.n_steps
            gen = fn(model, point, grid, seed, path_indices)
            name = "sde_sim.rng"
            while True:
                # the bookkeeping stays inside the span, so that it is not
                # charged to the estimator consuming the stream
                span = self.begin(name)
                try:
                    st = next(gen)
                    self.counts["steps_yielded"] += 1
                    self.counts["live_steps"] += bool(np.any(st.gamma != 0.0))
                except StopIteration:
                    return
                finally:
                    self.end(span)
                if name == "sde_sim.kernel":
                    self.counts["kernel_path_steps"] += idx.size
                name = "sde_sim.kernel"
                yield st

        return traced

    def counting_model(self, model):
        """The same model with every coefficient call counted."""

        def counted(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                self.counts["coeff_calls"] += 1
                return fn(*args, **kwargs)
            return inner

        fields = {f: counted(getattr(model, f)) for f in _COEFFICIENTS
                  if getattr(model, f) is not None}
        return dataclasses.replace(model, **fields)

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch the package's lookup sites for the rest of the process."""
        import degenbsde.cli as cli
        import degenbsde.estimators as est

        cli_builtin = cli.builtin_model

        def estimator_done(args, kwargs, result):
            self.counts["estimator_calls"] += 1
            self.counts["n_floored"] += getattr(result, "n_floored", 0)

        def tau_done(args, kwargs, tau):
            times = args[1].grid.times()
            self.counts["locate_tau_calls"] += 1
            self.counts["nodes_classified"] += int(
                np.searchsorted(times, tau)) + 1

        def fd_done(args, kwargs, sol):
            self.counts["node_updates"] += args[1].n_x * args[1].n_t

        def csv_done(args, kwargs, path):
            self.counts["csv_bytes"] += path.stat().st_size

        patches = [
            (cli, "builtin_model",
             lambda *a, **k: self.counting_model(cli_builtin(*a, **k))),
            (cli, "solve_fd", self.wrap("pde_fd.solve", cli.solve_fd,
                                        fd_done)),
            (cli, "locate_tau", self.wrap("degeneracy.locate_tau",
                                          cli.locate_tau, tau_done)),
            (cli, "_write_csv", self.wrap("cli.csv", cli._write_csv,
                                          csv_done)),
            (cli, "simulate_path", self.wrap("sde_sim.simulate_path",
                                             cli.simulate_path)),
            (cli, "example1_ux_at_zero", self.wrap("oracles.eval",
                                                   cli.example1_ux_at_zero)),
            (est, "path_stream", self.wrap_path_stream(est.path_stream)),
            (est, "gamma_report", self.wrap("degeneracy.gamma_report",
                                            est.gamma_report)),
            (est, "locate_tau", self.wrap("degeneracy.locate_tau",
                                          est.locate_tau, tau_done)),
        ]
        patches += [(cli, name, self.wrap("estimators." + name,
                                          getattr(cli, name), estimator_done))
                    for name in _ESTIMATORS]
        for mod, name, new in patches:
            setattr(mod, name, new)

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)

    def layer_times(self) -> tuple:
        """Total and self seconds per span name."""
        total = Counter()
        child = Counter()
        for _, parent, name, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        for sid, _, name, start, end in self.spans:
            self_s[name] += end - start - child[sid]
        return total, self_s

    def metrics(self) -> dict:
        """Per-layer metrics of the run; their units are in
        ``run.PER_LAYER_UNITS``."""
        total, self_s = self.layer_times()
        c = self.counts
        estimators_self = sum(v for k, v in self_s.items()
                              if k.startswith("estimators."))

        def ratio(n, d):
            return n / d if d else 0.0

        return {
            "sde_sim.rng_s": total["sde_sim.rng"],
            "sde_sim.rng_normals_per_s": ratio(c["normals"],
                                              total["sde_sim.rng"]),
            "sde_sim.kernel_s": total["sde_sim.kernel"],
            "sde_sim.kernel_path_steps_per_s": ratio(
                c["kernel_path_steps"], total["sde_sim.kernel"]),
            "sde_sim.steps_yielded": c["steps_yielded"],
            "sde_sim.live_step_frac": ratio(c["live_steps"],
                                            c["steps_yielded"]),
            "sde_sim.simulate_path_s": total["sde_sim.simulate_path"],
            "estimators.reduce_s": estimators_self,
            "estimators.calls": c["estimator_calls"],
            "estimators.repeat_stream_frac": ratio(c["stream_repeats"],
                                                   c["stream_calls"]),
            "estimators.n_floored": c["n_floored"],
            "degeneracy.locate_tau_s": total["degeneracy.locate_tau"],
            "degeneracy.locate_tau_calls": c["locate_tau_calls"],
            "degeneracy.nodes_classified": c["nodes_classified"],
            "degeneracy.gamma_report_s": total["degeneracy.gamma_report"],
            "model.coeff_calls": c["coeff_calls"],
            "pde_fd.solve_s": total["pde_fd.solve"],
            "pde_fd.node_updates": c["node_updates"],
            "pde_fd.node_updates_per_s": ratio(c["node_updates"],
                                              total["pde_fd.solve"]),
            "oracles.eval_s": total["oracles.eval"],
            "cli.csv_s": total["cli.csv"],
            "cli.csv_bytes": c["csv_bytes"],
            "cli.self_s": self_s["cli.run_experiment"],
        }

"""Machine-speed probe: a fixed kernel sampled while the experiment runs.

On the shared 2-vCPU host this benchmark was built on, the same code runs
up to twice as fast or as slow from one second to the next, in regimes
that last a second or two and shift over minutes.  Raw seconds of runs
made minutes apart are then not comparable.  So every timed stretch of a
repetition (set-up and the experiment) runs under a ``Sampler``: a
``SIGALRM`` timer interrupts the program every ``PERIOD_S`` and the
handler times one chunk of a fixed kernel.  Python runs the handler in the
main thread between bytecodes, so the samples see the same machine
regimes as the program around them.  The stretch is then reported in
reference seconds:

    (elapsed - time spent in the probe) * mean(REFERENCE_S / chunk time)

which is its length at the speed the probe had on the reference machine
(``machine.json``).  The kernels live here, not in the package, so no
change to the package moves them.

- ``scalar``: an RK4 sweep of a one-point characteristic through
  ``np.where``-style coefficients, like ``locate_tau`` and the other
  per-node loops over tiny arrays, and like importing modules:
  interpreter and call overhead.
- ``vector``: normal increments from a seeded generator and an Euler and
  tangent step over 4096 paths, like ``path_stream``: RNG and elementwise
  kernels.

Each workload is normalised by the kernel that resembles its hot loop; a
mismatched kernel tracks the workload worse than raw time does.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.1

# Median chunk time of each kernel on the machine in machine.json.  Changing
# these rescales every time metric; keep them fixed.
REFERENCE_S = {"scalar": 0.0024, "vector": 0.0014}


def _sigma(t, x):
    return np.where(np.asarray(t) <= 0.5, 1.0, 0.0) * np.ones_like(x)


def _drift(t, x):
    return np.asarray(0.5 * np.tanh(x) + 0.1 * t, dtype=float)


def _scalar_chunk() -> None:
    eta = np.zeros(1)
    mx = np.zeros(1)
    h = 1.0 / 80
    for j in range(80):
        s = j * h
        k1 = _drift(s, eta)
        k2 = _drift(s + 0.5 * h, eta + 0.5 * h * k1)
        k3 = _drift(s + 0.5 * h, eta + 0.5 * h * k2)
        k4 = _drift(s + h, eta + h * k3)
        eta = eta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        mx = np.maximum(mx, np.abs(_sigma(s + h, eta)))


def _vector_chunk() -> None:
    rng = np.random.default_rng(12345)
    x = np.zeros(4096)
    g = np.ones(4096)
    dt = 1.0 / 10
    for _ in range(10):
        dw = rng.standard_normal(4096) * np.sqrt(dt)
        vol = np.tanh(1.0 + x)
        x = x + 0.1 * x * dt + vol * dw
        g = g * (1.0 + 0.1 * dt + (1.0 - vol * vol) * dw)


_CHUNK = {"scalar": _scalar_chunk, "vector": _vector_chunk}


class Sampler:
    """Times one probe chunk every ``PERIOD_S`` between ``start`` and
    ``stop``.  Put both inside the timed stretch: every sample then lies
    in it, and ``probe_s`` is the part of the stretch the probe took."""

    def __init__(self, kind: str):
        self.kind = kind
        self._chunk = _CHUNK[kind]
        self.samples = []

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self._chunk()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def probe_s(self) -> float:
        return sum(self.samples)

    def scale(self) -> float:
        """Reference seconds per second of the sampled stretch:
        ``mean(REFERENCE_S / chunk time)``.  A stretch shorter than one
        period is scaled by a sample taken after it."""
        if not self.samples:
            self._sample()
            probe = self.samples.pop()
            return REFERENCE_S[self.kind] / probe
        ref = REFERENCE_S[self.kind]
        return sum(ref / s for s in self.samples) / len(self.samples)

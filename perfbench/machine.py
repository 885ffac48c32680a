"""Print the machine block the benchmark figures were measured on.

    python3 perfbench/machine.py > perfbench/machine.json

Reads the CPU model from ``/proc/cpuinfo`` and the cache sizes from
``/sys/devices/system/cpu/cpu0/cache``, and records the thread pools
``run.py`` pins to one thread in every experiment process.
"""

import json
import os
import platform
import sys
from pathlib import Path

import numpy
import scipy

from run import PINNED_THREADS


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        size = (index / "size").read_text().strip()
        out[f"L{level} {kind}"] = size
    return out


def main() -> int:
    block = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_per_core": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: 1 for var in PINNED_THREADS},
    }
    json.dump(block, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())

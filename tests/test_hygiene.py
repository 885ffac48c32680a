"""Every name a package module imports is used in that module; the FD
solver imports nothing from the Monte Carlo estimators; importing the
package loads no SciPy, and small runs of every experiment that call no
closed-form oracle load no module while they run."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "degenbsde"
_MODULES = sorted(p for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_pde_fd_imports_nothing_from_estimators():
    # the FD solver answers its own lookups; it sits below the Monte Carlo
    # layer and must not import it
    tree = ast.parse((_SRC / "pde_fd.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("estimators" in n.split(".") for n in names), \
            ast.unparse(node)


def fresh_python(script, *args):
    """Run ``script`` in a new interpreter that imports this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC.parent), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


# Scaled-down versions of the three benchmark workloads (girsanov_const wraps
# step_vol, so the z-path FD solve also samples its volatility jump), then one
# small run of each other experiment. None calls example1_u or
# bachelier_digital, the two oracles that import SciPy.
_SMALL = {"n_paths": 64, "n_steps": 20}
_RUNS = (
    {"experiment": "blowup-rate", "model": "example1", "n_paths": 64,
     "n_steps": 50, "n_t_points": 3},
    {"experiment": "weight-crossval", "model": "tanh_smooth", "n_paths": 64,
     "n_steps": 20},
    {"experiment": "z-path", "model": "girsanov_const", "provider": "pde",
     "n_paths": 2, "n_steps": 20, "n_x": 41},
    {"experiment": "tau-locate", "model": "step_vol", **_SMALL},
    {"experiment": "lambda-moment", "model": "tanh_smooth", "n_doublings": 1,
     **_SMALL},
    {"experiment": "girsanov-equiv", "model": "girsanov_const", **_SMALL},
    {"experiment": "pde-vs-mc", "model": "step_vol", **_SMALL},
)


def test_import_loads_no_scipy_and_runs_load_no_module(tmp_path):
    out = fresh_python("""
        import json, sys
        import degenbsde, degenbsde.cli
        loaded = set(sys.modules)
        for i, cfg in enumerate(json.loads(sys.argv[1])):
            degenbsde.cli.run_experiment(cfg, out_dir=f"{sys.argv[2]}/{i}")
        print(json.dumps({
            "scipy": sorted(m for m in loaded
                            if m == "scipy" or m.startswith("scipy.")),
            "numpy.random": "numpy.random" in loaded,
            "gained": sorted(set(sys.modules) - loaded)}))
        """, json.dumps(_RUNS), str(tmp_path))
    report = json.loads(out)
    assert report["scipy"] == []
    assert report["numpy.random"]
    assert report["gained"] == []


def test_list_models_loads_no_scipy():
    out = fresh_python("""
        import sys
        from degenbsde.cli import main
        assert main(["list-models"]) == 0
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
        """)
    assert out.splitlines()[-1] == "[]"

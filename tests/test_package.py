"""Package-level behavior: the import footprint and the demo scripts."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import weilgraph

SRC = Path(weilgraph.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_import_loads_only_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); import weilgraph; "
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'weilgraph'}))"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_cache_is_bounded():
    # caches found as perfbench/workloads.py finds them, after every
    # submodule is imported
    for mod in pkgutil.iter_modules(weilgraph.__path__):
        importlib.import_module(f"weilgraph.{mod.name}")
    caches = {
        f"{name}.{attr}": obj
        for name, mod in list(sys.modules.items())
        if name.startswith("weilgraph.")
        for attr, obj in vars(mod).items()
        if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
    }
    assert caches
    assert [n for n, c in caches.items() if c.cache_parameters()["maxsize"] is None] == []


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout

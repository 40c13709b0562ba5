"""Package-level behavior: the import footprint, the exported names and
their single declaration, the independence of the routes, unused imports
and the demo scripts."""

import ast
import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import weilgraph

SRC = Path(weilgraph.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DEMO_STDOUT_SHA256 = {
    "01_pairing_basics": "e583cf8f43ccab4a3db5c09c8604060682e29a903ae187f887a307955a7bf473",
    "02_double_covers": "7550d1220d05ead335768eef30a0486ca34bcca849da2fbe97e90402b3c6cd5f",
    "03_two_torsion_models": "fc69e4bdcff6e7c1def63c62ecafda2fcc84f61fef0a79304909a218dd40f56b",
    "04_chip_firing_torsion": "78e41cb1d97ea752e44d2bb63f52ce65717469a641e28a74cb029227aea8fe8f",
}


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


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks ``from weilgraph.<module> import *``
    modules = [weilgraph] + [
        importlib.import_module(f"weilgraph.{mod.name}")
        for mod in pkgutil.iter_modules(weilgraph.__path__)
    ]
    exported = [(mod, name) for mod in modules for name in getattr(mod, "__all__", ())]
    assert len(exported) > len(weilgraph.__all__)
    assert [f"{m.__name__}.{n}" for m, n in exported if not hasattr(m, n)] == []


def _reexported_modules():
    # the modules the package re-exports: all but the command line
    return [
        importlib.import_module(f"weilgraph.{mod.name}")
        for mod in pkgutil.iter_modules(weilgraph.__path__)
        if mod.name != "cli"
    ]


def test_module_exports_are_disjoint():
    # under wildcard re-exports a name in two modules would be shadowed
    seen = {}
    for mod in _reexported_modules():
        for name in mod.__all__:
            assert name not in seen, f"{name} in {seen.get(name)} and {mod.__name__}"
            seen[name] = mod.__name__


def test_package_exports_each_module_name_once():
    modules = _reexported_modules()
    assert len(modules) == 8
    assert weilgraph.__all__ == sorted(name for mod in modules for name in mod.__all__)
    assert [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in mod.__all__
        if getattr(weilgraph, name) is not getattr(mod, name)
    ] == []


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


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(node):
    # every identifier the code reads: bare names and attributes
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_routes_stay_independent():
    # the cover route never sums supports
    cover = _tree(SRC / "weilgraph" / "cover.py")
    from_homology = {
        alias.name
        for node in ast.walk(cover)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("homology")
        for alias in node.names
    }
    assert from_homology == {"Chain1", "Cochain1", "is_simple_cycle"}
    assert _names(cover) & {"_parity", "_pairing_rows", "graph_pairing"} == set()

    # burning reads the Smith form only to choose a principal shift, and the
    # critical group is read off it
    sandpile = _tree(SRC / "weilgraph" / "sandpile.py")
    readers = {
        getattr(node, "name", type(node).__name__)
        for node in sandpile.body
        if getattr(node, "name", None) != "_reduced_smith"
        and "_reduced_smith" in _names(node)
    }
    assert readers == {"_principal_shift", "_critical_group"}

    # the component count, and so the genus, never reads the spanning forest:
    # the model sweep checks a torsion order whose exponent is the genus
    # against a form dimension that counts the forest's fundamental cycles
    graph_defs = {
        node.name: node
        for node in ast.walk(_tree(SRC / "weilgraph" / "graphs.py"))
        if isinstance(node, ast.FunctionDef)
    }
    forest_names = {"spanning_forest", "fundamental_cycles", "find", "parent"}
    walks = ("genus", "component_count", "is_connected", "edge_components", "_edge_components")
    for name in walks:
        assert _names(graph_defs[name]) & forest_names == set(), name

    # the solvers of the tests' oracle module, which acceptance test 6 and
    # the burning and shift properties read, call no package code but the
    # Laplacian: no Smith form and no burning.  Only the graph generator and
    # the Smith checker, which are no solvers, may call more.
    package_names = {
        name
        for mod in pkgutil.iter_modules(weilgraph.__path__)
        for name in vars(importlib.import_module(f"weilgraph.{mod.name}"))
    }
    called = {
        node.name: {
            call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
        }
        & package_names
        for node in _tree(TESTS / "oracles.py").body
        if isinstance(node, ast.FunctionDef)
    }
    assert called.pop("random_connected") == {"MultiGraph"}
    assert called.pop("check_smith_form") == {"IntMatrix"}
    assert called.pop("rational_solution") == {"laplacian"}
    assert "in_laplacian_image" in called
    assert {name: calls for name, calls in called.items() if calls - {"laplacian"}} == {}


def test_no_unused_imports():
    # every name a module imports is read in it; __init__ imports to re-export
    stale = []
    for path in sorted((SRC / "weilgraph").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        stale += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert stale == []


def test_no_test_module_imports_another():
    # what the tests share lives once, in oracles.py
    imported = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            imported += [f"{path.name}: {name}" for name in names if name.startswith("test_")]
    assert imported == []


def test_demos_found():
    assert sorted(d.stem for d in DEMOS) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]

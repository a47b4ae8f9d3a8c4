"""Every name a crspin module exports in ``__all__`` exists, so a deletion that leaves its name behind fails here."""

import ast
import graphlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import crspin

# __main__ runs the command line when imported
MODULES = ["crspin"] + [f"crspin.{info.name}" for info in pkgutil.iter_modules(crspin.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_runs(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what {name} does not define: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_the_import_graph_is_acyclic():
    # function-local imports count too: deferring one hides a cycle from the loader, not from the design;
    # __init__ loads its names through importlib, at attribute access
    edges = {}
    for path in Path(crspin.__file__).parent.glob("*.py"):
        if path.stem != "__init__":
            nodes = [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ImportFrom)]
            edges[path.stem] = {node.module or alias.name for node in nodes if node.level == 1 for alias in node.names}
    try:
        list(graphlib.TopologicalSorter(edges).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"crspin modules import each other in a cycle: {' -> '.join(exc.args[1])}")

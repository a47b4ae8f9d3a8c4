"""Every name a crspin module exports in ``__all__`` exists, so a deletion that leaves its name behind fails here."""

import ast
import graphlib
import importlib
import importlib.util
import inspect
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


def test_one_table_holds_every_default_tolerance():
    # the acceptance gate calls kernel_report, shift_table and spectral_consistency with their defaults, so a
    # default written as its own literal would part the gate from the run when the table changes
    from crspin import cli, clifford, cohomology, operators, vanishing, weitzenboeck

    table = clifford.TOLERANCE_DEFAULTS
    assert cli.TOLERANCE_DEFAULTS is table
    spectral, dual = table["spectral"], table["dual_assembly"]
    defaults = {
        (weitzenboeck.sector_pass, "tol"): spectral,
        (cohomology.dirac_kernel, "tol"): spectral,
        (cohomology.shift_table, "tol"): spectral,
        (cohomology.shift_table, "shift_tol"): dual,
        (operators.cluster_eigenvalues, "tol"): spectral,
        (operators.kernel_report, "tol"): spectral,
        (operators.diagonal_kernel_count, "tol"): spectral,
        (vanishing.spectral_consistency, "tol"): spectral,
    }
    for (func, name), value in defaults.items():
        assert inspect.signature(func).parameters[name].default == value, f"{func.__qualname__}({name}=...)"
    literals = []
    for path in Path(crspin.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for default in [*node.args.defaults, *node.args.kw_defaults]:
                    if isinstance(default, ast.Constant) and default.value in (1e-8, 1e-10):
                        literals.append(f"{path.name}:{default.lineno}")
    assert not literals, f"default tolerance literals outside clifford.TOLERANCE_DEFAULTS: {literals}"


def test_the_bench_verifier_checks_each_identities_row_at_its_run_tolerance():
    # perfbench/verify.py keeps its own copies of the row classes and the default tolerances; a row that moved class
    # would leave the bench checking it at the other tolerance
    from crspin import clifford, weitzenboeck

    path = Path(__file__).resolve().parent.parent / "perfbench" / "verify.py"
    spec = importlib.util.spec_from_file_location("verify", path)
    verify = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify)
    assert set(weitzenboeck.ALGEBRAIC_ROWS) == verify.ALGEBRAIC_RESIDUALS
    assert verify.TOLERANCES == clifford.TOLERANCE_DEFAULTS

"""Every name a crspin module exports in ``__all__`` exists, so a deletion that leaves its name behind fails here."""

import importlib
import pkgutil

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

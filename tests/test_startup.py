"""Per-process fixed cost of ``crspin run``: what an import loads, and the GC freeze at exit.

Each test starts a fresh interpreter, because this test session has
imported every crspin module already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import crspin

SRC = Path(crspin.__file__).resolve().parent.parent
PASSING = {"model": {"kind": "heisenberg", "m": 1, "sectors": [0]}, "checks": ["identities"]}


def python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


def run_script(code):
    proc = python("-c", textwrap.dedent(code))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_crspin_loads_no_submodule():
    out = run_script("""
        import sys
        import crspin
        print(sorted(name for name in sys.modules if name.startswith("crspin.")))
    """)
    assert out.strip() == "[]"


def test_cli_import_leaves_out_vanishing():
    out = run_script("""
        import sys
        import crspin.cli
        print(sorted(name for name in ("crspin.vanishing", "fractions", "decimal") if name in sys.modules))
    """)
    assert out.strip() == "[]"


def test_cli_import_loads_the_run_modules_and_at_most_14_dataclasses():
    # each module compiles at every run's start, and each @dataclass generates and execs its methods' source there
    out = run_script("""
        import dataclasses
        import inspect
        import json
        import sys
        import crspin.cli
        names = sorted(name for name in sys.modules if name.startswith("crspin."))
        classes = [cls for name in names for _, cls in inspect.getmembers(sys.modules[name], inspect.isclass)
                   if cls.__module__ == name and dataclasses.is_dataclass(cls)]
        print(json.dumps({"modules": names, "dataclasses": len(classes)}))
    """)
    loaded = json.loads(out)
    assert loaded["modules"] == [f"crspin.{name}" for name in ("cli", "clifford", "cohomology", "fields", "models",
                                                                "operators", "sections", "weitzenboeck")]
    assert loaded["dataclasses"] <= 14


def test_every_exported_name_resolves_on_first_access():
    out = run_script("""
        import json
        import crspin
        names = crspin.__all__
        unlisted = sorted(set(names) - set(dir(crspin)))
        unresolved = []
        for name in names:
            try:
                exec(f"from crspin import {name}", {})
            except ImportError:
                unresolved.append(name)
        print(json.dumps({"count": len(names), "unlisted": unlisted, "unresolved": unresolved,
                          "attr": all(hasattr(crspin, name) for name in names)}))
    """)
    assert json.loads(out) == {"count": len(crspin.__all__), "unlisted": [], "unresolved": [], "attr": True}


def test_run_freezes_the_gc_only_at_exit(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PASSING))
    out = run_script(f"""
        import atexit
        import gc
        from crspin.cli import main

        atexit.register(lambda: print("freeze at exit", gc.get_freeze_count() > 0))
        before = atexit._ncallbacks()
        codes = [main(["run", "--config", {str(config)!r}, "--out", {str(tmp_path / "art")!r}]) for _ in range(2)]
        print("codes", codes)
        print("callbacks added", atexit._ncallbacks() - before)
        print("frozen after main", gc.get_freeze_count())
    """)
    lines = [line for line in out.splitlines() if not line.startswith(("check ", "wrote "))]
    assert lines == ["codes [0, 0]", "callbacks added 1", "frozen after main 0", "freeze at exit True"]


def test_module_entry_point_exit_codes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(PASSING))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{")
    passing = python("-m", "crspin", "run", "--config", str(config), "--out", str(tmp_path / "art"))
    assert passing.returncode == 0, passing.stderr
    assert "check identities: PASS" in passing.stdout
    broken = python("-m", "crspin", "run", "--config", str(malformed), "--out", str(tmp_path / "art"))
    assert broken.returncode == 2
    assert "config error: parse error" in broken.stderr

"""Compare the artifacts two crspin source trees write for the same configs.

Usage (from the root of a checkout)::

    python3 tools/compare_artifacts.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts
(each goes on PYTHONPATH in turn).  Every config of
``perfbench.workloads.config_space()`` and of ``DEFAULT_CONFIGS`` (model keys
left to, or set away from, their class defaults) runs under both trees with
CSV tables, and the example config of README.md runs with CSV and with JSON
tables.  One process per config and tree, one BLAS thread each, so dense
rounding does not depend on thread scheduling.

Prints every config whose exit codes differ and every artifact file that
exists under one tree only or differs in bytes, then one summary line.
Under each file that differs in bytes it prints the first differing line:
its number, the parent text and the change text.  When the two files
differ only in their numbers (the text between numeric tokens is the
same), it also prints the largest |parent - change| over those tokens.
After the summary line it prints one line per ``*_report.json`` key path
whose numbers moved, with the keys under ``sectors`` folded to ``*``: the
number of files where it moved, the largest |change - parent|, and how
many of its numbers moved up and how many down.
Exits 0 when both trees wrote the same files with the same bytes and
exit codes, 1 otherwise.  ``perfbench/`` is read, never written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


DEFAULT_CONFIGS = {
    "sphere-default-scal_w": {"kind": "sphere", "m": 2},
    "sphere-scal_w-2.5": {"kind": "sphere", "m": 2, "scal_w": 2.5},
    "torus-default-flux": {"kind": "torus_bundle", "m": 2, "sectors": [-1, 0, 1]},
    "torus-flux-3": {"kind": "torus_bundle", "m": 2, "flux": 3, "sectors": [-1, 0, 1]},
    "heisenberg-ladder-levels-only": {"kind": "heisenberg", "m": 2, "sectors": [0, 1],
                                      "truncation": {"ladder_levels": 4}},
}


def readme_config() -> dict:
    """The JSON config shown under "Config schema" in README.md."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"### Config schema.*?```json\n(.*?)```", text, re.S)
    if match is None:
        raise SystemExit("README.md has no ```json block under 'Config schema'")
    return json.loads(match.group(1))


def cases() -> list[tuple[str, dict, str]]:
    """(name, config, table format) of every comparison run."""
    out = [(f"config{i:02d}", config, "csv") for i, config in enumerate(workloads.config_space())]
    checks = list(workloads.ALL_CHECKS)
    out += [(name, {"model": model, "checks": checks}, "csv") for name, model in DEFAULT_CONFIGS.items()]
    readme = readme_config()
    out += [("readme-csv", readme, "csv"), ("readme-json", readme, "json")]
    return out


def run_tree(src: Path, config_path: Path, out: Path, fmt: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "crspin", "run", "--config", str(config_path),
           "--out", str(out), "--format", fmt]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def first_difference(parent: Path, change: Path) -> str:
    """Number and both texts of the first line where two artifact files differ."""
    old, new = (path.read_text().splitlines() for path in (parent, change))
    n = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))

    def text(lines: list[str]) -> str:
        return repr(lines[n]) if n < len(lines) else "<end of file>"

    return f"  line {n + 1}: parent {text(old)}\n  line {n + 1}: change {text(new)}"


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def numeric_delta(parent: Path, change: Path) -> float | None:
    """Largest |parent - change| over the numeric tokens of two files, or None
    when their text between the numbers differs."""
    old, new = (path.read_text() for path in (parent, change))
    if _NUMBER.split(old) != _NUMBER.split(new):
        return None
    return max((abs(float(a) - float(b)) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new))), default=0.0)


def numeric_leaves(node, path: tuple = ()):
    """(key path, number) of every number in a parsed report, the keys under ``sectors`` folded to ``*``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, path + ("*" if path[-1:] == ("sectors",) else key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, path + (f"[{i}]",))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield ".".join(path), node


def moved_numbers(parent: Path, change: Path) -> list[tuple[str, float]]:
    """(folded key path, change - parent) of every number that differs between two reports, or [] when
    their key paths differ."""
    old, new = (list(numeric_leaves(json.loads(path.read_text()))) for path in (parent, change))
    if [key for key, _ in old] != [key for key, _ in new]:
        return []
    return [(key, b - a) for (key, a), (_, b) in zip(old, new) if a != b]


def compare(trees: dict[str, Path], work: Path) -> int:
    files = differing = code_clashes = 0
    moved = {}  # (report file name, folded key path) -> (names of the configs where it moved, deltas)
    for name, config, fmt in cases():
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config))
        outs = {label: work / label / name for label in trees}
        codes = {label: run_tree(src, config_path, outs[label], fmt) for label, src in trees.items()}
        if len(set(codes.values())) > 1:
            code_clashes += 1
            print(f"{name}: exit codes {codes}")
        listings = {label: {p.name for p in out.iterdir()} if out.is_dir() else set()
                    for label, out in outs.items()}
        parent, change = outs.values()
        for file in sorted(set().union(*listings.values())):
            files += 1
            missing = [label for label, names in listings.items() if file not in names]
            if missing:
                differing += 1
                print(f"{name}/{file}: missing under {', '.join(missing)}")
            elif (parent / file).read_bytes() != (change / file).read_bytes():
                differing += 1
                print(f"{name}/{file}: bytes differ")
                print(first_difference(parent / file, change / file))
                delta = numeric_delta(parent / file, change / file)
                if delta is not None:
                    print(f"  max |delta| over numeric tokens: {delta:.3e}")
                if file.endswith("_report.json"):
                    for key, step in moved_numbers(parent / file, change / file):
                        names, steps = moved.setdefault((file, key), (set(), []))
                        names.add(name)
                        steps.append(step)
    print(f"{len(cases())} configs, {files} files, {differing} differing, "
          f"{code_clashes} exit-code mismatches")
    for (file, key), (names, steps) in sorted(moved.items()):
        print(f"{file} {key}: {len(names)} files, max |delta| {max(map(abs, steps)):.3e}, "
              f"{sum(step > 0 for step in steps)} up, {sum(step < 0 for step in steps)} down")
    return 0 if differing == 0 and code_clashes == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="an empty directory that keeps configs and artifacts (default: a temporary one)")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        return compare(trees, args.work)
    with tempfile.TemporaryDirectory(prefix="crspin-compare-") as work:
        return compare(trees, Path(work))


if __name__ == "__main__":
    sys.exit(main())

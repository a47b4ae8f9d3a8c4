"""Run the reach ladder of heisenberg configs under one or two crspin source trees.

Usage (from the root of a checkout)::

    python3 tools/reach.py SRC [SRC2] [--cap-gib 5] [--only NAME ...]

SRC and SRC2 are the ``src`` directories of checkouts (each goes on
PYTHONPATH in turn).  Every config of ``LADDER`` runs with all five
checks, one process at a time and one BLAS thread, under an address-space
cap (``RLIMIT_AS``) that is set in the child only, so a config that would
exhaust memory exits 1 with the checks' ``MemoryError`` instead of taking
the machine.  With two trees each config runs under both, one after the
other.  One line per run: the config, the tree, the wall time, the
child's peak RSS (``ru_maxrss``), the exit code and the first ERROR line
the run printed.  Artifacts go to a temporary directory and are removed.
Exits 1 when any run exited nonzero, 0 otherwise, so the ladder can gate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CHECKS = ["identities", "spectrum", "cohomology", "vanishing", "conformal"]

# (name, m, sector k, truncation): the full-space dimension grows down the list
LADDER = [
    ("m2 k0 r2", 2, 0, {"fourier_radius": 2}),
    ("m3 k0 r1", 3, 0, {"fourier_radius": 1}),
    ("m4 k1 L5", 4, 1, {"ladder_levels": 5}),
    ("m4 k0 r1", 4, 0, {"fourier_radius": 1}),
    ("m5 k1 L4", 5, 1, {"ladder_levels": 4}),
    ("m6 k1 L3", 6, 1, {"ladder_levels": 3}),
    ("m7 k1 L2", 7, 1, {"ladder_levels": 2}),
    ("m5 k0 r1", 5, 0, {"fourier_radius": 1}),
    ("m6 k1 L4", 6, 1, {"ladder_levels": 4}),
    ("m7 k1 L3", 7, 1, {"ladder_levels": 3}),
    ("m8 k1 L2", 8, 1, {"ladder_levels": 2}),
    ("m6 k0 r1", 6, 0, {"fourier_radius": 1}),
    ("m8 k1 L3", 8, 1, {"ladder_levels": 3}),
]


def config(m: int, k: int, truncation: dict) -> dict:
    """The run config of one ladder row: heisenberg, one sector, every check."""
    return {"model": {"kind": "heisenberg", "m": m, "ell": 0, "sectors": [k], "truncation": truncation},
            "checks": CHECKS}


def positive_gib(text: str) -> float:
    """An address-space cap in GiB, refused unless it is a positive finite number."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"the cap must be a positive number of GiB, got {text}")
    return value


def first_error(stdout: str) -> str:
    """The first line of a run's output that reports a check's ERROR, or ''."""
    return next((line.strip() for line in stdout.splitlines() if "ERROR" in line), "")


def format_row(name: str, tree: str, wall_s: float, peak_kb: int, code: int, error: str) -> str:
    """One output line: wall time in s, peak RSS in MiB (``ru_maxrss`` is in KiB on Linux)."""
    line = f"{name:<9} {tree:<6} {wall_s:7.2f} s {peak_kb / 1024:6.0f} MiB  exit {code}"
    return f"{line}  {error}" if error else line


def run_one(src: Path, config_path: Path, out: Path, cap_bytes: int) -> tuple[float, int, int, str]:
    """(wall s, peak RSS KiB, exit code, first ERROR line) of one crspin run in a capped child."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    cmd = [sys.executable, "-m", "crspin", "run", "--config", str(config_path), "--out", str(out)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          preexec_fn=cap) as child:
        stdout = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)  # the child's own rusage, for its peak RSS
        child.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, usage.ru_maxrss, child.returncode, first_error(stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", type=Path, nargs="+", metavar="SRC", help="one or two crspin src directories")
    parser.add_argument("--cap-gib", type=positive_gib, default=5.0, help="RLIMIT_AS of each child in GiB (default 5)")
    parser.add_argument("--only", nargs="+", default=None, metavar="NAME", help="run only these ladder rows")
    args = parser.parse_args(argv)
    if len(args.srcs) > 2:
        parser.error("give one or two src directories")
    trees = {f"tree{i}": src.resolve() for i, src in enumerate(args.srcs, 1)}
    rows = [row for row in LADDER if args.only is None or row[0] in args.only]
    failed = False
    with tempfile.TemporaryDirectory(prefix="crspin-reach-") as work:
        for name, m, k, truncation in rows:
            config_path = Path(work) / "config.json"
            config_path.write_text(json.dumps(config(m, k, truncation)))
            for tree, src in trees.items():
                out = Path(work) / tree / name.replace(" ", "-")
                wall_s, peak_kb, code, error = run_one(src, config_path, out, int(args.cap_gib * 2**30))
                failed = failed or code != 0
                print(format_row(name, tree, wall_s, peak_kb, code, error), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())

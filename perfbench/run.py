"""Benchmark of ``crspin run``: time to verdict and peak memory per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ladder3_identities --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each workload pass runs its generated configs as separate crspin processes,
one at a time (closed loop, one client), checks every output against
``reference.json`` and records, per pass:

* ``run_s``: wall time from process spawn to exit, summed over the pass;
* ``setup_s``: the part of ``run_s`` before the first check starts
  (interpreter start, ``import crspin``, ``load_config``, ``build_model``);
* ``peak_rss_mb``: the largest max-RSS of any process in the pass.

Passes repeat until ``--seconds`` is used up and the medians are reported.
With ``--trace 1`` passes alternate between traced and untraced; the traced
ones give the per-layer metrics of ``tracing.py`` and ``trace.overhead_s``
(median traced minus median untraced ``run_s``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Child processes get ``BLAS_THREADS`` BLAS/OpenMP threads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = 1  # at most nproc (2 on the reference VM); the NOTES.md figures use 1
# a process still running this long after the measuring time is killed and counted as failed
GRACE_S = 60.0
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
PER_LAYER_EXTRA = ("trace.run_s", "trace.overhead_s")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def probe(workdir: Path, env: dict) -> dict:
    """Import crspin once in a child (fills the bytecode cache) and report versions."""
    code = (
        "import json, sys, numpy, crspin.cli\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'blas': blas['name'] + ' ' + blas['version'], 'crspin': crspin.__file__}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=GRACE_S)
    if done.returncode != 0:
        raise RuntimeError(f"cannot import crspin from {ROOT / 'src'}: {done.stderr.strip()}")
    info = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(info["crspin"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"crspin imported from {info['crspin']}, not from {ROOT / 'src'}")
    return info


def run_process(job, workdir: Path, env: dict, references: dict, trace: bool, timeout: float) -> dict:
    """Run one crspin process, killing it after ``timeout`` seconds, and verify its artifacts."""
    out = workdir / job.name
    record_path = workdir / f"{job.name}.record.json"
    shutil.rmtree(out, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "launch.py"), str(record_path), "1" if trace else "0",
            "run", "--config", str(workdir / f"{job.name}.json"), "--out", str(out)]
    with open(workdir / f"{job.name}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
    found = verify.problems(out, exit_code, references.get(job.key))
    record = {}
    if record_path.exists():
        record = json.loads(record_path.read_text())
    if record.get("setup_end") is None:
        found.append("no setup stamp: cli.build_model never returned")
    result = {
        "job": job.name,
        "exit": exit_code,
        "wall": wall,
        "setup": (record["setup_end"] - start) if record.get("setup_end") else wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "problems": found,
    }
    if trace:
        artifacts = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
        result.update(spans=record.get("spans", []), counters=record.get("counters", {}),
                      artifact_files=len(artifacts), artifact_bytes=sum(p.stat().st_size for p in artifacts))
    return result


def run_pass(jobs, workdir, env, references, trace: bool, kill_at: float) -> dict:
    procs = [run_process(job, workdir, env, references, trace, max(kill_at - time.perf_counter(), 1.0))
             for job in jobs]
    for proc in procs:
        for problem in proc["problems"]:
            print(f"FAILED {proc['job']}: {problem}", file=sys.stderr)
    summary = {
        "run_s": sum(p["wall"] for p in procs),
        "setup_s": sum(p["setup"] for p in procs),
        "peak_rss_mb": max(p["rss_mb"] for p in procs),
        "attempted": len(procs),
        "failed": sum(1 for p in procs if p["problems"]),
        "traced": trace,
    }
    if trace:
        summary["layers"] = tracing.layer_metrics(procs)
    return summary


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, env: dict,
            references: dict) -> list[dict]:
    jobs = workloads.generate(workload, seed)
    for job in jobs:
        (workdir / f"{job.name}.json").write_text(json.dumps(job.config, indent=2) + "\n")
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        begun = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(jobs, workdir, env, references, traced, deadline + GRACE_S))
        needed = 2 if trace else 1  # a traced run needs one pass of each kind
        if len(passes) >= needed and time.perf_counter() + (time.perf_counter() - begun) > deadline:
            return passes


def summarize(workload: str, passes: list[dict], trace: bool) -> tuple[dict, int, int]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    print(f"{workload}: {len(plain)} untraced passes, {passes[0]['attempted']} processes per pass"
          f", fail_frac {failed / attempted:.4f} ({failed}/{attempted})")
    metrics = {}
    for name in END_TO_END:
        values = [p[name] for p in plain]
        metrics[name] = statistics.median(values)
        # with a handful of passes the maximum is the only high percentile with samples beyond it
        print(f"  {name}: median {metrics[name]:.4f} {unit(name)}, max {max(values):.4f} {unit(name)},"
              f" n={len(values)}")
    if not trace:
        return metrics, attempted, failed
    traced = [p for p in passes if p["traced"]]
    layers = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    layers["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
    layers["trace.overhead_s"] = layers["trace.run_s"] - metrics["run_s"]
    for name, value in layers.items():
        print(f"  {name}: {value:.6g} {unit(name)}")
    return layers, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "crspin" / "__init__.py").is_file():
        print(f"error: no crspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads((BENCH / "reference.json").read_text())
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env()
        try:
            info = probe(workdir, env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"python {info['python']}, numpy {info['numpy']}, {info['blas']}, "
              f"BLAS/OpenMP threads {BLAS_THREADS}, nproc {os.cpu_count()}, git {git_sha()}")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            passes = measure(name, args.seed, args.seconds, bool(args.trace), workdir, env, references)
            values, tried, bad = summarize(name, passes, bool(args.trace))
            attempted += tried
            failed += bad
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": unit(k)} for k, v in values.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

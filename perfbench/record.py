"""Record ``reference.json``: the verdicts of every config any seed can draw.

Usage (from the root of a checkout, at a commit whose outputs are trusted)::

    python3 perfbench/record.py

Runs each config of ``workloads.config_space()`` once, exactly as the
benchmark does, and stores its exit code and ``verify.digest``.  Refuses
to write when a config fails or breaks a tolerance.
"""

import json
import os
import shutil
import sys

import run
import verify
import workloads


def main() -> int:
    workdir = run.ROOT / ".bench_build" / f"perfbench-record-{os.getpid()}"
    workdir.mkdir(parents=True)
    references, bad = {}, []
    try:
        env = run.child_env()
        run.probe(workdir, env)
        for index, config in enumerate(workloads.config_space()):
            job = workloads.Job(f"config{index}", config)
            (workdir / f"{job.name}.json").write_text(json.dumps(config))
            result = run.run_process(job, workdir, env, {}, trace=False, timeout=run.GRACE_S)
            out = workdir / job.name
            failures = verify.tolerance_failures(out)
            if result["exit"] != 0 or failures:
                bad.append((job.key, result["exit"], failures))
            references[job.key] = {"exit": result["exit"], "digest": verify.digest(out)}
            print(f"{result['wall']:7.3f} s  {result['rss_mb']:6.1f} MB  exit {result['exit']}  {job.key}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, code, failures in bad:
        print(f"not recorded: exit {code} {failures} {key}", file=sys.stderr)
    if bad:
        return 1
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(references)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Job("torus-m2", {
    "model": {"kind": "torus_bundle", "m": 2, "ell": 0, "flux": 1, "sectors": [-1, 0, 1]},
    "checks": list(workloads.ALL_CHECKS),
})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in range(5):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)


def test_sweep_varies_with_seed_but_keeps_its_shape():
    passes = [workloads.generate("small_sweep", seed) for seed in range(6)]
    assert len({tuple(job.key for job in jobs) for jobs in passes}) > 1
    assert len({tuple(job.name for job in jobs) for jobs in passes}) == 1
    for jobs in passes:
        for m in (1, 2):
            ells = [job.config["model"]["ell"] for job in jobs
                    if job.config["model"]["m"] == m and job.config["model"]["kind"] == "torus_bundle"]
            assert set(ells) == set(workloads.admissible_weights(m))


def test_reference_covers_every_config_a_seed_can_draw():
    references = json.loads((BENCH / "reference.json").read_text())
    space = {json.dumps(c, sort_keys=True, separators=(",", ":")) for c in workloads.config_space()}
    assert space == set(references)
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            assert {job.key for job in workloads.generate(workload, seed)} <= space


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tracer = tracing.Tracer(clock=_fake_clock([0.0, 1.0, 4.0, 5.0, 7.0, 10.0]))
    inner = tracer.wrap("inner", lambda: None)
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        inner()  # 1.0 .. 4.0
        leaf()  # 5.0 .. 7.0

    tracer.wrap("outer", body)()  # 0.0 .. 10.0
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    own = tracing.self_times(tracer.spans)
    assert own == [5.0, 3.0, 2.0]
    assert sum(own) == 10.0


def test_layer_metrics_account_for_the_whole_wall_time():
    spans = [
        ["cli.run", 1.0, 9.0, -1],
        ["operators.assemble_kohn_dirac", 2.0, 6.0, 0],
        ["operators.assemble_dplus", 2.5, 4.0, 1],
        ["numpy.linalg.eigh", 6.5, 7.0, 0],
        ["models.default_truncation", 7.0, 7.5, 0],
    ]
    proc = {"wall": 10.0, "spans": spans, "counters": {"sections.max_dim": 8},
            "artifact_files": 2, "artifact_bytes": 100}
    metrics = tracing.layer_metrics([proc, dict(proc, counters={"sections.max_dim": 5})])
    assert metrics["operators.assemble_calls"] == 4
    assert metrics["operators.assemble_s"] == pytest.approx(2 * 4.0)
    assert metrics["operators.eigensolve_calls"] == 2
    assert metrics["cli.self_s"] == pytest.approx(2 * 3.0)
    assert metrics["trace.other_s"] == pytest.approx(2 * 0.5)
    assert metrics["trace.unspanned_s"] == pytest.approx(2 * 2.0)
    assert metrics["sections.max_dim"] == 8
    assert metrics["cli.artifact_files"] == 4
    timed = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert timed == pytest.approx(2 * 10.0)


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    empty = {"wall": 0.0, "spans": [], "counters": {}, "artifact_files": 0, "artifact_bytes": 0}
    per_layer = list(tracing.layer_metrics([empty])) + list(run.PER_LAYER_EXTRA)
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"])


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / f"{SMALL.name}.json").write_text(json.dumps(SMALL.config))
    return tmp_path


def test_traced_process_nests_spans_across_rebound_names(workdir):
    result = run.run_process(SMALL, workdir, run.child_env(), {}, trace=True, timeout=run.GRACE_S)
    assert result["exit"] == 0
    names = [span[0] for span in result["spans"]]
    # cli, weitzenboeck and cohomology import these names from operators and clifford
    assert names.count("operators.assemble_dplus") == 21
    assert names.count("cohomology.kohn_laplacian") == 15
    assert "clifford.creation_matrix" in {result["spans"][s[3]][0] for s in result["spans"]
                                           if s[0] == "clifford.generator_matrix" and s[3] >= 0}
    metrics = tracing.layer_metrics([result])
    assert metrics["sections.max_dim"] == 324
    timed = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert timed == pytest.approx(result["wall"])


def test_verifier_accepts_real_output_and_rejects_tampered_reports(workdir):
    reference = json.loads((BENCH / "reference.json").read_text())[SMALL.key]
    result = run.run_process(SMALL, workdir, run.child_env(), {SMALL.key: reference}, trace=False,
                            timeout=run.GRACE_S)
    assert result["problems"] == []
    out = workdir / SMALL.name
    assert verify.problems(out, 1, reference) == ["exit code 1, expected 0"]

    def tampered(check, edit):
        copy = workdir / "tampered"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        path = copy / f"{check}_report.json"
        report = json.loads(path.read_text())
        edit(report["results"])
        path.write_text(json.dumps(report))
        return verify.problems(copy, 0, reference)

    def bump_kernel(results):
        results["sectors"]["0"]["kernel"]["1"]["dim"] += 1

    def break_residual(results):
        results["sectors"]["1"]["lichnerowicz_residual"] = 1e-6

    def flip_status(results):
        results["verdicts"][1]["status"] = "forced_zero"

    def spurious_only(results):
        results["sectors"]["0"]["kernel"]["1"]["spurious"] += 7

    assert any("kernel_dims.0.1" in p for p in tampered("spectrum", bump_kernel))
    assert any("lichnerowicz_residual" in p for p in tampered("identities", break_residual))
    assert any("verdicts" in p for p in tampered("vanishing", flip_status))
    assert tampered("spectrum", spurious_only) == []

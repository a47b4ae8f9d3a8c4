import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crspin import cli, cohomology, operators, sections
from crspin.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


HEIS_IDENTITIES = {
    "model": {"kind": "heisenberg", "m": 1, "sectors": [0]},
    "checks": ["identities"],
}

TORUS_ALL = {
    "model": {"kind": "torus_bundle", "m": 2, "ell": 0, "flux": 1, "sectors": [0]},
    "checks": ["identities", "spectrum", "cohomology", "vanishing", "conformal"],
}


def test_identities_pass_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, HEIS_IDENTITIES)
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "check identities: PASS" in captured.out
    report = json.loads((out / "identities_report.json").read_text())
    assert report["passed"] is True
    assert report["model"] == "heisenberg(m=1, ell=0)"
    assert (out / "identities_residuals.csv").exists()


def test_negative_tolerance_is_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "heisenberg", "m": 1}, "tolerances": {"spectral": -1}},
    )
    assert main(["identities", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    assert "tolerances.spectral" in capsys.readouterr().err


def test_sphere_spectrum_reports_missing_sections(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"kind": "sphere", "m": 2}, "checks": ["spectrum"]})
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "sphere model has no section space" in capsys.readouterr().out
    report = json.loads((out / "spectrum_report.json").read_text())
    assert report["passed"] is False
    assert "no section space" in report["error"]


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "torus_bundle", "m": 2, "fluxx": 1}, "checks": ["identities"]},
    )
    assert main(["run", "--config", cfg]) == 2
    assert "model.fluxx: unknown key" in capsys.readouterr().err


def test_retired_shell_tolerance_is_an_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"kind": "heisenberg", "m": 1}, "tolerances": {"shell": 1e-8}})
    assert main(["run", "--config", cfg]) == 2
    assert "at tolerances.shell: unknown key" in capsys.readouterr().err


def test_parse_error_includes_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": {,}')
    assert main(["run", "--config", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_unknown_check_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"kind": "heisenberg", "m": 1}, "checks": ["identitties"]}
    )
    assert main(["run", "--config", cfg]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_missing_model_dimension(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"kind": "heisenberg"}, "checks": ["identities"]})
    assert main(["run", "--config", cfg]) == 2
    assert "model.m" in capsys.readouterr().err


def test_no_checks_requested(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": {"kind": "heisenberg", "m": 1}})
    assert main(["run", "--config", cfg]) == 2
    assert "no checks requested" in capsys.readouterr().err


def test_sectors_must_be_nonempty(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"kind": "heisenberg", "m": 1, "sectors": []}, "checks": ["identities"]}
    )
    assert main(["run", "--config", cfg]) == 2
    assert "model.sectors" in capsys.readouterr().err


def test_duplicate_sectors_rejected(tmp_path, capsys):
    # a repeated sector would run every check on it twice and write each row twice
    cfg = write_config(tmp_path, {"model": {"kind": "torus_bundle", "m": 1, "sectors": [0, 1, 1]},
                                  "checks": ["identities"]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 2
    assert "at model.sectors[2]: duplicate sector 1" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("kind, key, path", [
    ("heisenberg", "tolerances", "tolerances.dual_assembly"),
    ("sphere", "model", "model.scal_w"),
])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_numbers_rejected(tmp_path, capsys, kind, key, path, value):
    # json reads Infinity and NaN; an infinite tolerance would pass every row
    config = {"model": {"kind": kind, "m": 1}, "checks": ["identities" if kind == "heisenberg" else "vanishing"]}
    config[key] = dict(config.get(key, {}), **{path.split(".")[1]: value})
    cfg = write_config(tmp_path, config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 2
    assert f"at {path}: must be a positive finite number, got {value!r}" in capsys.readouterr().err


NUMBERS = st.one_of(st.integers(-1, 2), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def fuzzed_configs(draw):
    """Configs of the schema's shape: any numbers (NaN and infinities too), sector lists that may
    repeat, sizes around their lower bounds, and now and then a key the kind does not take."""
    kind = draw(st.sampled_from(["heisenberg", "torus_bundle", "sphere", "klein"]))
    model = {"kind": kind, "m": draw(st.integers(0, 2)), "ell": draw(st.integers(-2, 2))}
    if kind == "sphere" or draw(st.integers(0, 9)) == 0:
        model["scal_w"] = draw(NUMBERS)
    if kind != "sphere" or draw(st.integers(0, 9)) == 0:
        model["sectors"] = draw(st.lists(st.integers(-2, 2), max_size=3))
        model["flux"] = draw(st.integers(-1, 1))
        model["truncation"] = {"fourier_radius": draw(st.integers(0, 2)), "ladder_levels": draw(st.integers(1, 3))}
    tolerances = st.dictionaries(st.sampled_from([*cli.TOLERANCE_DEFAULTS, "shell"]), NUMBERS, max_size=2)
    return {"model": model, "checks": ["identities"], "tolerances": draw(tolerances)}


@settings(max_examples=150, deadline=None)
@given(fuzzed_configs())
def test_refused_configs_exit_2_with_a_key_path(config):
    # main runs on refused configs only, so no fuzzed size is ever allocated
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), config)
        try:
            loaded = cli.load_config(cfg)
        except cli.ConfigError:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["run", "--config", cfg, "--out", str(Path(tmp) / "art")]) == 2
            assert re.match(r"config error: at [\w.\[\]]+: ", err.getvalue()), err.getvalue()
            assert "Traceback" not in err.getvalue() + out.getvalue()
            assert not (Path(tmp) / "art").exists()
            return
    model = loaded["model"]
    assert all(0 < value < float("inf") for value in loaded["tolerances"].values())
    assert 0 < model.get("scal_w", 1.0) < float("inf")
    assert len(set(model.get("sectors", []))) == len(model.get("sectors", []))


def test_sphere_rejects_sector_list(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"kind": "sphere", "m": 2, "sectors": [0]}, "checks": ["vanishing"]}
    )
    assert main(["run", "--config", cfg]) == 2
    assert "model.sectors: unknown key" in capsys.readouterr().err


def test_zero_flux_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"kind": "torus_bundle", "m": 2, "flux": 0}, "checks": ["identities"]}
    )
    assert main(["run", "--config", cfg]) == 2
    assert "model.flux" in capsys.readouterr().err


def test_full_run_byte_identical(tmp_path):
    cfg = write_config(tmp_path, TORUS_ALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    assert len(files_a) >= 10
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_single_check_subcommand(tmp_path):
    cfg = write_config(
        tmp_path, {"model": {"kind": "sphere", "m": 2, "ell": 4}, "checks": []}
    )
    out = tmp_path / "art"
    assert main(["vanishing", "--config", cfg, "--out", str(out)]) == 0
    table = (out / "vanishing_table.csv").read_text()
    assert "VanKR-3" in table
    assert not (out / "identities_report.json").exists()


def test_check_flag_overrides_config_list(tmp_path):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "heisenberg", "m": 1, "sectors": [0]}, "checks": ["identities"]},
    )
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out), "--check", "vanishing"]) == 0
    assert (out / "vanishing_report.json").exists()
    assert not (out / "identities_report.json").exists()


def test_strict_promotes_shell_warnings(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "torus_bundle", "m": 2, "flux": 1, "sectors": [1]}, "checks": ["spectrum"]},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    assert "warning" in capsys.readouterr().out
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "strict"), "--strict"]) == 1
    assert "strict" in capsys.readouterr().out


def test_obstruction_verdict_through_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "torus_bundle", "m": 2, "ell": 0, "flux": 1, "sectors": [0]},
         "checks": ["vanishing"]},
    )
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "vanishing_report.json").read_text())
    obstruction = report["results"]["obstruction"]
    assert obstruction["status"] == "obstructed"
    assert obstruction["q_hat"] == "1"
    assert "positive Webster scalar curvature" in obstruction["message"]


def test_json_table_format(tmp_path):
    cfg = write_config(tmp_path, HEIS_IDENTITIES)
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads((out / "identities_residuals.json").read_text())
    assert rows and {"sector", "residual", "value", "tolerance", "passed"} == set(rows[0])
    assert not list(out.glob("*.csv"))


def test_csv_uses_full_precision_scientific(tmp_path):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "heisenberg", "m": 1, "sectors": [1]}, "checks": ["spectrum"]},
    )
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum_sector1.csv").read_text().splitlines()
    assert lines[0] == "q,eigenvalue,multiplicity"
    for line in lines[1:]:
        eig = line.split(",")[1]
        assert re.fullmatch(r"-?\d\.\d{17}e[+-]\d+", eig), eig


def test_custom_truncation_accepted(tmp_path):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "heisenberg", "m": 1, "sectors": [0],
                   "truncation": {"fourier_radius": 2, "ladder_levels": 4}},
         "checks": ["identities"]},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 0


def test_bad_truncation_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "heisenberg", "m": 1,
                   "truncation": {"ladder_levels": 1}},
         "checks": ["identities"]},
    )
    assert main(["run", "--config", cfg]) == 2
    assert "ladder_levels" in capsys.readouterr().err


def test_run_builds_each_shared_object_once(tmp_path, monkeypatch):
    # three section spaces, and per sector one box stack and one set of shift
    # defects, which the identities check and the one shift table share
    counts = {"spaces": 0, "conformal": 0, "shift": 0, "box": 0, "defects": 0}
    build = sections.SectionSpace.__init__

    def counting_build(self, *args, **kwargs):
        counts["spaces"] += 1
        build(self, *args, **kwargs)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sections.SectionSpace, "__init__", counting_build)
    monkeypatch.setattr(cli, "conformal_check", counting("conformal", cli.conformal_check))
    monkeypatch.setattr(cli, "shift_table", counting("shift", cli.shift_table))
    monkeypatch.setattr(cohomology, "kohn_laplacian_blocks", counting("box", cohomology.kohn_laplacian_blocks))
    monkeypatch.setattr(cohomology, "_shift_defects", counting("defects", cohomology._shift_defects))
    config = dict(TORUS_ALL, model=dict(TORUS_ALL["model"], sectors=[-1, 0, 1]))
    out = tmp_path / "art"
    assert main(["run", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    assert counts == {"spaces": 3, "conformal": 1, "shift": 1, "box": 3, "defects": 3}
    defects = json.loads((out / "conformal_report.json").read_text())["results"]["sectors"]
    assert sorted(defects) == ["-1", "0", "1"] and len(set(defects.values())) == 1


def count_calls(monkeypatch, counts, name, fn):
    """Count calls of ``fn`` through every crspin module that holds it as ``name``."""
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("crspin") and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("kind, expected", [
    # per sector: one Dirac kernel from blocks, shared by spectrum, cohomology and
    # vanishing; identities stacks its own D+ and D- blocks for the square; one box
    # stack, read by identities and by the shift table, which counts its kernel from blocks
    ("torus_bundle", {"assemble_kohn_dirac": 0, "assemble_dplus": 0, "kohn_laplacian": 0,
                      "kohn_laplacian_blocks": 3, "kernel_report": 0, "block_kernel_report": 6}),
    # spectrum, cohomology and vanishing all read the one Dirac kernel
    ("heisenberg", {"assemble_kohn_dirac": 0, "assemble_dplus": 0, "kohn_laplacian": 0,
                    "kohn_laplacian_blocks": 3, "kernel_report": 0, "block_kernel_report": 3}),
])
def test_run_forms_one_dirac_square_per_check_family(tmp_path, monkeypatch, kind, expected):
    counts = {}
    for name in ("assemble_kohn_dirac", "assemble_dplus", "kernel_report", "block_kernel_report"):
        count_calls(monkeypatch, counts, name, getattr(operators, name))
    for name in ("kohn_laplacian", "kohn_laplacian_blocks"):
        count_calls(monkeypatch, counts, name, getattr(cohomology, name))
    sizes = []

    def recording(solver):
        def solve(mat, *args, **kwargs):
            sizes.append(np.shape(mat)[-1])
            return solver(mat, *args, **kwargs)
        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    model = {"kind": kind, "m": 2, "ell": 0, "sectors": [-1, 0, 1]}
    config = dict(TORUS_ALL, model=dict(model, flux=1) if kind == "torus_bundle" else model)
    main(["run", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "art")])
    assert counts == expected
    # every eigensolve is fiber-sized: per-slot blocks and curvature matrices
    assert sizes and max(sizes) <= 2 ** 2


@pytest.mark.parametrize("kind", ["torus_bundle", "heisenberg"])
def test_spectral_checks_form_no_full_space_kronecker_term(tmp_path, monkeypatch, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("full-space Kronecker term formed")

    monkeypatch.setattr(sections.SectionSpace, "mixed", refuse)
    model = {"kind": kind, "m": 2, "ell": 0, "sectors": [-1, 0, 1]}
    config = {"model": dict(model, flux=1) if kind == "torus_bundle" else model,
              "checks": ["spectrum", "cohomology", "vanishing"]}
    assert main(["run", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "art")]) == 0


def test_spectrum_and_vanishing_share_one_dirac_kernel(tmp_path, monkeypatch):
    # spectrum and vanishing ask for the Dirac kernel at the same spectral tolerance
    counts = {}
    for name in ("kernel_report", "block_kernel_report"):
        count_calls(monkeypatch, counts, name, getattr(operators, name))
    config = {"model": {"kind": "heisenberg", "m": 2, "sectors": [1]},
              "checks": ["spectrum", "vanishing"], "tolerances": {"spectral": 1e-6}}
    main(["run", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "art")])
    assert counts == {"kernel_report": 0, "block_kernel_report": 1}


def test_cohomology_fails_when_cut_blocks_count_as_kernel(tmp_path, monkeypatch, capsys):
    # the README example config: sector 1 is a ladder whose cut blocks hold null
    # vectors of box, so counting every block as complete breaks the analytic match
    config = {"model": {"kind": "torus_bundle", "m": 2, "ell": 0, "flux": 1, "sectors": [0, 1],
                        "truncation": {"fourier_radius": 1, "ladder_levels": 6}},
              "checks": ["spectrum", "cohomology"]}
    cfg = write_config(tmp_path, config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 0
    capsys.readouterr()
    count = cohomology.block_kernel_report

    def count_every_block(space, stack, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(space, "block_complete", lambda: np.ones(len(space.blocks()), dtype=bool))
            return count(space, stack, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "block_kernel_report", count_every_block)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "mutant")]) == 1
    assert "check cohomology: FAIL ((q, s)=(0, 1): analytic 0 != spectral 1)" in capsys.readouterr().out
    # the shift identity is read on the same flags, so with every block complete it refuses the cut ones first
    monkeypatch.setattr(sections.SectionSpace, "block_complete", lambda self: np.ones(len(self.blocks()), dtype=bool))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "mutant2")]) == 1
    assert "check cohomology: ERROR (shift identity fails on sector 1: defect" in capsys.readouterr().out


def test_config_tolerances_reach_torus_cohomology(tmp_path, capsys):
    # a kernel tolerance of 1000 counts every vector of a sector as kernel,
    # so the spectral dimensions can no longer match the analytic ones
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "torus_bundle", "m": 1, "sectors": [-1, 0, 1]},
         "checks": ["cohomology"], "tolerances": {"spectral": 1000.0}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 1
    assert "check cohomology: FAIL (" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["torus_bundle", "heisenberg"])
def test_no_check_forms_a_full_space_matrix(tmp_path, monkeypatch, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("full-space matrix formed")

    for name in ("mixed", "dense", "base_matrix"):
        monkeypatch.setattr(sections.SectionSpace, name, refuse)
    model = {"kind": kind, "m": 2, "ell": 0, "sectors": [-1, 0, 1]}
    config = {"model": dict(model, flux=1) if kind == "torus_bundle" else model, "checks": list(cli.CHECK_NAMES)}
    assert main(["run", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "art")]) == 0


def test_identities_fail_on_a_term_that_leaves_its_block(tmp_path, monkeypatch, capsys):
    # D- of slot 1 gains one entry off its ladder pattern: the dense D+·D+ row would
    # see it, so the block rows must refuse it rather than drop it
    build = sections.SectionSpace.__init__

    def perturbed(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.nabla_e[0].mat[0, 0] += 1e-3

    monkeypatch.setattr(sections.SectionSpace, "__init__", perturbed)
    cfg = write_config(tmp_path, {"model": {"kind": "heisenberg", "m": 2, "sectors": [1]}, "checks": ["identities"]})
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "check identities: ERROR (heisenberg sector 1: term 0 moves states between per-slot blocks" in capsys.readouterr().out
    assert json.loads((out / "identities_report.json").read_text())["passed"] is False

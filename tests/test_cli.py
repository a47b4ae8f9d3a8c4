import contextlib
import csv
import gc
import io
import json
import math
import re
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from blockstates import record_grams
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crspin import cli, cohomology, operators, sections, weitzenboeck
from crspin.cli import main
from crspin.models import cr_alpha_bundle, heisenberg_model


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
    assert main(["run", "--config", cfg, "--check", "identities", "--out", str(tmp_path / "a")]) == 2
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


def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    # json reads an integer literal through int(), which refuses more than 4300 digits with a plain ValueError
    path = tmp_path / "long.json"
    path.write_text('{"model": {"kind": "heisenberg", "m": 1, "ell": 1' + "0" * 5000 + "}}")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "art")]) == 2
    assert "config error: parse error: Exceeds the limit" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


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


@pytest.mark.parametrize("out", ["file/sub", "file"])
def test_an_out_that_cannot_be_created_exits_2_before_any_check(tmp_path, monkeypatch, capsys, out):
    # a path under a file, or a file itself: the directory is made before the checks, so none of them runs
    counts = {}
    count_calls(monkeypatch, counts, "sector_pass", weitzenboeck.sector_pass)
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, m2_config("heisenberg", cli.CHECK_NAMES))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("config error: at --out: cannot create the directory (") and printed.out == ""
    assert counts == {"sector_pass": 0}


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
# integers at and past 2**53, where a sector's t = -s/2 stops being an exact float
HUGE = st.sampled_from([2**53, -2**53, 2**53 + 1, -2**53 - 1, 10**240, 10**309, -10**400])


@st.composite
def fuzzed_configs(draw):
    """Configs of the schema's shape: any numbers (NaN and infinities too), sector lists that may
    repeat, sizes around their lower bounds, and now and then a key the kind does not take."""
    kind = draw(st.sampled_from(["heisenberg", "torus_bundle", "sphere", "klein"]))
    model = {"kind": kind, "m": draw(st.integers(0, 2)), "ell": draw(st.one_of(st.integers(-2, 2), HUGE))}
    if kind == "sphere" or draw(st.integers(0, 9)) == 0:
        model["scal_w"] = draw(NUMBERS)
    if kind != "sphere" or draw(st.integers(0, 9)) == 0:
        model["sectors"] = draw(st.lists(st.one_of(st.integers(-2, 2), HUGE), max_size=3))
        model["flux"] = draw(st.one_of(st.integers(-1, 1), HUGE))
        model["truncation"] = {"fourier_radius": draw(st.integers(0, 2)), "ladder_levels": draw(st.integers(1, 3))}
    tolerances = st.dictionaries(st.sampled_from([*cli.TOLERANCE_DEFAULTS, "shell"]), NUMBERS, max_size=2)
    return {"model": model, "checks": ["identities"], "tolerances": draw(tolerances)}


@settings(max_examples=150, deadline=None)
@given(fuzzed_configs())
# each of these ran: an OverflowError in curvature_term and in SectionSpace, and a spectrum file name too long
@example({"model": {"kind": "heisenberg", "m": 1, "ell": 10**400}, "checks": ["identities"]})
@example({"model": {"kind": "torus_bundle", "m": 2, "sectors": [10**309], "truncation": {"ladder_levels": 3}},
          "checks": ["identities"]})
@example({"model": {"kind": "torus_bundle", "m": 2, "sectors": [10**240], "truncation": {"ladder_levels": 3}},
          "checks": ["spectrum"]})
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
    assert all(abs(value) <= 2**53 for value in [model["ell"], *model.get("sectors", []), model.get("flux", 0)])
    assert model.get("flux", 1) > 0


@pytest.mark.parametrize("model, path", [
    ({"kind": "sphere", "m": 2, "ell": -10**400}, "model.ell"),
    ({"kind": "heisenberg", "m": 1, "sectors": [0, 2**53 + 1]}, "model.sectors[1]"),
    # it ran every check and died writing the artifacts, on the flux's decimal string past 4300 digits
    ({"kind": "torus_bundle", "m": 2, "flux": 10**2500}, "model.flux"),
])
def test_an_integer_past_2_53_names_its_key(tmp_path, capsys, model, path):
    cfg = write_config(tmp_path, {"model": model, "checks": ["vanishing"]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 2
    assert f"config error: at {path}: must be at most 2**53 in magnitude" in capsys.readouterr().err


def test_sphere_rejects_sector_list(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": {"kind": "sphere", "m": 2, "sectors": [0]}, "checks": ["vanishing"]}
    )
    assert main(["run", "--config", cfg]) == 2
    assert "model.sectors: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("flux", [0, -1])
def test_zero_flux_rejected(tmp_path, capsys, flux):
    # a negative flux flips dtheta's sign against the models' Levi form, and cohomology FAILed on correct code
    cfg = write_config(
        tmp_path, {"model": {"kind": "torus_bundle", "m": 2, "flux": flux}, "checks": ["identities"]}
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 2
    assert f"config error: at model.flux: must be positive, got {flux}" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("m, given, expected", [
    (1, {"ladder_levels": 4}, {"fourier_radius": 3, "ladder_levels": 4}),
    (1, {"fourier_radius": 2}, {"fourier_radius": 2, "ladder_levels": 10}),
    (2, {"ladder_levels": 4}, {"fourier_radius": 1, "ladder_levels": 4}),
    (3, {}, {"fourier_radius": 1, "ladder_levels": 6}),
])
def test_omitted_truncation_fields_take_the_model_default(tmp_path, m, given, expected):
    # a field the config leaves out takes the value a model without any truncation uses (m = 1: radius 3, 10 levels)
    cfg = write_config(tmp_path, {"model": {"kind": "heisenberg", "m": m, "truncation": given}})
    assert cli.load_config(cfg)["model"]["truncation"] == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_full_run_byte_identical(tmp_path, fmt):
    cfg = write_config(tmp_path, TORUS_ALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a), "--format", fmt]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b), "--format", fmt]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    assert len(files_a) >= 10
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_single_check_flag(tmp_path):
    cfg = write_config(
        tmp_path, {"model": {"kind": "sphere", "m": 2, "ell": 4}, "checks": []}
    )
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--check", "vanishing", "--out", str(out)]) == 0
    table = (out / "vanishing_table.csv").read_text()
    assert "VanKR-3" in table
    assert not (out / "identities_report.json").exists()


@pytest.mark.parametrize("name", cli.CHECK_NAMES)
def test_run_is_the_only_subcommand(tmp_path, capsys, name):
    # `run --check NAME` runs one check; a per-check subcommand was a second path to the same run
    cfg = write_config(tmp_path, HEIS_IDENTITIES)
    with pytest.raises(SystemExit) as exc:
        main([name, "--config", cfg, "--out", str(tmp_path / "art")])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


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


def test_cohomology_artifacts(tmp_path):
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "torus_bundle", "m": 1, "flux": 1, "sectors": [-1, 0, 1]},
         "checks": ["cohomology"]},
    )
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "cohomology_table.csv").read_text().splitlines()
    assert lines[0] == "q,s,dim,method,status"
    assert len(lines) == 1 + 2 * 2 * 3  # (q, method) rows per sector
    assert "0,0,1,analytic,lower-bound" in lines
    report = json.loads((out / "cohomology_report.json").read_text())
    assert report["results"]["notes"] == [cohomology.MODEL_LEVEL_NOTE]


def test_vanishing_report_lists_clauses(tmp_path):
    cfg = write_config(tmp_path, {"model": {"kind": "sphere", "m": 3, "ell": 0}, "checks": ["vanishing"]})
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "vanishing_report.json").read_text())["results"]
    assert results["model"] == "sphere(m=3, ell=0)"
    assert [v["clause"] for v in results["verdicts"]] == [None, "vani-a2", "vani-a3", None]


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


def rebind(patch, name, fn, replacement):
    """Bind ``replacement`` as ``name`` in every crspin module that holds ``fn`` under that name."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("crspin") and getattr(module, name, None) is fn:
            patch.setattr(module, name, replacement)


def count_calls(monkeypatch, counts, name, fn):
    """Count calls of ``fn`` through every crspin module that holds it as ``name``."""
    counts[name] = 0

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    rebind(monkeypatch, name, fn, wrapper)


def m2_config(kind, checks):
    model = {"kind": kind, "m": 2, "ell": 0, "sectors": [-1, 0, 1]}
    return {"model": dict(model, flux=1) if kind == "torus_bundle" else model, "checks": list(checks)}


@pytest.mark.parametrize("kind", ["torus_bundle", "heisenberg"])
def test_run_builds_each_shared_object_once(tmp_path, monkeypatch, kind):
    # per sector one space and one gather of D; D and the Reeb formula, whose c(rho) term is a general
    # fiber matrix, are the only stacks: box is read off D^2's rows one at a time and the weighted
    # Laplacians are one diagonal per block
    counts = {"spaces": 0}
    stacks = {}
    build, stack = sections.SectionSpace.__init__, sections.SectionSpace.stack

    def counting_build(self, *args, **kwargs):
        counts["spaces"] += 1
        build(self, *args, **kwargs)

    def counting_stack(self, terms):
        stacks[self.sector] = stacks.get(self.sector, 0) + 1
        return stack(self, terms)

    monkeypatch.setattr(sections.SectionSpace, "__init__", counting_build)
    monkeypatch.setattr(sections.SectionSpace, "stack", counting_stack)
    for name in ("conformal_check", "shift_table"):
        count_calls(monkeypatch, counts, name, getattr(cli, name))
    count_calls(monkeypatch, counts, "dirac_blocks", operators.dirac_blocks)
    out = tmp_path / "art"
    assert main(["run", "--config", write_config(tmp_path, m2_config(kind, cli.CHECK_NAMES)), "--out", str(out)]) == 0
    assert counts == {"spaces": 3, "conformal_check": 1, "shift_table": int(kind == "torus_bundle"), "dirac_blocks": 3}
    assert stacks == {-1: 2, 0: 2, 1: 2}
    defects = json.loads((out / "conformal_report.json").read_text())["results"]["sectors"]
    assert sorted(defects) == ["-1", "0", "1"] and len(set(defects.values())) == 1


# per sector of m = 2: one gather of D, one join of D^2, read row by row (4 fiber rows), and one diagonal per degree
ALL_ONE = {"sector_pass": 3, "dirac_blocks": 3, "square_rows": 3, "gram_shift_defect": 12, "diagonal_kernel_count": 9}


@pytest.mark.parametrize("kind", ["torus_bundle", "heisenberg"])
@pytest.mark.parametrize("checks", [cli.CHECK_NAMES, ["identities"], ["spectrum"]],
                         ids=["all", "identities", "spectrum"])
def test_run_forms_one_dirac_square_per_check_family(tmp_path, monkeypatch, kind, checks):
    # per sector one gather of D and one join of D^2, whose rows give the shift defects (identities, the torus
    # shift table) and each degree's diagonal for the one kernel count that spectrum, cohomology and vanishing
    # share: the pass has one shape, so every family reads all of them
    counts = {}
    for name in ("assemble_kohn_dirac", "assemble_dplus", "kernel_report", "dirac_blocks", "diagonal_kernel_count"):
        count_calls(monkeypatch, counts, name, getattr(operators, name))
    count_calls(monkeypatch, counts, "kohn_laplacian", cohomology.kohn_laplacian)
    for name in ("sector_pass", "gram_shift_defect"):
        count_calls(monkeypatch, counts, name, getattr(weitzenboeck, name))
    counts["square_rows"] = 0
    join = sections.SectionSpace.square_rows

    def counting_join(self, keys):
        counts["square_rows"] += 1
        return join(self, keys)

    monkeypatch.setattr(sections.SectionSpace, "square_rows", counting_join)
    grams = record_grams(monkeypatch)
    sizes = []

    def recording(solver):
        def solve(mat, *args, **kwargs):
            sizes.append(np.shape(mat)[-1])
            return solver(mat, *args, **kwargs)
        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    main(["run", "--config", write_config(tmp_path, m2_config(kind, checks)), "--out", str(tmp_path / "art")])
    assert counts == dict(ALL_ONE, assemble_kohn_dirac=0, assemble_dplus=0, kohn_laplacian=0, kernel_report=0)
    # no Gram is formed and no Dirac block is eigensolved: the only eigensolves left are vanishing's fiber-sized
    # curvature matrices
    assert grams == [] and bool(sizes) == ("vanishing" in checks) and max(sizes, default=0) <= 2 ** 2


@pytest.mark.parametrize("kind", ["torus_bundle", "heisenberg"])
def test_an_identities_only_pass_forms_no_gram(tmp_path, monkeypatch, kind):
    # the shift defects read D^2's rows as they come and the kernel counts a degree's diagonal, one per degree:
    # 4 for the m = 3 pass and 9 for the run's three sectors of m = 2, while no reader forms a degree's whole Gram
    counts = {}
    count_calls(monkeypatch, counts, "diagonal_kernel_count", operators.diagonal_kernel_count)
    grams = record_grams(monkeypatch)
    model = heisenberg_model(3, k=1) if kind == "heisenberg" else cr_alpha_bundle(3, c=1, s=1)
    defects = weitzenboeck.sector_pass(sections.SectionSpace(model)).graded("shift")
    assert np.max(list(defects.values())) <= 1e-10
    assert main(["run", "--config", write_config(tmp_path, m2_config(kind, ["identities"])),
                 "--out", str(tmp_path / "art")]) == 0
    assert grams == [] and counts == {"diagonal_kernel_count": 4 + 9}


def test_a_nan_conformal_defect_fails_the_run(tmp_path, capsys):
    # every covariance defect at ell = 5000 is NaN (the exp(-weight f) weights overflow), and NaN is above any
    # tolerance; the overflow itself is expected there, so it prints no numpy warning
    config = {"model": {"kind": "heisenberg", "m": 2, "ell": 5000, "sectors": [1]}, "checks": ["conformal"]}
    out = tmp_path / "art"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", write_config(tmp_path, config), "--out", str(out)]) == 1
    assert "check conformal: FAIL (sector 1 defect nan above 1.0e-09)" in capsys.readouterr().out
    assert math.isnan(json.loads((out / "conformal_report.json").read_text())["results"]["sectors"]["1"])


def test_a_nan_eigenvalue_fails_the_spectrum_check(tmp_path, monkeypatch, capsys):
    # min() keeps a finite minimum over a later NaN, which read as PASS with min_eigenvalue 0
    count = operators.diagonal_kernel_count

    def nan_last(space, q, diagonal, tol):
        out = count(space, q, diagonal, tol)
        if q != 1:
            return out
        eigenvalues = out.eigenvalues.copy()
        eigenvalues[-1] = np.nan
        return operators.KernelCount(out.dim, out.spurious, eigenvalues)

    rebind(monkeypatch, "diagonal_kernel_count", count, nan_last)
    cfg = write_config(tmp_path, {"model": {"kind": "heisenberg", "m": 2, "sectors": [1]}})
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--check", "spectrum", "--out", str(out)]) == 1
    assert "check spectrum: FAIL (Dirac square has eigenvalue nan below -1.0e-08)" in capsys.readouterr().out
    assert math.isnan(json.loads((out / "spectrum_report.json").read_text())["results"]["min_eigenvalue"])


def test_a_memory_error_is_that_checks_error(tmp_path, monkeypatch, capsys):
    # an allocation that fails in the gather of D errs every check that reads it, and the run still reports
    attempts = {}

    def refuse(space, terms):
        attempts[space.sector] = attempts.get(space.sector, 0) + 1
        raise MemoryError("Unable to allocate 4.00 GiB for an array with shape (16384, 128, 128)")

    monkeypatch.setattr(sections.SectionSpace, "stack", refuse)
    out = tmp_path / "art"
    assert main(["run", "--config", write_config(tmp_path, m2_config("heisenberg", cli.CHECK_NAMES)),
                 "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    for name in ("identities", "spectrum", "cohomology", "vanishing"):
        assert f"check {name}: ERROR (Unable to allocate 4.00 GiB" in printed
        assert json.loads((out / f"{name}_report.json").read_text())["error"].startswith("Unable to allocate")
    assert "check conformal: PASS" in printed and (out / "conformal_report.json").is_file()
    # each check errs at the first sector it reads, and that sector's failed pass is not gathered again
    assert attempts == {-1: 1}


def test_a_failed_pass_keeps_no_key_of_d(monkeypatch):
    # the named MemoryError is raised while the allocator's is handled, so its context's frames hold D's keys
    keys = []
    gather = operators.dirac_blocks

    def recording(space):
        out = gather(space)
        keys.extend(weakref.ref(vec) for vec in out[0].values())
        return out

    rebind(monkeypatch, "dirac_blocks", gather, recording)
    failing_reader("diagonal_kernel_count")(monkeypatch)
    model = heisenberg_model(2, k=1)
    config = {"model": {"sectors": [1]}, "tolerances": dict(cli.TOLERANCE_DEFAULTS)}
    memo = cli._RunMemo(model, config)
    with pytest.raises(MemoryError, match=r"\(in kernel counts\)$"):
        memo.reductions(1)
    gc.collect()
    assert keys and all(ref() is None for ref in keys)


def failing_join(patch):
    """Make every join of D^2 raise the allocator's ``MemoryError`` after its first row."""
    join = sections.SectionSpace.square_rows

    def fail(self, keys):
        rows = join(self, keys)
        yield next(rows)
        raise MemoryError("Unable to allocate 3.06 GiB for an array with shape (65536, 56, 56)")

    patch.setattr(sections.SectionSpace, "square_rows", fail)


def failing_reader(name):
    """Make ``name``, a reader of one degree of D^2's rows, raise the allocator's ``MemoryError`` on degree 1."""
    def patch_reader(patch):
        read = getattr(weitzenboeck, name)

        def refuse(space, *args):
            # gram_shift_defect(space, s, row) and diagonal_kernel_count(space, q, diagonal, tol)
            if (space.module.degrees[args[0]] if name == "gram_shift_defect" else args[0]) == 1:
                raise MemoryError("Unable to allocate 3.06 GiB for an array with shape (65536, 56, 56)")
            return read(space, *args)

        rebind(patch, name, read, refuse)
    return patch_reader


FAILING_STEPS = {"D^2": failing_join, "kernel counts": failing_reader("diagonal_kernel_count"),
                 "shift defects": failing_reader("gram_shift_defect")}


@pytest.mark.parametrize("reader", FAILING_STEPS)
def test_a_memory_error_names_the_reader_it_came_from(tmp_path, monkeypatch, capsys, reader):
    # the gather passed, so the message names the join or the reader of its rows; identities, which
    # reports no kernel count, still errs on the sector's one failed pass
    FAILING_STEPS[reader](monkeypatch)
    out = tmp_path / "art"
    assert main(["run", "--config", write_config(tmp_path, m2_config("heisenberg", cli.CHECK_NAMES)),
                 "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    for check in ("identities", "spectrum", "cohomology", "vanishing"):
        assert f"check {check}: ERROR (Unable to allocate 3.06 GiB" in printed
        error = json.loads((out / f"{check}_report.json").read_text())["error"]
        assert error.startswith("Unable to allocate") and error.endswith(f" (in {reader})")
    assert "check conformal: PASS" in printed


@pytest.mark.parametrize("kind", ["torus_bundle", "heisenberg"])
def test_a_dplus_term_off_its_degree_fails_identities_and_errs_the_kernel_readers(tmp_path, monkeypatch, capsys, kind):
    # a degree-keeping entry lies in no slab of D^2's degree blocks that the kernel counts read: identities
    # reports it as its grading row (D^2 sees it too), and every reader of those slabs refuses it
    build = operators.dplus_terms

    def off_shift(space):
        fiber = np.zeros((space.fiber_dim, space.fiber_dim))
        fiber[1, 1] = 1e-3
        return build(space) + [(fiber, np.ones(space.base_dim))]

    rebind(monkeypatch, "dplus_terms", build, off_shift)
    out = tmp_path / "art"
    assert main(["run", "--config", write_config(tmp_path, m2_config(kind, cli.CHECK_NAMES)), "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "check identities: FAIL (" in printed
    rows = json.loads((out / "identities_report.json").read_text())["results"]["sectors"]
    assert [rows[sector]["grading_defect"] for sector in ("-1", "0", "1")] == [1e-3] * 3
    for name in ("spectrum", "cohomology", "vanishing"):
        assert f"check {name}: ERROR ({kind} sector -1: term 2 has fiber entries off its degree shift" in printed
    assert "check conformal: PASS" in printed


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
    for name in ("kernel_report", "diagonal_kernel_count"):
        count_calls(monkeypatch, counts, name, getattr(operators, name))
    count_calls(monkeypatch, counts, "sector_pass", weitzenboeck.sector_pass)
    grams = record_grams(monkeypatch)
    config = {"model": {"kind": "heisenberg", "m": 2, "sectors": [1]},
              "checks": ["spectrum", "vanishing"], "tolerances": {"spectral": 1e-6}}
    main(["run", "--config", write_config(tmp_path, config), "--out", str(tmp_path / "art")])
    # one pass and one kernel count per degree of m = 2, read off D^2's diagonal: no Gram
    assert grams == [] and counts == {"kernel_report": 0, "diagonal_kernel_count": 3, "sector_pass": 1}


def test_cohomology_fails_when_cut_blocks_count_as_kernel(tmp_path, monkeypatch, capsys):
    # the README example config: sector 1 is a ladder whose cut blocks hold null
    # vectors of D, so counting every block as complete breaks the analytic match
    config = {"model": {"kind": "torus_bundle", "m": 2, "ell": 0, "flux": 1, "sectors": [0, 1],
                        "truncation": {"fourier_radius": 1, "ladder_levels": 6}},
              "checks": ["spectrum", "cohomology"]}
    cfg = write_config(tmp_path, config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 0
    capsys.readouterr()
    count = operators.diagonal_kernel_count

    def count_every_block(space, q, diagonal, tol):
        with monkeypatch.context() as patch:
            patch.setattr(space, "block_complete", lambda: np.ones(len(space.blocks()), dtype=bool))
            return count(space, q, diagonal, tol)

    with monkeypatch.context() as patch:
        rebind(patch, "diagonal_kernel_count", count, count_every_block)
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


def test_the_shift_guard_reads_the_run_tolerance(tmp_path, capsys):
    # at fiber weight 2e6 the shift defect is rounding at a scale of 1e6; identities passes it under the configured
    # tolerance, so the torus table's guard must compare the same number with the same tolerance
    cfg = write_config(tmp_path, {
        "model": {"kind": "torus_bundle", "m": 2, "sectors": [2000000], "truncation": {"ladder_levels": 5}},
        "checks": ["identities", "cohomology"], "tolerances": {"dual_assembly": 1e-7, "algebraic": 1e-7}})
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert "check cohomology: PASS" in capsys.readouterr().out
    defect = json.loads((out / "identities_report.json").read_text())["results"]["sectors"]["2000000"]
    assert 1e-10 < defect["sector_identity"] <= 1e-7


@pytest.mark.parametrize("kind", ["torus_bundle", "heisenberg"])
def test_a_dminus_off_the_adjoint_errs_torus_cohomology(tmp_path, monkeypatch, capsys, kind):
    # D- scaled by 1.3 keeps ker D, so the kernel counts match the analytic ones; but D^2's degree blocks are then
    # not D's Grams and not 2 box, so every reader of them refuses the pass, naming the sector and the fiber pair
    build = operators.dminus_terms
    rebind(monkeypatch, "dminus_terms", build, lambda space: [(1.3 * fiber, base) for fiber, base in build(space)])
    assert main(["run", "--config", write_config(tmp_path, m2_config(kind, cli.CHECK_NAMES)),
                 "--out", str(tmp_path / "art")]) == 1
    printed = capsys.readouterr().out
    assert "check identities: FAIL (" in printed and "check conformal: PASS" in printed
    # 0.3 |D+| at the ladder's top kept rung: 2 sqrt(|t| (L - 1)) with t = 1/2 on the torus, 1 on heisenberg
    defect = {"torus_bundle": "9.49e-01", "heisenberg": "1.34e+00"}[kind]
    for name in ("spectrum", "cohomology", "vanishing"):
        assert (f"check {name}: ERROR ({kind} sector -1: D- is not the adjoint of D+ "
                f"(largest defect {defect}, fiber pair (0, 1)))") in printed


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
    # term 2 of D's list, D+ of both slots first
    assert "check identities: ERROR (heisenberg sector 1: term 2 moves states between per-slot blocks" in capsys.readouterr().out
    assert json.loads((out / "identities_report.json").read_text())["passed"] is False


def test_the_identities_detail_names_a_nan_row_over_an_earlier_finite_one(tmp_path, monkeypatch, capsys):
    # both rows fail, and max() would name the finite sub-Laplacian row over the later NaN Reeb row
    monkeypatch.setattr(cli, "sub_laplacian_defect", lambda space: 1.0)
    monkeypatch.setattr(cli, "nabla_T_defect", lambda space: np.nan)
    cfg = write_config(tmp_path, {"model": {"kind": "heisenberg", "m": 2, "sectors": [1]}, "checks": ["identities"]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 1
    assert "check identities: FAIL (sector 1 reeb_routes = nan above " in capsys.readouterr().out


def test_a_nan_shift_defect_in_any_degree_fails_identities(tmp_path, monkeypatch, capsys):
    # max() keeps a finite first value over a later NaN, so the row must take np.max over the degrees
    read = weitzenboeck.gram_shift_defect
    rebind(monkeypatch, "gram_shift_defect", read,
           lambda space, s, row: np.nan if space.module.degrees[s] == 1 else read(space, s, row))
    cfg = write_config(tmp_path, {"model": {"kind": "heisenberg", "m": 2, "sectors": [1]}, "checks": ["identities"]})
    out = tmp_path / "art"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "check identities: FAIL (" in capsys.readouterr().out
    rows = list(csv.reader((out / "identities_residuals.csv").open()))
    assert [(row[2], row[4]) for row in rows if row[1] == "sector_identity"] == [("nan", "false")]


def test_a_reused_out_holds_only_the_latest_runs_files(tmp_path, capsys):
    # the second run used to leave the first one's spectrum, cohomology, vanishing and conformal files beside its own
    out = tmp_path / "art"
    config = {"model": {"kind": "heisenberg", "m": 2, "sectors": [-1, 0, 1],
                        "truncation": {"fourier_radius": 1, "ladder_levels": 3}}}
    assert main(["run", "--config", write_config(tmp_path, config), "--out", str(out), "--format", "json",
                 *[arg for name in cli.CHECK_NAMES for arg in ("--check", name)]]) == 0
    first = sorted(path.name for path in out.iterdir())
    assert len(first) == 12 and "spectrum_sector-1.json" in first
    kept = ["notes.txt", "spectrum_sector01.csv", "spectrum_sector.csv", "identities_report.csv", "cohomology_table.txt"]
    for name in kept:
        (out / name).write_text("not a crspin artifact\n")
    config["model"]["sectors"] = [1]
    assert main(["run", "--config", write_config(tmp_path, config), "--out", str(out), "--check", "identities"]) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(["identities_report.json",
                                                                  "identities_residuals.csv", *kept])
    assert json.loads((out / "identities_report.json").read_text())["results"]["sectors"].keys() == {"1"}


def test_a_previous_artifact_that_cannot_be_removed_exits_2_before_any_check(tmp_path, monkeypatch, capsys):
    counts = {}
    count_calls(monkeypatch, counts, "sector_pass", weitzenboeck.sector_pass)
    (tmp_path / "art" / "identities_report.json").mkdir(parents=True)
    cfg = write_config(tmp_path, m2_config("heisenberg", cli.CHECK_NAMES))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "art")]) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith("config error: at --out: cannot remove a previous run's artifact (")
    assert printed.out == "" and counts == {"sector_pass": 0}

"""Fast tests of the artifact comparison tool (no crspin runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_artifacts.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_difference_names_the_differing_line(tool, tmp_path):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("a,b\n1,2.5e-15\n3,4\n")
    change.write_text("a,b\n1,7.1e-15\n3,4\n")
    assert tool.first_difference(parent, change) == (
        "  line 2: parent '1,2.5e-15'\n  line 2: change '1,7.1e-15'"
    )


def test_first_difference_reports_the_end_of_a_shorter_file(tool, tmp_path):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("a,b\n1,2\n")
    change.write_text("a,b\n1,2\n3,4\n")
    assert tool.first_difference(parent, change) == (
        "  line 3: parent <end of file>\n  line 3: change '3,4'"
    )


def test_numeric_delta_is_the_largest_token_difference(tool, tmp_path):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("q,value\n1,2.5e-15\n-1,4.0000000000000000e+00\n")
    change.write_text("q,value\n1,7.5e-15\n-1,4.0000000000000009e+00\n")
    assert tool.numeric_delta(parent, change) == pytest.approx(8.9e-16, rel=1e-2)
    change.write_text("q,value\n1,2.5e-15\n-1,4.0000000000000000e+00\n")
    assert tool.numeric_delta(parent, change) == 0.0


def test_numeric_delta_needs_the_same_text_between_numbers(tool, tmp_path):
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text('{"passed": true, "value": 1.5}\n')
    change.write_text('{"passed": false, "value": 1.5}\n')
    assert tool.numeric_delta(parent, change) is None
    change.write_text('{"passed": true, "value": 1.5, "extra": 2}\n')
    assert tool.numeric_delta(parent, change) is None


def test_compare_prints_the_numeric_delta_under_each_differing_file(tool, tmp_path, monkeypatch, capsys):
    tables = {"parent": {"a.csv": "x,1.0\n", "b.json": '{"ok": true}\n'},
              "change": {"a.csv": "x,1.5\n", "b.json": '{"ok": false}\n'}}

    def fake_run(src, config_path, out, fmt):
        out.mkdir(parents=True)
        for name, text in tables[src.name].items():
            (out / name).write_text(text)
        return 0

    monkeypatch.setattr(tool, "run_tree", fake_run)
    monkeypatch.setattr(tool, "cases", lambda: [("case", {}, "csv")])
    trees = {label: tmp_path / label for label in ("parent", "change")}
    (tmp_path / "work").mkdir()
    assert tool.compare(trees, tmp_path / "work") == 1
    out = capsys.readouterr().out
    assert "case/a.csv: bytes differ\n" in out and "  max |delta| over numeric tokens: 5.000e-01\n" in out
    assert out.count("max |delta|") == 1  # b.json differs in its text
    assert out.endswith("1 configs, 2 files, 2 differing, 0 exit-code mismatches\n")


def report(sectors, passed=True):
    return json.dumps({"passed": passed, "results": {"sectors": sectors}, "warnings": []})


def test_moved_numbers_fold_sector_keys(tool, tmp_path):
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(report({"-1": {"a": 1.0, "b": 2}, "1": {"a": 3.0, "b": 2}}))
    change.write_text(report({"-1": {"a": 1.5, "b": 2}, "1": {"a": 2.0, "b": 2}}, passed=False))
    assert tool.moved_numbers(parent, change) == [("results.sectors.*.a", 0.5), ("results.sectors.*.a", -1.0)]
    change.write_text(report({"-1": {"a": 1.0}, "1": {"a": 3.0, "b": 2}}))
    assert tool.moved_numbers(parent, change) == []


def test_compare_ends_with_one_line_per_moved_report_key(tool, tmp_path, monkeypatch, capsys):
    reports = {("parent", "c1"): report({"0": {"lich": 1e-14, "dim": 3}}),
               ("change", "c1"): report({"0": {"lich": 4e-14, "dim": 3}}),
               ("parent", "c2"): report({"-1": {"lich": 2e-14, "dim": 3}, "1": {"lich": 5e-15, "dim": 3}}),
               ("change", "c2"): report({"-1": {"lich": 1e-14, "dim": 3}, "1": {"lich": 7e-15, "dim": 3}})}

    def fake_run(src, config_path, out, fmt):
        out.mkdir(parents=True)
        (out / "identities_report.json").write_text(reports[src.name, out.name])
        (out / "identities_residuals.csv").write_text(f"x,{src.name}\n")
        return 0

    monkeypatch.setattr(tool, "run_tree", fake_run)
    monkeypatch.setattr(tool, "cases", lambda: [("c1", {}, "csv"), ("c2", {}, "csv")])
    trees = {label: tmp_path / label for label in ("parent", "change")}
    (tmp_path / "work").mkdir()
    assert tool.compare(trees, tmp_path / "work") == 1
    out = capsys.readouterr().out
    assert out.endswith("2 configs, 4 files, 4 differing, 0 exit-code mismatches\n"
                        "identities_report.json results.sectors.*.lich: 2 files, max |delta| 3.000e-14, 2 up, 1 down\n")


def test_readme_config_block_parses(tool):
    config = tool.readme_config()
    assert set(config) >= {"model", "checks"}
    assert config["checks"] == ["identities", "spectrum", "cohomology", "vanishing", "conformal"]
    names = [name for name, _, _ in tool.cases()]
    assert names[-2:] == ["readme-csv", "readme-json"]

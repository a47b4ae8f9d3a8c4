"""Fast tests of the artifact comparison tool (no crspin runs)."""

import importlib.util
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


def test_readme_config_block_parses(tool):
    config = tool.readme_config()
    assert set(config) >= {"model", "checks"}
    assert config["checks"] == ["identities", "spectrum", "cohomology", "vanishing", "conformal"]
    names = [name for name, _, _ in tool.cases()]
    assert names[-2:] == ["readme-csv", "readme-json"]

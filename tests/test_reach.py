"""Fast tests of the reach ladder tool (no crspin runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

from crspin.cli import CHECK_NAMES, load_config

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_holds_the_baseline_rows_and_the_next_walls(tool):
    names = [name for name, *_ in tool.LADDER]
    assert len(set(names)) == len(names) == 13
    assert names[:2] == ["m2 k0 r2", "m3 k0 r1"]
    assert {"m7 k1 L3", "m8 k1 L2", "m6 k0 r1", "m8 k1 L3"} <= set(names)


def test_every_ladder_config_loads_with_every_check(tool, tmp_path):
    for name, m, k, truncation in tool.LADDER:
        (key, value), = truncation.items()
        assert name == f"m{m} k{k} {'r' if key == 'fourier_radius' else 'L'}{value}"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tool.config(m, k, truncation)))
        config = load_config(str(path))
        assert config["checks"] == list(CHECK_NAMES)
        assert config["model"]["kind"] == "heisenberg" and config["model"]["sectors"] == [k]
        assert config["model"]["truncation"][key] == value


def test_a_row_reads_wall_peak_exit_and_error(tool):
    assert tool.format_row("m7 k1 L3", "tree2", 5.4, 675840, 0, "") == "m7 k1 L3  tree2     5.40 s    660 MiB  exit 0"
    error = "check identities: ERROR (Unable to allocate 3.06 GiB ... (in kernel counts))"
    assert tool.format_row("m8 k1 L3", "tree1", 31.0, 3774873, 1, error) == (
        f"m8 k1 L3  tree1    31.00 s   3686 MiB  exit 1  {error}")


def test_first_error_is_the_first_error_line(tool):
    stdout = "check identities: PASS\ncheck spectrum: ERROR (a)\ncheck cohomology: ERROR (b)\n"
    assert tool.first_error(stdout) == "check spectrum: ERROR (a)"
    assert tool.first_error("check conformal: PASS\n") == ""


@pytest.mark.parametrize("cap", ["0", "-5", "nan", "inf"])
def test_a_nonpositive_or_unbounded_cap_is_refused(tool, capsys, cap):
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["src", "--cap-gib", cap])
    assert exit_info.value.code == 2
    assert "the cap must be a positive number of GiB" in capsys.readouterr().err


def test_more_than_two_trees_are_refused(tool, capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["a", "b", "c"])
    assert exit_info.value.code == 2
    assert "give one or two src directories" in capsys.readouterr().err


@pytest.mark.parametrize("codes, status", [({}, 0), ({"m3 k0 r1": 1}, 1), ({"m2 k0 r2": -9}, 1)],
                         ids=["all-pass", "one-fails", "one-killed"])
def test_the_ladder_exits_nonzero_when_any_run_does(tool, monkeypatch, capsys, codes, status):
    # run_one is stubbed, so no crspin runs; a child killed by a signal reads as a negative code
    def fake_run(src, config_path, out, cap_bytes):
        name = next(name for name, m, k, truncation in tool.LADDER
                    if json.loads(config_path.read_text()) == tool.config(m, k, truncation))
        return 0.5, 1024, codes.get(name, 0), "check spectrum: ERROR (x)" if codes.get(name) else ""

    monkeypatch.setattr(tool, "run_one", fake_run)
    assert tool.main(["a", "b", "--only", "m2 k0 r2", "m3 k0 r1"]) == status
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [["m2", "k0", "r2"]] * 2 + [["m3", "k0", "r1"]] * 2

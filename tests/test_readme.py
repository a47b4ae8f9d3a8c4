"""The README's library example runs as written, so removing a name it imports fails here, and its command
line names the parser's subcommands."""

import argparse
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    match = re.search(r"## Library example\s*```python\n(.*?)```", README.read_text(), re.S)
    assert match is not None, "README.md has no ```python block under 'Library example'"
    return match.group(1)


def test_library_example_runs_and_prints_its_stated_counts():
    code = library_example()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = out.getvalue().splitlines()
    # the first print is followed by the counts it should show, as a comment
    stated = re.search(r"print\(.*\)\s*#\s*(\{.*?\})", code).group(1)
    assert lines[0] == stated == "{0: 1, 1: 2, 2: 1}"
    assert lines[1].startswith("vanishing report: sphere(m=3")


def test_the_command_line_section_names_exactly_the_parsers_subcommands():
    from crspin import cli

    section = re.search(r"^## Command line\n(.*?)^## ", README.read_text(), re.S | re.M)
    assert section is not None, "README.md has no 'Command line' section"
    named = set(re.findall(r"(?<![\w./-])crspin ([\w-]+)", section.group(1)))
    (subparsers,) = [action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    assert named == set(subparsers.choices)

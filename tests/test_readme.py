"""The README's library example runs as written, so removing a name it imports fails here."""

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

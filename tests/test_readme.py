"""The README's library quickstart runs as written and prints what its
comment lines say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    shown = re.findall(r"^# (.*)$", block, re.M)
    assert len(shown) == 2
    for line in shown:
        assert line in printed
    assert "all checks pass: True" in printed

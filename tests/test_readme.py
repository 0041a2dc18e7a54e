import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_runs_as_documented():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    tv, verdict = out.getvalue().split()
    assert float(tv) == pytest.approx(0.21, abs=1e-12)
    assert verdict == "signaling"

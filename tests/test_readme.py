import contextlib
import io
import pathlib
import re
import shlex

import pytest

from collapsebox.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.DOTALL)


def test_quick_example_runs_as_documented():
    assert len(blocks("python")) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks("python")[0], {})
    tv, verdict = out.getvalue().split()
    assert float(tv) == pytest.approx(0.21, abs=1e-12)
    assert verdict == "signaling"


def test_command_line_example_runs_as_documented(tmp_path, monkeypatch, capsys):
    (scenario,) = blocks("json")
    (tmp_path / "scen.json").write_text(scenario)
    commands = [shlex.split(line) for block in blocks("sh") for line in block.splitlines()
                if line.startswith("collapse-box ")]
    assert [c[1] for c in commands] == ["validate", "witness", "simulate", "sweep"]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(command[1:]) == 0, command
    assert "Traceback" not in capsys.readouterr().err

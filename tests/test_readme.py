import contextlib
import io
import pathlib
import re
import shlex

import pytest

import collapsebox
from collapsebox.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_pyproject_version_is_the_package_version():
    # the CSV provenance line prints __version__; Python 3.10 has no tomllib
    (version,) = re.findall(r'^version = "([^"]+)"$',
                            (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert version == collapsebox.__version__

"""Every command of the README's "Command line" block runs with its config."""

import pathlib
import re
import shlex

import pytest

from resolvent_asym import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
SECTION = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
COMMANDS = [line for line in
            re.search(r"```sh\n(.*?)```", SECTION, re.S).group(1).splitlines()
            if line.startswith("resolvent-asym ")]
CONFIG = re.search(r"```json\n(.*?)```", SECTION, re.S).group(1)


def test_block_found():
    assert len(COMMANDS) >= 6
    assert any("--config sweep.json" in line for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_command_exits_0(line, tmp_path, monkeypatch):
    (tmp_path / "sweep.json").write_text(CONFIG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0

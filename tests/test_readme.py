"""Every command of the README's "Command line" block runs with its config,
every example command of its "Refused inputs" list exits 2 with one error
line, and every package name its prose puts in backticks still exists."""

import importlib
import json
import pathlib
import pkgutil
import re
import shlex

import pytest

import resolvent_asym
from resolvent_asym import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
SECTION = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
COMMANDS = [line for line in
            re.search(r"```sh\n(.*?)```", SECTION, re.S).group(1).splitlines()
            if line.startswith("resolvent-asym ")]
CONFIG = re.search(r"```json\n(.*?)```", SECTION, re.S).group(1)
REFUSED = re.findall(r"`(resolvent-asym [^`]*)`",
                     SECTION.split("### Refused inputs", 1)[1])


def test_block_found():
    assert len(COMMANDS) >= 6
    assert any("--config sweep.json" in line for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_command_exits_0(line, tmp_path, monkeypatch):
    (tmp_path / "sweep.json").write_text(CONFIG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0


@pytest.mark.parametrize("line", [c for c in COMMANDS if "--config" in c])
def test_config_output_written_as_csv(line, tmp_path, monkeypatch, capsys):
    # the example's "output" has no .json suffix, so the table is CSV
    (tmp_path / "sweep.json").write_text(CONFIG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    output = json.loads(CONFIG)["output"]
    assert cli.main(shlex.split(line)[1:]) == 0
    assert f"rows to {output}\n" in capsys.readouterr().out
    assert (tmp_path / output).read_text().startswith("n,p,")


def test_refused_examples_found():
    assert len(REFUSED) >= 12


@pytest.mark.parametrize("line", REFUSED)
def test_refused_example_exits_2_with_one_error_line(line, capsys):
    # each "Refused inputs" example: exit 2, no rows and one error line,
    # with no RuntimeWarning (pytest makes warnings errors)
    assert cli.main(shlex.split(line)[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.err.endswith("\n")


PROSE = re.sub(r"```.*?```", "", README, flags=re.S)
MODULES = {info.name: importlib.import_module(f"resolvent_asym.{info.name}")
           for info in pkgutil.iter_modules(resolvent_asym.__path__)}
# backticked `module.name` of a package module, and bare `_private` names
DOTTED = sorted({m for m in re.findall(r"`(\w+(?:\.\w+)+)`", PROSE)
                 if m.split(".")[0] in MODULES})
PRIVATE = sorted(set(re.findall(r"`(_\w+)`", PROSE)))


def test_names_found():
    assert "params._require_count" in DOTTED
    assert "_root" in PRIVATE


@pytest.mark.parametrize("name", DOTTED)
def test_module_name_resolves(name):
    obj = MODULES[name.split(".")[0]]
    for part in name.split(".")[1:]:
        assert hasattr(obj, part), f"{name}: no {part}"
        obj = getattr(obj, part)


@pytest.mark.parametrize("name", PRIVATE)
def test_private_name_resolves(name):
    assert any(hasattr(module, name) for module in MODULES.values())

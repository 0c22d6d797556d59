"""The README's examples run against the package as it is."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

from insdual.cli import RunConfig, load_config, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_ini_example_is_the_default_config(tmp_path):
    # every key the README shows must load, and show its default: a key
    # removed or renamed in RunConfig then fails here
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0])
    assert load_config(path) == RunConfig()
    # and every RunConfig field must be shown: a commented line counts, for
    # a default such as seed's None that no value can write
    shown = set(re.findall(r"^;?\s*(\w+)\s*=", blocks[0], re.M))
    assert shown == {f.name for f in fields(RunConfig)}


def test_command_lines_run(tmp_path, monkeypatch):
    # every insdual line of the README's sh blocks, from a directory that
    # holds the README's INI example as the run.ini it names
    text = README.read_text()
    (ini,) = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
    (tmp_path / "run.ini").write_text(ini)
    monkeypatch.chdir(tmp_path)
    lines = [
        line
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        for line in block.splitlines()
        if line.startswith("insdual")
    ]
    assert len(lines) == 3
    for line in lines:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line

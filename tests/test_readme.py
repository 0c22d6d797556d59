"""The README's examples run against the package as it is."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from insdual.cli import RunConfig, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


# the example solves the dear case, whose alpha < beta draws an advisory
@pytest.mark.filterwarnings("ignore::UserWarning")
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

"""The README's library example runs against the package's public names."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


# the example solves the dear case, whose alpha < beta draws an advisory
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out

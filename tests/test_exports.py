"""Every public name a module declares resolves, and the package exports them.

A deleted function whose name stays in an ``__all__`` fails here, as
does a name the README's library example imports from the package but
the package no longer exports.
"""

import re
from pathlib import Path

import pytest

import insdual
from insdual import cli, grid, howard, model, policy, scheme, simulate

MODULES = [grid, howard, model, policy, scheme, simulate, cli]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module", [insdual, *MODULES], ids=lambda module: module.__name__
)
def test_every_declared_name_resolves(module):
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def test_package_names_are_public_in_their_modules():
    # each name the package exports is the object its own module
    # declares public under that name
    for name in insdual.__all__:
        if name == "__version__":
            continue
        obj = getattr(insdual, name)
        home = next(m for m in MODULES if m.__name__ == obj.__module__)
        assert name in home.__all__, name
        assert getattr(home, name) is obj, name


def test_package_exports_the_readme_names():
    text = README.read_text()
    imports = re.findall(r"^from insdual import (?:\(([^)]*)\)|(.*))$", text, re.M)
    names = {
        name.strip()
        for block in imports
        for name in "".join(block).split(",")
        if name.strip()
    }
    assert names
    assert names <= set(insdual.__all__)

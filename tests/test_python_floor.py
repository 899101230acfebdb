"""Every module of the package parses at the oldest Python that
``pyproject.toml`` admits, so newer syntax cannot slip in unnoticed."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# read with a pattern, as tomllib is not in the standard library before 3.11
FLOOR = tuple(
    int(x)
    for x in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    ).groups()
)
MODULES = sorted((ROOT / "src" / "vermatwist").rglob("*.py"))


def test_the_floor_refuses_newer_syntax():
    assert FLOOR < (3, 11)  # except* came in 3.11
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)

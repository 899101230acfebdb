"""One rule for every rational a user gives: ``errors.rational`` reads a
weight coordinate, the rank 1 laboratory's lam, a local ring coefficient
and the ``--lambda`` flags of ``sum-formula`` and ``sl2`` alike."""

import contextlib
import io
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vermatwist import (
    VERMA_TO_DUAL,
    LocalRingElem,
    Weight,
    WeightMap,
    constant,
    is_natural,
    one,
    phi,
    weight,
)
from vermatwist.cli import main


def _cli(argv: list[str], refused: int, line: str) -> Fraction:
    """The first coordinate of lam as the command prints it after ``line``;
    a run that exits with ``refused`` raises ``ValueError``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == refused:
        raise ValueError(f"exit {code}")
    assert code == 0
    (shown,) = [text for text in out.getvalue().splitlines() if text.startswith(line)]
    return Fraction(shown[len(line) :].strip("(").split(",")[0])


def sum_formula_lambda(value) -> Fraction:
    argv = ["sum-formula", "--type", "B2", "--w", "s", "--y", "e", f"--lambda={value},-2"]
    return _cli(argv, 1, "block: lambda = ")


def sl2_lambda(value) -> Fraction:
    argv = ["sl2", f"--lambda={value}", "--trunc", "2", "--check", "phi"]
    return _cli(argv, 2, "sl2 deformation report: lambda = ")


#: each reader of a user's rational, by what it returns for lam = -5/2 and lam = 2
LIBRARY = {
    "weight": (lambda v: weight(v, 0).coords[0], Fraction(-5, 2), 2),
    "Weight": (lambda v: Weight((v, 0)).coords[0], Fraction(-5, 2), 2),
    "phi": (lambda v: phi(v, 0).lam, Fraction(-5, 2), 2),
    "is_natural": (is_natural, False, True),
    "WeightMap": (lambda v: WeightMap(v, 0, VERMA_TO_DUAL, (one(),)).lam, Fraction(-5, 2), 2),
    "constant": (lambda v: constant(v).specialize(), Fraction(-5, 2), 2),
    "LocalRingElem": (lambda v: LocalRingElem((v, 1)).specialize(), Fraction(-5, 2), 2),
}
CLI = {
    "sum-formula --lambda": (sum_formula_lambda, Fraction(-5, 2), 2),
    "sl2 --lambda": (sl2_lambda, Fraction(-5, 2), 2),
}

#: refused by every reader, with the message each gives in the library
REFUSED = [
    ("1e3", "^exponent notation is not accepted$"),
    ("1E3", "^exponent notation is not accepted$"),
    ("1e2000000", "^exponent notation is not accepted$"),
    ("nan", "^'nan' is not a rational or a whole float$"),
    ("abc", "^'abc' is not a rational or a whole float$"),
    ("1/0", "^zero denominator in '1/0'$"),
]
#: refused by the library readers; no flag gives anything but text
REFUSED_IN_LIBRARY = [
    (Decimal("1E+3"), "^exponent notation is not accepted$"),
    (0.1, "^0.1 is not a rational or a whole float$"),
    (float("nan"), "^nan is not a rational or a whole float$"),
    (None, "^None is not a rational or a whole float$"),
]


@pytest.mark.parametrize("name", [*LIBRARY, *CLI])
def test_every_reader_reads_a_rational_by_one_rule(name):
    read, at_minus_five_halves, at_two = {**LIBRARY, **CLI}[name]
    in_library = name in LIBRARY
    for value, message in REFUSED:
        with pytest.raises(ValueError, match=message if in_library else None):
            read(value)
    for value in ("-5/2", "-2.5"):
        assert read(value) == at_minus_five_halves, value
    if in_library:
        for value, message in REFUSED_IN_LIBRARY:
            with pytest.raises(ValueError, match=message):
                read(value)
        assert read(Fraction(-5, 2)) == at_minus_five_halves
        assert read(2.0) == read(2) == at_two


@given(st.fractions())
def test_the_text_of_a_fraction_reads_back_as_it(q):
    assert weight(str(q), 0).coords[0] == q
    assert phi(str(q), 0).lam == q
    assert constant(str(q)).specialize() == q

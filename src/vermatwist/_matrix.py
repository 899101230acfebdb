"""Tiny exact linear algebra helpers over the rationals.

Matrices are tuples of row tuples.  ``mat_vec`` and ``invert`` work in
``Fraction`` arithmetic; ``to_int_matrix`` casts a result that must be
integral, such as the inverse of a Weyl group element, back to plain ints.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolated

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_vec(a: Matrix, v: tuple) -> tuple:
    return tuple(sum((a[i][k] * v[k] for k in range(len(v))), Fraction(0)) for i in range(len(a)))


def invert(a: Matrix) -> Matrix:
    """Invert a square matrix by Gaussian elimination.

    Raises ``ZeroDivisionError`` if the matrix is singular, which for our
    callers (Cartan matrices, Weyl group elements) would indicate a bug.
    """
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = 1 / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def to_int_matrix(a: Matrix) -> tuple[tuple[int, ...], ...]:
    """Cast a rational matrix with integer entries to plain ints."""
    out = []
    for row in a:
        int_row = []
        for x in row:
            if Fraction(x).denominator != 1:
                raise InvariantViolated(f"expected integer entry, got {x}")
            int_row.append(int(x))
        out.append(tuple(int_row))
    return tuple(out)

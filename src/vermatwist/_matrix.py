"""Tiny exact linear algebra helpers over the rationals.

Matrices are tuples of row tuples.  ``mat_vec`` and ``invert`` work in
``Fraction`` arithmetic, for the inverse Cartan matrix: a weight in simple
root coordinates really is rational.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_vec(a: Matrix, v: tuple) -> tuple:
    return tuple(sum((a[i][k] * v[k] for k in range(len(v))), Fraction(0)) for i in range(len(a)))


def invert(a: Matrix) -> Matrix:
    """Invert a square matrix by Gaussian elimination.

    Raises ``ZeroDivisionError`` if the matrix is singular, which for our
    caller (the Cartan matrix) would indicate a bug.
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


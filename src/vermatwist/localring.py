"""Exact arithmetic in rational functions regular at X = 0.

An element is a fraction n/d of polynomials in one variable X with
integer coefficients, stored as lists of ints, constant term first, with
no trailing zeros; the empty list is the zero polynomial.  The stored
form is normalised cheaply on construction: common powers of X are
cancelled, so that d(0) != 0, the integer content of n and d together is
divided out, and the sign is fixed by d(0) > 0.  No polynomial gcd is
taken, so n and d may still share a factor.  An element is refused
exactly when X divides d more often than it divides n, so the
represented ring is the localization of Q[X] at the ideal (X).

Arithmetic multiplies and adds Python ints; equality cross-multiplies.
A product loops over its shorter operand, so a scalar or a linear factor
costs one pass over the other list, and a scalar 1 returns the other list
itself: stored lists are shared and never written to.  An element is
an :class:`vermatwist.errors._Frozen`, as every record of the package
is: ``__post_init__`` sets its stored form once, and assigning or
deleting an attribute raises ``dataclasses.FrozenInstanceError``.
Each binary operator and equality read the other operand, an element,
an int or a ``Fraction``, by one rule, ``_operand``; anything else is
NotImplemented.  So ``constant(3) == 3``, and an element equal to a
scalar hashes as that scalar.
Valuation, value at X = 0 and the zero test read the stored form
directly.  Only hashing, printing and the public ``num`` and ``den``
attributes need the canonical form: polynomials over Q as tuples of
``Fraction`` coefficients, gcd cancelled, denominator scaled to take the
value 1 at X = 0.  It is computed on first use and cached, in integers
up to the last step: the gcd of the stored lists by Euclid on primitive
pseudo-remainders, and exact division by it.

One public entry point works on integer lists directly:
``scaled_equal(u, a, v, b)`` decides u*a == v*b for integer polynomials
u and v and elements a and b by one cross-multiplication, building no
element.  Each side is a product of three lists, u, a's numerator and
b's denominator against v, b's numerator and a's denominator.  The short
factors are multiplied first: the scalars of each side into one integer,
and the two integers are divided by their gcd before anything touches
the longest list, which is multiplied last.  Where the two sides differ
by a scalar and a linear factor, as in the rank 1 laboratory's
identities, the comparison is one pass with small multipliers over the
long list rather than several with factorials.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import InvariantViolated, _Frozen, _set

Poly = tuple[Fraction, ...]


def _z_trim(p: list[int]) -> list[int]:
    k = len(p)
    while k and not p[k - 1]:
        k -= 1
    return p if k == len(p) else p[:k]


def _z_add(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y
    return out


def _z_mul(a: list[int], b: list[int]) -> list[int]:
    """The product a*b, looping over the shorter operand; a scalar or a linear
    factor takes one pass over the other, and a scalar 1 returns it unchanged."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) < 2:
        if not a:
            return []
        c = a[0]
        return b if c == 1 else [c * y for y in b]
    if len(a) == 2:
        c0, c1 = a
        if not c0:
            return [0] + [c1 * x for x in b]
        return [c0 * y + c1 * x for x, y in zip([0] + b, b + [0])]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _z_primitive(p: list[int]) -> list[int]:
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _z_gcd(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of two integer polynomials: Euclid on primitive
    pseudo-remainders, so every step stays in integers."""
    while b:
        r = a
        while len(r) >= len(b):
            c, k = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for i, y in enumerate(b, k):
                r[i] -= c * y
            r = _z_trim(r)
        a, b = b, _z_primitive(r)
    return _z_primitive(a)


def _z_exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive divisor b of a; the quotient is integral by Gauss's lemma."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] // b[-1]
        for i, y in enumerate(b, k):
            r[i] -= q[k] * y
    if any(r):
        raise InvariantViolated("inexact polynomial division")
    return q


def _order(p: list[int]) -> int:
    """Index of the first nonzero coefficient of a nonzero polynomial."""
    for i, c in enumerate(p):
        if c:
            return i
    raise InvariantViolated("order of the zero polynomial")


def _make(n: list[int], d: list[int]) -> LocalRingElem:
    """An element from integer lists; no stored list is ever mutated, so they may be shared."""
    elem = object.__new__(LocalRingElem)
    _set(elem, "_n", n)
    _set(elem, "_d", d)
    elem.__post_init__()
    return elem


def _operand(formula):
    """The operator ``formula(self, on, od)`` on the lists of its other operand,
    an element, int or ``Fraction``; any other operand is NotImplemented."""

    @functools.wraps(formula)
    def operator(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return formula(self, *parts)

    return operator


class LocalRingElem(_Frozen):
    """A rational function in X, regular at X = 0.

    >>> x = variable()
    >>> (x * x + x) / x
    LocalRingElem('X + 1')
    >>> ((x + 1) / (1 - x)).specialize()
    Fraction(1, 1)
    >>> (x * x).valuation()
    2
    """

    __slots__ = ("_n", "_d", "_reduced")

    def __init__(self, num, den=(1,)) -> None:
        num = [Fraction(c) for c in num]
        den = [Fraction(c) for c in den]
        scale = math.lcm(*(c.denominator for c in num + den))
        _set(self, "_n", [int(c * scale) for c in num])
        _set(self, "_d", [int(c * scale) for c in den])
        self.__post_init__()

    def __post_init__(self) -> None:
        n = _z_trim(self._n)
        d = _z_trim(self._d)
        if not d:
            raise ZeroDivisionError("denominator is the zero polynomial")
        if not n:
            d = [1]
        else:
            shift = _order(d)
            if shift:
                if shift > _order(n):
                    raise ValueError(
                        "denominator vanishes at X = 0: element is outside the local ring"
                    )
                n = n[shift:]
                d = d[shift:]
            # leading coefficients first: their gcd is small for the rank 1
            # laboratory's lists, and math.gcd passes cheaply over the rest
            # once it has reached 1
            g = math.gcd(n[-1], d[-1], *n, *d)
            if d[0] < 0:
                g = -g
            if g == -1:
                n = [-c for c in n]
                d = [-c for c in d]
            elif g != 1:
                n = [c // g for c in n]
                d = [c // g for c in d]
        _set(self, "_n", n)
        _set(self, "_d", d)
        _set(self, "_reduced", None)

    def _canonical(self) -> tuple[Poly, Poly]:
        if self._reduced is None:
            n, d = self._n, self._d
            g = _z_gcd(n, d)
            if len(g) > 1:
                n, d = _z_exact_quotient(n, g), _z_exact_quotient(d, g)
            c = d[0]
            _set(self, "_reduced", tuple(tuple(Fraction(x, c) for x in p) for p in (n, d)))
        return self._reduced

    @property
    def num(self) -> Poly:
        """Reduced numerator over Q, constant term first."""
        return self._canonical()[0]

    @property
    def den(self) -> Poly:
        """Reduced denominator over Q, with value 1 at X = 0."""
        return self._canonical()[1]

    @property
    def is_zero(self) -> bool:
        return not self._n

    def valuation(self) -> int | float:
        """Order of vanishing at X = 0 (math.inf for the zero element)."""
        if not self._n:
            return math.inf
        return _order(self._n)

    @property
    def is_unit(self) -> bool:
        return self.valuation() == 0

    def specialize(self) -> Fraction:
        """Value at X = 0."""
        return Fraction(self._n[0], self._d[0]) if self._n else Fraction(0)

    @_operand
    def __eq__(self, on, od) -> bool:
        return _z_mul(self._n, od) == _z_mul(on, self._d)

    def __hash__(self) -> int:
        num, den = self._canonical()
        # an element equal to a scalar hashes as that scalar
        if len(num) <= 1 and den == (1,):
            return hash(num[0] if num else 0)
        return hash((num, den))

    @_operand
    def __add__(self, on, od) -> LocalRingElem:
        return _make(_z_add(_z_mul(self._n, od), _z_mul(on, self._d)), _z_mul(self._d, od))

    __radd__ = __add__

    def __neg__(self) -> LocalRingElem:
        return _make([-c for c in self._n], self._d)

    @_operand
    def __sub__(self, on, od) -> LocalRingElem:
        n = _z_add(_z_mul(self._n, od), _z_mul([-c for c in on], self._d))
        return _make(n, _z_mul(self._d, od))

    @_operand
    def __rsub__(self, on, od) -> LocalRingElem:
        n = _z_add(_z_mul(on, self._d), _z_mul([-c for c in self._n], od))
        return _make(n, _z_mul(self._d, od))

    @_operand
    def __mul__(self, on, od) -> LocalRingElem:
        return _make(_z_mul(self._n, on), _z_mul(self._d, od))

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, on, od) -> LocalRingElem:
        if not on:
            raise ZeroDivisionError("division by zero in the local ring")
        return _make(_z_mul(self._n, od), _z_mul(self._d, on))

    @_operand
    def __rtruediv__(self, on, od) -> LocalRingElem:
        if not self._n:
            raise ZeroDivisionError("division by zero in the local ring")
        return _make(_z_mul(on, self._d), _z_mul(od, self._n))

    def __pow__(self, exponent: int) -> LocalRingElem:
        if exponent < 0:
            return one() / self ** (-exponent)
        out = one()
        for _ in range(exponent):
            out = out * self
        return out

    def __str__(self) -> str:
        num, den = self._canonical()
        top = _poly_text(num)
        if den == (Fraction(1),):
            return top
        return f"({top}) / ({_poly_text(den)})"

    def __repr__(self) -> str:
        return f"LocalRingElem({str(self)!r})"


def _poly_text(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            power = "X" if i == 1 else f"X^{i}"
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _parts(value) -> tuple[list[int], list[int]] | None:
    """Numerator and denominator lists of an element, int or Fraction."""
    if isinstance(value, LocalRingElem):
        return value._n, value._d
    if isinstance(value, (int, Fraction)):
        return ([value.numerator] if value else []), [value.denominator]
    return None


def scaled_equal(u: list[int], a: LocalRingElem, v: list[int], b: LocalRingElem) -> bool:
    """Whether u*a == v*b, for u and v lists of ints, constant term first.

    >>> x = variable()
    >>> scaled_equal([2], x / 2, [0, 1], one())
    True
    """
    left = _split(_z_trim(u), a._n, b._d)
    right = _split(_z_trim(v), b._n, a._d)
    if left is None or right is None:
        return left is right
    g = math.gcd(left[0], right[0])
    return _join(left[0] // g, *left[1:]) == _join(right[0] // g, *right[1:])


def _split(*factors: list[int]) -> tuple[int, list[int] | None, list[int]] | None:
    """A product of three integer polynomials as the product of its scalar
    factors, the product of its other short factors (None if there is
    none) and its longest factor; None when a factor is zero."""
    p, q, longest = sorted(factors, key=len)
    if not p:
        return None
    if len(q) == 1:
        return p[0] * q[0], None, longest
    if len(p) == 1:
        return p[0], q, longest
    return 1, _z_mul(p, q), longest


def _join(scalar: int, short: list[int] | None, longest: list[int]) -> list[int]:
    """The product scalar * short * longest, taken in that order."""
    if short is not None:
        return _z_mul(_z_mul([scalar], short), longest)
    return _z_mul([scalar], longest)


def constant(value) -> LocalRingElem:
    return LocalRingElem((value,))


def variable() -> LocalRingElem:
    return LocalRingElem((0, 1))


def zero() -> LocalRingElem:
    return LocalRingElem(())


def one() -> LocalRingElem:
    return LocalRingElem((1,))

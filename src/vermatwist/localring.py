"""Exact arithmetic in rational functions regular at X = 0.

Elements are fractions num/den of polynomials over Q in one variable X,
kept in a canonical reduced form: the gcd is cancelled and the
denominator is scaled to take the value 1 at X = 0.  Anything whose
reduced denominator vanishes at 0 is rejected, so the represented ring is
exactly the localization of Q[X] at the ideal (X).

Polynomials are tuples of ``Fraction`` coefficients, constant term first,
with no trailing zeros; the empty tuple is the zero polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolated

Poly = tuple[Fraction, ...]


def _trim(coeffs) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _p_scale(a: Poly, c: Fraction) -> Poly:
    return _trim(x * c for x in a)


def _p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise InvariantViolated("polynomial division by zero")
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rest = list(a)
    inv_lead = 1 / b[-1]
    while len(rest) >= len(b):
        c = rest[-1] * inv_lead
        k = len(rest) - len(b)
        quotient[k] = c
        for i, x in enumerate(b):
            rest[k + i] -= c * x
        while rest and rest[-1] == 0:
            rest.pop()
    return _trim(quotient), _trim(rest)


def _p_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, r = _p_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return _p_scale(a, 1 / a[-1])


@dataclass(frozen=True)
class LocalRingElem:
    """A rational function in X, regular at X = 0, in reduced form.

    >>> x = variable()
    >>> (x * x + x) / x
    LocalRingElem('X + 1')
    >>> ((x + 1) / (1 - x)).specialize()
    Fraction(1, 1)
    >>> (x * x).valuation()
    2
    """

    num: Poly
    den: Poly = (Fraction(1),)

    def __post_init__(self) -> None:
        num = _trim(self.num)
        den = _trim(self.den)
        if not den:
            raise ZeroDivisionError("denominator is the zero polynomial")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (Fraction(1),))
            return
        g = _p_gcd(num, den)
        if len(g) > 1:
            num, _ = _p_divmod(num, g)
            den, _ = _p_divmod(den, g)
        if den[0] == 0:
            raise ValueError(
                "denominator vanishes at X = 0: element is outside the local ring"
            )
        num = _p_scale(num, 1 / den[0])
        den = _p_scale(den, 1 / den[0])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def valuation(self) -> int | float:
        """Order of vanishing at X = 0 (math.inf for the zero element)."""
        if not self.num:
            return math.inf
        return next(i for i, c in enumerate(self.num) if c != 0)

    @property
    def is_unit(self) -> bool:
        return self.valuation() == 0

    def specialize(self) -> Fraction:
        """Value at X = 0."""
        return self.num[0] if self.num else Fraction(0)

    def __add__(self, other) -> LocalRingElem:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LocalRingElem(
            _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den)),
            _p_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> LocalRingElem:
        return LocalRingElem(_p_scale(self.num, Fraction(-1)), self.den)

    def __sub__(self, other) -> LocalRingElem:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LocalRingElem:
        return -(self - other)

    def __mul__(self, other) -> LocalRingElem:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return LocalRingElem(_p_mul(self.num, other.num), _p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> LocalRingElem:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero in the local ring")
        return LocalRingElem(_p_mul(self.num, other.den), _p_mul(self.den, other.num))

    def __rtruediv__(self, other) -> LocalRingElem:
        return _coerce(other) / self

    def __pow__(self, exponent: int) -> LocalRingElem:
        if exponent < 0:
            return one() / self ** (-exponent)
        out = one()
        for _ in range(exponent):
            out = out * self
        return out

    def __str__(self) -> str:
        top = _poly_text(self.num)
        if self.den == (Fraction(1),):
            return top
        return f"({top}) / ({_poly_text(self.den)})"

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


def _coerce(value) -> LocalRingElem:
    if isinstance(value, LocalRingElem):
        return value
    if isinstance(value, (int, Fraction)):
        return LocalRingElem((Fraction(value),))
    return NotImplemented


def constant(value) -> LocalRingElem:
    return LocalRingElem((Fraction(value),))


def variable() -> LocalRingElem:
    return LocalRingElem((Fraction(0), Fraction(1)))


def zero() -> LocalRingElem:
    return LocalRingElem(())


def one() -> LocalRingElem:
    return LocalRingElem((Fraction(1),))

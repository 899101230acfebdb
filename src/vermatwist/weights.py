"""Weights, in exact rational arithmetic, and the Weyl group actions on them.

A :class:`Weight` stores rational coordinates in the fundamental weight
basis, so ``lam.coords[i]`` equals the pairing of ``lam`` against the
i-th simple coroot.  This layer sits above the integer code of
:mod:`vermatwist.rootsystem` and :mod:`vermatwist.weyl`; only the
rational views of ``RootSystem`` import it, in their bodies, so the
``weyl`` command loads no ``fractions``.  A coordinate that is not
already a ``Fraction`` is read by :func:`vermatwist.errors.rational`,
the package's one reader of a rational a user gives.

The pairings of lam + rho with the positive coroots decide a weight's
class, its integral roots, its block and R+(mu); ``_shifted_pairings``
gives them as integers over one denominator, 1 for an integral weight,
from ``_numerators``, the one integer form of lam + shift * rho, on
which the actions walk ``weyl._walk``.  A ``Fraction`` is built only
for a returned :class:`Weight`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import _Record, _set, rational
from .rootsystem import Root, RootSystem, _coroot_of, _sequence
from .weyl import WeylElement, _check_element, _walk


class Weight(_Record):
    """A weight in fundamental weight coordinates, stored as Fractions; floats must be whole."""

    coords: tuple[Fraction, ...]
    _fields = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]) -> None:
        given = _sequence(coords, ValueError, "weight coordinates")
        _set(self, "coords", tuple(c if isinstance(c, Fraction) else rational(c) for c in given))

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __add__(self, other: Weight) -> Weight:
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: Weight) -> Weight:
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> Weight:
        return Weight(tuple(-a for a in self.coords))

    def __repr__(self) -> str:
        return "Weight(" + ", ".join(str(c) for c in self.coords) + ")"


def weight(*coords) -> Weight:
    """Convenience constructor: ``weight(-2, -2)`` for rational coordinates."""
    return Weight(coords)


class WeightClassification(_Record):
    antidominant: bool
    dominant: bool
    regular: bool
    integral: bool
    _fields = ("antidominant", "dominant", "regular", "integral")


def _check_rank(rs: RootSystem, lam: Weight) -> None:
    if not isinstance(lam, Weight):
        raise ValueError(f"expected a Weight, got {lam!r}")
    if len(lam.coords) != rs.rank:
        raise ValueError("weight has wrong rank for this root system")


def pairing(rs: RootSystem, lam: Weight, beta: Root) -> Fraction:
    """Pairing of a weight against the coroot of ``beta``, exactly.

    This is 2*(lam, beta)/(beta, beta) for the invariant form; for a simple
    root it agrees with the corresponding fundamental weight coordinate.

    >>> from vermatwist.rootsystem import build_root_system
    >>> rs = build_root_system("B2")
    >>> pairing(rs, rs.rho, Root((2, 1)))
    Fraction(2, 1)
    """
    _check_rank(rs, lam)
    return sum(c * m for c, m in zip(_coroot_of(rs, beta), lam.coords) if c)


def _numerators(rs: RootSystem, lam: Weight, shift: int = 0) -> tuple[tuple[int, ...], int]:
    """``(m, d)`` with lam + shift * rho = m / d in fundamental weight
    coordinates, d the lcm of the denominators of ``lam``."""
    _check_rank(rs, lam)
    d = lcm(*(c.denominator for c in lam.coords))
    return tuple([c.numerator * (d // c.denominator) + shift * d for c in lam.coords]), d


def _shifted_pairings(rs: RootSystem, lam: Weight) -> tuple[list[int], int]:
    """``(nums, d)`` with <lam + rho, beta_b^vee> = nums[b] / d for the b-th
    positive root, d the lcm of the denominators of ``lam``.  The simple
    roots come first, as the roots are ordered by height."""
    m, d = _numerators(rs, lam, 1)
    coroots = [rs._coroots[beta.coords] for beta in rs.positive_roots]
    return [sum(c * x for c, x in zip(coroot, m) if c) for coroot in coroots], d


def classify_weight(rs: RootSystem, lam: Weight) -> WeightClassification:
    """Classify ``lam`` relative to the shifted Weyl group action.

    * antidominant: pairing of lam + rho with every simple coroot is <= 0
    * dominant: those pairings are all >= 0
    * regular: pairing of lam + rho with every positive coroot is nonzero
    * integral: all fundamental weight coordinates are integers
    """
    nums, d = _shifted_pairings(rs, lam)
    simples = nums[: rs.rank]
    return WeightClassification(
        antidominant=all(c <= 0 for c in simples),
        dominant=all(c >= 0 for c in simples),
        regular=0 not in nums,
        integral=d == 1,
    )


def integral_positive_roots(rs: RootSystem, lam: Weight) -> tuple[Root, ...]:
    """Positive roots whose coroot pairs integrally with ``lam``.

    For an integral weight this is every positive root; in general it is
    the positive part of the integral root subsystem of ``lam``.  The
    pairing with rho is an integer, so lam + rho decides it.
    """
    nums, d = _shifted_pairings(rs, lam)
    return tuple(beta for beta, n in zip(rs.positive_roots, nums) if n % d == 0)


def weight_action(w: WeylElement, lam: Weight) -> Weight:
    """Natural (unshifted) action of w on a weight, exactly.

    Applies ``s_i(lam) = lam - lam.coords[i] * a_i`` along the word, right
    to left, on integer numerators over the common denominator d of the
    coordinates, divided by d once at the end.
    """
    _check_element(w, getattr(w, "rs", None), "the argument is no Weyl group element")
    m, d = _numerators(w.rs, lam)
    return Weight(tuple(Fraction(x, d) for x in _walk(w.rs, w.word, m)[0]))


def dot_action(rs: RootSystem, w: WeylElement, lam: Weight) -> Weight:
    """Shifted action w . lam = w(lam + rho) - rho, on the numerators of lam + rho."""
    _check_element(w, rs, "element does not belong to the given root system")
    m, d = _numerators(rs, lam, 1)
    return Weight(tuple(Fraction(x - d, d) for x in _walk(rs, w.word, m)[0]))

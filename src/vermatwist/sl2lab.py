"""Rank 1 laboratory: deformed weight space maps between a Verma module
and its twisted partner, over the local ring of rational functions
regular at X = 0.

Everything here is for sl2 with deformed highest weight z = lam + X.  In
the divided power basis v_0, ..., v_N of the truncated deformed Verma
module the actions are

    h v_i = (z - 2i) v_i,   f v_i = (i+1) v_{i+1},   e v_i = (z+1-i) v_{i-1},

and on the dual basis of the twisted (dual) module

    h u_i = (z - 2i) u_i,   e u_i = i u_{i-1},       f u_i = (z - i) u_{i+1}.

A weight map is diagonal in these bases, one local ring entry per index.
The forward map has entry binomial(z, i); its essentially unique
equivariant partner in the other direction divides by that binomial,
rescaled for natural lam so that every entry stays regular at X = 0.
Specializing X to 0 recovers the classical undeformed maps.

``psi`` and the checks take either lam or the forward map that ``phi``
returned; given the map, they use its own lam and truncation and refuse
any other truncation with ``ValueError``, and given lam, they refuse a
truncation by ``phi``'s rule before anything else; a truncation left out
is the map's own, or ``DEFAULT_TRUNCATION``.  A forward map builds its
backward partner once, on first use.  A map is a
:class:`vermatwist.errors._Record`, as the records of the block stack
are: its constructor checks the fields, and it is compared, hashed and
shown as a frozen dataclass is, so the ``sl2`` command loads no
``dataclasses``.

With lam = p/q, z - k = (qX + p - qk) / q for every integer k, so the
forward map and the checks run on integer polynomial lists: ``phi`` builds
one ring element per entry, and ``check_equivariance`` none.

The four term and cokernel checks compare the maps with one pattern: for
natural lam the forward map vanishes at X = 0 exactly above lam and the
backward map exactly up to lam.  Both refuse a truncation below 2 lam + 4
before they build a map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import InvariantViolated, TruncationTooSmall, _Record
from .localring import LocalRingElem, _make, _z_mul, one, scaled_equal

VERMA_TO_DUAL = "verma_to_dual"
DUAL_TO_VERMA = "dual_to_verma"

#: Truncation used by the command line driver unless overridden.
DEFAULT_TRUNCATION = 12

#: Largest truncation ``phi``, and so every function that builds a map,
#: accepts; entry i's numerator has i + 1 coefficients, so the bound caps
#: the work.  At 100 one report takes about 5 ms in process, and a whole
#: ``sl2 --trunc 100`` process about 75 ms, most of it interpreter start
#: and import (2-core Intel Xeon VM, Python 3.11.7; ``BENCH_bigint.json``
#: in the repository root).
MAX_TRUNCATION = 100


class WeightMap(_Record):
    """A diagonal map between weight spaces, entries indexed 0..truncation."""

    lam: Fraction
    truncation: int
    direction: str
    entries: tuple[LocalRingElem, ...]
    _fields = ("lam", "truncation", "direction", "entries")

    def __init__(self, lam, truncation: int, direction: str, entries) -> None:
        lam = _lam(lam)
        if direction not in (VERMA_TO_DUAL, DUAL_TO_VERMA):
            raise ValueError(f"unknown direction {direction!r}")
        if len(entries) != truncation + 1:
            raise ValueError("need one entry per index from 0 to the truncation")
        self.__dict__.update(lam=lam, truncation=truncation, direction=direction, entries=entries)

    @cached_property
    def _backward(self) -> WeightMap:
        """The partner of this forward map, as ``psi`` describes it, built once."""
        lam = self.lam
        if is_natural(lam):
            scale = LocalRingElem((0, Fraction((-1) ** (int(lam) + 1), int(lam) + 1)))
        else:
            scale = one()
        entries = tuple(scale / b for b in self.entries)
        return WeightMap(lam, self.truncation, DUAL_TO_VERMA, entries)

    def specialized(self) -> tuple[Fraction, ...]:
        """The classical map: every entry evaluated at X = 0."""
        return tuple(entry.specialize() for entry in self.entries)

    def valuations(self) -> tuple[int, ...]:
        return self._valuations

    @cached_property
    def _valuations(self) -> tuple[int, ...]:
        """The entries' valuations, read once for the checks at X = 0 and the layers."""
        if any(entry.is_zero for entry in self.entries):
            raise InvariantViolated("weight map entries must be nonzero")
        return tuple(entry.valuation() for entry in self.entries)


def _lam(lam) -> Fraction:
    """``lam`` as a Fraction; a float must be whole, as its binary value is not what was meant."""
    if isinstance(lam, float):
        if not lam.is_integer():
            raise ValueError(f"lam = {lam!r} is not a rational or a whole float")
        lam = int(lam)
    return Fraction(lam)


def is_natural(lam) -> bool:
    lam = _lam(lam)
    return lam.denominator == 1 and lam >= 0


def deformed_binomial(lam, i: int) -> LocalRingElem:
    """binomial(lam + X, i) as a polynomial in X, exactly.

    Refuses, with ``ValueError`` and before building an entry, an index
    that is not an int from 0 to ``MAX_TRUNCATION``: below 0 the binomial
    is 0 and no weight map entry lives, and the entry i is that of a map
    of truncation i.

    >>> deformed_binomial(3, 2).specialize()
    Fraction(3, 1)
    >>> deformed_binomial(1, 3).valuation()
    1
    """
    return phi(lam, _truncation(i, "binomial index")).entries[i]


def phi(lam, truncation: int = DEFAULT_TRUNCATION) -> WeightMap:
    """The deformed map out of the Verma module, entry binomial(z, i).

    The entries run the product binomial(z, i) = binomial(z, i-1) * (z-i+1) / i
    on integers: with lam = p/q, entry i is prod_{k<i} (qX + p - qk) over
    q^i * i!, and each step multiplies the numerator list by one linear
    factor and the denominator by q * i.  The lists are ints by
    construction, so each entry goes straight to ``localring._make``.

    Refuses, with ``ValueError`` and before building an entry, a truncation
    that is not an int from 0 to ``MAX_TRUNCATION``.
    """
    lam, truncation = _lam(lam), _truncation(truncation)
    p, q = lam.numerator, lam.denominator
    num, den = [1], 1
    entries = [_make(num, [den])]
    for i in range(1, truncation + 1):
        num = _z_mul([p - q * (i - 1), q], num)
        den *= q * i
        entries.append(_make(num, [den]))
    return WeightMap(lam, truncation, VERMA_TO_DUAL, tuple(entries))


def _truncation(truncation, name: str = "truncation") -> int:
    """``truncation``, refused with ``ValueError`` unless an int from 0 to
    ``MAX_TRUNCATION``; the message calls it ``name``."""
    # a bool is no truncation, so the type must be int itself
    if type(truncation) is not int or not 0 <= truncation <= MAX_TRUNCATION:
        raise ValueError(f"{name} must be an int from 0 to {MAX_TRUNCATION}, got {truncation!r}")
    return truncation


def _given(lam, truncation: int | None) -> tuple[Fraction, int, WeightMap | None]:
    """lam and the truncation, read off ``lam`` when it is a map from ``phi``,
    and that map, or None.  A truncation of None is the map's own, or
    ``DEFAULT_TRUNCATION`` for a lam; a map refuses any other than its own."""
    if not isinstance(lam, WeightMap):
        given = DEFAULT_TRUNCATION if truncation is None else truncation
        return _lam(lam), _truncation(given), None
    if lam.direction != VERMA_TO_DUAL:
        raise ValueError("expected the forward map, as phi returns it")
    if truncation is not None and _truncation(truncation) != lam.truncation:
        raise ValueError(f"truncation {truncation} is not the map's own, {lam.truncation}")
    return lam.lam, lam.truncation, lam


def _forward(lam, truncation: int | None) -> WeightMap:
    lam, truncation, forward = _given(lam, truncation)
    return forward or phi(lam, truncation)


def psi(lam, truncation: int | None = None) -> WeightMap:
    """The deformed map back into the Verma module.

    For lam outside the natural numbers every binomial(z, i) is a unit
    and the entries are simply its inverses.  For natural lam those
    binomials acquire a zero at X = 0 once i exceeds lam, so the entries
    are rescaled by X times a constant; the scale (-1)^(lam+1) / (lam+1)
    makes the specialization at X = 0 match the classical map, whose
    nonzero entries are (-1)^i * binomial(i, i - lam - 1).
    """
    return _forward(lam, truncation)._backward


def check_equivariance(wmap: WeightMap, lam=None, truncation: int | None = None) -> bool:
    """Exact commutation with the deformed e and f actions, over the ring.

    A diagonal map m commutes with f at v_i exactly when
    (i+1) m[i+1] = (z-i) m[i] forward, or (z-i) m[i+1] = (i+1) m[i]
    backward.  Commuting with e at v_{i+1} is the same equation: e sends
    v_{i+1} to (z-i) v_i and u_{i+1} to (i+1) u_i.  So one identity per
    index i in 0..n-1 covers both actions on the vectors 0..n; only the
    f action on v_n leaves the truncation.  The h action is diagonal
    with equal eigenvalues on both sides, so it commutes automatically.

    With lam = p/q, z - i = (qX + p - qi) / q, so each identity is decided
    on integer polynomials, q(i+1) against qX + p - qi, building no ring
    element.  ``lam`` and ``truncation`` default to the map's own.  A
    window ``truncation`` must be an int; it is capped at the map's
    truncation, and a window of 0 or less checks nothing.
    """
    if truncation is not None and type(truncation) is not int:
        raise ValueError(f"truncation window must be an int, got {truncation!r}")
    lam = wmap.lam if lam is None else _lam(lam)
    n = wmap.truncation if truncation is None else min(truncation, wmap.truncation)
    p, q = lam.numerator, lam.denominator
    forward = wmap.direction == VERMA_TO_DUAL
    m = wmap.entries
    for i in range(n):
        index, linear = [q * (i + 1)], [p - q * i, q]
        u, v = (index, linear) if forward else (linear, index)
        if not scaled_equal(u, m[i + 1], v, m[i]):
            return False
    return True


def jantzen_layers_sl2(lam, truncation: int | None = None) -> dict[int, int]:
    """X-adic valuation of the forward map, index by index.

    This is the rank 1 Jantzen layer count: index i sits inside the k-th
    filtration step exactly when the valuation is at least k.
    """
    return {i: v for i, v in enumerate(_forward(lam, truncation).valuations())}


def _vanishing(lam: Fraction, truncation: int) -> list[tuple[int, int]]:
    """Per index, 1 where the forward and the backward map vanish at X = 0, else 0;
    on the natural locus a truncation below 2 lam + 4 is refused."""
    if not is_natural(lam):
        return [(0, 0)] * (truncation + 1)
    lam = int(lam)
    if truncation < 2 * lam + 4:
        raise TruncationTooSmall(
            f"truncation {truncation} cannot certify lam = {lam}; need at least {2 * lam + 4}"
        )
    return [(int(i > lam), int(i <= lam)) for i in range(truncation + 1)]


def _profile(forward_map: WeightMap) -> list[tuple[int, int]]:
    """Per index, the valuations of the forward and the backward map, read once per map."""
    return list(zip(forward_map.valuations(), forward_map._backward.valuations()))


def four_term_rank_check(lam, truncation: int | None = None) -> bool:
    """Degreewise exactness of the classical four term sequence.

    For natural lam the Verma module of -lam-2 embeds into that of lam,
    the twisted module receives the quotient, and the cokernel is the
    twisted module of -lam-2 again.  Degreewise this says the specialized
    forward entry vanishes exactly above index lam, and the specialized
    backward entry exactly up to lam.  An entry vanishes at X = 0 exactly
    when its valuation is positive, so the check reads the valuations the
    cokernel check reads, and specializes no entry.
    """
    lam, truncation, forward_map = _given(lam, truncation)
    if not is_natural(lam):
        raise ValueError("the four term sequence needs a natural highest weight")
    vanishing = _vanishing(lam, truncation)
    profile = _profile(forward_map or phi(lam, truncation))
    return [(int(f > 0), int(b > 0)) for f, b in profile] == vanishing


def coker_check_over_A(lam, truncation: int | None = None) -> bool:
    """Valuation profile of both deformed maps over the local ring.

    For natural lam the forward map has a simple zero exactly above index
    lam and the backward map exactly up to lam, so the two cokernels are
    the expected truncated modules with X acting by zero.  For any other
    lam all entries are units and the check is trivially true.
    """
    lam, truncation, forward_map = _given(lam, truncation)
    vanishing = _vanishing(lam, truncation)
    return _profile(forward_map or phi(lam, truncation)) == vanishing

"""The rank 1 laboratory on ring elements: the oracle for the integer route.

``sl2lab`` builds the forward map on integer polynomial lists and decides
each equivariance identity by one cross-multiplication of integer lists.
This module does both the way they are written, in ``LocalRingElem``
arithmetic: z = lam + X is an element, each binomial is the previous one
times z - (i - 1) over i, and the check compares both sides of the e and
f identities as elements, at every index where either action stays
inside the truncation.
"""

from fractions import Fraction

from vermatwist import DUAL_TO_VERMA, VERMA_TO_DUAL, WeightMap, constant, is_natural, one, variable


def phi(lam, truncation):
    """The forward map, entry binomial(z, i), by the product of elements."""
    lam = Fraction(lam)
    z = variable() + constant(lam)
    entries = [one()]
    for i in range(1, truncation + 1):
        entries.append(entries[-1] * (z - (i - 1)) / i)
    return WeightMap(lam, truncation, VERMA_TO_DUAL, tuple(entries))


def psi(lam, truncation):
    """The backward map: the forward entries inverted, times X (-1)^(lam+1) / (lam+1)
    for natural lam."""
    forward = phi(lam, truncation)
    lam = forward.lam
    if is_natural(lam):
        scale = constant(Fraction((-1) ** (int(lam) + 1), int(lam) + 1)) * variable()
    else:
        scale = one()
    return WeightMap(lam, truncation, DUAL_TO_VERMA, tuple(scale / b for b in forward.entries))


def check_equivariance(wmap, lam=None, truncation=None):
    """Both identities at every index: e for 1..n-1, f for 0..n-1."""
    lam = Fraction(wmap.lam if lam is None else lam)
    n = wmap.truncation if truncation is None else min(truncation, wmap.truncation)
    z = variable() + constant(lam)
    m = wmap.entries
    if wmap.direction == VERMA_TO_DUAL:
        for i in range(1, n):
            if (z + 1 - i) * m[i - 1] != i * m[i]:
                return False
        for i in range(n):
            if (i + 1) * m[i + 1] != (z - i) * m[i]:
                return False
    else:
        for i in range(1, n):
            if i * m[i - 1] != (z + 1 - i) * m[i]:
                return False
        for i in range(n):
            if (z - i) * m[i + 1] != (i + 1) * m[i]:
                return False
    return True

"""The sum formula through the orbit weights: the oracle for the table path.

``sum_formula`` evaluates every block by lookups in the Weyl group's
tables.  This module evaluates it the way the formula is written, on the
weights: R+(mu) from the pairings of mu + rho with the coroots, each
reflected weight in the closed form s_beta . mu = mu - n * beta with
n = <mu + rho, beta^vee>, and each weight mapped to its parameter, the
first element of the block's integral Weyl group, in table order, whose
dot action reaches it.  That map is built here from the weights, not
read off the block, so the block's coset rule is checked too.

It also keeps the rational route to those pairings: ``classify``,
``integral_roots`` and ``r_plus`` read the weight class, the integral
roots and R+(mu) off ``pairing``, as the oracles of the integer routine
``weights._shifted_pairings``.
"""

from fractions import Fraction
from functools import cache

from vermatwist import (
    VERMA,
    CharVector,
    NotInBlockOrbit,
    SumFormulaResult,
    Weight,
    WeightClassification,
    dot_action,
    pairing,
    word_text,
)


def _r_plus_pairings(rs, mu):
    """R+(mu) in root order, each root with its pairing against mu + rho."""
    shifted = mu + rs.rho
    out = []
    for beta in rs.positive_roots:
        value = pairing(rs, shifted, beta)
        if value.denominator == 1 and value > 0:
            out.append((beta, int(value)))
    return out


def r_plus(rs, mu):
    """R+(mu) in root order, from the rational pairings."""
    return tuple(beta for beta, _ in _r_plus_pairings(rs, mu))


def integral_roots(rs, lam):
    """The positive roots whose coroot pairs with lam to an integer."""
    return tuple(beta for beta in rs.positive_roots if pairing(rs, lam, beta).denominator == 1)


def classify(rs, lam):
    """``classify_weight`` from the rational pairings of lam + rho."""
    shifted = lam + rs.rho
    return WeightClassification(
        antidominant=all(c <= 0 for c in shifted.coords),
        dominant=all(c >= 0 for c in shifted.coords),
        regular=all(pairing(rs, shifted, beta) != 0 for beta in rs.positive_roots),
        integral=lam.is_integral,
    )


def _dot_reflect(rs, mu, beta, n: int | Fraction):
    """s_beta . mu, given n = <mu + rho, beta^vee>."""
    return Weight(
        tuple(m - n * b for m, b in zip(mu.coords, rs.root_to_weight(beta).coords))
    )


@cache
def orbit_params(block):
    """Each orbit weight with the first element of ``block.group`` to reach it."""
    first = {}
    for w in block.group:
        first.setdefault(dot_action(block.rs, w, block.base), w)
    return first


def _param_for_weight(block, mu):
    try:
        return orbit_params(block)[mu]
    except KeyError:
        raise NotInBlockOrbit(f"{mu!r} is not in the block orbit") from None


def _resolve_orbit_weight(inp):
    block = inp.block
    if inp.mu is not None:
        return inp.mu, _param_for_weight(block, inp.mu)
    mu = block.weight_of(inp.y)
    try:
        return mu, _param_for_weight(block, mu)
    except NotInBlockOrbit:
        raise NotInBlockOrbit(
            f"y = {word_text(inp.y)} lies outside the block's integral Weyl group"
        ) from None


def _weight_sum(inp):
    """The sum formula of ``inp`` through the orbit weights, for any block."""
    block = inp.block
    rs = block.rs
    mu, y_param = _resolve_orbit_weight(inp)
    pairings = _r_plus_pairings(rs, mu)
    inversions = set(b.coords for b in inp.w.inversions)

    coeffs = {}

    def bump(param, c):
        coeffs[param] = coeffs.get(param, 0) + c

    for beta, n in pairings:
        lower = _param_for_weight(block, _dot_reflect(rs, mu, beta, n))
        if beta.coords in inversions:
            bump(y_param, 1)
            bump(lower, -1)
        else:
            bump(lower, 1)
    return SumFormulaResult(
        vector=CharVector(VERMA, coeffs),
        rplus_mu=tuple(beta for beta, _ in pairings),
        rplus_w=inp.w.inversions,
    )


def outcome(evaluate, inp):
    """The result as plain data, or the message of a ``NotInBlockOrbit`` refusal."""
    try:
        got = evaluate(inp)
    except NotInBlockOrbit as exc:
        return str(exc)
    return got.vector, got.rplus_mu, got.rplus_w

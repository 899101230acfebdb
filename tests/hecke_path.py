"""The twisted sum vector through the Hecke algebra: the oracle for every twist.

On the Grothendieck group of category O the twisting functor T_s acts as
left multiplication by H_s (Andersen and Stroppel, *Twisting functors on
O*, Represent. Theory 7, 2003).  In Soergel's normalisation
H_s^2 = 1 + (v^-1 - v) H_s; at v = 1 + eps with eps^2 = 0 this reads
H_s^2 = 1 - 2 eps H_s, so

    H_s H_z = H_{sz}                  if sz > z,
    H_s H_z = H_{sz} - 2 eps H_z      if sz < z.

The algebra is that of the integral Weyl group W_lam, a reflection
subgroup of W that in general is not parabolic, in its own Coxeter
structure (Dyer, *Reflection subgroups of Coxeter systems*, J. Algebra
135, 1990; Deodhar, *A note on subgroups generated by reflections in
Coxeter groups*, Arch. Math. 53, 1989).  :class:`IntegralView` builds it:
its positive roots are the integral positive roots Phi_lam+, the
lam-length l_lam(u) of u counts u's inversions in Phi_lam+, its
generators are the reflections t_beta of beta in Phi_lam+ with
l_lam(t_beta) = 1, and w0_lam is its member of largest lam-length.  A
twist w of W projects to the one u in W_lam with the same inversions in
Phi_lam+.  For a generator t and z in W_lam, l_lam(tz) < l_lam(z) iff
l(tz) < l(z), so the rule above reads either length.  In an integral
block all of this is W itself: the generators are the simple
reflections, w0_lam is w0 and u is w.

Index M(y . lam) as H_x with x = y w0_lam and let k = |R+(mu) cap N(u)|
for mu = y . lam.  Then G = (1 + k eps) H_u H_{u^-1 x} is x at eps = 0,
and its eps part, read in the block by z -> the parameter of
(z w0_lam) . lam, is the sum vector of the twist w less that of the
untwisted module: ``sum_formula(w, y) - sum_formula(e, y)``.  Here y is
a parameter of the block, in a singular block the shortest element of
its coset; for the coset's other elements the identity fails as written.
Outside the integral blocks this checks the package's formula against
W_lam's Hecke algebra; that T_w acts so for w outside W_lam is not
claimed here.

Only public operations are used: reflections, products, lengths,
inverses and inversion sets of elements, the integral positive roots,
and the block's ``group``, ``weight_of`` and ``param_for_weight``.  No
private name of the package is read: neither the reflection table that
the sum formula's kernel walks nor the kernel itself.
"""

from functools import cache

from vermatwist import (
    VERMA,
    CharVector,
    integral_positive_roots,
    r_plus_of_weight,
    reflection_through,
)


class IntegralView:
    """W_lam of a block as a Coxeter group, from public operations."""

    def __init__(self, block):
        rs = block.rs
        positive = integral_positive_roots(rs, block.base)
        self.roots = frozenset(b.coords for b in positive)
        self.members = block.group
        self.generators = tuple(
            t for t in (reflection_through(rs, b) for b in positive) if self.length(t) == 1
        )
        self.w0 = max(self.members, key=self.length)
        self.by_inversions = {self.inversions(u): u for u in self.members}

    def inversions(self, w):
        """N(w) cut to Phi_lam+, as root coordinates."""
        return frozenset(b.coords for b in w.inversions) & self.roots

    def length(self, w):
        return len(self.inversions(w))

    def project(self, w):
        """The u in W_lam with the inversions of w in Phi_lam+."""
        return self.by_inversions[self.inversions(w)]

    def word(self, u):
        """Generators t_1, ..., t_r with u = t_1 ... t_r and r = l_lam(u)."""
        out = []
        while self.length(u):
            t = next(t for t in self.generators if self.length(t * u) < self.length(u))
            out.append(t)
            u = t * u
        return out


@cache
def integral_view(block):
    return IntegralView(block)


def left_mul(s, elt):
    """H_s times ``elt``, a dict z -> (a, b) standing for the sum of (a + b eps) H_z."""
    out = {}

    def add(z, a, b):
        a0, b0 = out.get(z, (0, 0))
        out[z] = (a0 + a, b0 + b)

    for z, (a, b) in elt.items():
        sz = s * z
        add(sz, a, b)
        if sz.length < z.length:
            # the eps part of H_s^2; eps times b vanishes
            add(z, 0, -2 * a)
    return out


def graded_character(block, w, y):
    """G = (1 + k eps) H_u H_{u^-1 x}, as a dict z -> (a, b) with no zero entries."""
    view = integral_view(block)
    u = view.project(w)
    x = y * view.w0
    inversions = view.inversions(u)
    k = sum(b.coords in inversions for b in r_plus_of_weight(block, block.weight_of(y)))
    elt = {u.inverse() * x: (1, 0)}
    for t in reversed(view.word(u)):
        elt = left_mul(t, elt)
    return {z: (a, b + k * a) for z, (a, b) in elt.items() if (a, b + k * a) != (0, 0)}


def twist_difference(block, w, y):
    """The eps part of G in the block's Verma basis, and G at eps = 0 as a dict."""
    w0 = integral_view(block).w0
    g = graded_character(block, w, y)
    coeffs = {}
    for z, (_, b) in g.items():
        if b:
            param = block.param_for_weight(block.weight_of(z * w0))
            coeffs[param] = coeffs.get(param, 0) + b
    return CharVector(VERMA, coeffs), {z: a for z, (a, _) in g.items() if a}

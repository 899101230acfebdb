"""The twisted sum vector through the Hecke algebra: the oracle for every twist.

On the Grothendieck group of category O the twisting functor T_s acts as
left multiplication by H_s (Andersen and Stroppel, *Twisting functors on
O*, Represent. Theory 7, 2003).  In Soergel's normalisation
H_s^2 = 1 + (v^-1 - v) H_s; at v = 1 + eps with eps^2 = 0 this reads
H_s^2 = 1 - 2 eps H_s, so

    H_s H_z = H_{sz}                  if sz > z,
    H_s H_z = H_{sz} - 2 eps H_z      if sz < z.

Index M(y . lam) as H_x with x = y w0 and let k = |R+(mu) cap R+(w)| for
mu = y . lam.  Then G = (1 + k eps) H_w H_{w^-1 x} is x at eps = 0, and
its eps part, read in the block by z -> the parameter of (z w0) . lam, is
the sum vector of the twist w less that of the untwisted module:
``sum_formula(w, y) - sum_formula(e, y)``.  Here y is a parameter of the
block, in a singular block the shortest element of its coset; for the
coset's other elements the identity fails as written.

Only public operations are used: simple reflections, products, lengths,
inverses, words and inversion sets of elements, and the block's
``weight_of`` and ``param_for_weight``.  No private name of the package
is read: neither the reflection table that the sum formula's kernel
walks nor the kernel itself.
"""

from vermatwist import (
    VERMA,
    CharVector,
    longest_element,
    r_plus_of_weight,
    simple_reflection,
)


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
    """G = (1 + k eps) H_w H_{w^-1 x}, as a dict z -> (a, b) with no zero entries."""
    rs = block.rs
    x = y * longest_element(rs)
    inversions = {b.coords for b in w.inversions}
    k = sum(b.coords in inversions for b in r_plus_of_weight(block, block.weight_of(y)))
    elt = {w.inverse() * x: (1, 0)}
    for i in reversed(w.word):
        elt = left_mul(simple_reflection(rs, i), elt)
    return {z: (a, b + k * a) for z, (a, b) in elt.items() if (a, b + k * a) != (0, 0)}


def twist_difference(block, w, y):
    """The eps part of G in the block's Verma basis, and G at eps = 0 as a dict."""
    w0 = longest_element(block.rs)
    g = graded_character(block, w, y)
    coeffs = {}
    for z, (_, b) in g.items():
        if b:
            param = block.param_for_weight(block.weight_of(z * w0))
            coeffs[param] = coeffs.get(param, 0) + b
    return CharVector(VERMA, coeffs), {z: a for z, (a, _) in g.items() if a}

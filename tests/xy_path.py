"""The two-letter form of the sum formula, evaluated as it is written: the
oracle for ``sum_formula_xy``.

For parameters written as a product x * y in a regular integral block,
walk R+(xy), reflect mu = xy . lam through each root by its reflection
matrix and the dot action, map the weight to its parameter, and split on
membership in R+(x): outside R+(x), add ch M(xy . lam) - ch M(s_beta xy . lam);
inside, add ch M(s_beta xy . lam).  The twist's inversion set is taken as
the complement of R+(x) in R+, with no product by w0.
"""

from vermatwist import (
    VERMA,
    CharVector,
    SumFormulaResult,
    dot_action,
    reflection_through,
)


def xy_sum(block, x, y):
    """The two-letter form at (x, y) in a regular integral block."""
    rs = block.rs
    xy = x * y
    mu = block.weight_of(xy)
    x_inversions = {b.coords for b in x.inversions}

    coeffs = {}

    def bump(param, c):
        coeffs[param] = coeffs.get(param, 0) + c

    for beta in xy.inversions:
        lower = block.param_for_weight(dot_action(rs, reflection_through(rs, beta), mu))
        if beta.coords not in x_inversions:
            bump(xy, 1)
            bump(lower, -1)
        else:
            bump(lower, 1)
    return SumFormulaResult(
        vector=CharVector(VERMA, coeffs),
        rplus_mu=xy.inversions,
        rplus_w=tuple(b for b in rs.positive_roots if b.coords not in x_inversions),
    )

"""Change of basis and layer extraction on dense rows: the oracle for the sparse path.

``change_basis`` and ``layers_multiplicity_free`` read a decomposition
matrix through the nonzero entries of its rows and inverse rows, kept
once per matrix, and the layer table is computed on table indices from
the sum formula's integer counts.  This module does the same work the
way it was first written, on the public data only: it zips every dense
row of ``rows`` or ``inverse_rows`` with the parameters, takes the sum
formula's public result to the simple basis through that walk, and reads
the depths off the dense row of y.  Its refusals come in the same order:
a multiplicity above 1 in the row of y, then the first factor in
parameter order that the sum vector hits outside the composition
series, then a negative depth.
"""

from vermatwist import (
    SIMPLE,
    VERMA,
    BadDecompositionFile,
    CharVector,
    LayerTable,
    NotMultiplicityFree,
    sum_formula,
    word_text,
)


def change_basis(dm, v, to):
    """``v`` in the basis ``to``, through the dense rows of ``dm`` or of its inverse."""
    if v.basis == to:
        return CharVector(to, dict(v.items()))
    rows = dm.rows if v.basis == VERMA else dm.inverse_rows
    position = {w: i for i, w in enumerate(dm.params)}
    out = {}
    for y, c in v.items():
        for x, m in zip(dm.params, rows[position[y]]):
            if m:
                out[x] = out.get(x, 0) + c * m
    return CharVector(to, out)


def layer_table(inp, dm):
    """The layer table of the module ``inp``, whose ``y`` is a parameter of
    a regular integral block, with the decomposition matrix ``dm``."""
    y = inp.y
    support = []
    for x, c in zip(dm.params, dm.rows[dm.params.index(y)]):
        if c == 0:
            continue
        if c > 1:
            raise NotMultiplicityFree(
                f"factor {word_text(x)} occurs {c} times in the Verma module of {word_text(y)}"
            )
        support.append(x)
    simple = change_basis(dm, sum_formula(inp).vector, SIMPLE)
    for x in simple.support():
        if x not in support:
            raise BadDecompositionFile(
                f"sum formula hit {word_text(x)} outside the composition series"
            )
    depths = {x: simple.coeff(x) for x in support}
    if any(d < 0 for d in depths.values()):
        raise BadDecompositionFile("negative filtration depth")
    return LayerTable(layers=depths, zero_top=all(d > 0 for d in depths.values()))

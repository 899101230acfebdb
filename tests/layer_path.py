"""Change of basis and layer extraction on dense rows: the oracle for the sparse path.

``change_basis`` and ``layers_multiplicity_free`` read a decomposition
matrix through the nonzero entries of its rows, kept once per matrix:
Verma to simple sums them, and simple to Verma is a triangular solve on
them.  The layer table is computed on table indices from the sum
formula's integer counts.  This module does the same work the way it was
first written, on the public data only: it inverts ``rows`` by back
substitution, zips every dense row of ``rows`` or of that inverse with
the parameters, takes the sum formula's public result to the simple
basis through that walk, and reads the depths off the dense row of y.
It never reads ``inverse_rows``, which comes from the solve it checks.
Its refusals come in the same order:
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


def inverse_rows(dm):
    """The exact inverse of ``dm.rows`` by back substitution on the
    unitriangular rows."""
    n = len(dm.params)
    inv = []
    for i in range(n):
        row = [0] * n
        row[i] = 1
        for k in range(i):
            c = dm.rows[i][k]
            if c:
                for j in range(k + 1):
                    row[j] -= c * inv[k][j]
        inv.append(row)
    return tuple(tuple(r) for r in inv)


def change_basis(dm, v, to):
    """``v`` in the basis ``to``, through the dense rows of ``dm`` or of its inverse."""
    if v.basis == to:
        return CharVector(to, dict(v.items()))
    rows = dm.rows if v.basis == VERMA else inverse_rows(dm)
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

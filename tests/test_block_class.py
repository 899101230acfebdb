"""The regular integral class of a root system, shared by its blocks.

Every regular integral block of a root system reads its members, its kept
sum formula terms and its built-in decomposition matrix off one object,
built with the first such block.  Blocks of several regular integral
weights are built here between singular and nonintegral ones, on fresh
root systems, so the class starts empty; their sum vectors and layer
tables are checked against the two-letter oracle (``xy_path.py``) and the
dense layer oracle (``layer_path.py``), the last block built read first,
so every other block reads terms its class kept for another.  Singular
and nonintegral blocks keep their own members, and reading their sum
formulas leaves the shared class as it was.
"""

import time
from fractions import Fraction

from vermatwist import (
    CARTAN_BY_LABEL,
    SumFormulaInput,
    decomposition_matrix,
    layers_multiplicity_free,
    longest_element,
    make_block,
    sum_formula,
    weight,
)
from vermatwist.rootsystem import RootSystem
import layer_path
import xy_path
from weight_path import _weight_sum

# per root system, in build order: regular blocks between singular and
# nonintegral ones
BLOCKS = {
    "A2": [(-2, -2), (-1, -3), (-3, -5), (Fraction(-1, 2), -2), (-7, -2)],
    "B2": [(-2, -2), (-2, -1), (-3, -4), (-2, Fraction(-1, 2)), (-5, -2), (-1, -1)],
    "G2": [(-2, -3), (-1, -2), (-4, -2), (-2, -1), (Fraction(-1, 2), -2), (-3, -3)],
    "A3": [(-1, -2, -2), (-2, -2, -2), (Fraction(-1, 2), -2, -2), (-3, -2, -4)],
}


def test_regular_blocks_share_one_class():
    start = time.perf_counter()
    for label, lams in BLOCKS.items():
        rs = RootSystem(CARTAN_BY_LABEL[label], label)
        assert rs._regular_class is None
        blocks = [make_block(rs, weight(*lam)) for lam in lams]
        regular = [b for b in blocks if b.regular and b.integral]
        others = [b for b in blocks if not (b.regular and b.integral)]
        assert len(regular) >= 2 and others
        shared = rs._regular_class
        assert shared is regular[0]._class
        w0 = longest_element(rs)
        group = shared.group
        assert shared.params == group and shared._param_set == frozenset(group)
        for block in regular:
            assert block._class is shared
            assert block.params is shared.params and block.group is shared.group
            assert block._param_of is shared._param_of
            assert block._terms is shared._terms
            if rs.rank <= 2:
                assert decomposition_matrix(block) is decomposition_matrix(regular[0])
        assert shared._terms == {}
        for block in reversed(regular):
            dm = decomposition_matrix(block) if rs.rank <= 2 else None
            for y in block.params:
                for w in group:
                    inp = SumFormulaInput(block, w, y)
                    x = w * w0
                    want = xy_path.xy_sum(block, x, x.inverse() * y)
                    assert sum_formula(inp).vector == want.vector
                    if dm is not None:
                        assert layers_multiplicity_free(inp) == layer_path.layer_table(inp, dm)
        assert len(shared._terms) == len(group)

        # the others keep their own members and terms
        kept = {k: (dict(terms), list(at)) for k, (terms, at) in shared._terms.items()}
        param_of, matrix = list(shared._param_of), shared._matrix
        for block in others:
            assert block._class is not shared and block._terms is not shared._terms
            for y in block.params:
                for w in group:
                    inp = SumFormulaInput(block, w, y)
                    assert sum_formula(inp).vector == _weight_sum(inp).vector
        assert {k: (dict(terms), list(at)) for k, (terms, at) in shared._terms.items()} == kept
        assert shared._param_of == param_of and shared._matrix is matrix
        assert rs._regular_class is shared
    # G2's singular blocks on the two walls have their own parameters
    rs = RootSystem(CARTAN_BY_LABEL["G2"], "G2")
    short, long = make_block(rs, weight(-1, -2)), make_block(rs, weight(-2, -1))
    assert short._param_of != long._param_of and short.params != long.params
    assert rs._regular_class is None
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"the shared class checks took {elapsed:.2f}s, budget is 10s"

"""The block classes of a root system, one per stabilizer and integral roots.

A block's members and its kept sum formula terms depend on two masks
alone: the positive roots that fix lam + rho and the integral ones.  So
every block of a root system with the same pair reads them, and regular
integral ones the built-in decomposition matrix too, off one object, built
with the first such block.  Here regular, singular and nonintegral blocks
are built in turn on fresh root systems, so every class starts empty; the
pairs are read off the rational pairings, not the block.  Blocks with one
pair must share their class, parameters and terms by identity, and blocks
with different pairs must not.  Their sum vectors are then checked against
the weight oracle (``weight_path.py``) and, in regular integral blocks, the
two-letter oracle (``xy_path.py``) and the dense layer oracle
(``layer_path.py``), the last block built read first, so every other block
reads terms its class kept for another lam.
"""

import time
from fractions import Fraction

from vermatwist import (
    CARTAN_BY_LABEL,
    SumFormulaInput,
    all_elements,
    decomposition_matrix,
    layers_multiplicity_free,
    longest_element,
    make_block,
    pairing,
    sum_formula,
    weight,
)
from vermatwist.rootsystem import RootSystem
import layer_path
import xy_path
from weight_path import _weight_sum, integral_roots

# per root system, in build order: regular integral, singular and
# nonintegral blocks in turn, each pair of the kinds given at least twice
BLOCKS = {
    "A2": [(-2, -2), (-1, -3), (Fraction(-1, 2), -2), (-3, -5), (-1, -5),
           (Fraction(-3, 2), -4), (-7, -2)],
    "B2": [(-2, -2), (-2, -1), (-2, Fraction(-1, 2)), (-3, -4), (-4, Fraction(-1, 2)),
           (-3, -1), (-1, -1), (-3, Fraction(-3, 2)), (-5, -2), (-4, Fraction(1, 2))],
    "G2": [(-2, -3), (-1, -2), (Fraction(-1, 2), -2), (-4, -2), (-2, -1), (-1, -4),
           (Fraction(-3, 2), -3), (-3, -3), (-3, -1)],
    "A3": [(-1, -2, -2), (-2, -2, -2), (Fraction(-1, 2), -2, -2), (-1, -3, -2),
           (-3, -2, -4), (Fraction(-3, 2), -3, -2)],
}


def _key(rs, lam):
    """The roots that fix lam + rho and the integral roots, by coordinates."""
    shifted = lam + rs.rho
    fixing = frozenset(b.coords for b in rs.positive_roots if pairing(rs, shifted, b) == 0)
    return fixing, frozenset(b.coords for b in integral_roots(rs, lam))


def test_blocks_with_one_stabilizer_and_integral_roots_share_one_class():
    start = time.perf_counter()
    for label, lams in BLOCKS.items():
        rs = RootSystem(CARTAN_BY_LABEL[label], label)
        assert rs._block_classes == {}
        blocks = [make_block(rs, weight(*lam)) for lam in lams]
        groups = {}
        for lam, block in zip(lams, blocks):
            groups.setdefault(_key(rs, weight(*lam)), []).append(block)
        kinds = {(b.regular, b.integral) for bs in groups.values() if len(bs) > 1 for b in bs}
        assert {(True, True), (False, True), (True, False)} <= kinds
        assert len(rs._block_classes) == len(groups)
        classes = {id(bs[0]._class) for bs in groups.values()}
        assert len(classes) == len(groups)
        for bs in groups.values():
            first = bs[0]._class
            assert first._terms == {}
            for block in bs:
                assert block._class is first
                assert block.params is first.params and block.group is first.group
                assert block._param_of is first._param_of
                assert block._terms is first._terms
        regular = [b for b in blocks if b.regular and b.integral]
        if rs.rank <= 2:
            assert all(decomposition_matrix(b) is decomposition_matrix(regular[0]) for b in regular)

        w0 = longest_element(rs)
        twists = all_elements(rs)
        for block in reversed(blocks):
            dm = decomposition_matrix(block) if block in regular and rs.rank <= 2 else None
            for y in block.params:
                for w in twists:
                    inp = SumFormulaInput(block, w, y)
                    if block in regular:
                        x = w * w0
                        want = xy_path.xy_sum(block, x, x.inverse() * y)
                    else:
                        want = _weight_sum(inp)
                    assert sum_formula(inp).vector == want.vector
                    if dm is not None:
                        assert layers_multiplicity_free(inp) == layer_path.layer_table(inp, dm)
        for members in rs._block_classes.values():
            assert sorted(members._terms) == sorted(y._k for y in members.params)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"the shared class checks took {elapsed:.2f}s, budget is 10s"


def test_blocks_on_different_walls_do_not_share():
    # G2's singular blocks on the short and the long wall
    rs = RootSystem(CARTAN_BY_LABEL["G2"], "G2")
    short, long = make_block(rs, weight(-1, -2)), make_block(rs, weight(-2, -1))
    assert _key(rs, short.base) != _key(rs, long.base)
    assert short._class is not long._class and short._terms is not long._terms
    assert short._param_of != long._param_of and short.params != long.params
    assert len(rs._block_classes) == 2

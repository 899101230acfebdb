"""Sum formula and layer extraction, pinned against hand-computed tables.

Every expected vector and table in this file was worked out by hand from
the formula in the module docstring: walk R+(mu), reflect mu through each
root, and split the contribution on membership in R+(w).  The B2 block
through (-2, -2) is small enough to do that exhaustively.
"""

import pytest
from fractions import Fraction

from vermatwist import (
    BadDecompositionFile,
    CharVector,
    DecompositionMatrix,
    LayerTable,
    MixedRootSystems,
    NotInBlockOrbit,
    NotMultiplicityFree,
    SumFormulaInput,
    UnsupportedBlock,
    VERMA,
    all_elements,
    build_root_system,
    bruhat_leq,
    check_xy_consistency,
    decomposition_matrix,
    duality_partner,
    element_from_word,
    layers_multiplicity_free,
    longest_element,
    make_block,
    parse_word_text,
    r_plus_of_weight,
    sum_formula,
    sum_formula_xy,
    unit_vector,
    weight,
    word_text,
)
from hecke_path import integral_view, twist_difference
from xy_path import xy_sum


def block_of(label, *coords):
    rs = build_root_system(label)
    return make_block(rs, weight(*coords))


def el(block, text):
    return element_from_word(block.rs, parse_word_text(block.rs, text))


def vec(block, **named):
    rs = block.rs
    return CharVector(
        VERMA,
        {element_from_word(rs, parse_word_text(rs, k)): v for k, v in named.items()},
    )


def run(block, w_text, y_text):
    return sum_formula(
        SumFormulaInput(block=block, w=el(block, w_text), y=el(block, y_text))
    )


def name(x):
    text = word_text(x)
    return "w0" if text == "stst" else text


def table(block, w_text, y_text):
    t = layers_multiplicity_free(
        SumFormulaInput(block=block, w=el(block, w_text), y=el(block, y_text))
    )
    return {name(x): d for x, d in t.layers.items()}, t.zero_top


B2 = block_of("B2", -2, -2)


def test_frozen_sum_vectors_b2():
    assert run(B2, "e", "w0").vector == vec(B2, s=1, t=1, sts=1, tst=1)
    assert run(B2, "st", "sts").vector == vec(B2, sts=2, ts=-1, e=-1, st=1)
    assert run(B2, "s", "w0").vector == vec(B2, w0=1, tst=-1, sts=1, s=1, t=1)
    assert run(B2, "s", "st").vector == vec(B2, st=1, t=-1, s=1)
    assert run(B2, "t", "ts").vector == vec(B2, ts=1, s=-1, t=1)
    assert run(B2, "s", "sts").vector == vec(B2, sts=1, ts=-1, st=1, e=1)
    assert run(B2, "t", "w0").vector == vec(B2, tst=1, w0=1, sts=-1, s=1, t=1)
    assert run(B2, "st", "w0").vector == vec(B2, w0=2, tst=-1, sts=1, s=1, t=-1)
    assert run(B2, "e", "sts").vector == vec(B2, ts=1, st=1, e=1)
    assert run(B2, "e", "e").vector == CharVector(VERMA)


def test_frozen_sum_vectors_y_t_box():
    # across the eight twists only two distinct vectors appear for y = t
    for w in ("e", "s", "st", "sts"):
        assert run(B2, w, "t").vector == vec(B2, e=1), w
    for w in ("t", "ts", "tst", "w0"):
        assert run(B2, w, "t").vector == vec(B2, t=1, e=-1), w


def test_sum_formula_mu_route_matches_y_route():
    y = el(B2, "sts")
    mu = B2.weight_of(y)
    via_mu = sum_formula(SumFormulaInput(block=B2, w=el(B2, "st"), mu=mu))
    via_y = run(B2, "st", "sts")
    assert via_mu.vector == via_y.vector
    assert via_mu.rplus_mu == via_y.rplus_mu


def test_sum_formula_input_validation():
    y = el(B2, "s")
    with pytest.raises(ValueError):
        SumFormulaInput(block=B2, w=el(B2, "e"))
    with pytest.raises(ValueError):
        SumFormulaInput(block=B2, w=el(B2, "e"), y=y, mu=B2.weight_of(y))
    other = build_root_system("A2")
    with pytest.raises(MixedRootSystems):
        SumFormulaInput(block=B2, w=element_from_word(other, (1,)), y=y)
    # arguments that are no element or weight are refused with the same
    # classes, in the same order: the twist, then the parameter
    for bad in (None, 5, "s", y.word):
        with pytest.raises(MixedRootSystems, match="^twist does not belong"):
            SumFormulaInput(B2, bad, y=y)
        with pytest.raises(MixedRootSystems, match="^twist does not belong"):
            SumFormulaInput(B2, bad, y=bad or 5)
        if bad is not None:
            with pytest.raises(MixedRootSystems, match="^parameter does not belong"):
                SumFormulaInput(B2, y, y=bad)
    for bad in (5, "s", (-2, -2), B2):
        with pytest.raises(NotInBlockOrbit, match="^mu = .* is not a Weight$"):
            SumFormulaInput(B2, y, mu=bad)
    with pytest.raises(ValueError, match="^give exactly one"):
        SumFormulaInput(B2, None)


@pytest.mark.parametrize("position", ["twist", "parameter"])
def test_an_object_with_the_blocks_root_system_is_no_element(position):
    # the block carries B2's rs but is no element, so the constructor
    # refuses it in the position where it stands, the twist before the
    # parameter, before any route to the sum vector is taken
    y = el(B2, "s")
    if position == "twist":
        builds = [lambda: SumFormulaInput(B2, B2, y=y),
                  lambda: SumFormulaInput(B2, B2, mu=B2.weight_of(y)),
                  lambda: SumFormulaInput(B2, B2, y=B2)]
    else:
        builds = [lambda: SumFormulaInput(B2, y, y=B2)]
    message = f"^{position} does not belong to the block's root system$"
    for build in builds:
        with pytest.raises(MixedRootSystems, match=message):
            build()


def test_r_plus_of_parameter_weights_matches_inversions():
    # in a regular integral block R+(y . lambda) is the inversion set of y
    for y in B2.params:
        got = set(r_plus_of_weight(B2, B2.weight_of(y)))
        assert got == set(y.inversions), word_text(y)


FROZEN_TABLES = [
    # (w set, y, layers, zero_top)
    (("e", "s", "t", "st", "ts", "sts", "tst", "w0"), "e", {"e": 0}, False),
    (("e", "t", "ts", "tst"), "s", {"s": 0, "e": 1}, False),
    (("s", "st", "sts", "w0"), "s", {"e": 0, "s": 1}, False),
    (("e", "s", "st", "sts"), "t", {"t": 0, "e": 1}, False),
    (("t", "ts", "tst", "w0"), "t", {"e": 0, "t": 1}, False),
    (("e", "t", "ts"), "st", {"st": 0, "s": 1, "t": 1, "e": 2}, False),
    (("s",), "st", {"t": 0, "e": 1, "st": 1, "s": 2}, False),
    (("st", "sts", "w0"), "st", {"e": 0, "s": 1, "t": 1, "st": 2}, False),
    (("tst",), "st", {"s": 0, "e": 1, "st": 1, "t": 2}, False),
    (("e", "s", "st"), "ts", {"ts": 0, "s": 1, "t": 1, "e": 2}, False),
    (("t",), "ts", {"s": 0, "e": 1, "ts": 1, "t": 2}, False),
    (("ts", "tst", "w0"), "ts", {"e": 0, "s": 1, "t": 1, "ts": 2}, False),
    (("sts",), "ts", {"t": 0, "e": 1, "ts": 1, "s": 2}, False),
    (("e", "t"), "sts", {"sts": 0, "st": 1, "ts": 1, "s": 2, "t": 2, "e": 3}, False),
    (("s",), "sts", {"ts": 0, "s": 1, "t": 1, "sts": 1, "e": 2, "st": 2}, False),
    (("st",), "sts", {"e": 1, "ts": 1, "s": 2, "t": 2, "sts": 2, "st": 3}, True),
    (("ts",), "sts", {"st": 0, "s": 1, "t": 1, "sts": 1, "e": 2, "ts": 2}, False),
    (("sts", "w0"), "sts", {"e": 0, "s": 1, "t": 1, "st": 2, "ts": 2, "sts": 3}, False),
    (("tst",), "sts", {"e": 1, "st": 1, "s": 2, "t": 2, "sts": 2, "ts": 3}, True),
    (("e", "s"), "tst", {"tst": 0, "st": 1, "ts": 1, "s": 2, "t": 2, "e": 3}, False),
    (("t",), "tst", {"st": 0, "s": 1, "t": 1, "tst": 1, "e": 2, "ts": 2}, False),
    (("st",), "tst", {"ts": 0, "s": 1, "t": 1, "tst": 1, "e": 2, "st": 2}, False),
    (("ts",), "tst", {"e": 1, "st": 1, "s": 2, "t": 2, "tst": 2, "ts": 3}, True),
    (("sts",), "tst", {"e": 1, "ts": 1, "s": 2, "t": 2, "tst": 2, "st": 3}, True),
    (("tst", "w0"), "tst", {"e": 0, "s": 1, "t": 1, "st": 2, "ts": 2, "tst": 3}, False),
    (
        ("e",),
        "w0",
        {"w0": 0, "sts": 1, "tst": 1, "st": 2, "ts": 2, "s": 3, "t": 3, "e": 4},
        False,
    ),
    (
        ("s",),
        "w0",
        {"tst": 0, "st": 1, "ts": 1, "w0": 1, "s": 2, "t": 2, "sts": 2, "e": 3},
        False,
    ),
    (
        ("t",),
        "w0",
        {"sts": 0, "st": 1, "ts": 1, "w0": 1, "s": 2, "t": 2, "tst": 2, "e": 3},
        False,
    ),
    (
        ("st",),
        "w0",
        {"t": 1, "tst": 1, "e": 2, "st": 2, "ts": 2, "w0": 2, "s": 3, "sts": 3},
        True,
    ),
    (
        ("ts",),
        "w0",
        {"s": 1, "sts": 1, "e": 2, "st": 2, "ts": 2, "w0": 2, "t": 3, "tst": 3},
        True,
    ),
    (
        ("sts",),
        "w0",
        {"e": 1, "s": 2, "t": 2, "tst": 2, "st": 3, "ts": 3, "w0": 3, "sts": 4},
        True,
    ),
    (
        ("tst",),
        "w0",
        {"e": 1, "s": 2, "t": 2, "sts": 2, "st": 3, "ts": 3, "w0": 3, "tst": 4},
        True,
    ),
    (
        ("w0",),
        "w0",
        {"e": 0, "s": 1, "t": 1, "st": 2, "ts": 2, "sts": 3, "tst": 3, "w0": 4},
        False,
    ),
]


def test_frozen_layer_tables_cover_all_64_pairs():
    seen = set()
    for ws, y, expected, zero_top in FROZEN_TABLES:
        for w in ws:
            got, got_zero = table(B2, w, y)
            assert got == expected, (w, y)
            assert got_zero == zero_top, (w, y)
            seen.add((w, y))
    assert len(seen) == 64


def test_zero_top_set():
    zero_top_pairs = set()
    for w in B2.params:
        for y in B2.params:
            t = layers_multiplicity_free(SumFormulaInput(block=B2, w=w, y=y))
            if t.zero_top:
                zero_top_pairs.add((word_text(w), word_text(y)))
    assert zero_top_pairs == {
        ("st", "sts"),
        ("tst", "sts"),
        ("ts", "tst"),
        ("sts", "tst"),
        ("st", "stst"),
        ("ts", "stst"),
        ("sts", "stst"),
        ("tst", "stst"),
    }


def test_classical_specialization():
    # at w = e the formula must agree with the classical one, recomputed
    # here directly from reflections
    from vermatwist import dot_action, reflection_through

    for label, coords in (("A1", (-2,)), ("A2", (-2, -2)), ("B2", (-2, -2)), ("G2", (-2, -2))):
        block = block_of(label, *coords)
        rs = block.rs
        e = block.params[0]
        for y in block.params:
            mu = block.weight_of(y)
            expected = CharVector(VERMA)
            for beta in r_plus_of_weight(block, mu):
                reflected = dot_action(rs, reflection_through(rs, beta), mu)
                expected = expected + unit_vector(VERMA, block.param_for_weight(reflected))
            got = sum_formula(SumFormulaInput(block=block, w=e, y=y)).vector
            assert got == expected, (label, word_text(y))


def test_complementarity_identity():
    # twisting by w and by w*w0 splits |R+(mu)| copies of ch M(y . lam)
    for label, coords in (("A1", (-2,)), ("A2", (-2, -2)), ("B2", (-2, -2)), ("G2", (-2, -2))):
        block = block_of(label, *coords)
        w0 = longest_element(block.rs)
        for w in block.params:
            for y in block.params:
                a = sum_formula(SumFormulaInput(block=block, w=w, y=y))
                b = sum_formula(SumFormulaInput(block=block, w=w * w0, y=y))
                total = a.vector + b.vector
                n = len(a.rplus_mu)
                assert total == n * unit_vector(VERMA, y), (label, word_text(w), word_text(y))


def test_layer_tables_well_formed_across_types():
    for label, coords in (("A1", (-2,)), ("A2", (-2, -2)), ("B2", (-2, -2)), ("G2", (-2, -2))):
        block = block_of(label, *coords)
        n_pos = len(block.rs.positive_roots)
        for w in block.params:
            for y in block.params:
                t = layers_multiplicity_free(SumFormulaInput(block=block, w=w, y=y))
                assert set(t.layers) == {x for x in block.params if bruhat_leq(x, y)}
                assert all(0 <= d <= n_pos for d in t.layers.values())
                rows = t.by_depth()
                assert sum(len(r) for r in rows) == len(t.layers)


def test_by_depth_drops_negative_depths():
    # a hand-built table: only depths 0, 1, ... have rows, and row 0 is always there
    e, s = B2.params[:2]
    assert LayerTable({e: -1}, False).by_depth() == ((),)
    assert LayerTable({e: -1, s: 1}, True).by_depth() == ((), (s,))


def test_untwisted_top_is_always_visible():
    # w = e gives the classical filtration: y itself sits at depth 0
    for y in B2.params:
        t = layers_multiplicity_free(SumFormulaInput(block=B2, w=B2.params[0], y=y))
        assert t.depth_of(y) == 0
        assert not t.zero_top


def test_xy_form_frozen_example():
    x = el(B2, "st")
    y = el(B2, "s")
    result = sum_formula_xy(B2, x, y)
    assert result.vector == vec(B2, sts=1, st=-1, ts=1, e=1)
    assert result == xy_sum(B2, x, y)


REGULAR = (("A2", (-2, -2)), ("B2", (-2, -2)), ("G2", (-2, -2)), ("A3", (-2, -2, -2)))


def test_xy_consistency_all_pairs():
    # the whole result against the two-letter form written out: the
    # vector, R+(mu) = R+(xy) and R+(w) = R+(x w0)
    for label, coords in REGULAR:
        block = block_of(label, *coords)
        for x in block.params:
            for y in block.params:
                where = (label, word_text(x), word_text(y))
                assert sum_formula_xy(block, x, y) == xy_sum(block, x, y), where
                assert check_xy_consistency(block, x, y), where


def test_xy_form_needs_regular_integral():
    rs = build_root_system("B2")
    singular = make_block(rs, weight(-1, -2))
    e = element_from_word(rs, ())
    with pytest.raises(UnsupportedBlock, match="^the two-letter form needs a regular integral block$"):
        sum_formula_xy(singular, e, e)
    # the check goes through the same rewrite, so it refuses what the rewrite
    # refuses, in a nonintegral block too, before any evaluation
    s = element_from_word(rs, (1,))
    for block in (singular, make_block(rs, weight(Fraction(-5, 2), -2))):
        with pytest.raises(UnsupportedBlock, match="^the two-letter form needs"):
            check_xy_consistency(block, s, s)
    # the block is refused before the elements' root system
    foreign = element_from_word(build_root_system("A2"), ())
    with pytest.raises(UnsupportedBlock):
        sum_formula_xy(singular, foreign, e)
    message = "^elements do not belong to the block's root system$"
    for x, y in ((foreign, e), (e, foreign)):
        with pytest.raises(MixedRootSystems, match=message):
            sum_formula_xy(B2, x, y)
    # arguments that are no element, the block itself included
    for bad in (None, 5, "s", B2):
        for x, y in ((bad, e), (e, bad)):
            with pytest.raises(MixedRootSystems, match=message):
                sum_formula_xy(B2, x, y)
            with pytest.raises(MixedRootSystems, match=message):
                check_xy_consistency(B2, x, y)


def test_xy_form_is_one_sum_formula_evaluation(monkeypatch):
    from vermatwist import jantzen

    calls = []
    real = jantzen._sum_counts

    def counted(inp):
        calls.append(inp)
        return real(inp)

    monkeypatch.setattr(jantzen, "_sum_counts", counted)
    sum_formula_xy(B2, el(B2, "st"), el(B2, "s"))
    assert [(word_text(inp.w), word_text(inp.y)) for inp in calls] == [("ts", "sts")]


def test_twisting_functors_give_every_twisted_sum_vector():
    # G = (1 + k eps) H_u H_{u^-1 x} in the Hecke algebra of W_lambda at
    # v = 1 + eps is x at eps = 0, and its eps part is the twisted sum
    # vector less the untwisted one (hecke_path.py); y runs over the
    # block's parameters, the shortest elements of their cosets in a
    # singular block, and w over all of W
    half, third = Fraction(-1, 2), Fraction(-4, 3)
    blocks = REGULAR + (
        ("A2", (-1, -2)),
        ("B2", (-1, -2)),
        ("B2", (-2, -1)),
        ("G2", (-1, -2)),
        ("A3", (-1, -2, -2)),
        ("A3", (-2, -1, -2)),
        ("B2", (half, -2)),
        ("G2", (half, -2)),
        ("G2", (third, third)),
        ("A3", (half, -2, half)),
        # W_lambda does not hold W's w0 here
        ("C3", (half, -2, -2)),
    )
    for label, coords in blocks:
        block = block_of(label, *coords)
        w0 = integral_view(block).w0
        e = el(block, "e")
        for y in block.params:
            untwisted = sum_formula(SumFormulaInput(block=block, w=e, y=y)).vector
            for w in all_elements(block.rs):
                difference, at_zero = twist_difference(block, w, y)
                twisted = sum_formula(SumFormulaInput(block=block, w=w, y=y)).vector
                where = (label, coords, word_text(w), word_text(y))
                assert at_zero == {y * w0: 1}, where
                assert difference == twisted - untwisted, where


def test_hecke_oracle_reads_no_private_name():
    # the oracle shares no code with the kernel or the tables it walks
    import ast
    import hecke_path
    from pathlib import Path

    tree = ast.parse(Path(hecke_path.__file__).read_text())
    names = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    names += [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names]
    assert [n for n in names if n.startswith("_")] == []


def test_sum_formula_singular_block():
    # a singular antidominant base: the Verma module at the base weight
    # is simple, so the formula returns zero there
    rs = build_root_system("A1")
    block = make_block(rs, weight(-1))
    e = element_from_word(rs, ())
    result = sum_formula(SumFormulaInput(block=block, w=e, y=e))
    assert result.vector.is_zero
    assert result.rplus_mu == ()


def test_sum_formula_singular_b2_merges_parameters():
    rs = build_root_system("B2")
    block = make_block(rs, weight(-1, -2))
    top = block.params[-1]
    result = sum_formula(SumFormulaInput(block=block, w=block.params[0], y=top))
    # contributions land on block parameters, never on other elements
    for x in result.vector.support():
        assert block.contains_param(x)
    assert not result.vector.is_zero


def test_sum_formula_nonintegral_block():
    rs = build_root_system("B2")
    block = make_block(rs, weight(Fraction(-5, 2), -2))
    e, t = block.params
    result = sum_formula(SumFormulaInput(block=block, w=e, y=t))
    assert result.vector == unit_vector(VERMA, e)
    assert [b.coords for b in result.rplus_mu] == [(0, 1)]


def test_layers_refuse_singular_and_nonintegral():
    rs = build_root_system("B2")
    for coords in ((-1, -2), (Fraction(-5, 2), -2)):
        block = make_block(rs, weight(*coords))
        e = block.params[0]
        with pytest.raises(UnsupportedBlock):
            layers_multiplicity_free(SumFormulaInput(block=block, w=e, y=e))


def test_layers_with_multiplicity_raise():
    # synthetic decomposition data with a double factor: the extractor
    # must refuse rather than divide depths between the two copies
    dm = decomposition_matrix(B2)
    rows = [list(r) for r in dm.rows]
    rows[7][1] = 2  # pretend L(s) occurs twice in the big Verma module
    fake = DecompositionMatrix(dm.params, tuple(tuple(r) for r in rows))
    w0 = B2.params[-1]
    with pytest.raises(NotMultiplicityFree):
        layers_multiplicity_free(
            SumFormulaInput(block=B2, w=B2.params[0], y=w0), decomposition=fake
        )


def test_layers_refuse_a_wrong_decomposition_matrix():
    # both matrices pass the loader's checks but contradict the sum formula
    dm = decomposition_matrix(B2)
    n = len(dm.params)
    identity = DecompositionMatrix(
        dm.params, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    )
    with pytest.raises(BadDecompositionFile, match="hit e outside the composition series"):
        layers_multiplicity_free(
            SumFormulaInput(block=B2, w=el(B2, "st"), y=el(B2, "sts")), decomposition=identity
        )
    rows = [list(r) for r in dm.rows]
    rows[1][0] = 2  # [M(s) : L(e)] = 2 drives a depth below zero
    doubled = DecompositionMatrix(dm.params, tuple(tuple(r) for r in rows))
    with pytest.raises(BadDecompositionFile, match="negative filtration depth"):
        layers_multiplicity_free(
            SumFormulaInput(block=B2, w=el(B2, "st"), y=el(B2, "st")), decomposition=doubled
        )


def test_layers_go_through_neither_change_basis_nor_the_checked_constructor(monkeypatch):
    import vermatwist
    from vermatwist import characters, jantzen

    block = block_of("G2", -2, -2)
    inputs = [SumFormulaInput(block=block, w=w, y=y) for y in block.params for w in block.group]
    expected = [layers_multiplicity_free(inp) for inp in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("the layer path must not get here")

    for module in (vermatwist, characters, jantzen):
        monkeypatch.setattr(module, "change_basis", refuse, raising=False)
    monkeypatch.setattr(CharVector, "__init__", refuse)
    assert [layers_multiplicity_free(inp) for inp in inputs] == expected
    assert len(expected) == 144


def test_duality_partner():
    w0 = longest_element(B2.rs)
    st = el(B2, "st")
    y = el(B2, "sts")
    dual_w, dual_y = duality_partner(st, y)
    assert dual_w == st * w0
    assert word_text(dual_w) == "ts"
    assert dual_y == y
    # applying it twice returns the original parameters
    again_w, again_y = duality_partner(dual_w, dual_y)
    assert again_w == st and again_y == y
    other = build_root_system("A2")
    with pytest.raises(MixedRootSystems):
        duality_partner(st, element_from_word(other, (1,)))
    # an argument that is no element is refused in either position
    e = el(B2, "e")
    message = "^elements do not belong to the same root system$"
    for w, y in ((e, None), (None, e)):
        with pytest.raises(MixedRootSystems, match=message):
            duality_partner(w, y)


def test_layer_table_equality_and_lookup():
    a = layers_multiplicity_free(SumFormulaInput(block=B2, w=el(B2, "e"), y=el(B2, "s")))
    b = layers_multiplicity_free(SumFormulaInput(block=B2, w=el(B2, "t"), y=el(B2, "s")))
    assert a == b
    assert a != layers_multiplicity_free(
        SumFormulaInput(block=B2, w=el(B2, "s"), y=el(B2, "s"))
    )
    # what is no factor, an element or not, is a KeyError
    for x, name in [(el(B2, "w0"), "stst"), (None, "None"), ("s", "'s'"), ([], r"\[\]")]:
        with pytest.raises(KeyError, match=f"^.{name} is not a composition factor here.$"):
            a.depth_of(x)
    assert isinstance(a, LayerTable)


def test_y_outside_the_integral_weyl_group_is_named():
    rs = build_root_system("A2")
    block = make_block(rs, weight(Fraction(-1, 2), -2))
    inp = SumFormulaInput(block=block, w=element_from_word(rs, ()), y=element_from_word(rs, (1,)))
    with pytest.raises(NotInBlockOrbit, match=r"^y = s lies outside") as info:
        sum_formula(inp)
    assert isinstance(info.value, ValueError)


def test_a_weight_outside_the_block_orbit_is_refused():
    rs = build_root_system("B2")
    block = make_block(rs, weight(-2, -2))
    e = element_from_word(rs, ())
    message = r"^Weight\(1, 0\) is not in the block orbit$"
    with pytest.raises(NotInBlockOrbit, match=message):
        block.param_for_weight(weight(1, 0))
    with pytest.raises(NotInBlockOrbit, match=message):
        sum_formula(SumFormulaInput(block, e, mu=weight(1, 0)))


def test_an_empty_layer_table_has_one_empty_row():
    assert LayerTable({}, True).by_depth() == ((),)

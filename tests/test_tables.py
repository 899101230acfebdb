"""The Weyl group's integer tables against the matrix definitions they replace.

``all_elements`` enumerates the group once into tables: the left
multiplication table of the simple reflections, the table of the
reflection through each positive root, and inversion sets as bitmasks.
The oracles here are matrix products, the inversion set and length read
off the matrix, and the ShortLex word found by peeling off the smallest
left descent, all computed on elements built fresh from the matrix.

In a regular integral block the sum formula is a walk over those tables;
it is compared with the evaluation through the orbit weights.
"""

import contextlib
import io
import json
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vermatwist import (
    CARTAN_BY_LABEL,
    GroupTooLarge,
    SumFormulaInput,
    Weight,
    WeylElement,
    all_elements,
    build_root_system,
    element_from_word,
    layers_multiplicity_free,
    longest_element,
    make_block,
    reflection_through,
    simple_reflection,
    sum_formula,
    weight,
    word_text,
)
from vermatwist import characters, weyl
from vermatwist.cli import main
from vermatwist.jantzen import _weight_sum
from vermatwist.rootsystem import RootSystem
from vermatwist.weyl import _group_order, _group_tables

PRODUCTS = {
    "A1xA1": ((2, 0), (0, 2)),
    "A1xB2": ((2, 0, 0), (0, 2, -2), (0, -1, 2)),
    "A1xG2": ((2, 0, 0), (0, 2, -3), (0, -1, 2)),
}
SYSTEMS = sorted(CARTAN_BY_LABEL) + sorted(PRODUCTS)

#: E8 in the Bourbaki numbering: the chain 1-3-4-5-6-7-8 with 2 on node 4
E8 = tuple(
    tuple(
        2 if i == j else -1 if {i, j} in ({0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {1, 3}) else 0
        for j in range(8)
    )
    for i in range(8)
)


def system(name):
    return build_root_system(PRODUCTS.get(name, name))


def fresh(w):
    """The same element without any table data: every property from the matrix."""
    return WeylElement(w.rs, w.mat)


def matrix_inversions(w):
    """Positive roots beta with w^{-1}(beta) negative, in root order."""
    inv = fresh(w).inv_mat
    return tuple(
        beta
        for beta in w.rs.positive_roots
        if sum(sum(row[k] * beta.coords[k] for k in range(len(row))) for row in inv) < 0
    )


def matrix_length(w):
    """Number of positive roots that w sends negative."""
    mat = w.mat
    return sum(
        1
        for beta in w.rs.positive_roots
        if sum(sum(row[k] * beta.coords[k] for k in range(len(row))) for row in mat) < 0
    )


def peeled_word(w):
    """ShortLex word: repeatedly split off the smallest left descent.

    The left descents of w are the right descents of w^{-1}, i.e. the i
    with w^{-1}(a_i) negative.
    """
    rs = w.rs
    letters = []
    rest = fresh(w).inverse()
    while descents := [i for i in range(rs.rank) if sum(row[i] for row in rest.mat) < 0]:
        letters.append(descents[0] + 1)
        rest = rest * simple_reflection(rs, descents[0] + 1)
    return tuple(letters)


@pytest.mark.parametrize("name", SYSTEMS)
def test_left_table_is_left_multiplication(name):
    rs = system(name)
    tables = _group_tables(rs)
    elements = all_elements(rs)
    assert tables.elements is elements
    for i in range(rs.rank):
        s = simple_reflection(rs, i + 1)
        assert [elements[k] for k in tables.left[i]] == [s * w for w in elements]


@pytest.mark.parametrize("name", SYSTEMS)
def test_reflection_table_is_left_multiplication(name):
    rs = system(name)
    tables = _group_tables(rs)
    elements = all_elements(rs)
    assert len(tables.refl) == len(rs.positive_roots)
    for beta, column in zip(rs.positive_roots, tables.refl):
        t = reflection_through(rs, beta)
        assert [elements[k] for k in column] == [t * w for w in elements]


@pytest.mark.parametrize("name", SYSTEMS)
def test_masks_lengths_and_words_match_the_matrices(name):
    rs = system(name)
    tables = _group_tables(rs)
    for k, (w, mask) in enumerate(zip(all_elements(rs), tables.masks)):
        inversions = matrix_inversions(w)
        assert w.inversions == inversions
        assert mask == sum(1 << rs.positive_roots.index(beta) for beta in inversions)
        assert w.length == matrix_length(w) == bin(mask).count("1")
        assert w.word == peeled_word(w)
        assert element_from_word(rs, w.word) == w
        assert tables.index[w.mat] == k


@pytest.mark.parametrize("name", SYSTEMS)
def test_elements_are_in_length_then_word_order(name):
    rs = system(name)
    keys = [(w.length, peeled_word(w)) for w in all_elements(rs)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys) == len({w.mat for w in all_elements(rs)})


@pytest.mark.parametrize("name", SYSTEMS)
def test_group_order_from_root_heights(name):
    rs = system(name)
    assert _group_order(rs) == len(all_elements(rs))


def test_oversized_group_is_refused_before_enumeration(monkeypatch):
    def enumerate_group(rs):
        pytest.fail("the group was enumerated")

    monkeypatch.setattr(weyl, "_build_tables", enumerate_group)
    rs = build_root_system(E8)
    assert len(rs.positive_roots) == 120
    assert _group_order(rs) == 696_729_600
    with pytest.raises(GroupTooLarge, match="bound of 1000000 elements"):
        all_elements(rs)
    with pytest.raises(GroupTooLarge):
        all_elements(build_root_system("B2"), bound=7)


def test_oversized_group_is_refused_on_the_command_line(monkeypatch, tmp_path):
    monkeypatch.setattr(weyl, "_build_tables", lambda rs: pytest.fail("enumerated"))
    path = tmp_path / "e8.json"
    path.write_text(json.dumps({"rank": 8, "matrix": E8}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["weyl", "--cartan-file", str(path)])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("error: GroupTooLarge: ")


def test_enumeration_multiplies_no_matrices(monkeypatch):
    interned = all_elements(build_root_system("B3"))

    def product(*args):
        pytest.fail("a matrix product")

    monkeypatch.setattr(weyl, "_int_mul", product)
    # a root system outside the registry, so that nothing is cached yet
    rs = RootSystem(build_root_system("B3").cartan, "B3")
    assert [w.mat for w in all_elements(rs)] == [w.mat for w in interned]


def test_weyl_command_reads_covers_off_the_tables(monkeypatch):
    rs = build_root_system("B3")
    all_elements(rs)
    longest_element(rs)
    monkeypatch.setattr(WeylElement, "__mul__", lambda *args: pytest.fail("a product"))
    monkeypatch.setattr(weyl, "reflection_through", lambda *args: pytest.fail("a reflection"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["weyl", "--type", "B3", "--format", "json"]) == 0
    assert len(json.loads(out.getvalue())["covers"]) == 138


def fresh_block(label):
    return make_block(build_root_system(label), weight(*[-2] * len(CARTAN_BY_LABEL[label])))


#: shared blocks keep their weight map from one test to the next
regular_block = cache(fresh_block)


def assert_same_result(inp):
    got, want = sum_formula(inp), _weight_sum(inp)
    assert got.vector == want.vector
    assert got.rplus_mu == want.rplus_mu
    assert got.rplus_w == want.rplus_w


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_table_sum_formula_matches_the_weight_path(label):
    block = regular_block(label)
    for w in block.group:
        for y in block.group:
            assert_same_result(SumFormulaInput(block=block, w=w, y=y))


def test_table_sum_formula_takes_any_form_of_the_input():
    block = regular_block("B3")
    rs = block.rs
    for w_word, y_word in (((1, 2), (3, 2, 1)), ((2, 3, 2, 3), (1, 1, 2)), ((), (3, 2, 3, 2))):
        w, y = element_from_word(rs, w_word), element_from_word(rs, y_word)
        assert_same_result(SumFormulaInput(block=block, w=w, y=y))
        assert_same_result(SumFormulaInput(block=block, w=w, mu=block.weight_of(y)))
        got = sum_formula(SumFormulaInput(block=block, w=w, y=y))
        assert all(x in block.group and "word" in vars(x) for x in got.vector.support())


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_table_sum_formula_matches_the_weight_path_f4(data):
    block = regular_block("F4")
    group = block.group
    w = group[data.draw(st.integers(0, len(group) - 1))]
    y = group[data.draw(st.integers(0, len(group) - 1))]
    if data.draw(st.booleans()):
        w = w * longest_element(block.rs)
    assert_same_result(SumFormulaInput(block=block, w=w, y=y))


def test_regular_integral_sum_formula_builds_no_weight(monkeypatch):
    block = fresh_block("B3")
    rs = block.rs
    pairs = [(w, y) for w in block.group[::7] for y in block.group[::5]]
    pairs.append((element_from_word(rs, (1, 3, 2)), element_from_word(rs, (2, 3, 2, 1))))
    built = []
    post_init = Weight.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Weight, "__post_init__", counted)
    for w, y in pairs:
        sum_formula(SumFormulaInput(block=block, w=w, y=y))
    assert built == []
    assert "_param_by_weight" not in vars(block)


def test_regular_block_builds_no_weight_map(monkeypatch):
    for lam in ((-2, -2), (-3, -5), (Fraction(-1, 2), -2)):
        block = make_block(build_root_system("B2"), weight(*lam))
        assert block.regular and block.params == block.group
        assert "_param_by_weight" not in vars(block)
    block = fresh_block("B2")
    y = block.params[5]
    table = layers_multiplicity_free(SumFormulaInput(block=block, w=block.params[2], y=y))
    assert table.layers
    assert "_param_by_weight" not in vars(block)
    assert block.param_for_weight(block.weight_of(y)) == y
    assert "_param_by_weight" in vars(block)

    monkeypatch.setattr(
        characters.BlockContext,
        "_param_by_weight",
        property(lambda self: pytest.fail("weight map built")),
    )
    for command in ("sum-formula", "layers"):
        for fmt in ("table", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([command, "--type", "B2", "--w", "st", "--y", "sts", "--format", fmt]) == 0
            assert "sts" in out.getvalue()


def test_interned_elements_carry_their_table_data():
    rs = build_root_system("G2")
    for w in all_elements(rs):
        assert {"length", "word", "inversions"} <= set(vars(w))
        assert word_text(w) == word_text(fresh(w))

"""The layer data a decomposition matrix keeps, checked against the dense oracle.

``layers_multiplicity_free`` keeps in the matrix it reads, for each
parameter y, the simple image of y's untwisted sum formula terms, and
every call flips the twist's terms in the simple basis.  On fresh regular
blocks of A2, B2 and G2, (w, y) pairs visited in random order must give
the tables of ``layer_path.py``: cold, with a fresh matrix for the call,
and on the built-in matrix, which every regular block of the root system
shares, and a copy of its rows, where the first call at y is cold and
every later one warm.  A caller who edits a returned table changes no
later one.  A refusal is never kept: each fires on the first call, on a
repeated one, and after a successful call at another twist of the same y
or, where every twist of y is refused, at another y.
"""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vermatwist import (
    CARTAN_BY_LABEL,
    BadDecompositionFile,
    DecompositionMatrix,
    NotMultiplicityFree,
    SumFormulaInput,
    VermatwistError,
    all_elements,
    decomposition_matrix,
    element_from_word,
    layers_multiplicity_free,
    make_block,
    parse_word_text,
    weight,
)
from vermatwist.rootsystem import RootSystem
import layer_path

#: regular integral base weights: their blocks share one class and matrix
LAMS = ((-2, -2), (-3, -5), (-4, -2))


def fresh_copy(dm):
    return DecompositionMatrix(dm.params, dm.rows)


@settings(max_examples=25, deadline=timedelta(seconds=5))
@given(st.data())
def test_kept_layer_data_gives_the_dense_tables(data):
    label = data.draw(st.sampled_from(("A2", "B2", "G2")))
    rs = RootSystem(CARTAN_BY_LABEL[label], label)
    blocks = [make_block(rs, weight(*lam)) for lam in LAMS]
    builtin = decomposition_matrix(blocks[0])
    assert all(decomposition_matrix(block) is builtin for block in blocks[1:])
    copy = fresh_copy(builtin)
    group = all_elements(rs)
    pairs = data.draw(st.permutations([(w, y) for y in builtin.params for w in group]))
    read = set()
    for w, y in pairs:
        inp = SumFormulaInput(data.draw(st.sampled_from(blocks)), w, y)
        want = layer_path.layer_table(inp, builtin)
        assert layers_multiplicity_free(inp, fresh_copy(builtin)) == want
        assert (y in builtin._layer_data) == (y in read)
        got = layers_multiplicity_free(inp)
        assert got == want
        assert layers_multiplicity_free(inp, copy) == want
        read.add(y)
        assert builtin._layer_data.keys() == copy._layer_data.keys() == read
        # the caller owns the returned table
        for x in got.layers:
            got.layers[x] = -7
        got.layers[w] = 99
        assert layers_multiplicity_free(inp) == want


def b2_matrix(edit):
    """The regular B2 block and its built-in matrix with the entries
    ``edit`` gives, as {(row word, column word): entry}, changed."""
    rs = RootSystem(CARTAN_BY_LABEL["B2"], "B2")
    block = make_block(rs, weight(-2, -2))
    dm = decomposition_matrix(block)
    index = dm._index
    rows = [list(row) for row in dm.rows]
    for (i, j), c in edit.items():
        rows[index[el(rs, i)]][index[el(rs, j)]] = c
    return block, DecompositionMatrix(dm.params, tuple(map(tuple, rows)))


def el(rs, text):
    return element_from_word(rs, parse_word_text(rs, text))


def outcome(inp, dm):
    try:
        return layers_multiplicity_free(inp, dm)
    except VermatwistError as exc:
        return type(exc), str(exc)


# the refusals of test_layers_with_multiplicity_raise and
# test_layers_refuse_a_wrong_decomposition_matrix, and an entry of the
# row of st zeroed, under which some twists of st pass; each with the
# refused (w, y) and a successful (w, y) on the same matrix
REFUSALS = {
    "multiplicity": (
        {("stst", "s"): 2},
        ("e", "stst"),
        ("e", "sts"),
        (NotMultiplicityFree, "factor s occurs 2 times in the Verma module of stst"),
    ),
    "outside": (
        "identity",
        ("st", "sts"),
        ("st", "e"),
        (BadDecompositionFile, "sum formula hit e outside the composition series"),
    ),
    "negative": (
        {("s", "e"): 2},
        ("st", "st"),
        ("e", "st"),
        (BadDecompositionFile, "negative filtration depth"),
    ),
    "outside-same-y": (
        {("st", "e"): 0},
        ("e", "st"),
        ("s", "st"),
        (BadDecompositionFile, "sum formula hit e outside the composition series"),
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_refusal_fires_on_every_call(case):
    edit, refused, passed, want = REFUSALS[case]
    if edit == "identity":
        block, dm = b2_matrix({})
        n = len(dm.params)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        dm = DecompositionMatrix(dm.params, identity)
    else:
        block, dm = b2_matrix(edit)
    rs = block.rs
    bad = SumFormulaInput(block, el(rs, refused[0]), el(rs, refused[1]))
    good = SumFormulaInput(block, el(rs, passed[0]), el(rs, passed[1]))
    assert outcome(bad, dm) == want
    assert outcome(bad, dm) == want
    table = layers_multiplicity_free(good, dm)
    assert table == layer_path.layer_table(good, dm)
    assert outcome(bad, dm) == want
    with pytest.raises(want[0], match=f"^{want[1]}$"):
        layer_path.layer_table(bad, dm)
    # a row with a multiplicity is never kept; any other is, once read
    kept = case != "multiplicity"
    assert (bad.y in dm._layer_data) == kept
    assert layers_multiplicity_free(good, dm) == table

"""Blocks, decomposition matrices, basis changes, and weight dimensions."""

import json
import re
from fractions import Fraction

import pytest

from vermatwist import (
    SIMPLE,
    VERMA,
    BadDecompositionFile,
    CharVector,
    DecompositionMatrix,
    NeedsUserMatrix,
    NotAntidominant,
    UnsupportedBlock,
    Root,
    SumFormulaInput,
    build_root_system,
    bruhat_leq,
    change_basis,
    decomposition_matrix,
    dimension_at,
    element_from_word,
    kostant_partition,
    layers_multiplicity_free,
    load_decomposition_file,
    longest_element,
    make_block,
    unit_vector,
    weight,
    word_text,
)
from vermatwist.weyl import _group_tables
import layer_path


def b2_block():
    rs = build_root_system("B2")
    return make_block(rs, weight(-2, -2))


def test_block_requires_antidominant():
    rs = build_root_system("B2")
    with pytest.raises(NotAntidominant):
        make_block(rs, weight(0, 0))
    with pytest.raises(NotAntidominant):
        make_block(rs, weight(-3, 1))


def test_block_antidominance_edge():
    # a shifted pairing of exactly 1 is positive, and refused; a pairing
    # of 0 is the singular edge, and accepted
    for label, lam, beta in (("A1", (0,), "Root(1,)"), ("B2", (0, -2), "Root(1, 0)")):
        message = f"^base weight must pair nonpositively with {re.escape(beta)} after the rho shift$"
        with pytest.raises(NotAntidominant, match=message):
            make_block(build_root_system(label), weight(*lam))
    for label, lam in (("A1", (-1,)), ("B2", (-1, -2))):
        block = make_block(build_root_system(label), weight(*lam))
        assert block.integral and not block.regular


def test_regular_integral_block_parameters():
    block = b2_block()
    assert block.regular and block.integral
    assert [word_text(w) for w in block.params] == [
        "e", "s", "t", "st", "ts", "sts", "tst", "stst",
    ]


def test_singular_block_parameters():
    rs = build_root_system("B2")
    block = make_block(rs, weight(-1, -2))
    assert not block.regular
    words = [w.word for w in block.params]
    assert words == [(), (2,), (1, 2), (2, 1, 2)]
    # the minimal representative fixes the weight of each chamber
    for w in block.params:
        assert block.param_for_weight(block.weight_of(w)) == w


def test_nonintegral_block_parameters():
    rs = build_root_system("B2")
    block = make_block(rs, weight(Fraction(-5, 2), -2))
    assert not block.integral
    assert [w.word for w in block.params] == [(), (2,)]


def test_contains_param_holds_for_the_parameters_alone():
    b2, a2, g2 = (build_root_system(label) for label in ("B2", "A2", "G2"))
    regular = b2_block()
    singular = make_block(b2, weight(-1, -2))
    nonintegral = make_block(b2, weight(Fraction(-1, 2), -2))
    a2_block = make_block(a2, weight(-2, -2))
    for block in (regular, singular, nonintegral, a2_block):
        assert all(block.contains_param(w) is True for w in block.params)
    s, ts = element_from_word(b2, (1,)), element_from_word(b2, (2, 1))
    g2_top = longest_element(g2)
    a2_s = element_from_word(a2, (1,))
    assert g2_top._k >= len(_group_tables(a2).elements)
    assert a2_s._k == s._k and regular.contains_param(s)
    refused = [
        *((regular, x) for x in (None, "e", [], regular)),
        # an index past the A2 table, and one that is a B2 parameter's
        (a2_block, g2_top),
        (regular, a2_s),
        # not their own parameters, and outside W_lam
        (singular, s),
        (singular, ts),
        (nonintegral, s),
    ]
    for block, x in refused:
        assert block.contains_param(x) is False


def test_a1_decomposition_matrix():
    rs = build_root_system("A1")
    block = make_block(rs, weight(-2))
    dm = decomposition_matrix(block)
    assert dm.rows == ((1, 0), (1, 1))
    assert dm.inverse_rows == ((1, 0), (-1, 1))


def test_b2_decomposition_matrix_is_bruhat_incidence():
    block = b2_block()
    dm = decomposition_matrix(block)
    w0 = longest_element(block.rs)
    assert dm.rows[-1] == (1,) * 8  # every simple occurs in the big Verma
    st = element_from_word(block.rs, (1, 2))
    row = {word_text(x) for x in dm.params if dm.entry(st, x) == 1}
    assert row == {"e", "s", "t", "st"}
    for y in dm.params:
        for x in dm.params:
            assert dm.entry(y, x) == (1 if bruhat_leq(x, y) else 0)


def test_inverse_is_exact_inverse():
    block = b2_block()
    dm = decomposition_matrix(block)
    n = len(dm.params)
    for i in range(n):
        for j in range(n):
            prod = sum(dm.rows[i][k] * dm.inverse_rows[k][j] for k in range(n))
            assert prod == (1 if i == j else 0)


def test_inverse_entries_alternate_in_sign():
    block = b2_block()
    dm = decomposition_matrix(block)
    for y in dm.params:
        for x in dm.params:
            expected = 0
            if bruhat_leq(x, y):
                expected = (-1) ** (y.length - x.length)
            assert dm.inverse_entry(y, x) == expected


def test_change_basis_round_trip():
    block = b2_block()
    elems = block.params
    v = CharVector(VERMA, {elems[0]: 3, elems[3]: -1, elems[7]: 2})
    w = change_basis(block, v, SIMPLE)
    assert w.basis == SIMPLE
    back = change_basis(block, w, VERMA)
    assert back == v


def test_change_basis_and_dimension_at_build_no_inverse():
    # the regular B4 block, with its Bruhat incidence matrix given as a file
    rs = build_root_system("B4")
    block = make_block(rs, weight(-2, -2, -2, -2))
    params, n = block.params, len(block.params)
    dm = load_decomposition_file(block, {
        "params": [word_text(w) for w in params],
        "matrix": [[ideal >> j & 1 for j in range(n)] for ideal in _group_tables(rs).ideals],
    })
    simple = CharVector(SIMPLE, {params[-1]: 1, params[300]: -2, params[7]: 3})
    verma = CharVector(VERMA, {params[-1]: 2, params[200]: -1, params[0]: 1})
    to_verma = change_basis(block, simple, VERMA, dm)
    to_simple = change_basis(block, verma, SIMPLE, dm)
    mus = [block.weight_of(w) for w in (params[-1], params[300], params[301])]
    dims = [dimension_at(block, simple, mu, dm) for mu in mus]
    assert "inverse_rows" not in vars(dm)
    assert to_verma == layer_path.change_basis(dm, simple, VERMA)
    assert to_simple == layer_path.change_basis(dm, verma, SIMPLE)
    assert change_basis(block, to_verma, SIMPLE, dm) == simple
    assert dims == [dimension_at(block, to_verma, mu, dm) for mu in mus]
    # w0 . lam = 0, so the simple module of w0 is the trivial one
    assert dims == [1, -2, -20]


def test_change_basis_a1_simple_to_verma():
    rs = build_root_system("A1")
    block = make_block(rs, weight(-2))
    s = element_from_word(rs, (1,))
    e = element_from_word(rs, ())
    v = change_basis(block, unit_vector(SIMPLE, s), VERMA)
    assert v.coeff(s) == 1 and v.coeff(e) == -1


def test_change_basis_rejects_foreign_support():
    block = b2_block()
    other = build_root_system("A2")
    v = unit_vector(VERMA, element_from_word(other, (1,)))
    with pytest.raises(ValueError):
        change_basis(block, v, SIMPLE)


def test_change_basis_names_the_first_foreign_parameter():
    block = b2_block()
    other = build_root_system("A2")
    foreign = [element_from_word(other, word) for word in ((1, 2), (2,), (1,))]
    v = CharVector(VERMA, {foreign[0]: 1, block.params[2]: 4, foreign[1]: -1, foreign[2]: 2})
    for to in (VERMA, SIMPLE):
        with pytest.raises(ValueError) as err:
            change_basis(block, v, to)
        assert str(err.value) == f"{foreign[2]!r} is not a parameter of this block"
    # an element whose index lies past the block's table is refused the same way
    a2_block = make_block(other, weight(-2, -2))
    g2_top = longest_element(build_root_system("G2"))
    v = unit_vector(VERMA, g2_top)
    message = f"^{re.escape(repr(g2_top))} is not a parameter of this block$"
    for to in (VERMA, SIMPLE):
        with pytest.raises(ValueError, match=message):
            change_basis(a2_block, v, to)
    with pytest.raises(ValueError, match=message):
        dimension_at(a2_block, v, a2_block.base)


def test_a_decomposition_matrix_of_another_block_is_refused():
    b2 = b2_block()
    a2 = decomposition_matrix(make_block(build_root_system("A2"), weight(-2, -2)))
    regular = decomposition_matrix(b2)
    nonintegral = make_block(b2.rs, weight(Fraction(-1, 2), -2))
    singular = make_block(b2.rs, weight(-1, -2))
    for block, dm in ((b2, a2), (nonintegral, regular), (singular, regular)):
        v = unit_vector(SIMPLE, block.params[-1])
        with pytest.raises(BadDecompositionFile, match="^the decomposition matrix belongs to"):
            change_basis(block, v, VERMA, dm)
        with pytest.raises(BadDecompositionFile, match="^the decomposition matrix belongs to"):
            dimension_at(block, v, block.base, dm)
    with pytest.raises(BadDecompositionFile, match="^the decomposition matrix belongs to"):
        layers_multiplicity_free(SumFormulaInput(block=b2, w=b2.params[1], y=b2.params[3]), a2)
    # nor is anything that is not a matrix, the block itself among them
    v = unit_vector(SIMPLE, b2.params[-1])
    for bad in ("x", 5, regular.rows, b2):
        with pytest.raises(BadDecompositionFile, match="^decomposition must be a Decomposition"):
            change_basis(b2, v, VERMA, bad)
        with pytest.raises(BadDecompositionFile, match="^decomposition must be a Decomposition"):
            change_basis(b2, change_basis(b2, v, VERMA), SIMPLE, bad)
        with pytest.raises(BadDecompositionFile, match="^decomposition must be a Decomposition"):
            dimension_at(b2, v, b2.base, bad)
        with pytest.raises(BadDecompositionFile, match="^decomposition must be a Decomposition"):
            layers_multiplicity_free(SumFormulaInput(b2, b2.params[1], b2.params[3]), bad)
    # the block's own matrix, given or built in, is accepted
    v = unit_vector(SIMPLE, b2.params[3])
    assert change_basis(b2, v, VERMA, regular) == change_basis(b2, v, VERMA)
    table = layers_multiplicity_free(SumFormulaInput(block=b2, w=b2.params[1], y=b2.params[3]))
    assert table == layers_multiplicity_free(
        SumFormulaInput(block=b2, w=b2.params[1], y=b2.params[3]), regular
    )


def test_a_decomposition_matrix_that_is_not_lower_unitriangular_is_refused():
    block = make_block(build_root_system("A2"), weight(-2, -2))
    n = len(block.params)
    # the first case turned [e] into 2[e] + [sts] on the round trip
    # simple -> Verma -> simple
    for edits in ({(0, 0): 2, (0, 5): 1}, {(0, 0): 2}, {(0, 5): 1}, {(5, 0): -1}):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), c in edits.items():
            rows[i][j] = c
        with pytest.raises(BadDecompositionFile, match="nonnegative and lower unitriangular"):
            DecompositionMatrix(block.params, tuple(map(tuple, rows)))
    shape = "^matrix shape does not match the parameter count$"
    with pytest.raises(BadDecompositionFile, match=shape):
        DecompositionMatrix(block.params, decomposition_matrix(block).rows[:-1])
    # rows that are no sequence of sequences have no shape either
    for rows in (None, 5, [None] * n, [5] * n, iter(decomposition_matrix(block).rows)):
        with pytest.raises(BadDecompositionFile, match=shape):
            DecompositionMatrix(block.params, rows)


def test_decomposition_matrix_entries_must_be_whole_numbers():
    block = make_block(build_root_system("A2"), weight(-2, -2))
    bruhat = decomposition_matrix(block).rows
    # the row of w0 = sts is all ones, and every row of it is used
    for bad in (Fraction(1, 2), 2.9, float("nan"), float("inf"), None, 1j, object()):
        rows = [list(r) for r in bruhat]
        rows[5][1] = bad
        with pytest.raises(BadDecompositionFile, match="^matrix entries must be whole numbers$"):
            DecompositionMatrix(block.params, tuple(map(tuple, rows)))
    # whole numbers of any type are stored as ints
    rows = [list(r) for r in bruhat]
    rows[5][1], rows[5][5], rows[3][0] = 1.0, Fraction(2, 2), True
    dm = DecompositionMatrix(block.params, tuple(map(tuple, rows)))
    assert dm.rows == bruhat
    assert all(type(c) is int for row in dm.rows for c in row)
    w0 = block.params[5]
    table = layers_multiplicity_free(SumFormulaInput(block=block, w=block.params[0], y=w0), dm)
    assert all(type(d) is int for d in table.layers.values())
    assert change_basis(block, unit_vector(VERMA, w0), SIMPLE, dm) == CharVector(
        SIMPLE, dict.fromkeys(block.params, 1)
    )


def test_change_basis_to_the_same_basis_copies():
    block = b2_block()
    v = CharVector(SIMPLE, {block.params[5]: 2, block.params[1]: -3})
    same = change_basis(block, v, SIMPLE)
    assert same == v and same is not v
    assert same.items() == v.items()


def test_needs_user_matrix():
    rs = build_root_system("B2")
    with pytest.raises(NeedsUserMatrix):
        decomposition_matrix(make_block(rs, weight(-1, -2)))
    with pytest.raises(NeedsUserMatrix):
        decomposition_matrix(make_block(rs, weight(Fraction(-5, 2), -2)))
    rs3 = build_root_system("A3")
    with pytest.raises(NeedsUserMatrix):
        decomposition_matrix(make_block(rs3, weight(-2, -2, -2)))


def test_dimension_at_verma_is_kostant():
    block = b2_block()
    rs = block.rs
    for y in block.params:
        top = block.weight_of(y)
        for nu in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 2)]:
            drop = rs.root_to_weight(Root(nu)) if any(nu) else None
            mu = top - drop if drop else top
            got = dimension_at(block, unit_vector(VERMA, y), mu)
            assert got == kostant_partition(rs, nu), (word_text(y), nu)


def test_dimension_at_frozen_value():
    block = b2_block()
    rs = block.rs
    w0 = longest_element(rs)
    mu = block.weight_of(w0) - rs.root_to_weight(Root((1, 1)))
    assert dimension_at(block, unit_vector(VERMA, w0), mu) == 2


def test_dimension_at_skips_off_lattice_weights():
    block = b2_block()
    e = block.params[0]
    mu = block.weight_of(e) + weight(Fraction(1, 2), 0)
    assert dimension_at(block, unit_vector(VERMA, e), mu) == 0


def test_dimension_at_matches_the_weight_route_on_b3_blocks():
    """Every parameter of a regular and a singular B3 block, against the
    route that converts y . lam - mu to root coordinates for each term."""
    rs = build_root_system("B3")
    alpha = [rs.root_to_weight(Root(tuple(int(i == j) for j in range(3)))) for i in range(3)]

    def weight_route(block, y, mu):
        nu = rs.weight_to_root_coords(block.weight_of(y) - mu)
        return kostant_partition(rs, nu) if all(x.denominator == 1 for x in nu) else 0

    for coords in ((-2, -2, -2), (-1, -2, -2)):
        lam = weight(*coords)
        block = make_block(rs, lam)
        top = block.weight_of(block.params[-1])
        mus = (
            lam,
            lam - alpha[0],
            lam - alpha[0] - alpha[1] - alpha[2] - alpha[2],
            lam - weight(0, 0, 1),  # off the root lattice
            top - alpha[1],
            top + alpha[2],  # above every orbit weight
        )
        total = CharVector(VERMA)
        for k, y in enumerate(block.params):
            v = unit_vector(VERMA, y)
            total = total + (k % 3 - 1) * v
            for mu in mus:
                assert dimension_at(block, v, mu) == weight_route(block, y, mu), (coords, k, mu)
        for mu in mus:
            expected = sum(c * weight_route(block, y, mu) for y, c in total.items())
            assert dimension_at(block, total, mu) == expected


def test_dimension_of_antidominant_simple():
    # L(e) = M(e) in the Verma basis: dimensions are Kostant counts
    block = b2_block()
    rs = block.rs
    e = block.params[0]
    v = unit_vector(SIMPLE, e)
    mu = block.weight_of(e) - rs.root_to_weight(Root((2, 1)))
    assert dimension_at(block, v, mu) == 3


def test_a1_dominant_verma_dimensions():
    # the block through -5 contains the dominant weight 3 = s . (-5);
    # every weight space of that Verma is one dimensional
    rs = build_root_system("A1")
    block = make_block(rs, weight(-5))
    s = element_from_word(rs, (1,))
    assert block.weight_of(s) == weight(3)
    v = unit_vector(VERMA, s)
    for i in range(6):
        mu = weight(3 - 2 * i)
        assert dimension_at(block, v, mu) == 1


def test_load_decomposition_file_round_trip(tmp_path):
    block = b2_block()
    dm = decomposition_matrix(block)
    # scramble the parameter order on disk; loading must reorder
    names = [word_text(w) for w in reversed(block.params)]
    rows = [
        [dm.entry(y, x) for x in reversed(block.params)]
        for y in reversed(block.params)
    ]
    path = tmp_path / "decomp.json"
    path.write_text(json.dumps({"params": names, "matrix": rows}))
    loaded = load_decomposition_file(block, path)
    assert loaded.rows == dm.rows
    via_source = decomposition_matrix(block, source=path)
    assert via_source.rows == dm.rows


def test_load_decomposition_file_rejects_bad_data(tmp_path):
    block = b2_block()
    dm = decomposition_matrix(block)
    names = [word_text(w) for w in block.params]
    good = [[dm.entry(y, x) for x in block.params] for y in block.params]

    def write(data):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(data))
        return p

    with pytest.raises(BadDecompositionFile):
        load_decomposition_file(block, write({"matrix": good}))
    with pytest.raises(BadDecompositionFile):
        load_decomposition_file(block, write({"params": names[:-1], "matrix": good}))
    with pytest.raises(BadDecompositionFile):
        load_decomposition_file(block, write({"params": names, "matrix": good[:-1]}))
    for shape in (5, list(range(8)), {"rows": good}, [str(row) for row in good]):
        with pytest.raises(BadDecompositionFile, match="shape"):
            load_decomposition_file(block, write({"params": names, "matrix": shape}))

    wrong = [row[:] for row in good]
    wrong[0][0] = 2
    with pytest.raises(BadDecompositionFile):
        load_decomposition_file(block, write({"params": names, "matrix": wrong}))

    wrong = [row[:] for row in good]
    wrong[3][1] = -1
    with pytest.raises(BadDecompositionFile):
        load_decomposition_file(block, write({"params": names, "matrix": wrong}))

    wrong = [row[:] for row in good]
    wrong[0][7] = 1  # the identity row cannot contain the longest element
    with pytest.raises(BadDecompositionFile):
        load_decomposition_file(block, write({"params": names, "matrix": wrong}))

    # only JSON integers: a float, a boolean or a numeric string is not truncated
    for entry in ("x", "1", 1.5, 1.9, 1.0, True):
        wrong = [row[:] for row in good]
        wrong[2][2] = entry
        with pytest.raises(BadDecompositionFile, match="must be integers"):
            load_decomposition_file(block, write({"params": names, "matrix": wrong}))
    wrong = [row[:] for row in good]
    wrong[2][0] = True  # where good has a 1
    assert good[2][0] == 1
    with pytest.raises(BadDecompositionFile, match="must be integers"):
        load_decomposition_file(block, write({"params": names, "matrix": wrong}))

    with pytest.raises(BadDecompositionFile):
        load_decomposition_file(block, tmp_path / "missing.json")


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100_000 + b"]" * 100_000,  # too deep for the parser
        b'{"params": ["e"]}\xff\xfe',  # not UTF-8
        b'{"params": [], "matrix": [[' + b"7" * 5000 + b"]]}",  # over the digit limit
    ],
    ids=["deep", "not_utf8", "digits"],
)
def test_load_decomposition_file_refuses_unreadable_files(tmp_path, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    with pytest.raises(BadDecompositionFile, match="^cannot read decomposition file: "):
        load_decomposition_file(b2_block(), path)


def test_load_decomposition_file_refuses_params_that_are_not_a_list():
    block = make_block(build_root_system("A1"), weight(-2))
    good = {"params": ["e", "s"], "matrix": [[1, 0], [1, 1]]}
    assert load_decomposition_file(block, good).rows == ((1, 0), (1, 1))
    for params in ("es", {"e": 0, "s": 1}, None, 2):
        with pytest.raises(BadDecompositionFile, match='"params" must be a list of words'):
            load_decomposition_file(block, {**good, "params": params})


def test_load_decomposition_file_refuses_params_entries_that_are_not_strings():
    # ["e", 1] loaded as if it said "1" when entries went through str()
    block = make_block(build_root_system("A1"), weight(-2))
    good = {"params": ["e", "s"], "matrix": [[1, 0], [1, 1]]}
    for params in (["e", 1], [None, "s"], ["e", ["s"]], ["e", True], [0, 1]):
        with pytest.raises(BadDecompositionFile, match='"params" must be a list of words'):
            load_decomposition_file(block, {**good, "params": params})


def test_load_decomposition_file_rejects_singular_block():
    rs = build_root_system("B2")
    block = make_block(rs, weight(-1, -2))
    with pytest.raises(UnsupportedBlock):
        load_decomposition_file(block, {"params": [], "matrix": []})


def test_char_vector_arithmetic():
    rs = build_root_system("B2")
    e = element_from_word(rs, ())
    s = element_from_word(rs, (1,))
    a = CharVector(VERMA, {e: 1, s: 2})
    b = CharVector(VERMA, {s: -2})
    c = a + b
    assert c.coeff(e) == 1 and c.coeff(s) == 0
    assert c.support() == (e,)
    assert (a - a).is_zero
    assert 3 * a == CharVector(VERMA, {e: 3, s: 6})
    assert a != CharVector(SIMPLE, {e: 1, s: 2})


def test_char_vector_sums_refuse_what_is_no_vector():
    rs = build_root_system("B2")
    v = CharVector(VERMA, {element_from_word(rs, ()): 1})
    for other in (5, None, {}, "v"):
        for combine in (lambda: v + other, lambda: v - other, lambda: other + v, lambda: other - v):
            with pytest.raises(TypeError):
                combine()


def test_char_vector_refuses_non_integer_coefficients():
    rs = build_root_system("B2")
    e = element_from_word(rs, ())
    with pytest.raises(ValueError, match="not an integer"):
        CharVector(VERMA, {e: Fraction(1, 2)})
    with pytest.raises(ValueError, match="not an integer"):
        CharVector(VERMA, {e: 2.9})
    # int() raises OverflowError on the infinities, its own message on nan
    # and TypeError on what is not a number
    for c in (float("inf"), float("-inf"), float("nan"), None, 1j, object()):
        with pytest.raises(ValueError, match="not an integer"):
            CharVector(VERMA, {e: c})
    v = CharVector(VERMA, {e: 1})
    with pytest.raises(ValueError, match="not an integer"):
        0.5 * v
    # whole numbers of any type are kept, as ints
    w = CharVector(VERMA, {e: Fraction(4, 2)})
    assert w == 2.0 * v == 2 * v and type(w.coeff(e)) is int
    assert CharVector(VERMA, {e: Fraction(0)}).is_zero


def test_char_vector_refuses_keys_that_are_no_element():
    block = b2_block()
    for key in ("x", None, block):
        message = f"^{re.escape(repr(key))} is no Weyl group element$"
        with pytest.raises(ValueError, match=message):
            CharVector(VERMA, {key: 1})
        with pytest.raises(ValueError, match=message):
            unit_vector(SIMPLE, key)


def test_unknown_and_mixed_bases_are_refused():
    block = b2_block()
    e = block.params[0]
    v = unit_vector(VERMA, e)
    for call in (lambda: CharVector("bogus"), lambda: change_basis(block, v, "bogus")):
        with pytest.raises(ValueError, match="^unknown basis 'bogus'$"):
            call()
    with pytest.raises(ValueError, match="^cannot combine vectors in different bases$"):
        v + unit_vector(SIMPLE, e)


def test_char_vector_repr_negation_and_foreign_equality():
    e = b2_block().params[0]
    assert repr(CharVector(VERMA)) == "CharVector(verma, 0)"
    v = unit_vector(VERMA, e)
    assert repr(-v) == "CharVector(verma, -[e])"
    assert -v + v == CharVector(VERMA)
    assert (v == 5) is False
    assert v.__eq__(5) is NotImplemented


def test_an_entry_just_above_the_diagonal_is_refused():
    block = make_block(build_root_system("A2"), weight(-2, -2))
    n = len(block.params)
    for i in range(n - 1):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][i + 1] = 1
        with pytest.raises(BadDecompositionFile, match="nonnegative and lower unitriangular"):
            DecompositionMatrix(block.params, tuple(map(tuple, rows)))


def test_a_hand_built_matrix_takes_elements_of_one_root_system():
    b2 = b2_block()
    a1 = make_block(build_root_system("A1"), weight(-2))
    message = "^matrix parameters must be elements of one root system$"
    for params in (("x",), (None,), (b2,), (a1.params[0], b2.params[0])):
        n = len(params)
        rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        with pytest.raises(BadDecompositionFile, match=message):
            DecompositionMatrix(params, rows)
    assert DecompositionMatrix((), ()).params == ()


@pytest.mark.parametrize(
    "edits, fault",
    [
        # the row of t reaches st, outside its ideal, past a 0 at s
        ({(2, 3): 1}, "nonzero entry at (t, st) violates Bruhat unitriangularity"),
        # the row of s reaches t before a later fault
        ({(1, 2): 1, (1, 7): -1}, "nonzero entry at (s, t) violates Bruhat unitriangularity"),
        # st lies outside the ideal of ts, and ts, the next index, inside it
        ({(4, 3): 1}, "nonzero entry at (ts, st) violates Bruhat unitriangularity"),
        ({(3, 3): 2, (3, 7): -1}, "diagonal multiplicities must equal 1"),
        ({(5, 0): -1, (5, 5): 2}, "multiplicities must be nonnegative"),
    ],
    ids=["bruhat", "bruhat-first", "next-inside", "diagonal-first", "sign-first"],
)
def test_load_decomposition_file_names_the_first_fault_of_a_row(edits, fault):
    block = b2_block()
    dm = decomposition_matrix(block)
    assert [word_text(w) for w in block.params] == [
        "e", "s", "t", "st", "ts", "sts", "tst", "stst"
    ]
    matrix = [list(row) for row in dm.rows]
    for (i, j), c in edits.items():
        matrix[i][j] = c
    data = {"params": [word_text(w) for w in block.params], "matrix": matrix}
    with pytest.raises(BadDecompositionFile, match=f"^{re.escape(fault)}$"):
        load_decomposition_file(block, data)

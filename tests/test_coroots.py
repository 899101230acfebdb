"""The integer coroot table against the invariant form it replaces.

Every root system keeps one table of coroots in simple coroot coordinates,
and pairings and the weight action are read off it.  The oracles here are
the rational formulas the table replaced: ``2 (x, beta) / (beta, beta)``
through ``rs.form``, the transport of the root action through the
symmetrizer, and Gaussian elimination, which also check the matrices of
the reflections and inverses read off the group's tables.  The integer
pairings of lam + rho, over one denominator, are checked against
``pairing``, and so are the weight classes, integral roots and R+(mu)
read off them.
"""

from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vermatwist import (
    CARTAN_BY_LABEL,
    VERMA,
    InvariantViolated,
    NotARoot,
    Root,
    SumFormulaInput,
    Weight,
    WeylElement,
    all_elements,
    build_root_system,
    classify_weight,
    coroot_pairing_roots,
    dimension_at,
    dot_action,
    element_from_word,
    integral_positive_roots,
    make_block,
    pairing,
    r_plus_of_weight,
    reflection_through,
    root_sequence_through,
    sum_formula,
    unit_vector,
    weight,
    weight_action,
)
from vermatwist import rootsystem, weights

import matrix_path
import test_properties as props
import weight_path
from matrix_path import invert

PRODUCTS = {
    "A1xA1": ((2, 0), (0, 2)),
    "A1xB2": ((2, 0, 0), (0, 2, -2), (0, -1, 2)),
    "A1xG2": ((2, 0, 0), (0, 2, -3), (0, -1, 2)),
}
SYSTEMS = sorted(CARTAN_BY_LABEL) + sorted(PRODUCTS)


def system(name):
    return build_root_system(PRODUCTS.get(name, name))


def all_roots(rs):
    return [b for beta in rs.positive_roots for b in (beta, -beta)]


def form_pairing(rs, x, beta):
    """<x, beta^vee> = 2 (x, beta) / (beta, beta), x in simple root coordinates."""
    return 2 * rs.form(x, beta.coords) / rs.form(beta.coords, beta.coords)


def form_weight_action(w, lam):
    """The weight action transported through the symmetrizer ratios d_j / d_i."""
    rs = w.rs
    d = rs.symmetrizer
    inv = w.inv_mat
    return Weight(
        tuple(
            sum(Fraction(d[j], d[i]) * inv[j][i] * lam.coords[j] for j in range(rs.rank))
            for i in range(rs.rank)
        )
    )


def column_reflection(rs, beta):
    """The reflection built column by column: a_j - <a_j, beta^vee> beta."""
    n = rs.rank
    columns = []
    for j in range(n):
        alpha_j = tuple(1 if k == j else 0 for k in range(n))
        c = form_pairing(rs, alpha_j, beta)
        columns.append(tuple(alpha_j[r] - c * beta.coords[r] for r in range(n)))
    return tuple(tuple(int(columns[j][r]) for j in range(n)) for r in range(n))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairing_matches_the_form(data):
    rs = system(data.draw(st.sampled_from(SYSTEMS)))
    lam = Weight(tuple(data.draw(rationals) for _ in range(rs.rank)))
    lam_root = rs.weight_to_root_coords(lam)
    for beta in all_roots(rs):
        got = pairing(rs, lam, beta)
        assert isinstance(got, Fraction)
        assert got == form_pairing(rs, lam_root, beta)


@pytest.mark.parametrize("name", SYSTEMS)
def test_root_pairings_and_reflections_match_the_form(name):
    rs = system(name)
    roots = all_roots(rs)
    for beta in roots:
        for gamma in roots:
            got = coroot_pairing_roots(rs, gamma, beta)
            assert type(got) is int
            assert got == form_pairing(rs, gamma.coords, beta)
        assert reflection_through(rs, beta).mat == column_reflection(rs, beta)
        # the coroot of a simple root is the simple coroot
        if sum(map(abs, beta.coords)) == 1:
            assert rs.coroot(beta.coords) == beta.coords


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "B3", "C3", "A1xB2", "A1xG2"])
def test_weight_action_matches_the_symmetrizer_transport(name):
    rs = system(name)
    lams = [
        Weight(tuple(Fraction(3 * i - 2 * k + 1, 1 + k % 3) for i in range(rs.rank)))
        for k in range(4)
    ]
    for w in all_elements(rs):
        for lam in lams:
            assert weight_action(w, lam) == form_weight_action(w, lam)


@pytest.mark.parametrize("label", ["B4", "F4"])
def test_integer_inverse_matches_gaussian_elimination(label):
    rs = build_root_system(label)
    identity = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    for w in all_elements(rs):
        inv = w.inv_mat
        assert inv == invert(w.mat)
        assert (w.inverse() * w).mat == identity
        assert all(type(x) is int for row in inv for x in row)


@pytest.mark.parametrize("name", SYSTEMS)
def test_inverse_cartan_matrix_from_root_sums_matches_elimination(name):
    rs = system(name)
    assert rs._cartan_inv == invert(rs.cartan)
    for beta in rs.positive_roots:
        assert rs.weight_to_root_coords(rs.root_to_weight(beta)) == beta.coords


def rational_weights(rank, count, seed):
    pick = random.Random(seed)
    return [
        Weight(tuple(Fraction(pick.randint(-12, 12), pick.randint(1, 4)) for _ in range(rank)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("label, sample", [("B3", None), ("F4", 150)])
def test_weight_action_matches_the_matrix_route(label, sample):
    rs = build_root_system(label)
    elements = all_elements(rs)
    if sample:
        elements = random.Random(label).sample(elements, sample) + [elements[-1]]
    lams = rational_weights(rs.rank, 3, label)
    for w in elements:
        for lam in lams:
            assert weight_action(w, lam).coords == matrix_path.weight_action(rs, w.mat, lam.coords)


@pytest.mark.parametrize("label", ["G2", "B3"])
def test_root_sequence_matches_the_matrix_route(label):
    rs = build_root_system(label)
    for w in all_elements(rs):
        seq = root_sequence_through(rs, w)
        want = matrix_path.root_sequence(rs, w.mat, seq.word, seq.split)
        assert [beta.coords for beta in seq.betas] == want


def test_dot_action_builds_no_matrix_and_no_inverse_table():
    rs = rootsystem.RootSystem(CARTAN_BY_LABEL["F4"], "F4")
    lam = weight(-2, Fraction(1, 3), -1, 5)
    # the regular, singular and nonintegral blocks of the property tests
    bases = props.BASES
    blocks = [props.block(label, i) for label in bases for i in range(len(bases[label]))]

    def refused(*args):
        raise AssertionError("the integer walk builds no weight and no root coordinates")

    # dot_action and the drops walk integers: no Weight sum or difference,
    # and no inverse Cartan matrix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Weight, "__add__", refused)
        patch.setattr(Weight, "__sub__", refused)
        patch.setattr(rootsystem.RootSystem, "weight_to_root_coords", refused)
        images = [dot_action(rs, w, lam) for w in all_elements(rs)]
        drops = {blk: [blk._drop(y) for y in blk.params] for blk in blocks}
    assert all("mat" not in vars(w) and "inv_mat" not in vars(w) for w in all_elements(rs))
    assert "inverse" not in vars(rs._weyl_tables)
    # the walk agrees with the matrix route on this system too
    w = element_from_word(rs, (1, 2, 3, 4, 3, 2))
    want = matrix_path.weight_action(rs, w.mat, (lam + rs.rho).coords)
    assert (images[w._k] + rs.rho).coords == want
    # each drop is y . lam - lam in simple root coordinates, through weights
    for blk, got in drops.items():
        to_roots = blk.rs.weight_to_root_coords
        assert got == [to_roots(blk.weight_of(y) - blk.base) for y in blk.params]
    # outside the integral Weyl group, y . lam - lam is no root lattice vector
    outside = [(blk, y) for blk in blocks for y in all_elements(blk.rs) if y not in blk.group]
    assert outside
    for blk, y in outside:
        with pytest.raises(InvariantViolated, match="is not in the root lattice$"):
            blk._drop(y)


def test_inverse_refuses_a_matrix_that_misses_a_simple_root():
    # refused at construction: every element is a row of the group's tables
    rs = build_root_system("B2")
    with pytest.raises(InvariantViolated):
        WeylElement(rs, ((2, 0), (0, 2)))


def test_non_roots_are_refused():
    rs = build_root_system("B2")
    for bad in ((1, 1), [1, 1], None):
        with pytest.raises(NotARoot):
            pairing(rs, rs.rho, bad)
        with pytest.raises(NotARoot):
            coroot_pairing_roots(rs, Root((1, 0)), bad)
        with pytest.raises(NotARoot):
            reflection_through(rs, bad)
    for bad in (Root((1, 1, 0)), Root((1,)), Root((3, 1)), Root((1, 2))):
        with pytest.raises(NotARoot):
            pairing(rs, rs.rho, bad)
        with pytest.raises(NotARoot):
            coroot_pairing_roots(rs, Root((1, 0)), bad)
        with pytest.raises(NotARoot):
            reflection_through(rs, bad)
    for bad in ((3, 1), (1, 1, 0), [1, 1], "ab"):
        with pytest.raises(NotARoot):
            rs.coroot(bad)


def test_coroot_table_refuses_a_wrong_form(monkeypatch):
    # B2 with both roots the same length: (2a+b)^vee would be a^vee + b^vee / 2
    monkeypatch.setattr(rootsystem, "_symmetrizer", lambda cartan: (1, 1))
    with pytest.raises(InvariantViolated):
        rootsystem.RootSystem(CARTAN_BY_LABEL["B2"], "B2")


def test_rank_mismatches_are_refused():
    rs = build_root_system("B2")
    beta = Root((1, 1))
    with pytest.raises(ValueError):
        pairing(rs, Weight((1, 2, 3)), beta)
    with pytest.raises(ValueError):
        weight_action(all_elements(rs)[-1], Weight((1,)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shifted_pairings_match_the_rational_route(data):
    rs = system(data.draw(st.sampled_from(SYSTEMS)))
    # small integers meet zero and positive integral pairings often
    coords = st.one_of(st.integers(-4, 2), rationals)
    lam = Weight(tuple(data.draw(coords) for _ in range(rs.rank)))
    nums, d = weights._shifted_pairings(rs, lam)
    shifted = lam + rs.rho
    assert [Fraction(n, d) for n in nums] == [
        pairing(rs, shifted, beta) for beta in rs.positive_roots
    ]
    assert all(type(n) is int for n in nums) and (d == 1) == lam.is_integral
    assert classify_weight(rs, lam) == weight_path.classify(rs, lam)
    assert integral_positive_roots(rs, lam) == weight_path.integral_roots(rs, lam)
    block = make_block(rs, Weight((-2,) * rs.rank))
    assert r_plus_of_weight(block, lam) == weight_path.r_plus(rs, lam)


WRONG_RANK = {
    "pairing": lambda rs, lam: pairing(rs, lam, Root((1, 1))),
    "classify_weight": classify_weight,
    "integral_positive_roots": integral_positive_roots,
    "make_block": make_block,
    "r_plus_of_weight": lambda rs, lam: r_plus_of_weight(make_block(rs, weight(-2, -2)), lam),
    "weight_action": lambda rs, lam: weight_action(all_elements(rs)[-1], lam),
    "dot_action": lambda rs, lam: dot_action(rs, all_elements(rs)[-1], lam),
    "weight_to_root_coords": lambda rs, lam: rs.weight_to_root_coords(lam),
    "dimension_at": lambda rs, lam: dimension_at(
        make_block(rs, weight(-2, -2)), unit_vector(VERMA, all_elements(rs)[0]), lam
    ),
    "param_for_weight": lambda rs, lam: make_block(rs, weight(-2, -2)).param_for_weight(lam),
    "sum_formula": lambda rs, lam: sum_formula(
        SumFormulaInput(block=make_block(rs, weight(-2, -2)), w=all_elements(rs)[0], mu=lam)
    ),
}


@pytest.mark.parametrize("name", sorted(WRONG_RANK))
def test_a_weight_of_the_wrong_rank_is_refused_with_one_message(name):
    rs = build_root_system("B2")
    with pytest.raises(ValueError, match="^weight has wrong rank for this root system$"):
        WRONG_RANK[name](rs, weight(-2, -2, -2))


@pytest.mark.parametrize("bad", [None, (-2, -2)], ids=["None", "tuple"])
@pytest.mark.parametrize("name", sorted(set(WRONG_RANK) - {"sum_formula"}))
def test_a_weight_that_is_no_weight_is_refused(name, bad):
    # sum_formula refuses a mu that is no Weight in SumFormulaInput
    rs = build_root_system("B2")
    with pytest.raises(ValueError, match="^expected a Weight, got "):
        WRONG_RANK[name](rs, bad)

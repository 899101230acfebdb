"""Property tests: the sum formula against reflection matrices, the
coset rule of the blocks, the group laws of the tables, and the
symmetries of the Bruhat order.

The weight-path oracle (``weight_path.py``) reflects each orbit weight
as s_beta . mu = mu - n * beta with n = <mu + rho, beta^vee>.  These
tests compare that closed form, on random weights, and ``sum_formula``,
on random (w, y) in rank 3 and rank 4 blocks, with the literal route:
the reflection matrix of beta pushed through the dot action.  On every
block, the twisted sum vector less the untwisted one must be the eps
part of a product in the Hecke algebra of the integral Weyl group at
v = 1 + eps, the twisting functors' action (``hecke_path.py``).

Blocks through random rational weights of A3, B3, C3, D4 and B4, of
every kind, must have as parameters the first elements to reach each
orbit weight, and their sum formula must equal the one evaluated through
the weights (``weight_path.py``), refusals included.  Renumbering the
nodes of the Dynkin diagram, in the Cartan matrix, the weight and every
word, must carry the block parameters, lengths, inversion sets, sum
vectors and, in rank 2, layer tables along, and in A3, B3, C3 and D4 the
Bruhat covers and lower ideals; the diagram automorphisms of A3 and D4
map covers to covers, and those of A2, A3 and D4 carry (w, y, lam) to
(sigma w, sigma y, sigma lam), and with them sum vectors, R+(mu) and, in
A2, layer tables; E6's, given as a Cartan matrix, does so on seeded
pairs.  A decomposition file for a renumbered A3 or B3, listing the
carried words in the original table order, must carry every layer table
and refusal along, in the library and through the ``layers`` command.  The tables' ``inverse`` list
and products must equal the matrix ones (``matrix_path.py``), and they
and the dot action must obey the group laws.

``bruhat_leq`` must respect inversion, x <= y iff x^{-1} <= y^{-1}, and
reverse under right multiplication by w0, x <= y iff y w0 <= x w0.

``change_basis`` from the Verma basis to the simple basis and back is
the identity, with the built-in matrices of rank 2 and with a random
user matrix, unitriangular along the Bruhat order, in type A3.  With
random nonnegative lower unitriangular matrices on the regular blocks of
A2, B2 and G2, and on the Bruhat pattern of the regular A3 block,
``change_basis``, ``layers_multiplicity_free`` and ``inverse_rows`` must
give what the dense row walks and the back substitution of
``layer_path.py`` give, refusals included.

A block keeps the untwisted sum formula terms of each parameter it has
read.  On the blocks of ``BASES``, a random sequence of ``sum_formula``
calls, by y and by mu, and ``layers_multiplicity_free`` calls must give
what each call gives on a fresh block, also after the caller writes into
a returned vector.
"""

import random
from datetime import timedelta
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vermatwist import (
    CARTAN_BY_LABEL,
    SIMPLE,
    VERMA,
    CharVector,
    DecompositionMatrix,
    NotAntidominant,
    SumFormulaInput,
    VermatwistError,
    Weight,
    all_elements,
    bruhat_leq,
    build_root_system,
    change_basis,
    dot_action,
    element_from_word,
    layers_multiplicity_free,
    load_decomposition_file,
    longest_element,
    make_block,
    pairing,
    r_plus_of_weight,
    reflection_through,
    sum_formula,
    weight,
    weight_action,
    word_text,
)
from vermatwist.weyl import _bits, _group_tables
import layer_path
import matrix_path
from hecke_path import integral_view, twist_difference
from weight_path import _dot_reflect, _weight_sum, outcome


@st.composite
def weights(draw, rank):
    """Integral, half-integral, or integral and singular (a coordinate of -1)."""
    kind = draw(st.sampled_from(("integral", "half", "singular")))
    coords = [draw(st.integers(-6, 6)) for _ in range(rank)]
    if kind == "half":
        return Weight(tuple(Fraction(2 * c + 1, 2) for c in coords))
    if kind == "singular":
        coords[draw(st.integers(0, rank - 1))] = -1
    return Weight(tuple(Fraction(c) for c in coords))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_form_reflection_is_the_dot_action(data):
    rs = build_root_system(data.draw(st.sampled_from(sorted(CARTAN_BY_LABEL))))
    mu = data.draw(weights(rs.rank))
    beta = data.draw(st.sampled_from(rs.positive_roots))
    n = pairing(rs, mu + rs.rho, beta)
    assert _dot_reflect(rs, mu, beta, n) == dot_action(rs, reflection_through(rs, beta), mu)


# regular integral, singular integral and regular nonintegral base weights,
# and in F4 a singular nonintegral one
BASES = {
    "B3": ((-2, -2, -2), (-1, -2, -2), (Fraction(-1, 2), -2, -2)),
    "F4": (
        (-2, -2, -2, -2),
        (-2, -2, -2, -1),
        (Fraction(-1, 2), -2, -2, -2),
        (Fraction(-1, 2), -1, -2, -2),
    ),
}


@cache
def block(label, index):
    return make_block(build_root_system(label), weight(*BASES[label][index]))


def reflection_matrix_sum(blk, w, y):
    """The sum formula with every reflected weight taken through a reflection matrix."""
    rs = blk.rs
    mu = blk.weight_of(y)
    top = blk.param_for_weight(mu)
    inversions = {b.coords for b in w.inversions}
    out = CharVector(VERMA)
    for beta in r_plus_of_weight(blk, mu):
        lower = blk.param_for_weight(dot_action(rs, reflection_through(rs, beta), mu))
        if beta.coords in inversions:
            out = out + CharVector(VERMA, {top: 1}) - CharVector(VERMA, {lower: 1})
        else:
            out = out + CharVector(VERMA, {lower: 1})
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_formula_matches_reflection_matrices(data):
    label = data.draw(st.sampled_from(sorted(BASES)))
    blk = block(label, data.draw(st.integers(0, len(BASES[label]) - 1)))
    group = all_elements(blk.rs)
    w = group[data.draw(st.integers(0, len(group) - 1))]
    # y must lie in the integral Weyl group for its weight to be in the orbit
    y = blk.group[data.draw(st.integers(0, len(blk.group) - 1))]
    got = sum_formula(SumFormulaInput(block=blk, w=w, y=y))
    want = reflection_matrix_sum(blk, w, y)
    assert got.vector == want
    assert got.rplus_mu == r_plus_of_weight(blk, blk.weight_of(y))
    # no two roots of R+(mu) reflect mu to one weight, so no terms merge
    top = blk.param_for_weight(blk.weight_of(y))
    assert [abs(c) for x, c in want.items() if x != top] == [1] * len(got.rplus_mu)


# one F4 example takes about 1 ms, and building its W_lam view 15 ms
@settings(max_examples=60, deadline=timedelta(seconds=1))
@given(st.data())
def test_twisting_functors_give_the_twisted_sum_vector(data):
    # the Hecke algebra oracle (hecke_path.py) on W_lambda, every base
    label = data.draw(st.sampled_from(sorted(BASES)))
    blk = block(label, data.draw(st.integers(0, len(BASES[label]) - 1)))
    w = data.draw(st.sampled_from(all_elements(blk.rs)))
    y = data.draw(st.sampled_from(blk.params))
    difference, at_zero = twist_difference(blk, w, y)
    assert at_zero == {y * integral_view(blk).w0: 1}
    e = all_elements(blk.rs)[0]
    assert difference == (
        sum_formula(SumFormulaInput(block=blk, w=w, y=y)).vector
        - sum_formula(SumFormulaInput(block=blk, w=e, y=y)).vector
    )


#: coordinates of the drawn base weights: integral, half and third integral
COORDS = tuple(Fraction(c) for c in ("-1", "-2", "-1/2", "-3/2", "-1/3", "-2/3"))


@cache
def drawn_block(label, coords):
    return make_block(build_root_system(label), Weight(coords))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blocks_of_rational_weights_match_the_orbit_weights(data):
    label = data.draw(st.sampled_from(("A3", "B3", "C3", "D4", "B4")))
    rank = build_root_system(label).rank
    coords = tuple(data.draw(st.sampled_from(COORDS)) for _ in range(rank))
    try:
        blk = drawn_block(label, coords)
    except NotAntidominant:
        assume(False)
    rs, base = blk.rs, blk.base
    group = all_elements(rs)
    # w lies in the integral Weyl group iff w(lam) - lam is in the root lattice
    members = [w for w in group if rs.in_root_lattice(weight_action(w, base) - base)]
    first = {}
    for w in members:
        first.setdefault(dot_action(rs, w, base), w)
    assert list(blk.group) == members
    assert list(blk.params) == list(first.values())
    for _ in range(8):
        w = group[data.draw(st.integers(0, len(group) - 1))]
        y = group[data.draw(st.integers(0, len(group) - 1))]
        inp = SumFormulaInput(block=blk, w=w, y=y)
        assert outcome(sum_formula, inp) == outcome(_weight_sum, inp)


#: the blocks of ``BASES`` and the regular blocks of rank 2
RELABELLED = (
    *((label, coords) for label, bases in sorted(BASES.items()) for coords in bases),
    *((label, (-2, -2)) for label in ("A2", "B2", "G2")),
)


def relabelled_cartan(cartan, sigma):
    """The Cartan matrix ``cartan`` with node i renumbered sigma[i]."""
    n = len(cartan)
    moved = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            moved[sigma[i]][sigma[j]] = cartan[i][j]
    return moved


def relabelled_system(label, sigma):
    """The root system of ``label`` with node i renumbered sigma[i]."""
    return build_root_system(relabelled_cartan(CARTAN_BY_LABEL[label], sigma))


@cache
def relabelled_block(label, coords, sigma):
    """The block through ``coords`` of ``label`` with node i renumbered sigma[i]."""
    return make_block(relabelled_system(label, sigma), weight(*relabel(sigma, coords)))


def relabel(sigma, coords):
    """Coordinates indexed by nodes, with coordinate i moved to sigma[i]."""
    out = [None] * len(coords)
    for i, c in enumerate(coords):
        out[sigma[i]] = c
    return tuple(out)


def carrier(rs, sigma):
    """The map from elements to the elements of ``rs`` whose words have
    letter i read as sigma[i]."""
    return lambda w: element_from_word(rs, tuple(sigma[i - 1] + 1 for i in w.word))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelling_the_nodes_carries_the_block_along(data):
    # "first in table order" must not depend on how the nodes are numbered
    label, coords = data.draw(st.sampled_from(RELABELLED))
    blk = make_block(build_root_system(label), weight(*coords))
    sigma = tuple(data.draw(st.permutations(range(blk.rs.rank))))
    moved = relabelled_block(label, coords, sigma)
    rs = moved.rs

    def carry(w):
        return element_from_word(rs, tuple(sigma[i - 1] + 1 for i in w.word))

    def roots(betas):
        return {relabel(sigma, beta.coords) for beta in betas}

    def vector(v):
        return CharVector(v.basis, {carry(x): c for x, c in v.items()})

    assert {carry(y) for y in blk.params} == set(moved.params)
    group = all_elements(blk.rs)
    if blk.rs.rank == 2:
        pairs = [(w, y) for w in group for y in blk.group]
    else:
        pairs = [(data.draw(st.sampled_from(group)), data.draw(st.sampled_from(blk.group)))
                 for _ in range(4)]
    for w, y in pairs:
        for x in (w, y):
            assert carry(x).length == x.length
            assert {beta.coords for beta in carry(x).inversions} == roots(x.inversions)
        got = sum_formula(SumFormulaInput(block=moved, w=carry(w), y=carry(y)))
        want = sum_formula(SumFormulaInput(block=blk, w=w, y=y))
        assert got.vector == vector(want.vector)
        assert {beta.coords for beta in got.rplus_mu} == roots(want.rplus_mu)
        if blk.rs.rank == 2:
            table = layers_multiplicity_free(SumFormulaInput(block=moved, w=carry(w), y=carry(y)))
            want_table = layers_multiplicity_free(SumFormulaInput(block=blk, w=w, y=y))
            assert table.zero_top == want_table.zero_top
            assert table.layers == {carry(x): d for x, d in want_table.layers.items()}


def carried_covers_and_ideals(rs, moved, sigma):
    """The covers and lower ideals of ``rs``, each element w carried to the
    element of ``moved`` whose word is w's with letter i read as sigma[i]."""
    carry = [
        element_from_word(moved, tuple(sigma[i - 1] + 1 for i in w.word))._k
        for w in all_elements(rs)
    ]
    tables = _group_tables(rs)
    covers = {(carry[j], carry[k]) for j, k in tables.covers()}
    ideals = {
        carry[k]: sum(1 << carry[j] for j in _bits(ideal)) for k, ideal in enumerate(tables.ideals)
    }
    return covers, ideals


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("A3", "B3", "C3", "D4")), st.data())
def test_relabelling_the_nodes_carries_the_covers_along(label, data):
    # the covers are read off the tables in table order, and the order
    # depends on the numbering; the Bruhat order does not
    rs = build_root_system(label)
    sigma = tuple(data.draw(st.permutations(range(rs.rank))))
    moved = relabelled_system(label, sigma)
    covers, ideals = carried_covers_and_ideals(rs, moved, sigma)
    tables = _group_tables(moved)
    assert covers == set(tables.covers())
    assert ideals == dict(enumerate(tables.ideals))


@pytest.mark.parametrize(
    "label, sigma",
    [("A3", (2, 1, 0)), ("D4", (2, 1, 3, 0)), ("D4", (3, 1, 0, 2)), ("D4", (2, 1, 0, 3))],
)
def test_diagram_automorphisms_map_covers_to_covers(label, sigma):
    # A3's flip, D4's triality and one of its transpositions: each fixes
    # the Cartan matrix, so it is an automorphism of W and of its Bruhat order
    rs = build_root_system(label)
    assert relabelled_system(label, sigma) is rs
    covers, ideals = carried_covers_and_ideals(rs, rs, sigma)
    tables = _group_tables(rs)
    assert covers == set(tables.covers())
    assert ideals == dict(enumerate(tables.ideals))



#: A2's flip, A3's flip and D4's triality, both ways round
AUTOMORPHISMS = (("A2", (1, 0)), ("A3", (2, 1, 0)), ("D4", (2, 1, 3, 0)), ("D4", (3, 1, 0, 2)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(AUTOMORPHISMS), st.data())
def test_diagram_automorphisms_carry_the_sum_formula_along(automorphism, data):
    # sigma fixes the Cartan matrix, so it carries the block through lam to
    # the block through sigma(lam) of the same root system, (w, y) to
    # (sigma w, sigma y), and with them the sum vectors, R+(mu) and, in A2,
    # the layer tables of the built-in matrix
    label, sigma = automorphism
    rs = build_root_system(label)
    assert relabelled_system(label, sigma) is rs
    coords = tuple(
        data.draw(st.sampled_from((-1, -2, -3, Fraction(-1, 2), Fraction(-3, 2))))
        for _ in range(rs.rank)
    )
    try:
        blk = make_block(rs, weight(*coords))
    except NotAntidominant:
        assume(False)
    moved = make_block(rs, weight(*relabel(sigma, coords)))

    def carry(w):
        return element_from_word(rs, tuple(sigma[i - 1] + 1 for i in w.word))

    def roots(betas):
        return {relabel(sigma, beta.coords) for beta in betas}

    assert {carry(y) for y in blk.params} == set(moved.params)
    group = all_elements(rs)
    if rs.rank == 2:
        pairs = [(w, y) for w in group for y in blk.group]
    else:
        pairs = [(data.draw(st.sampled_from(group)), data.draw(st.sampled_from(blk.group)))
                 for _ in range(4)]
    for w, y in pairs:
        got = sum_formula(SumFormulaInput(moved, carry(w), carry(y)))
        want = sum_formula(SumFormulaInput(blk, w, y))
        assert got.vector == CharVector(VERMA, {carry(x): c for x, c in want.vector.items()})
        assert {beta.coords for beta in got.rplus_mu} == roots(want.rplus_mu)
        if rs.rank == 2 and blk.regular and blk.integral:
            table = layers_multiplicity_free(SumFormulaInput(moved, carry(w), carry(y)))
            want_table = layers_multiplicity_free(SumFormulaInput(blk, w, y))
            assert table.zero_top == want_table.zero_top
            assert table.layers == {carry(x): d for x, d in want_table.layers.items()}

@settings(max_examples=80, deadline=None)
@given(st.data())
def test_group_and_dot_action_laws(data):
    rs = build_root_system(data.draw(st.sampled_from(("B3", "F4"))))
    tables = _group_tables(rs)
    group = tables.elements
    k, j = (data.draw(st.integers(0, len(group) - 1)) for _ in range(2))
    u, v = group[k], group[j]
    assert group[tables.inverse[k]].mat == matrix_path.inverse(rs, u.mat)
    assert (u * v).mat == matrix_path.product(u.mat, v.mat)
    assert (u * v).inverse() == v.inverse() * u.inverse()
    lam = data.draw(weights(rs.rank))
    assert dot_action(rs, u, dot_action(rs, v, lam)) == dot_action(rs, u * v, lam)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bruhat_order_symmetries(data):
    rs = build_root_system(data.draw(st.sampled_from(("B4", "F4"))))
    group = all_elements(rs)
    y = group[data.draw(st.integers(0, len(group) - 1))]
    if data.draw(st.booleans()):
        x = group[data.draw(st.integers(0, len(group) - 1))]
    else:
        # a product of a subword of a reduced word of y lies below y
        keep = data.draw(st.lists(st.booleans(), min_size=y.length, max_size=y.length))
        x = element_from_word(rs, tuple(i for i, k in zip(y.word, keep) if k))
        assert bruhat_leq(x, y)
    w0 = longest_element(rs)
    below = bruhat_leq(x, y)
    assert bruhat_leq(x.inverse(), y.inverse()) == below
    assert bruhat_leq(y * w0, x * w0) == below


@cache
def regular_block(label):
    rs = build_root_system(label)
    return make_block(rs, weight(*[-2] * rs.rank))


@cache
def bruhat_pairs(label):
    params = regular_block(label).params
    return [[bruhat_leq(x, y) for x in params] for y in params]


def user_rows(label, seed):
    """A random matrix that the loader accepts, as lists: 1 on the diagonal,
    0 to 3 below it where x < y in the Bruhat order, and 0 elsewhere."""
    rng = random.Random(seed)
    below = bruhat_pairs(label)
    n = len(below)
    return [
        [int(i == j) or (rng.randint(0, 3) if below[i][j] else 0) for j in range(n)]
        for i in range(n)
    ]


def user_matrix(label, seed):
    blk = regular_block(label)
    names = [word_text(w) for w in blk.params]
    return load_decomposition_file(blk, {"params": names, "matrix": user_rows(label, seed)})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_change_basis_round_trip(data):
    label = data.draw(st.sampled_from(("A2", "B2", "G2", "A3")))
    blk = regular_block(label)
    dm = user_matrix(label, data.draw(st.integers(0, 2**32))) if label == "A3" else None
    n = len(blk.params)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    for basis, other in ((VERMA, SIMPLE), (SIMPLE, VERMA)):
        v = CharVector(basis, dict(zip(blk.params, coeffs)))
        there = change_basis(blk, v, other, dm)
        assert there.basis == other
        assert change_basis(blk, there, basis, dm) == v


@st.composite
def unitriangular(draw, base, below):
    """A nonnegative lower unitriangular matrix: ``base`` with up to eight
    entries redrawn from 0, 1 and 2, each in row i at a position of
    ``below[i]``, which lies below the diagonal."""
    rows = [list(row) for row in base]
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(1, len(rows) - 1))
        rows[i][draw(st.sampled_from(below[i]))] = draw(st.sampled_from((0, 1, 2)))
    return tuple(map(tuple, rows))


def layers_or_refusal(layers, inp, dm):
    try:
        return layers(inp, dm)
    except VermatwistError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_rows_match_the_dense_walks(data):
    label = data.draw(st.sampled_from(("A2", "B2", "G2", "A3")))
    blk = regular_block(label)
    n = len(blk.params)
    ideals = _group_tables(blk.rs).ideals
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    bruhat = [[ideal >> j & 1 for j in range(n)] for ideal in ideals]
    # any position below the diagonal in rank 2, the Bruhat pattern in A3
    if label == "A3":
        below = [[j for j in range(i) if ideals[i] >> j & 1] for i in range(n)]
    else:
        below = [range(i) for i in range(n)]
    base = data.draw(st.sampled_from((bruhat, identity)))
    dm = DecompositionMatrix(blk.params, data.draw(unitriangular(base, below)))
    assert dm.inverse_rows == layer_path.inverse_rows(dm)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    for basis, other in ((VERMA, SIMPLE), (SIMPLE, VERMA)):
        v = CharVector(basis, dict(zip(blk.params, coeffs)))
        there = change_basis(blk, v, other, dm)
        assert there == layer_path.change_basis(dm, v, other)
        assert change_basis(blk, there, basis, dm) == v
    group = all_elements(blk.rs)
    for y in blk.params:
        for w in group:
            inp = SumFormulaInput(block=blk, w=w, y=y)
            assert layers_or_refusal(layers_multiplicity_free, inp, dm) == layers_or_refusal(
                layer_path.layer_table, inp, dm
            )


def kept_terms_call(blk, kind, w, y, dm):
    """One call at (w, y) as plain data: ``sum_formula`` by ``y`` or by
    ``mu``, or ``layers_multiplicity_free`` or its refusal."""
    if kind == "layers":
        return layers_or_refusal(layers_multiplicity_free, SumFormulaInput(blk, w, y), dm)
    inp = SumFormulaInput(blk, w, y) if kind == "y" else SumFormulaInput(blk, w, mu=blk.weight_of(y))
    return sum_formula(inp)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_terms_a_block_keeps_cannot_be_observed(data):
    # a block keeps the untwisted terms of each parameter it has read: a
    # sequence of calls on one block gives what each call gives on a
    # fresh block, also after the caller writes into a returned vector
    label = data.draw(st.sampled_from(sorted(BASES)))
    index = data.draw(st.integers(0, len(BASES[label]) - 1))
    rs = build_root_system(label)
    blk = make_block(rs, weight(*BASES[label][index]))
    # the Bruhat incidence matrix is multiplicity free, and B3 is small enough
    dm = None
    if (label, index) == ("B3", 0):
        ideals = _group_tables(rs).ideals
        n = len(blk.params)
        dm = DecompositionMatrix(
            blk.params, tuple(tuple(ideal >> j & 1 for j in range(n)) for ideal in ideals)
        )
    group = all_elements(rs)
    # a few y, so that calls come back to each
    ys = data.draw(st.lists(st.sampled_from(blk.group), min_size=1, max_size=3))
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(("y", "mu", "layers")))
        w = data.draw(st.sampled_from(group))
        y = data.draw(st.sampled_from(ys))
        got = kept_terms_call(blk, kind, w, y, dm)
        assert got == kept_terms_call(make_block(rs, blk.base), kind, w, y, dm)
        if kind != "layers":
            coeffs = got.vector._coeffs
            for x in coeffs:
                coeffs[x] = 7
            coeffs[y] = coeffs[w] = -7


def bruhat_rows(blk):
    """The Bruhat incidence matrix of a regular integral block, as lists in
    the block's parameter order; the loader accepts it for any such block,
    and its layers exist at every (w, y)."""
    n = len(blk.params)
    return [[ideal >> j & 1 for j in range(n)] for ideal in _group_tables(blk.rs).ideals]


#: one renumbering of the nodes each, and in neither is the carried table
#: order the moved system's
RELABELLED_FILES = (("A3", (2, 0, 1)), ("B3", (1, 2, 0)))


@pytest.mark.parametrize("label, sigma", RELABELLED_FILES)
def test_a_relabelled_decomposition_file_carries_the_layers_along(label, sigma):
    # the file names the moved block's parameters by the carried words, in
    # the original table order: the loader reorders its rows, and the
    # layers read each parameter's position off the matrix; a random
    # matrix adds refusals
    blk = regular_block(label)
    moved = relabelled_block(label, (-2,) * blk.rs.rank, sigma)
    group = all_elements(blk.rs)
    carry = dict(zip(group, map(carrier(moved.rs, sigma), group)))
    assert [carry[x] for x in blk.params] != list(moved.params)
    names = [word_text(carry[x]) for x in blk.params]
    refused = set()
    for rows in (bruhat_rows(blk), user_rows(label, 0)):
        original = DecompositionMatrix(blk.params, tuple(map(tuple, rows)))
        dm = load_decomposition_file(moved, {"params": names, "matrix": rows})
        for y in blk.params:
            for w in group:
                inp = SumFormulaInput(blk, w, y)
                want = layers_or_refusal(layers_multiplicity_free, inp, original)
                inp = SumFormulaInput(moved, carry[w], carry[y])
                got = layers_or_refusal(layers_multiplicity_free, inp, dm)
                if isinstance(want, tuple):
                    # the message names words, which the renumbering changes
                    assert isinstance(got, tuple) and got[0] is want[0]
                    refused.add(want[0])
                    continue
                assert got.zero_top == want.zero_top
                assert got.layers == {carry[x]: d for x, d in want.layers.items()}
    assert refused


def test_a_relabelled_decomposition_file_through_the_command_line(tmp_path):
    import contextlib
    import io
    import json

    from vermatwist.cli import main
    from vermatwist.weyl import parse_word_text

    label, sigma = RELABELLED_FILES[1]
    blk = regular_block(label)
    rs, n = blk.rs, blk.rs.rank
    moved_rs = relabelled_system(label, sigma)
    carry = carrier(moved_rs, sigma)
    rows = bruhat_rows(blk)
    files = {
        "cartan": {"rank": n, "matrix": relabelled_cartan(CARTAN_BY_LABEL[label], sigma)},
        "moved": {"params": [word_text(carry(x)) for x in blk.params], "matrix": rows},
        "original": {"params": [word_text(x) for x in blk.params], "matrix": rows},
    }
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    w, y = element_from_word(rs, (1, 2)), longest_element(rs)

    def layers(system, decomp, w, y):
        out = io.StringIO()
        argv = ["layers", *system, "--decomp-file", str(tmp_path / decomp)]
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--w", word_text(w), "--y", word_text(y), "--format", "json"]) == 0
        return json.loads(out.getvalue())

    cartan = ("--cartan-file", str(tmp_path / "cartan.json"))
    got = layers(cartan, "moved.json", carry(w), carry(y))
    want = layers(("--type", label), "original.json", w, y)

    def elements(system, words):
        return {element_from_word(system, parse_word_text(system, k)): v for k, v in words.items()}

    assert got["zero_top"] == want["zero_top"]
    for key in ("verma", "simple", "layers"):
        assert elements(moved_rs, got[key]) == {
            carry(x): c for x, c in elements(rs, want[key]).items()
        }


#: E6 in Bourbaki numbering: the chain 1-3-4-5-6, with node 2 on node 4
E6 = tuple(
    tuple(2 if i == j else -1 if {i, j} in ({0, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 3}) else 0
          for j in range(6))
    for i in range(6)
)


def test_e6_diagram_automorphism_carries_the_sum_formula_along():
    # 1 <-> 6 and 3 <-> 5 fix the Cartan matrix; the group has 51,840
    # elements, so the pairs are seeded samples
    sigma = (5, 1, 4, 3, 2, 0)
    rs = build_root_system(E6)
    assert build_root_system(relabelled_cartan(E6, sigma)) is rs
    carry = carrier(rs, sigma)
    blk = make_block(rs, weight(*[-2] * 6))
    group = all_elements(rs)
    rng = random.Random(6)
    for _ in range(50):
        w, y = rng.choice(group), rng.choice(blk.params)
        got = sum_formula(SumFormulaInput(blk, carry(w), carry(y)))
        want = sum_formula(SumFormulaInput(blk, w, y))
        assert got.vector == CharVector(VERMA, {carry(x): c for x, c in want.vector.items()})
        assert {beta.coords for beta in got.rplus_mu} == {
            relabel(sigma, beta.coords) for beta in want.rplus_mu
        }

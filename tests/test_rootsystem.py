"""Root system construction, bilinear forms, and weight classification."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vermatwist import (
    CARTAN_BY_LABEL,
    VERMA,
    IndexOutOfRange,
    NotARoot,
    NotFiniteType,
    Root,
    Weight,
    build_root_system,
    classify_weight,
    dimension_at,
    dot_action,
    element_from_word,
    integral_positive_roots,
    kostant_partition,
    make_block,
    pairing,
    unit_vector,
    weight,
)
from vermatwist.rootsystem import KOSTANT_COST_BOUND, RootSystem, _symmetrizer
from vermatwist.weights import weight_action
from vermatwist.weyl import all_elements


def naive_partition_count(rs, nu):
    """Count multisets of positive roots summing to nu by direct search.

    Deliberately dumb: depth-first over the root list with only a
    nonnegative-coordinate prune.  Used as an oracle for the table
    counter, so it must share no code with it.
    """
    roots = rs.positive_roots

    def go(remaining, start):
        if all(c == 0 for c in remaining):
            return 1
        total = 0
        for k in range(start, len(roots)):
            coords = roots[k].coords
            nxt = tuple(r - c for r, c in zip(remaining, coords))
            if any(c < 0 for c in nxt):
                continue
            total += go(nxt, k)
        return total

    return go(tuple(nu), 0)


def test_b2_positive_roots_frozen():
    rs = build_root_system("B2")
    assert [r.coords for r in rs.positive_roots] == [(0, 1), (1, 0), (1, 1), (2, 1)]
    assert rs.symmetrizer == (1, 2)



def test_symmetrizer_is_minimal_on_each_component():
    # each Dynkin component starts at 1 and is scaled on its own: B2 beside
    # G2, G2 beside B2 and an isolated node, and B2 with its short root first
    assert _symmetrizer(((2, -2, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -3, 2))) == (
        1, 2, 3, 1)
    assert _symmetrizer(((2, -1, 0, 0), (-3, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))) == (
        3, 1, 1, 1)
    assert _symmetrizer(((2, -1), (-2, 2))) == (2, 1)
    assert build_root_system("F4").symmetrizer == (2, 2, 1, 1)
    # symmetrizable but of no finite type, with entries whose quotient
    # along an edge is whole after a gcd: -2 over -4, and a long node
    # between two short ones
    assert _symmetrizer(((2, -2), (-4, 2))) == (2, 1)
    assert _symmetrizer(((2, -2, 0), (-1, 2, -1), (0, -2, 2))) == (1, 2, 1)
    assert _symmetrizer(((2, -1, 0), (-2, 2, -2), (0, -1, 2))) == (2, 1, 2)

def test_root_counts_by_type():
    expected = {"A1": 1, "A2": 3, "B2": 4, "G2": 6, "A3": 6, "B3": 9, "C3": 9, "F4": 24}
    for label, count in expected.items():
        rs = build_root_system(label)
        assert len(rs.positive_roots) == count


def test_positive_roots_sum_to_twice_rho():
    for label in ("A2", "B2", "G2", "B3", "C3"):
        rs = build_root_system(label)
        total = [0] * rs.rank
        for r in rs.positive_roots:
            for i, c in enumerate(r.coords):
                total[i] += c
        as_weight = rs.root_to_weight(Root(tuple(total)))
        assert as_weight == Weight(tuple(Fraction(2) for _ in range(rs.rank)))


def test_registry_interning():
    assert build_root_system("B2") is build_root_system("B2")
    mat = ((2, -2), (-1, 2))
    assert build_root_system(mat) is build_root_system("B2")


def test_custom_matrix_equals_label():
    rs = build_root_system(((2, -3), (-1, 2)))
    assert rs.label == "G2"
    assert rs is build_root_system("G2")
    # transpose convention: still a valid finite system, but not the one
    # the label table uses
    other = build_root_system(((2, -1), (-3, 2)))
    assert other.label is None
    assert len(other.positive_roots) == 6


def test_affine_matrix_rejected():
    with pytest.raises(NotFiniteType):
        build_root_system(((2, -2), (-2, 2)))


def test_malformed_cartan_rejected():
    with pytest.raises(ValueError):
        build_root_system(((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(ValueError):
        build_root_system(((1, 0), (0, 2)))  # diagonal must be 2
    with pytest.raises(ValueError):
        build_root_system(((2, -1, 0), (-1, 2)))  # ragged
    # entries are refused, not truncated: [[2, -1.7], [-1, 2]] is not A2
    for bad in ([[2, -1.7], [-1, 2]], [[2.0]], [[2, -1], [-1, True]], [[2, None], [-1, 2]], 5, [5]):
        with pytest.raises(ValueError):
            build_root_system(bad)


def test_root_validation():
    rs = build_root_system("B2")
    with pytest.raises(NotARoot):
        Root((0, 0))
    with pytest.raises(NotARoot):
        Root((1, -1))
    assert not rs.is_root((3, 1))
    assert rs.is_root((2, 1))
    assert rs.is_root((-2, -1))
    assert Root((-1, -1)) == -Root((1, 1))
    # coordinates that are not whole numbers are refused, not truncated
    for bad in ((1.7, 0), (2.2, 1), ("1", "1"), (None, 1), None, 5):
        with pytest.raises(NotARoot):
            Root(bad)
    for whole in ((True, Fraction(1)), (1.0, 1)):
        assert Root(whole).coords == (1, 1) and all(type(c) is int for c in Root(whole).coords)


def test_weight_validation():
    # a float's binary value is not the rational it stands for, so a float
    # coordinate that is not a whole number is refused, by both constructors
    for bad in ((1.7, 0), (-1.7, -2), (0.5, 1), (float("nan"), 1), (float("inf"), 1)):
        with pytest.raises(ValueError, match="not a rational or a whole float"):
            Weight(bad)
        with pytest.raises(ValueError, match="not a rational or a whole float"):
            weight(*bad)
    for bad in ((None, 1), (1j, 1), ("1/0", 1)):
        with pytest.raises(ValueError):
            weight(*bad)
    for bad in (None, 5):
        with pytest.raises(ValueError, match="must be a sequence"):
            Weight(bad)
    rs = build_root_system("B2")
    with pytest.raises(ValueError):
        make_block(rs, weight(-1.7, -2))
    # whole floats read as ints; every other rational is kept exactly
    for whole in (weight(-2.0, 1.0), Weight((-2.0, True)), weight(Fraction(-2), 1)):
        assert whole.coords == (-2, 1) and all(type(c) is Fraction for c in whole.coords)
    assert weight("-3/2", Fraction(1, 3)).coords == (Fraction(-3, 2), Fraction(1, 3))



def test_a_string_is_no_sequence_of_entries():
    rs = build_root_system("A2")
    for given in ("12", b"12", bytearray(b"\x01\x01"), "", b""):
        with pytest.raises(ValueError, match="weight coordinates must be a sequence, not"):
            Weight(given)
        with pytest.raises(NotARoot, match="root coordinates must be a sequence, not"):
            Root(given)
        with pytest.raises(IndexOutOfRange, match="a word must be a sequence, not"):
            element_from_word(rs, given)
    # a string is still read as one coordinate
    assert Weight(("12", "-1/2")).coords == (12, Fraction(-1, 2))

def test_pairing_against_hand_values():
    rs = build_root_system("B2")
    rho = rs.rho
    # <rho, gamma check> equals the coroot height.  In B2 with alpha
    # short: beta -> 1, alpha -> 1, (alpha+beta) is short so its coroot
    # is alpha_check + 2 beta_check -> 3, (2alpha+beta) is long so its
    # coroot is alpha_check + beta_check -> 2.
    vals = [pairing(rs, rho, b) for b in rs.positive_roots]
    assert vals == [Fraction(1), Fraction(1), Fraction(3), Fraction(2)]


def test_pairing_linearity():
    rs = build_root_system("G2")
    a = weight(3, -2)
    b = weight(Fraction(1, 2), 5)
    for beta in rs.positive_roots:
        left = pairing(rs, a + b, beta)
        assert left == pairing(rs, a, beta) + pairing(rs, b, beta)


def test_pairing_on_fundamental_weights():
    # <omega_i, alpha_j check> = delta_ij is the defining property of the
    # coordinates, so pairing against simple roots must read them back.
    for label in ("A2", "B2", "G2", "C3"):
        rs = build_root_system(label)
        simples = [Root(tuple(1 if j == i else 0 for j in range(rs.rank))) for i in range(rs.rank)]
        for i in range(rs.rank):
            omega = weight(*[1 if j == i else 0 for j in range(rs.rank)])
            for j, alpha in enumerate(simples):
                assert pairing(rs, omega, alpha) == (1 if i == j else 0)


def test_root_weight_round_trip():
    rs = build_root_system("B3")
    for r in rs.positive_roots:
        lam = rs.root_to_weight(r)
        assert rs.weight_to_root_coords(lam) == tuple(Fraction(c) for c in r.coords)
        assert rs.in_root_lattice(lam)
    # the spin weight is the nontrivial coset of the B3 root lattice
    assert not rs.in_root_lattice(weight(0, 0, 1))
    assert rs.in_root_lattice(weight(1, 0, 0))


def test_classify_weight_examples():
    rs = build_root_system("B2")
    c = classify_weight(rs, weight(-2, -2))
    assert c.antidominant and c.regular and c.integral and not c.dominant
    c = classify_weight(rs, weight(0, 0))
    assert c.dominant and c.regular and c.integral and not c.antidominant
    c = classify_weight(rs, weight(-1, -1))
    # lambda = -rho is fixed by the dot action: singular, both dominant
    # and antidominant.
    assert c.antidominant and c.dominant and not c.regular
    c = classify_weight(rs, weight(Fraction(-5, 2), -2))
    assert not c.integral and c.antidominant


def test_integral_positive_roots_nonintegral_weight():
    rs = build_root_system("B2")
    lam = weight(Fraction(-5, 2), -2)
    sub = integral_positive_roots(rs, lam)
    assert [b.coords for b in sub] == [(0, 1)]
    full = integral_positive_roots(rs, weight(-2, -2))
    assert full == rs.positive_roots


def test_kostant_partition_small_hand_values():
    rs = build_root_system("B2")
    assert kostant_partition(rs, (0, 0)) == 1
    assert kostant_partition(rs, (1, 0)) == 1
    assert kostant_partition(rs, (1, 1)) == 2  # (1,1) or (1,0)+(0,1)
    assert kostant_partition(rs, (2, 1)) == 3
    # (2,2): {2a+b, b}, {a+b, a+b}, {a+b, a, b}, {a, a, b, b}
    assert kostant_partition(rs, (2, 2)) == 4
    assert kostant_partition(rs, (-1, 0)) == 0


def test_kostant_partition_matches_naive_search():
    for label in ("A1", "A2", "B2", "G2", "A3"):
        rs = build_root_system(label)
        bound = 6 if rs.rank <= 2 else 4
        ranges = [range(bound + 1)] * rs.rank

        def tuples(rs=rs, ranges=ranges):
            if rs.rank == 1:
                return [(a,) for a in ranges[0]]
            if rs.rank == 2:
                return [(a, b) for a in ranges[0] for b in ranges[1]]
            return [
                (a, b, c)
                for a in ranges[0]
                for b in ranges[1]
                for c in ranges[2]
            ]

        for nu in tuples():
            if sum(nu) > bound:
                continue
            assert kostant_partition(rs, nu) == naive_partition_count(rs, nu), (label, nu)


def test_kostant_partition_refuses_non_integer_coordinates():
    b2 = build_root_system("B2")
    # 1.5 was read as 1, giving the count of (1, 1)
    for nu in (
        (1.5, 1), (Fraction(1, 2), 0), (float("inf"), 0), (float("nan"), 0),
        (None, 0), (1j, 0), (object(), 0),
    ):
        with pytest.raises(ValueError, match="integer coordinates"):
            kostant_partition(b2, nu)
    assert kostant_partition(b2, (Fraction(2), 1.0)) == kostant_partition(b2, (2, 1)) == 3


def test_kostant_partition_bound_is_inclusive():
    # one root times a box of 100,000 vectors costs exactly the bound
    a1 = build_root_system("A1")
    assert KOSTANT_COST_BOUND == 100_000
    assert kostant_partition(a1, (99999,)) == 1
    message = r"^partition count of \(100000,\) exceeds the cost bound 100000$"
    with pytest.raises(ValueError, match=message):
        kostant_partition(a1, (100000,))


def test_kostant_partition_is_bounded():
    b2 = build_root_system("B2")
    block = make_block(b2, weight(-2, -2))
    e = block.params[0]
    top = block.weight_of(e)
    for nu in ((400, 400), (1000, 1000), (0, 10**5)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="bound"):
            kostant_partition(b2, nu)
        with pytest.raises(ValueError, match="bound"):
            dimension_at(block, unit_vector(VERMA, e), top - b2.root_to_weight(Root(nu)))
        assert time.perf_counter() - start < 0.1
    assert kostant_partition(b2, (-1, 10**5)) == 0
    # the largest vectors the suite counts: the naive searches' boxes and
    # the heights of the dimension checks
    for label, nu in (("A1", (6,)), ("A2", (6, 6)), ("B2", (6, 6)), ("G2", (6, 6)),
                      ("A3", (4, 4, 4)), ("B3", (4, 4, 4)), ("F4", (4, 4, 4, 4))):
        assert kostant_partition(build_root_system(label), nu) > 0


def test_tall_vectors_inside_the_cost_bound_are_counted():
    # both were refused for the depth of a recursion; each has one
    # partition, as A1 has one positive root and B2 one with a1 = 0
    a1 = build_root_system("A1")
    b2 = build_root_system("B2")
    assert kostant_partition(a1, (500,)) == 1
    assert kostant_partition(b2, (0, 20_000)) == 1
    block = make_block(b2, weight(-2, -2))
    e = block.params[0]
    mu = block.weight_of(e) - b2.root_to_weight(Root((0, 20_000)))
    assert dimension_at(block, unit_vector(VERMA, e), mu) == 1


def test_a_count_leaves_the_root_system_unchanged():
    rs = RootSystem(CARTAN_BY_LABEL["B2"], "B2")
    before = {k: repr(v) for k, v in vars(rs).items()}
    assert kostant_partition(rs, (6, 6)) == naive_partition_count(rs, (6, 6))
    assert {k: repr(v) for k, v in vars(rs).items()} == before


@st.composite
def small_vectors(draw):
    label = draw(st.sampled_from(["A1", "A2", "B2", "G2", "A3", "B3", "C3"]))
    rs = build_root_system(label)
    top = 5 if rs.rank <= 2 else 3
    return rs, tuple(draw(st.integers(0, top)) for _ in range(rs.rank))


@settings(max_examples=200, deadline=None)
@given(small_vectors())
def test_kostant_partition_matches_naive_search_on_every_small_type(case):
    rs, nu = case
    assert kostant_partition(rs, nu) == naive_partition_count(rs, nu)


def test_dot_action_is_group_action():
    for label in ("A2", "B2"):
        rs = build_root_system(label)
        lam = weight(*([-2] * rs.rank))
        elems = all_elements(rs)
        for u in elems:
            for v in elems:
                assert dot_action(rs, u, dot_action(rs, v, lam)) == dot_action(rs, u * v, lam)


def test_linear_action_preserves_form():
    rs = build_root_system("G2")
    elems = all_elements(rs)
    a = weight(1, -3)
    for w in elems:
        moved = weight_action(w, a)
        coords_a = rs.weight_to_root_coords(a)
        coords_m = rs.weight_to_root_coords(moved)
        fa = rs.form(coords_a, coords_a)
        fm = rs.form(coords_m, coords_m)
        assert fa == fm


def a_type(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def test_rank_over_the_group_bound_is_refused_before_anything_is_built(monkeypatch):
    from vermatwist import GroupTooLarge, rootsystem
    from vermatwist.weyl import GROUP_BOUND

    assert GROUP_BOUND is rootsystem.GROUP_BOUND
    # rank 16 gives at least 65,536 elements, rank 17 at least 131,072
    assert 2**16 <= GROUP_BOUND < 2**17
    monkeypatch.setattr(rootsystem, "RootSystem", lambda *args: pytest.fail("built"))
    monkeypatch.setattr(rootsystem, "_validate_cartan", lambda m: pytest.fail("validated"))
    for matrix in (a_type(17), tuple(map(tuple, a_type(17))), [[2]] * 40):
        with pytest.raises(GroupTooLarge, match=r"^a Weyl group of rank \d+ has at least 2\^"):
            build_root_system(matrix)
    with pytest.raises(GroupTooLarge) as exc:
        build_root_system(a_type(17))
    assert str(exc.value) == (
        "a Weyl group of rank 17 has at least 2^17 elements, over the bound of 100000 elements"
    )


def test_rank_under_the_group_bound_is_built():
    rs = build_root_system(a_type(16))
    assert rs.rank == 16 and len(rs.positive_roots) == 16 * 17 // 2


def test_malformed_cartan_input_is_refused():
    with pytest.raises(ValueError, match="^unknown type label 'Z9'; known: "):
        build_root_system("Z9")
    message = r"^Cartan entries \(0,1\) and \(1,0\) must vanish together$"
    with pytest.raises(ValueError, match=message):
        build_root_system([[2, 0], [-1, 2]])
    with pytest.raises(NotFiniteType, match="^Cartan matrix is not symmetrizable$"):
        build_root_system([[2, -1, -1], [-2, 2, -1], [-1, -1, 2]])
    with pytest.raises(ValueError, match="^vector has wrong rank for this root system$"):
        kostant_partition(build_root_system("B2"), (1,))

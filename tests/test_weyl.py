"""Weyl group elements, words, inversion sets, and Bruhat order."""

import itertools
import random
from fractions import Fraction

import pytest

from vermatwist import (
    GroupTooLarge,
    IndexOutOfRange,
    MixedRootSystems,
    Root,
    all_elements,
    bruhat_leq,
    build_root_system,
    element_from_word,
    identity_element,
    inversion_set,
    longest_element,
    parse_word_text,
    reflection_through,
    root_sequence_through,
    simple_reflection,
    word_text,
)
from vermatwist import weights, weyl
from vermatwist.rootsystem import RootSystem
from vermatwist.weyl import _group_tables


def subword_leq(rs, x, y):
    """Bruhat order oracle: x <= y iff some subsequence of a reduced word
    of y multiplies out to x and has length equal to the length of x.

    Independent of the lifting recursion used by the library.
    """
    wy = y.word
    lx = x.length
    if lx > len(wy):
        return False
    for positions in itertools.combinations(range(len(wy)), lx):
        cand = element_from_word(rs, tuple(wy[p] for p in positions))
        if cand == x and cand.length == lx:
            return True
    return lx == 0


def test_element_counts():
    sizes = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48}
    for label, n in sizes.items():
        rs = build_root_system(label)
        assert len(all_elements(rs)) == n


def test_b2_enumeration_order_and_words():
    rs = build_root_system("B2")
    words = [w.word for w in all_elements(rs)]
    assert words == [
        (),
        (1,),
        (2,),
        (1, 2),
        (2, 1),
        (1, 2, 1),
        (2, 1, 2),
        (1, 2, 1, 2),
    ]


def test_simple_reflection_matrices_b2():
    rs = build_root_system("B2")
    s = simple_reflection(rs, 1)
    t = simple_reflection(rs, 2)
    assert s.mat == ((-1, 2), (0, 1))
    assert t.mat == ((1, 0), (1, -1))
    assert (s * s).is_identity
    assert (t * t).is_identity


def test_simple_reflection_bounds():
    rs = build_root_system("B2")
    with pytest.raises(IndexOutOfRange):
        simple_reflection(rs, 0)
    with pytest.raises(IndexOutOfRange):
        simple_reflection(rs, 3)
    # a letter that is not a whole number is refused, not truncated
    for bad in (1.5, 1.9, "2", None):
        with pytest.raises(IndexOutOfRange):
            simple_reflection(rs, bad)
        with pytest.raises(IndexOutOfRange):
            element_from_word(rs, (1, bad))
    for bad in (5, None):
        with pytest.raises(IndexOutOfRange, match="must be a sequence"):
            element_from_word(rs, bad)
    s = simple_reflection(rs, 1)
    assert simple_reflection(rs, True) is s and simple_reflection(rs, Fraction(1)) is s
    assert element_from_word(rs, (1.0, 2.0)) is element_from_word(rs, (1, 2))


def test_mixed_systems_rejected():
    a = simple_reflection(build_root_system("A2"), 1)
    b = simple_reflection(build_root_system("B2"), 1)
    with pytest.raises(MixedRootSystems):
        a * b


def test_non_reduced_word_collapses():
    rs = build_root_system("B2")
    w = element_from_word(rs, (1, 1, 2, 2, 1))
    assert w == simple_reflection(rs, 1)
    assert w.word == (1,)
    assert w.length == 1


def test_length_equals_inversion_count():
    for label in ("A2", "B2", "G2", "B3"):
        rs = build_root_system(label)
        for w in all_elements(rs):
            assert w.length == len(w.inversions)
            assert len(w.word) == w.length


def test_word_round_trip():
    for label in ("B2", "A3"):
        rs = build_root_system(label)
        for w in all_elements(rs):
            assert element_from_word(rs, w.word) == w
            assert w.inverse().inverse() == w
            assert (w * w.inverse()).is_identity


def test_longest_element():
    rs = build_root_system("B2")
    w0 = longest_element(rs)
    assert w0.word == (1, 2, 1, 2)
    assert w0.length == 4
    assert set(w0.inversions) == set(rs.positive_roots)
    # B2 longest element is central
    for w in all_elements(rs):
        assert w * w0 == w0 * w

    rs3 = build_root_system("A3")
    w0 = longest_element(rs3)
    assert w0.length == 6


def test_inversion_sets_b2_frozen():
    rs = build_root_system("B2")
    by_word = {w.word: set(r.coords for r in w.inversions) for w in all_elements(rs)}
    assert by_word[()] == set()
    assert by_word[(1,)] == {(1, 0)}
    assert by_word[(2,)] == {(0, 1)}
    assert by_word[(1, 2)] == {(1, 0), (2, 1)}
    assert by_word[(2, 1)] == {(0, 1), (1, 1)}
    assert by_word[(1, 2, 1)] == {(1, 0), (1, 1), (2, 1)}
    assert by_word[(2, 1, 2)] == {(0, 1), (1, 1), (2, 1)}
    assert by_word[(1, 2, 1, 2)] == {(0, 1), (1, 0), (1, 1), (2, 1)}


def test_inversions_complement_under_w0():
    for label in ("B2", "B3"):
        rs = build_root_system(label)
        w0 = longest_element(rs)
        allpos = set(r.coords for r in rs.positive_roots)
        for w in all_elements(rs):
            mine = set(r.coords for r in w.inversions)
            other = set(r.coords for r in (w * w0).inversions)
            assert mine | other == allpos
            assert mine & other == set()


def test_inversion_set_wrapper():
    rs = build_root_system("A2")
    w = element_from_word(rs, (1, 2))
    assert inversion_set(w) == w.inversions


def test_reflection_through_each_positive_root():
    for label in ("B2", "G2"):
        rs = build_root_system(label)
        for beta in rs.positive_roots:
            r = reflection_through(rs, beta)
            assert (r * r).is_identity
            assert r.length % 2 == 1
            # the reflection sends its own root to the negative; check on
            # root coordinates via the matrix action
            image = tuple(
                sum(r.mat[i][j] * beta.coords[j] for j in range(rs.rank))
                for i in range(rs.rank)
            )
            assert image == tuple(-c for c in beta.coords)
            # and beta is one of its inversions
            assert beta in r.inversions


def test_reflection_through_b2_names():
    rs = build_root_system("B2")
    named = {
        (1, 0): (1,),
        (0, 1): (2,),
        (1, 1): (2, 1, 2),
        (2, 1): (1, 2, 1),
    }
    for coords, word in named.items():
        assert reflection_through(rs, Root(coords)).word == word


def test_bruhat_against_subword_oracle_exhaustive():
    # the lifting loop, and the lower ideals of the group's tables as bitsets
    for label in ("A1", "A2", "B2", "G2"):
        rs = build_root_system(label)
        elems = all_elements(rs)
        ideals = _group_tables(rs).ideals
        for j, x in enumerate(elems):
            for k, y in enumerate(elems):
                below = subword_leq(rs, x, y)
                assert bruhat_leq(x, y) == below, (label, x.word, y.word)
                assert (ideals[k] >> j & 1 == 1) == below, (label, x.word, y.word)


def test_bruhat_against_subword_oracle_sampled_b3():
    rs = build_root_system("B3")
    elems = all_elements(rs)
    rng = random.Random(20240817)
    for _ in range(400):
        x = rng.choice(elems)
        y = rng.choice(elems)
        assert bruhat_leq(x, y) == subword_leq(rs, x, y), (x.word, y.word)


def test_bruhat_walk_builds_no_inverse_table():
    # the lifting property holds for left descents too, so the walk reads
    # x and y themselves and never needs the table of inverses; the root
    # system is a fresh one, whose tables no other test has used
    rs = RootSystem(build_root_system("B3").cartan, "B3")
    elems = all_elements(rs)
    tables = _group_tables(rs)
    assert "inverse" not in vars(tables)
    w0 = longest_element(rs)
    assert all(bruhat_leq(x, w0) and bruhat_leq(elems[0], x) for x in elems)
    assert not bruhat_leq(w0, elems[1])
    assert "inverse" not in vars(tables)


@pytest.mark.parametrize("label", ["B4", "F4"])
def test_bruhat_walk_matches_the_lower_ideals_sampled(label):
    # half the pairs drawn from the lower ideal of y, so that both answers occur
    rs = build_root_system(label)
    elems = all_elements(rs)
    ideals = _group_tables(rs).ideals
    rng = random.Random(f"bruhat-walk:{label}")
    seen = set()
    for _ in range(3000):
        k = rng.randrange(len(elems))
        below = [j for j in range(len(elems)) if ideals[k] >> j & 1]
        j = rng.choice(below) if rng.random() < 0.5 else rng.randrange(len(elems))
        got = bruhat_leq(elems[j], elems[k])
        assert got == bool(ideals[k] >> j & 1), (elems[j].word, elems[k].word)
        seen.add(got)
    assert seen == {True, False}


def test_bruhat_basic_properties():
    rs = build_root_system("B3")
    elems = all_elements(rs)
    w0 = longest_element(rs)
    e = identity_element(rs)
    for w in elems:
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
        assert bruhat_leq(w, w)


def test_bruhat_is_the_closure_of_reflection_covers_d4():
    # x is covered by y iff x = y t for a reflection t and l(x) = l(y) - 1;
    # the Bruhat order is the reflexive transitive closure of that relation
    rs = build_root_system("D4")
    elems = all_elements(rs)
    index = {w: k for k, w in enumerate(elems)}
    reflections = [reflection_through(rs, beta) for beta in rs.positive_roots]
    down = []  # bit k of down[j] is set iff elems[k] <= elems[j]
    for j, y in enumerate(elems):
        below = 1 << j
        for t in reflections:
            k = index[y * t]
            if elems[k].length + 1 == y.length:
                below |= down[k]
        down.append(below)
    for j, y in enumerate(elems):
        for k, x in enumerate(elems):
            assert bruhat_leq(x, y) == bool(down[j] >> k & 1), (x.word, y.word)


@pytest.mark.parametrize("label", ["G2", "A3", "B3", "C3"])
def test_covers_are_the_bruhat_pairs_one_length_apart(label):
    # the oracle is the lifting walk of bruhat_leq, which reads no
    # reflection table; the pairs come ordered by the upper element, then
    # by the lower one
    rs = build_root_system(label)
    elems = all_elements(rs)
    want = [
        (j, k)
        for k, y in enumerate(elems)
        for j, x in enumerate(elems)
        if x.length + 1 == y.length and bruhat_leq(x, y)
    ]
    assert _group_tables(rs).covers() == want


def test_ideals_are_refused_before_any_cover(monkeypatch):
    def no_covers(self):
        raise AssertionError("covers computed for a group over the bound")

    monkeypatch.setattr(weyl, "IDEALS_BOUND", 7)
    monkeypatch.setattr(weyl._GroupTables, "covers", no_covers)
    with pytest.raises(GroupTooLarge):
        _group_tables(RootSystem(build_root_system("B2").cartan, "B2")).ideals


def test_root_sequence_through_all_elements():
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        n = len(rs.positive_roots)
        for w in all_elements(rs):
            seq = root_sequence_through(rs, w)
            assert len(seq.betas) == n
            assert seq.split == w.length
            assert set(seq.betas) == set(rs.positive_roots)
            assert set(seq.betas[: seq.split]) == set(w.inversions)


def test_group_too_large_guard():
    rs = build_root_system("A3")
    with pytest.raises(GroupTooLarge):
        all_elements(rs, bound=10)


def test_parse_word_text():
    rs = build_root_system("B2")
    assert parse_word_text(rs, "e") == ()
    assert parse_word_text(rs, "") == ()
    assert parse_word_text(rs, "sts") == (1, 2, 1)
    assert parse_word_text(rs, "w0") == (1, 2, 1, 2)
    assert parse_word_text(rs, "1,2,1") == (1, 2, 1)
    rs3 = build_root_system("A3")
    assert parse_word_text(rs3, "1,3,2") == (1, 3, 2)
    with pytest.raises(ValueError):
        parse_word_text(rs3, "stu")
    with pytest.raises(ValueError):
        parse_word_text(rs, "xyz")


def test_word_text():
    rs = build_root_system("B2")
    assert word_text(identity_element(rs)) == "e"
    assert word_text(element_from_word(rs, (1, 2, 1))) == "sts"
    rs3 = build_root_system("A3")
    assert word_text(element_from_word(rs3, (1, 3))) == "1,3"


def test_actions_refuse_an_element_of_another_system():
    from types import SimpleNamespace

    from vermatwist import dot_action, make_block, weight

    a2 = build_root_system("A2")
    s = simple_reflection(build_root_system("B2"), 1)
    message = "^element does not belong to the given root system$"
    with pytest.raises(MixedRootSystems, match=message):
        dot_action(a2, s, weight(0, 0))
    with pytest.raises(MixedRootSystems, match=message):
        root_sequence_through(a2, s)
    # what is no element is refused with the same class: None, or an object
    # that carries the system; a block's weight_of refuses it by dot_action
    b2 = s.rs
    e = identity_element(b2)
    obj = SimpleNamespace(rs=b2)
    with pytest.raises(MixedRootSystems, match="^the argument is no Weyl group element$"):
        weights.weight_action(None, weight(0, 0))
    for call in (
        lambda: dot_action(b2, obj, weight(0, 0)),
        lambda: root_sequence_through(b2, None),
        lambda: make_block(b2, weight(-2, -2)).weight_of(None),
    ):
        with pytest.raises(MixedRootSystems, match=message):
            call()
    for x, y in ((e, obj), (None, e)):
        with pytest.raises(
            MixedRootSystems, match="^cannot combine elements of different root systems$"
        ):
            bruhat_leq(x, y)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_function_forms_agree_with_the_operators(label):
    elements = all_elements(build_root_system(label))
    for u in elements:
        assert weyl.inverse(u) == u.inverse()
        assert weyl.length(u) == u.length
        for v in elements:
            assert weyl.multiply(u, v) == u * v


def test_letter_words_are_read_in_rank_2_only():
    assert parse_word_text(build_root_system("G2"), "ts") == (2, 1)
    rs3 = build_root_system("A3")
    for text in ("s", "st"):
        with pytest.raises(ValueError, match=f"^cannot parse Weyl word '{text}'$"):
            parse_word_text(rs3, text)


def test_group_tables_build_a_group_of_exactly_their_bound():
    # once from the group's order before enumerating, once from the tables
    rs = RootSystem(build_root_system("B2").cartan, "B2")
    for _ in range(2):
        assert len(_group_tables(rs, 8).elements) == 8
        with pytest.raises(GroupTooLarge, match="^Weyl group exceeds the bound of 7 elements$"):
            _group_tables(rs, 7)


def test_word_text_and_inverse_refuse_what_is_no_element():
    from types import SimpleNamespace

    from vermatwist import make_block, weight

    b2 = build_root_system("B2")
    for bad in ("x", None, SimpleNamespace(rs=b2, word=()), make_block(b2, weight(-2, -2))):
        for call in (word_text, weyl.inverse):
            with pytest.raises(MixedRootSystems, match="^the argument is no Weyl group element$"):
                call(bad)

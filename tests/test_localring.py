"""The local ring against a reference, and its ring laws.

``Reference`` below is the former implementation, kept as the oracle: it
stores the reduced form itself, ``Fraction`` coefficients with the gcd
cancelled by Euclid over Q after every operation.  The package stores
integer polynomials without a gcd and reduces them, by Euclid on integer
pseudo-remainders, only when an element is hashed, printed or its
``num``/``den`` are read, so every observable of the two must agree on
random expressions.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import operator
import pickle
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vermatwist import LocalRingElem, constant, localring, one, phi, variable, zero
from vermatwist.localring import scaled_equal

Poly = tuple[Fraction, ...]


def _trim(coeffs) -> Poly:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def _p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _p_scale(a: Poly, c: Fraction) -> Poly:
    return _trim(x * c for x in a)


def _p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rest = list(a)
    inv_lead = 1 / b[-1]
    while len(rest) >= len(b):
        c = rest[-1] * inv_lead
        k = len(rest) - len(b)
        quotient[k] = c
        for i, x in enumerate(b):
            rest[k + i] -= c * x
        while rest and rest[-1] == 0:
            rest.pop()
    return _trim(quotient), _trim(rest)


def _p_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, r = _p_divmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return _p_scale(a, 1 / a[-1])


@dataclass(frozen=True)
class Reference:
    """A rational function in X regular at 0, reduced after every operation."""

    num: Poly
    den: Poly = (Fraction(1),)

    def __post_init__(self) -> None:
        num = _trim(self.num)
        den = _trim(self.den)
        if not den:
            raise ZeroDivisionError("denominator is the zero polynomial")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (Fraction(1),))
            return
        g = _p_gcd(num, den)
        if len(g) > 1:
            num, _ = _p_divmod(num, g)
            den, _ = _p_divmod(den, g)
        if den[0] == 0:
            raise ValueError(
                "denominator vanishes at X = 0: element is outside the local ring"
            )
        object.__setattr__(self, "num", _p_scale(num, 1 / den[0]))
        object.__setattr__(self, "den", _p_scale(den, 1 / den[0]))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def valuation(self) -> int | float:
        if not self.num:
            return math.inf
        return next(i for i, c in enumerate(self.num) if c != 0)

    @property
    def is_unit(self) -> bool:
        return self.valuation() == 0

    def specialize(self) -> Fraction:
        return self.num[0] if self.num else Fraction(0)

    def __add__(self, other) -> Reference:
        other = _ref(other)
        return Reference(
            _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den)),
            _p_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> Reference:
        return Reference(_p_scale(self.num, Fraction(-1)), self.den)

    def __sub__(self, other) -> Reference:
        return self + (-_ref(other))

    def __rsub__(self, other) -> Reference:
        return -(self - other)

    def __mul__(self, other) -> Reference:
        other = _ref(other)
        return Reference(_p_mul(self.num, other.num), _p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> Reference:
        other = _ref(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero in the local ring")
        return Reference(_p_mul(self.num, other.den), _p_mul(self.den, other.num))

    def __rtruediv__(self, other) -> Reference:
        return _ref(other) / self

    def __pow__(self, exponent: int) -> Reference:
        if exponent < 0:
            return Reference((1,)) / self ** (-exponent)
        out = Reference((1,))
        for _ in range(exponent):
            out = out * self
        return out

    def __str__(self) -> str:
        top = localring._poly_text(self.num)
        if self.den == (Fraction(1),):
            return top
        return f"({top}) / ({localring._poly_text(self.den)})"

    def __repr__(self) -> str:
        return f"LocalRingElem({str(self)!r})"


def _ref(value) -> Reference:
    return value if isinstance(value, Reference) else Reference((Fraction(value),))


def rand_elem(rng, allow_zero=True):
    deg = rng.randrange(0, 4)
    num = tuple(Fraction(rng.randrange(-4, 5)) for _ in range(deg + 1))
    dden = rng.randrange(0, 3)
    den = [Fraction(rng.randrange(-4, 5)) for _ in range(dden)]
    den.append(Fraction(rng.randrange(1, 5)))  # keep den(0) reachable
    den[0] = Fraction(rng.randrange(1, 5))  # nonzero constant term
    e = LocalRingElem(num, tuple(den))
    if not allow_zero and e.is_zero:
        return one()
    return e


def test_construction_and_normalization():
    x = variable()
    e = (x * x + x) / x
    assert str(e) == "X + 1"
    assert e.specialize() == 1
    assert e.valuation() == 0

    f = (x * x * 3) / (x * 2)
    assert f.specialize() == 0
    assert f.valuation() == 1
    assert str(f) == "3/2*X"


def test_denominator_vanishing_at_zero_rejected():
    with pytest.raises(ValueError):
        LocalRingElem((1,), (0, 1))
    x = variable()
    with pytest.raises(ValueError):
        one() / x
    with pytest.raises(ZeroDivisionError):
        one() / zero()


def test_zero_and_valuation():
    assert zero().is_zero
    assert zero().valuation() == math.inf
    assert one().valuation() == 0
    x = variable()
    assert x.valuation() == 1
    assert (x ** 3).valuation() == 3
    assert (x ** 3 + x).valuation() == 1


def test_units_and_specialize():
    x = variable()
    u = (one() * 2 + x) / (one() - x)
    assert u.is_unit
    assert u.specialize() == 2
    assert not x.is_unit
    assert constant(Fraction(7, 3)).specialize() == Fraction(7, 3)


def test_field_axioms_on_random_sample():
    rng = random.Random(99)
    for _ in range(60):
        a = rand_elem(rng)
        b = rand_elem(rng)
        c = rand_elem(rng)
        assert (a + b) - b == a
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        d = rand_elem(rng, allow_zero=False)
        if d.specialize() != 0:
            assert (a / d) * d == a


def test_valuation_is_multiplicative():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_elem(rng, allow_zero=False)
        b = rand_elem(rng, allow_zero=False)
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_valuation_ultrametric():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_elem(rng)
        b = rand_elem(rng)
        s = a + b
        if s.is_zero:
            continue
        assert s.valuation() >= min(a.valuation(), b.valuation())


def test_integer_and_fraction_coercion():
    x = variable()
    assert 1 + x == x + 1
    assert 2 * x == x * 2
    assert x - Fraction(1, 2) == -(Fraction(1, 2) - x)
    assert (1 / (one() + x)).specialize() == 1
    assert str(Fraction(1, 2) * x * 2) == "X"


BINARY = ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__")


@pytest.mark.parametrize("other", [None, "1", 0.5, [1]], ids=repr)
def test_other_operands_are_not_implemented(other):
    # only elements, ints and Fractions are operands; anything else is left
    # to Python, which raises TypeError, even where division by zero looms
    for elem in (variable() + 1, zero()):
        for name in BINARY:
            assert getattr(elem, name)(other) is NotImplemented, (elem, name)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(elem, other)
            with pytest.raises(TypeError):
                op(other, elem)



def test_an_element_equals_the_scalar_it_is():
    # equality reads an int or a Fraction as the arithmetic does, and an
    # element equal to a scalar hashes as it, so a set or dict key agrees
    x = variable()
    cases = [
        (constant(3), 3),
        ((x + 3) * (x - 1) / (x - 1) - x, 3),
        (constant(Fraction(1, 2)), Fraction(1, 2)),
        ((2 + x) / (4 + 2 * x), Fraction(1, 2)),
        (constant(-7) / 7, -1),
        (zero(), 0),
        (x - x, Fraction(0)),
    ]
    for elem, scalar in cases:
        assert elem == scalar and scalar == elem and not elem != scalar, (elem, scalar)
        assert hash(elem) == hash(scalar), (elem, scalar)
        assert {scalar: 1}[elem] == 1
    assert variable() != 0 and 0 != variable()
    assert constant(3) != 4 and constant(Fraction(1, 2)) != Fraction(1, 3)
    assert 1 / (1 + x) != 1 and (1 + x) / 1 != 1


@pytest.mark.parametrize("other", [None, "1", 0.5, 3.0, [1]], ids=repr)
def test_equality_with_other_objects_is_not_implemented(other):
    # floats too: constant(3) == 3.0 is False, as for any object but an
    # element, an int or a Fraction
    for elem in (constant(3), zero(), variable()):
        assert elem.__eq__(other) is NotImplemented
        assert elem != other and not elem == other

def test_reduction_cancels_common_factor():
    x = variable()
    # (X^2 - 1)/(X - 1) is not in the local ring as written, but the
    # gcd reduction rewrites it as X + 1 before the denominator check.
    num = (x * x - 1)
    den = (x - 1)
    e = num / den
    assert str(e) == "X + 1"
    assert e.specialize() == 1


def test_elements_are_immutable():
    x = variable()
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.num = (Fraction(1),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x._n = [1]
    with pytest.raises(AttributeError):
        del x._d
    assert x == variable()


def test_elements_are_copied_and_pickled():
    # a frozen element is rebuilt from its stored lists, not by assignment
    x = variable() / (1 - variable())
    for clone in (copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))):
        y = clone(x)
        assert type(y) is LocalRingElem and y == x and str(y) == str(x)
        assert (y._n, y._d) == (x._n, x._d)
    # so a weight map, whose entries are elements, is too
    assert copy.deepcopy(phi(2, 6)) == phi(2, 6)
    assert pickle.loads(pickle.dumps(phi(2, 6))) == phi(2, 6)


def test_every_element_is_normalised_once(monkeypatch):
    calls = []
    post_init = LocalRingElem.__post_init__

    def counted(elem):
        calls.append(1)
        post_init(elem)

    monkeypatch.setattr(LocalRingElem, "__post_init__", counted)
    x = variable()
    y = (x * x + 1) / 2 - Fraction(1, 3)
    assert len(calls) == 5
    assert str(y) == "1/2*X^2 + 1/6"
    assert len(calls) == 5  # printing reads the cached canonical form, no new element


REFUSED = "denominator vanishes at X = 0: element is outside the local ring"


def test_powers_of_x_cancel_before_the_ring_test():
    x = variable()
    assert x ** 3 / x ** 2 == x
    assert str(x ** 3 / x ** 2) == "X"
    assert ((x * x + x) / x).valuation() == 0
    with pytest.raises(ValueError, match=REFUSED):
        x / x ** 2
    with pytest.raises(ValueError, match=REFUSED):
        (x * x - x) / (x * x)
    with pytest.raises(ValueError, match=REFUSED):
        LocalRingElem((0, 0, 1), (0, 0, 0, 5))
    assert LocalRingElem((0, 0, 2), (0, 0, 4, 2)) == 1 / (2 + x)


def test_equal_values_with_different_stored_forms():
    x = variable()
    u = (3 - x) / (1 + 2 * x)
    a = (x + 1) * u / u
    b = x + 1
    assert a._n != b._n
    assert a == b
    assert hash(a) == hash(b)
    assert a.num == b.num and a.den == b.den
    assert a != b + Fraction(1, 7)


@pytest.mark.parametrize(
    "num, den, stored",
    [
        ((), (5, 7), ([], [1])),
        ((2,), (-4,), ([-1], [2])),
        ((0, 2), (4, 6), ([0, 1], [2, 3])),
        ((3, 0), (-3, 0, 0), ([-1], [1])),
        ((1, 1), (-1,), ([-1, -1], [1])),
        ((0, 0, 6), (0, 4, -2), ([0, 3], [2, -1])),
    ],
)
def test_the_stored_form_is_normalised_on_construction(num, den, stored):
    # the module docstring's stored form: no trailing zeros, no common
    # power of X, the content of n and d together divided out, d(0) > 0,
    # and the zero element as 0/1
    e = localring._make(list(num), list(den))
    assert [e._n, e._d] == list(stored)


def test_printing_keeps_the_leading_sign():
    x = variable()
    assert str(-x) == "-X"
    assert str(1 - x * x) == "-X^2 + 1"
    assert str(constant(Fraction(-1, 2))) == "-1/2"
    assert str((2 - x) / (3 + x)) == "(-1/3*X + 2/3) / (1/3*X + 1)"


@pytest.mark.parametrize("c", [2, 3, 6])
def test_a_common_factor_with_content_is_cancelled(c):
    # the stored lists X + 1 and c + cX have content 1 together, but the
    # integer gcd of the two is c + cX: only its primitive part, 1 + X,
    # divides both exactly
    a = LocalRingElem((1, 1), (c, c))
    assert (a.num, a.den) == ((Fraction(1, c),), (1,))
    assert a == constant(Fraction(1, c))
    assert str(a) == f"1/{c}"


LEAVES = st.one_of(
    st.just(("x",)),
    st.integers(-4, 4).map(lambda n: ("int", n)),
    st.fractions(-3, 3, max_denominator=4).map(lambda q: ("frac", q)),
    st.tuples(
        st.lists(st.integers(-3, 3), max_size=4),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    ).map(lambda nd: ("elem", tuple(nd[0]), tuple(nd[1]))),
)

TREES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*/"), kids, kids),
        st.tuples(st.just("**"), kids, st.integers(-2, 3)),
    ),
    max_leaves=8,
)


def evaluate(tree, elem):
    """The value of a tree, with ``elem`` as the element class; raw numbers stay numbers."""
    kind = tree[0]
    if kind == "x":
        return elem((0, 1))
    if kind in ("int", "frac"):
        return tree[1]
    if kind == "elem":
        return elem(tree[1], tree[2])
    left = evaluate(tree[1], elem)
    right = tree[2] if kind == "**" else evaluate(tree[2], elem)
    if not isinstance(left, elem) and not isinstance(right, elem):
        left = Fraction(left)  # no float from int / int or int ** -1
    if kind == "**":
        return left ** right
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    return left / right


def observe(tree, elem):
    """Everything a caller can read off the value of a tree, or how it was refused."""
    try:
        value = evaluate(tree, elem)
    except (ValueError, ZeroDivisionError) as exc:
        return None, ("refused", type(exc), str(exc))
    if not isinstance(value, elem):
        value = elem((value,))
    return value, (
        str(value),
        repr(value),
        value.num,
        value.den,
        value.valuation(),
        value.specialize(),
        value.is_zero,
        value.is_unit,
    )


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_every_observable_matches_the_reference(tree):
    _, got = observe(tree, LocalRingElem)
    _, want = observe(tree, Reference)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(TREES, TREES, TREES)
def test_equality_and_hash_match_the_reference(tree_a, tree_b, tree_u):
    a, _ = observe(tree_a, LocalRingElem)
    b, _ = observe(tree_b, LocalRingElem)
    ra, _ = observe(tree_a, Reference)
    rb, _ = observe(tree_b, Reference)
    if a is None or b is None:
        return
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    # the same value through a detour that leaves a common factor in the stored form
    u, _ = observe(tree_u, LocalRingElem)
    if u is not None and u.is_unit:
        detour = a * u / u
        assert detour == a
        assert hash(detour) == hash(a)
        assert str(detour) == str(a)


INT_LISTS = st.lists(st.integers(-5, 5), max_size=4)


@settings(max_examples=200, deadline=None)
@given(INT_LISTS, TREES, INT_LISTS, TREES)
def test_scaled_equal_matches_element_arithmetic(u, tree_a, v, tree_b):
    # u and v may carry trailing zeros; both sides may be zero
    a, _ = observe(tree_a, LocalRingElem)
    b, _ = observe(tree_b, LocalRingElem)
    if a is None or b is None:
        return
    want = LocalRingElem(u) * a == LocalRingElem(v) * b
    assert scaled_equal(u, a, v, b) == want
    assert scaled_equal(u, a, u, a)


# The integer kernels on coefficients of the size the rank 1 laboratory
# reaches (the largest stored coefficient of a map at truncation 30 has
# 105 to 161 bits, across the benchmark's lambdas): the product against the
# schoolbook double loop on each of its fast paths, the scaled comparison
# against element arithmetic with large common factors in the scalar parts,
# and no kernel writing into a list it was given, since a product by a
# scalar 1 returns its other operand itself.

BIG = st.integers(-(2**200), 2**200)
NONZERO_BIG = BIG.filter(bool)


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


#: every fast path of the product: zero, the scalar 1, any scalar, a linear
#: factor (with a zero constant term too), and the general loop
SHORT = st.one_of(
    st.just([]),
    st.just([1]),
    st.lists(BIG, min_size=1, max_size=1),
    st.lists(BIG, min_size=2, max_size=2),
    st.tuples(st.just(0), NONZERO_BIG).map(list),
    st.lists(BIG, min_size=3, max_size=5),
)
LONG = st.lists(BIG, max_size=12)


@settings(max_examples=300, deadline=None)
@given(SHORT, LONG, st.booleans())
def test_z_mul_matches_the_schoolbook_product(short, long, short_first):
    a, b = (short, long) if short_first else (long, short)
    before = list(a), list(b)
    assert localring._z_mul(a, b) == schoolbook(a, b)
    assert (a, b) == before


def _scaled(c, p):
    return [c * x for x in p]


def _elements(draw, g):
    """An element whose denominator is a scalar multiple of ``g``, or a polynomial."""
    num = draw(st.lists(BIG, max_size=6))
    if draw(st.booleans()):
        den = [g * draw(st.integers(-(2**40), 2**40).filter(bool))]
    else:
        den = [draw(NONZERO_BIG)] + draw(st.lists(BIG, max_size=4))
    return localring._make(num, den)


@st.composite
def scaled_pairs(draw):
    """(u, a, v, b) with u, v short or long, scalar parts sharing a large
    gcd, either sign, zero sides, and b equal to u*a/v half of the time."""
    g = draw(st.integers(1, 2**120))
    a = _elements(draw, g)
    u = _scaled(g, draw(st.one_of(SHORT, LONG)))
    v = _scaled(g * draw(st.sampled_from((1, -1, 3))), draw(st.one_of(SHORT, LONG)))
    if v and v[0] and draw(st.booleans()):
        # u*a == v*b exactly, with b's stored form normalised on its own
        b = localring._make(localring._z_mul(u, a._n), localring._z_mul(v, a._d))
    else:
        b = _elements(draw, g)
    return u, a, v, b


@settings(max_examples=400, deadline=None)
@given(scaled_pairs(), st.booleans())
def test_scaled_equal_on_large_coefficients_matches_element_arithmetic(pair, swap):
    u, a, v, b = pair
    if swap:
        u, a, v, b = v, b, u, a
    want = LocalRingElem(u) * a == LocalRingElem(v) * b
    assert scaled_equal(u, a, v, b) == want
    assert scaled_equal(v, b, u, a) == want
    assert scaled_equal(u, a, u, a)
    # a side is zero exactly when its list or its element is
    zero_side = not localring._z_trim(u) or a.is_zero
    assert scaled_equal(u, a, [], b) == zero_side


def test_scaled_equal_cancels_common_scalars():
    # both scalar parts reduce to 1 here: the comparison is one linear pass
    x = variable()
    big = 2**150 + 1
    a = localring._make([3, 7, 2], [big * 6])
    b = localring._make([3, 7, 2], [big * 2])
    assert scaled_equal([big], a, [big * 3], a / 3)
    assert scaled_equal([3], a, [1], b)
    assert not scaled_equal([3], a, [-1], b)
    assert scaled_equal([-3], a, [-1], b)
    assert scaled_equal([0, 3], a, [0, 1], b * 1)
    assert scaled_equal([0, 0, 1], one(), [1], x * x)
    assert not scaled_equal([0, 1], one(), [1], x * x)


def _stored(*elems):
    return [list(p) for e in elems for p in (e._n, e._d)]


@settings(max_examples=150, deadline=None)
@given(scaled_pairs())
def test_no_kernel_writes_into_an_operand(pair):
    u, a, v, b = pair
    lists_before = [list(u), list(v)]
    before = _stored(a, b)
    # the products by 1 share their operand's lists
    shared = [a * 1, 1 * b, b / 1, a + 0]
    operands = [a, b, *shared, 3, Fraction(-2, 5)]
    for p in (a, b, *shared):
        for q in operands:
            for op in (operator.add, operator.sub, operator.mul):
                op(p, q)
                op(q, p)
            if not (q == 0 or isinstance(q, LocalRingElem) and not q.is_unit):
                p / q
            if p.is_unit:
                q / p
            p == q
        -p
        p ** 2
        hash(p)
        str(p)
        scaled_equal(u, p, v, a)
        scaled_equal(v, b, u, p)
    assert _stored(a, b) == before
    assert [u, v] == lists_before


@settings(max_examples=200, deadline=None)
@given(st.lists(BIG, max_size=6), st.lists(BIG, max_size=4), NONZERO_BIG)
def test_stored_form_has_a_positive_denominator_at_zero(num, den, d0):
    # a common content of -1 is cancelled by negating both lists
    e = localring._make(num, [d0] + den)
    assert e._d[0] > 0
    assert e == LocalRingElem(num, [d0] + den)
    assert (-e)._d[0] > 0

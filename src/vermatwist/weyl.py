"""Weyl group elements as rows of integer tables.

The whole group is enumerated once per root system into integer tables,
indexed in the order of :func:`all_elements`, i.e. by (length, word),
where the word of an element is its ShortLex smallest reduced word.  W
acts simply transitively on the orbit of the regular weight rho
(Humphreys, Reflection Groups and Coxeter Groups, 1.12), so the
enumeration walks that orbit in fundamental weight coordinates, where s_i
negates coordinate i and shifts only the coordinates of its Dynkin
neighbours, and s_i w is longer than w iff coordinate i of w(rho) is
positive:

* ``index`` maps w(rho) to the index of w;
* ``left[i][k]``, the index of s_i w_k;
* ``refl[b][k]``, the index of t w_k for the reflection t through the
  b-th positive root, from t_beta = s_i t_gamma s_i with beta = s_i(gamma);
* ``masks[k]``, the inversion set of w_k as a bitmask over
  ``rs.positive_roots``, from N(s_i w) = {a_i} + s_i N(w) when s_i w is
  longer than w.

Two more tables are built on first use: ``inverse[k]``, the index of
w_k^{-1}, read off ``left`` along the word of w_k, and the Bruhat lower
ideals, bitsets over the indices unioned along the covers t_beta w_k of w_k,
beta in ``masks[k]``, which the built-in decomposition matrix of rank at most
2 and the check of a loaded decomposition file read; they are refused
above ``IDEALS_BOUND`` elements.  Right multiplication needs no table of its
own: w_k t_beta = (t_beta w_k^{-1})^{-1} is ``inverse[refl[b][inverse[k]]]``,
shorter than w_k exactly when bit b of ``masks[inverse[k]]`` is set; the
blocks of :mod:`vermatwist.characters` are read off that rule.  The tables,
like :class:`RootSequence`, are an ``errors._Record``.

Every element is a row of the tables, one of the objects
:func:`all_elements` holds: the rows are made once, with the tables, and
``WeylElement(rs, mat)`` returns the row whose image of rho the matrix
gives, or raises ``InvariantViolated`` when the matrix is not a group
element.  So equality and hashing are object identity.  Everything
derived from an element is read off the tables: its length and word, set
on the row; its inversion set, from ``masks`` on first use; products
(walking ``left``), inverses, reflections, the longest element and the
Bruhat order.  So every element needs its group's tables, and a group
over the bound is refused, from its size, before anything is enumerated.
One rule, :func:`_check_element`, says what an element of ``rs`` is:
``w.__class__ is WeylElement and w.rs is rs``.

The actions on roots and weights build no matrix: one walk, :func:`_walk`,
applies the simple reflections of the word right to left to integer
fundamental weight coordinates, by ``rootsystem._reflect_weight``, the rule
the enumeration uses too.  It gives w(v) - v in simple root coordinates,
which :func:`_word_image` reads for the columns of ``mat`` and the roots of
:func:`root_sequence_through`, and the blocks for their drops; and the
image, which the actions on weights read on the integer numerators of a
weight.  Those actions, ``weight_action`` and ``dot_action``, and every
``Fraction`` live in :mod:`vermatwist.weights`, which imports this
module; this one imports no rational arithmetic, so the ``weyl`` command
loads none.

Simple reflection indices are 1-based everywhere in the public API, so
words are tuples like ``(1, 2, 1)``.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .errors import GroupTooLarge, IndexOutOfRange, InvariantViolated, MixedRootSystems
from .errors import _Frozen, _Record
from .rootsystem import GROUP_BOUND, Root, RootSystem, _coroot_of
from .rootsystem import _reflect_root, _reflect_weight, _sequence, _whole

IntMatrix = tuple[tuple[int, ...], ...]


def _word_image(rs: RootSystem, word, j: int) -> tuple[int, ...]:
    """The image of the j-th simple root (0-based) under the product of the
    simple reflections in ``word``, in simple root coordinates: a_j, whose
    fundamental weight coordinates are column j of the Cartan matrix, plus
    its displacement on :func:`_walk`."""
    moved = _walk(rs, word, tuple([row[j] for row in rs.cartan]))[1]
    moved[j] += 1
    return tuple(moved)


class WeylElement(_Frozen):
    """One Weyl group element: a row of its root system's group tables, so
    equality and hashing are object identity (see the module docstring)."""

    rs: RootSystem
    _k: int
    length: int
    word: tuple[int, ...]

    def __new__(cls, rs: RootSystem, mat: IntMatrix) -> WeylElement:
        tables = _group_tables(rs)
        # the matrix acts on simple root coordinates, where 2 rho, the sum
        # of the positive roots, is integral; pairing w(2 rho) with the
        # simple coroots gives twice the fundamental weight coordinates
        two_rho = [sum(column) for column in zip(*(beta.coords for beta in rs.positive_roots))]
        image = [sum(m * x for m, x in zip(row, two_rho)) for row in mat]
        key = tuple(sum(a * x for a, x in zip(row, image)) // 2 for row in rs.cartan)
        k = tables.index.get(key)
        if k is None or tables.elements[k].mat != tuple(map(tuple, mat)):
            raise InvariantViolated("the matrix is not an element of the Weyl group")
        return tables.elements[k]

    def __copy__(self) -> WeylElement:
        return self

    def __deepcopy__(self, memo) -> WeylElement:
        return self

    def __repr__(self) -> str:
        return f"WeylElement({word_text(self)})"

    @cached_property
    def mat(self) -> IntMatrix:
        """The action on simple root coordinates, column j the image of a_j,
        built from the word on first use."""
        return tuple(zip(*(_word_image(self.rs, self.word, j) for j in range(self.rs.rank))))

    @cached_property
    def inv_mat(self) -> IntMatrix:
        return self.inverse().mat

    @cached_property
    def inversions(self) -> tuple[Root, ...]:
        """Positive roots sent negative by w^{-1}, in the standard root order."""
        roots = self.rs.positive_roots
        return tuple(roots[b] for b in _bits(_group_tables(self.rs).masks[self._k]))

    def __mul__(self, other: WeylElement) -> WeylElement:
        if not isinstance(other, WeylElement):
            return NotImplemented
        _check_element(other, self.rs, "cannot combine elements of different root systems")
        tables = _group_tables(self.rs)
        return tables.elements[tables.times(self.word, other._k)]

    def inverse(self) -> WeylElement:
        tables = _group_tables(self.rs)
        return tables.elements[tables.inverse[self._k]]

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    def right_descents(self) -> tuple[int, ...]:
        """1-based indices i with l(w s_i) < l(w): the left descents of w^{-1}."""
        tables = _group_tables(self.rs)
        simple = tables.masks[tables.inverse[self._k]] & (1 << self.rs.rank) - 1
        roots = self.rs.positive_roots
        return tuple(sorted(roots[b].coords.index(1) + 1 for b in _bits(simple)))


def _check_element(w: WeylElement, rs: RootSystem, message: str) -> None:
    """Raise ``MixedRootSystems(message)`` unless ``w`` is an element of
    ``rs``: one of the rows of its tables, the only objects of the class."""
    if w.__class__ is not WeylElement or w.rs is not rs:
        raise MixedRootSystems(message)


def identity_element(rs: RootSystem) -> WeylElement:
    return _group_tables(rs).elements[0]


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The i-th simple reflection, 1-based."""
    return element_from_word(rs, (i,))


def element_from_word(rs: RootSystem, word) -> WeylElement:
    """Product of simple reflections; the word need not be reduced.  A
    letter that is not a whole number in 1..rank raises ``IndexOutOfRange``.

    >>> from vermatwist.rootsystem import build_root_system
    >>> rs = build_root_system("B2")
    >>> element_from_word(rs, (1, 1)).is_identity
    True
    >>> element_from_word(rs, (1, 2, 1, 2)).length
    4
    """
    letters = []
    for i in _sequence(word, IndexOutOfRange, "a word"):
        letter = _whole(i)
        if letter is None or not 1 <= letter <= rs.rank:
            raise IndexOutOfRange(f"simple reflection index {i!r} outside 1..{rs.rank}")
        letters.append(letter)
    tables = _group_tables(rs)
    return tables.elements[tables.times(letters, 0)]


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    return u * v


def inverse(w: WeylElement) -> WeylElement:
    _check_element(w, getattr(w, "rs", None), "the argument is no Weyl group element")
    return w.inverse()


def length(w: WeylElement) -> int:
    return w.length


def inversion_set(w: WeylElement) -> tuple[Root, ...]:
    return w.inversions


def longest_element(rs: RootSystem) -> WeylElement:
    """The longest element, the last in (length, word) order."""
    return _group_tables(rs).elements[-1]


def _group_order(rs: RootSystem) -> int:
    """|W| from the heights of the positive roots, without enumerating.

    The exponents m_1, ..., m_n are the partition conjugate to the numbers
    of positive roots of each height (Kostant), and |W| = prod(m_i + 1).
    """
    per_height = Counter(beta.height for beta in rs.positive_roots)
    order = 1
    for k in range(1, rs.rank + 1):
        order *= 1 + sum(1 for count in per_height.values() if count >= k)
    return order


def _bits(mask: int):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _GroupTables(_Record):
    """The whole group as integer tables, indexed in the order of
    ``all_elements``; the module docstring describes each table."""

    elements: tuple[WeylElement, ...]
    index: dict[tuple[int, ...], int]
    left: tuple[list[int], ...]
    refl: tuple[list[int], ...]
    masks: tuple[int, ...]
    _fields = ("elements", "index", "left", "refl", "masks")

    def times(self, word, k: int) -> int:
        """The index of s_{i_1} ... s_{i_m} w_k for ``word`` = (i_1, ..., i_m)."""
        for i in reversed(word):
            k = self.left[i - 1][k]
        return k

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """``inverse[k]`` is the index of w_k^{-1}: the word of w_k read backwards."""
        return tuple(self.times(w.word[::-1], 0) for w in self.elements)

    def covers(self) -> list[tuple[int, int]]:
        """The Bruhat covers (j, k), by k, then j: w_j = t_beta w_k for beta in the
        inversion set of w_k, one shorter ({w t} = {t w} as sets of reflections t)."""
        elements, masks, refl = self.elements, self.masks, self.refl
        covers = []
        for k, y in enumerate(elements):
            below = sorted(refl[b][k] for b in _bits(masks[k]))
            covers.extend((j, k) for j in below if elements[j].length + 1 == y.length)
        return covers

    @cached_property
    def ideals(self) -> tuple[int, ...]:
        """Bit x of ``ideals[k]`` is set iff w_x <= w_k in the Bruhat order.

        The order is the transitive closure of its covers (Bjorner and
        Brenti, Combinatorics of Coxeter Groups, 2.2); each cover (j, k) has
        j < k, so ``ideals[j]`` is complete when k reads it.  Raises
        ``GroupTooLarge`` first above ``IDEALS_BOUND`` elements."""
        if len(self.elements) > IDEALS_BOUND:
            raise GroupTooLarge(
                f"Bruhat ideals are built for at most {IDEALS_BOUND} elements, "
                f"not {len(self.elements)}"
            )
        ideals = [1 << k for k in range(len(self.elements))]
        for j, k in self.covers():
            ideals[k] |= ideals[j]
        return tuple(ideals)


def _build_tables(rs: RootSystem) -> _GroupTables:
    n = rs.rank
    roots = rs.positive_roots
    root_index = {beta.coords: b for b, beta in enumerate(roots)}
    simple_bit = [root_index[tuple(int(k == i) for k in range(n))] for i in range(n)]
    # perm[i][b] is the index of s_i(beta_b); None for beta_b = a_i, sent negative
    perm = [
        [root_index.get(_reflect_root(rs.cartan, i, beta.coords)) for beta in roots]
        for i in range(n)
    ]
    # the orbit of rho, one length at a time.  s_i w is longer than w iff
    # coordinate i of w(rho) is positive, and its ShortLex word is i
    # followed by the word of w when i is its smallest left descent; so
    # taking i, then w in table order, meets each longer element first
    # through that descent, in (length, word) order.
    size = _group_order(rs)
    rho = (1,) * n
    index = {rho: 0}
    orbit, masks, words = [rho], [0], [()]
    left = [[0] * size for _ in range(n)]
    start = 0
    while start < len(orbit):
        end = len(orbit)
        for i in range(n):
            column, images = left[i], perm[i]
            bit = 1 << simple_bit[i]
            for k in range(start, end):
                v = orbit[k]
                if v[i] < 0:
                    continue
                u = _reflect_weight(rs.cartan, i, v)
                m = index.get(u)
                if m is None:
                    m = index[u] = len(orbit)
                    orbit.append(u)
                    # N(s_i w) = {a_i} + s_i N(w) when the length goes up
                    mask = bit
                    for b in _bits(masks[k]):
                        mask |= 1 << images[b]
                    masks.append(mask)
                    words.append((i + 1,) + words[k])
                column[k] = m
                column[m] = k
        start = end
    if len(orbit) != size:
        raise InvariantViolated("the orbit of rho does not match the group order")

    # the only place elements are made, each with the table data it carries
    elements = []
    for k, word in enumerate(words):
        w = object.__new__(WeylElement)
        w.__dict__.update(rs=rs, _k=k, length=len(word), word=word)
        elements.append(w)

    # t_beta = s_i t_gamma s_i for beta = s_i(gamma) of smaller height, which
    # comes earlier: the positive roots are ordered by height
    simple_of = {b: i for i, b in enumerate(simple_bit)}
    refl: list[list[int]] = []
    for b in range(len(roots)):
        if b in simple_of:
            refl.append(left[simple_of[b]])
            continue
        i = next(i for i in range(n) if perm[i][b] < b)
        li, rg = left[i], refl[perm[i][b]]
        refl.append([li[rg[x]] for x in li])

    return _GroupTables(tuple(elements), index, tuple(left), tuple(refl), tuple(masks))


#: the largest group whose Bruhat lower ideals, |W|^2 bits, are built: a loaded decomposition
#: file checks |W| rows of |W| entries against them, so F4 (1152 elements) and D5 (1920)
#: pass, and B5 (3840), A6 and E6 are refused; the build times are in BENCH_covers.json
#: (``ideals_build_ms``) and the F4 file check in BENCH_layerpath.json
#: (``load_decomposition_file_F4_s``)
IDEALS_BOUND = 2000


def _group_tables(rs: RootSystem, bound: int = GROUP_BOUND) -> _GroupTables:
    """The group's tables, built once per root system.

    Raises ``GroupTooLarge`` before enumerating if |W| exceeds ``bound``.
    """
    tables = rs._weyl_tables
    size = _group_order(rs) if tables is None else len(tables.elements)
    if size > bound:
        raise GroupTooLarge(f"Weyl group exceeds the bound of {bound} elements")
    if tables is None:
        tables = rs._weyl_tables = _build_tables(rs)
    return tables


def all_elements(rs: RootSystem, bound: int = GROUP_BOUND) -> tuple[WeylElement, ...]:
    """Every group element, sorted by (length, ShortLex word).

    The elements come with ``length`` and ``word`` read off the group's
    tables.  Raises ``GroupTooLarge``, before enumerating, if the group
    has more than ``bound`` elements.
    """
    return _group_tables(rs, bound).elements


def bruhat_leq(x: WeylElement, y: WeylElement) -> bool:
    """Bruhat order test by the lifting property, walking table indices.

    With s a left descent of y: if sx < x then x <= y iff sx <= sy,
    otherwise x <= y iff x <= sy (Bjorner and Brenti, Combinatorics of Coxeter
    Groups, 2.2).  The lowest set bit of the ``masks`` entry of y is a left
    descent, and sy is one lookup in the column of s.  Each step shortens y by
    one, so a call takes at most l(y) steps; ``gap`` tracks l(y) - l(x).
    """
    message = "cannot combine elements of different root systems"
    _check_element(x, getattr(x, "rs", None), message)  # x names its own system
    _check_element(y, x.rs, message)
    tables = _group_tables(x.rs)
    masks, refl = tables.masks, tables.refl
    u, v = x._k, y._k
    gap = y.length - x.length
    # the simple roots come first among the positive roots, so the lowest bit
    # of a nonempty inversion set is a simple root, a left descent, and refl
    # of a simple root is the left multiplication column of its reflection
    while gap > 0:
        descents = masks[v]
        i = (descents & -descents).bit_length() - 1
        v = refl[i][v]
        if masks[u] >> i & 1:
            u = refl[i][u]
        else:
            gap -= 1
    return gap == 0 and u == v


def reflection_through(rs: RootSystem, beta: Root) -> WeylElement:
    """The reflection attached to the (positive or negative) root beta."""
    _coroot_of(rs, beta)  # raises NotARoot unless beta is a root of rs
    b = rs.positive_roots.index(beta if beta.is_positive else -beta)
    tables = _group_tables(rs)
    return tables.elements[tables.refl[b][0]]


def _walk(rs: RootSystem, word, m: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """``(w(m), w(m) - m)`` for w the product of ``word``, applied right to
    left to m in fundamental weight coordinates; the displacement is in
    simple root coordinates, as s_i moves v by -v_i a_i."""
    cartan = rs.cartan
    moved = [0] * rs.rank
    for i in reversed(word):
        moved[i - 1] -= m[i - 1]
        m = _reflect_weight(cartan, i - 1, m)
    return m, moved


class RootSequence(_Record):
    """A positive-root enumeration adapted to a group element.

    ``word`` is a reduced word for the longest element whose reversed
    length-``split`` prefix multiplies to the chosen element; ``betas``
    lists every positive root exactly once, the first ``split`` of them
    forming the element's inversion set.
    """

    word: tuple[int, ...]
    betas: tuple[Root, ...]
    split: int
    _fields = ("word", "betas", "split")


def root_sequence_through(rs: RootSystem, w: WeylElement) -> RootSequence:
    """Enumerate the positive roots along a longest-element word through w.

    The reduced word for the longest element is the canonical word of
    w^{-1} followed by the canonical word of w * w0 (lengths add).  The
    j-th root is w applied to the image of the j-th letter's simple root
    under the preceding prefix, negated on the first l(w) steps.  The
    result is checked to enumerate all positive roots with the inversion
    set of w as prefix.
    """
    _check_element(w, rs, "element does not belong to the given root system")
    w0 = longest_element(rs)
    head = w.inverse().word
    tail = (w * w0).word
    letters = head + tail
    n = w.length
    if len(letters) != w0.length:
        raise InvariantViolated("length additivity failed for the w0 word")

    betas = []
    for j, letter in enumerate(letters):
        image = _word_image(rs, w.word + letters[:j], letter - 1)
        betas.append(Root(image if j >= n else tuple(-c for c in image)))

    if {b.coords for b in betas} != {b.coords for b in rs.positive_roots}:
        raise InvariantViolated("root sequence does not enumerate the positive roots")
    if {b.coords for b in betas[:n]} != {b.coords for b in w.inversions}:
        raise InvariantViolated("root sequence prefix does not match the inversion set")
    return RootSequence(word=letters, betas=tuple(betas), split=n)


def parse_word_text(rs: RootSystem, text: str) -> tuple[int, ...]:
    """Parse a word given as letters ("st", rank <= 2), indices ("1,2"),
    or the aliases "e" (identity) and "w0" (longest element)."""
    stripped = text.strip()
    if stripped in ("", "e"):
        return ()
    if stripped == "w0":
        return longest_element(rs).word
    if rs.rank <= 2 and all(ch in "st" for ch in stripped):
        return tuple(1 if ch == "s" else 2 for ch in stripped)
    try:
        return tuple(int(part) for part in stripped.replace(" ", ",").split(",") if part)
    except ValueError:
        raise ValueError(f"cannot parse Weyl word {text!r}") from None


def word_text(w: WeylElement) -> str:
    """Render an element as its canonical word ("e" for the identity)."""
    _check_element(w, getattr(w, "rs", None), "the argument is no Weyl group element")
    if not w.word:
        return "e"
    if w.rs.rank <= 2:
        return "".join("st"[i - 1] for i in w.word)
    return ",".join(str(i) for i in w.word)

"""Blocks of highest weight modules and their character bookkeeping.

A block is described by an antidominant base weight together with the
integral Weyl group orbit through it under the shifted (dot) action.
Orbit weights are indexed by their minimal length coset representatives,
called the block parameters.  Character vectors are formal integer
combinations of parameters in either the Verma basis or the simple basis;
the two are related by the block's decomposition matrix.

Every block is read off the Weyl group's integer tables and the integer
pairings of lam + rho with the coroots, with no weight built, in one
pass over the group in table order.  The integral Weyl group W_lam is
generated by the reflections through the integral roots, and the
stabilizer of lam + rho by the reflections that fix it (Steinberg), all
of them integral: trivial in a regular block, the parabolic W_J in a
singular integral one, and a reflection subgroup that need not be
parabolic in a singular nonintegral one.  An orbit weight's parameter is
the shortest element of its coset w Stab(lam + rho), which is unique
(Dyer, Reflection subgroups of Coxeter systems, 1990) and so the first
in table order, (length, word).  One right descent rule gives both:
w t_beta comes before w exactly when w(beta) < 0, and w is the shortest
element of w W', for W' a reflection subgroup, exactly when it sends no
positive root of W' negative (Dyer), which for w in W' means w = e.  So
w lies in W_lam iff w = e or w t_beta does, for any integral beta with
w(beta) < 0, and its parameter is that of w t_beta for any such beta
fixing lam + rho, or w itself when there is none.  Only a ``mu`` input
and ``param_for_weight`` build the weight to parameter map.  The drop
y . lam - lam of a parameter is the displacement of lam + rho on the
integer walk of ``weights.dot_action``, so no weight is built for it.

A ``_BlockClass`` holds a block's parameter map, group and parameters,
with the untwisted sum formula terms that :mod:`vermatwist.jantzen`
keeps for each parameter read and, for a regular integral block, the
built-in decomposition matrix.  The right descent rule and the sum
formula kernel read two masks of lam alone: the positive roots fixing
lam + rho and the integral ones.  So one rule shares a class: every
block of a root system with the same pair of masks has the same one,
whatever its lam.  The first such block builds it and
``rs._block_classes`` keeps it by that pair, as ``rs._weyl_tables``
keeps the group's tables; a later one runs no descent loop, builds no
matrix and repeats no first walk.
The regular integral class is the pair (no root, every root).  A root
system keeps one class per pair it has built, a finite set, each for as
long as the root system lives: in F4, the 102,781 antidominant weights
(-k1/q, ..., -k4/q) with q <= 6 and every ki <= 12 give 2,295 classes,
24.1 MiB before any sum is read (tracemalloc).  A class's kept terms are
bounded by one term and one bit slot per entry of the reflection table
``refl``, which the group already holds.

In the regular integral blocks of rank at most 2 the decomposition
matrix is the Bruhat order incidence matrix, read off the lower ideals
of the group's tables: those Weyl groups are dihedral, where all
composition multiplicities of Verma modules are known to be 0 or 1.
Anything larger needs a user supplied matrix, checked once, row by row,
as it is loaded.  Its entries are whole numbers, stored as ints.  Each
matrix keeps, once, the nonzero entries of every row as (position,
entry) pairs.  Verma to simple sums those rows into one dense list of
ints indexed by position, in ``change_basis`` and, once per parameter,
in the layer data :mod:`vermatwist.jantzen` keeps in the matrix;
simple to Verma is a triangular solve on them, as the matrix is
unitriangular, on the same dense lists, and needs no inverse.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, itemgetter
from pathlib import Path

from .errors import (
    BadDecompositionFile,
    InvariantViolated,
    MixedRootSystems,
    NeedsUserMatrix,
    NotAntidominant,
    NotInBlockOrbit,
    UnsupportedBlock,
)
from .rootsystem import RootSystem, _read_json, _Record, _whole, kostant_partition
from .weights import Weight, _check_rank, _numerators, _shifted_pairings, dot_action
from .weyl import (
    WeylElement,
    _check_element,
    _group_tables,
    _walk,
    element_from_word,
    parse_word_text,
    word_text,
)

VERMA = "verma"
SIMPLE = "simple"


class CharVector:
    """Formal integer combination of block parameters in a named basis; a key that
    is no element, or a coefficient not a whole number, raises ``ValueError``."""

    __slots__ = ("basis", "_coeffs")

    def __init__(self, basis: str, coeffs=None):
        if basis not in (VERMA, SIMPLE):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self._coeffs: dict[WeylElement, int] = {}
        if coeffs:
            for w, c in dict(coeffs).items():
                if w.__class__ is not WeylElement:
                    raise ValueError(f"{w!r} is no Weyl group element")
                if type(c) is not int:
                    whole = _whole(c)
                    if whole is None:
                        raise ValueError(f"coefficient {c!r} is not an integer")
                    c = whole
                if c:
                    self._coeffs[w] = c

    @classmethod
    def _of(cls, basis: str, coeffs: dict[WeylElement, int]) -> CharVector:
        """A vector on ``coeffs``, a dict of nonzero ints the package itself
        computed: no check and no copy."""
        v = cls.__new__(cls)
        v.basis = basis
        v._coeffs = coeffs
        return v

    def coeff(self, w: WeylElement) -> int:
        return self._coeffs.get(w, 0)

    def support(self) -> tuple[WeylElement, ...]:
        """The parameters with nonzero coefficient, in table order."""
        return tuple(sorted(self._coeffs, key=attrgetter("_k")))

    def items(self) -> tuple[tuple[WeylElement, int], ...]:
        return tuple((w, self._coeffs[w]) for w in self.support())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def _merge(self, other: CharVector, sign: int) -> CharVector:
        if self.basis != other.basis:
            raise ValueError("cannot combine vectors in different bases")
        merged = dict(self._coeffs)
        for w, c in other._coeffs.items():
            merged[w] = merged.get(w, 0) + sign * c
        return CharVector._of(self.basis, {w: c for w, c in merged.items() if c})

    def __add__(self, other: CharVector) -> CharVector:
        if not isinstance(other, CharVector):
            return NotImplemented
        return self._merge(other, 1)

    def __sub__(self, other: CharVector) -> CharVector:
        if not isinstance(other, CharVector):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self) -> CharVector:
        return CharVector._of(self.basis, {w: -c for w, c in self._coeffs.items()})

    def __rmul__(self, scalar: int) -> CharVector:
        return CharVector(self.basis, {w: scalar * c for w, c in self._coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharVector):
            return NotImplemented
        return self.basis == other.basis and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        if self.is_zero:
            return f"CharVector({self.basis}, 0)"
        parts = []
        for w, c in self.items():
            name = word_text(w)
            parts.append(f"{'+' if c >= 0 else '-'}{abs(c) if abs(c) != 1 else ''}[{name}]")
        return f"CharVector({self.basis}, {' '.join(parts)})"


def unit_vector(basis: str, w: WeylElement) -> CharVector:
    return CharVector(basis, {w: 1})


class _BlockClass:
    """The members of a block, read off the group's tables by the right
    descent rule of the module docstring, and what is read off them alone.

    It reads the tables, ``fixing``, the mask of the positive roots that
    fix lam + rho, and ``root_mask``, that of the integral ones, and
    nothing else, so every block with those two masks shares it.
    ``_param_of[k]`` is the table index of the parameter of w_k . lam, or
    -1 when w_k lies outside the integral Weyl group.  It is the class's
    one membership structure: w_k is a parameter exactly when
    ``_param_of[k] == k``.  It stays a list: an ``array('i')`` would halve
    the classes' memory, but each read boxes the index it returns, about
    25 ns more than a list's, and the sum formula reads it once a call.
    ``group`` is the integral Weyl group and ``params`` the parameters,
    both in table order.  ``_terms``
    holds the untwisted sum formula terms of each parameter read so far,
    by table index, and only ``jantzen._sum_counts`` writes it;
    ``_matrix`` is the built-in decomposition matrix of the regular
    integral class, built on first use, with the layer data ``jantzen``
    keeps in it.
    """

    __slots__ = ("_param_of", "group", "params", "_terms", "_matrix")

    def __init__(self, tables, fixing: int, root_mask: int):
        inv, masks, refl = tables.inverse, tables.masks, tables.refl
        param_of = [0]
        for k in range(1, len(inv)):
            descents = masks[inv[k]]
            step = descents & fixing or descents & root_mask
            p = param_of[inv[refl[(step & -step).bit_length() - 1][inv[k]]]] if step else -1
            param_of.append(p if p < 0 or descents & fixing else k)
        self._param_of = param_of
        self.group = tuple(w for w, p in zip(tables.elements, param_of) if p >= 0)
        self.params = tuple(w for w in self.group if param_of[w._k] == w._k)
        self._terms: dict[int, tuple[dict[WeylElement, int], list]] = {}
        self._matrix: DecompositionMatrix | None = None


class BlockContext:
    """An orbit of the integral Weyl group through an antidominant weight.

    The block is read off the group's tables: its members ``_param_of``,
    ``group``, ``params`` and ``_terms`` are those of its ``_BlockClass``,
    and bit b of ``_root_mask`` is set when the b-th positive root is
    integral for lam.  The class is found by one lookup in
    ``rs._block_classes``, keyed by the mask of the positive roots that
    fix lam + rho and ``_root_mask``, and built there on first use.
    """

    def __init__(self, rs: RootSystem, lam: Weight):
        nums, d = _shifted_pairings(rs, lam)
        for beta, n in zip(rs.positive_roots, nums):
            if n > 0 and n % d == 0:
                raise NotAntidominant(
                    f"base weight must pair nonpositively with {beta!r} after the rho shift"
                )
        self.rs = rs
        self.base = lam
        self.integral = d == 1
        self.regular = 0 not in nums
        self._root_mask = sum(1 << b for b, n in enumerate(nums) if n % d == 0)
        tables = self._tables = _group_tables(rs)
        key = sum(1 << b for b, n in enumerate(nums) if n == 0), self._root_mask
        members = rs._block_classes.get(key)
        if members is None:
            members = rs._block_classes[key] = _BlockClass(tables, *key)
        self._class = members
        self._param_of = members._param_of
        self.group = members.group
        self.params = members.params
        self._terms = members._terms

    @cached_property
    def _param_by_weight(self) -> dict[Weight, WeylElement]:
        """Each orbit weight with its parameter."""
        return {self.weight_of(w): w for w in self.params}

    def __repr__(self) -> str:
        kind = "regular" if self.regular else "singular"
        kind += " integral" if self.integral else " nonintegral"
        return f"BlockContext({self.rs!r}, {kind}, {len(self.params)} parameters)"

    def weight_of(self, w: WeylElement) -> Weight:
        return dot_action(self.rs, w, self.base)

    def param_for_weight(self, mu: Weight) -> WeylElement:
        _check_rank(self.rs, mu)
        try:
            return self._param_by_weight[mu]
        except KeyError:
            raise NotInBlockOrbit(f"{mu!r} is not in the block orbit") from None

    def contains_param(self, w: object) -> bool:
        """Whether ``w`` is a parameter of this block; False for anything else."""
        return w.__class__ is WeylElement and w.rs is self.rs and self._param_of[w._k] == w._k

    def _drop(self, y: WeylElement) -> tuple[int, ...]:
        """Root coordinates of y . lam - lam for a parameter y: the walk's
        displacement of lam + rho, over the denominator d of lam.

        They are integers: y lies in the integral Weyl group, and the
        reflection through an integral root moves a weight by an integer
        multiple of that root; ``InvariantViolated`` if d does not divide them.
        """
        m, d = _numerators(self.rs, self.base, 1)
        moved = _walk(self.rs, y.word, m)[1]
        if any(x % d for x in moved):
            raise InvariantViolated(f"the drop of {y!r} is not in the root lattice")
        return tuple([x // d for x in moved])


def make_block(rs: RootSystem, lam: Weight) -> BlockContext:
    """Build the block through the antidominant weight ``lam``.

    Raises ``NotAntidominant`` when some integral positive coroot pairs
    strictly positively with lam + rho.
    """
    return BlockContext(rs, lam)


def _ints_only(rows) -> bool:
    """Whether every entry of ``rows`` is an int: not a bool, a float or a string."""
    return set(map(type, chain.from_iterable(rows))) <= {int}


class DecompositionMatrix(_Record):
    """Composition multiplicities of simple modules inside Verma modules.

    ``rows[i][j]`` is the multiplicity of the simple module of parameter
    ``params[j]`` inside the Verma module of parameter ``params[i]``.
    Rows and columns follow the block parameter order, which is graded by
    length, so the matrix is lower unitriangular; one that is not, or that
    has a negative entry or one that is not a whole number, raises
    ``BadDecompositionFile``.  Whole numbers of any type are stored as ints.
    Its two primitives, the row sum and the triangular solve, read only
    the nonzero entries of its rows and write into one dense list of ints
    indexed by position.
    """

    params: tuple[WeylElement, ...]
    rows: tuple[tuple[int, ...], ...]
    _fields = ("params", "rows")

    def __init__(self, params: tuple[WeylElement, ...], rows: tuple[tuple[int, ...], ...]) -> None:
        n = len(params)
        try:
            square = len(rows) == n and all(len(row) == n for row in rows)
        except TypeError:  # rows, or one of them, is no sequence
            square = False
        if not square:
            raise BadDecompositionFile("matrix shape does not match the parameter count")
        rs = getattr(next(iter(params), None), "rs", None)
        try:
            for w in params:
                _check_element(w, rs, "")
        except MixedRootSystems:
            raise BadDecompositionFile(
                "matrix parameters must be elements of one root system"
            ) from None
        if not _ints_only(rows):
            rows = tuple(tuple(map(_whole, row)) for row in rows)
            if any(c is None for row in rows for c in row):
                raise BadDecompositionFile("matrix entries must be whole numbers")
        for i, row in enumerate(rows):
            if row[i] != 1 or any(row[i + 1 :]) or min(row) < 0:
                raise BadDecompositionFile(
                    "a decomposition matrix must be nonnegative and lower unitriangular"
                )
        self.__dict__.update(params=params, rows=rows)

    @classmethod
    def _of(
        cls, params: tuple[WeylElement, ...], rows: tuple[tuple[int, ...], ...]
    ) -> DecompositionMatrix:
        """A matrix on ``rows`` of ints the package itself built or checked
        against the block's Bruhat order: no check and no copy."""
        dm = cls.__new__(cls)
        dm.__dict__.update(params=params, rows=rows)
        return dm

    @cached_property
    def _index(self) -> dict[WeylElement, int]:
        return {w: i for i, w in enumerate(self.params)}

    def entry(self, y: WeylElement, x: WeylElement) -> int:
        return self.rows[self._index[y]][self._index[x]]

    @cached_property
    def inverse_rows(self) -> tuple[tuple[int, ...], ...]:
        """The exact inverse, dense: row i solves for the unit vector at i."""
        return tuple(tuple(_solve(self._sparse, ((i, 1),))) for i in range(len(self.params)))

    def inverse_entry(self, y: WeylElement, x: WeylElement) -> int:
        return self.inverse_rows[self._index[y]][self._index[x]]

    @cached_property
    def _sparse(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero entries of each row as (position, multiplicity) pairs."""
        return tuple(tuple(compress(enumerate(row), row)) for row in self.rows)

    @cached_property
    def _layer_data(self) -> dict[WeylElement, tuple[list[int], tuple, list]]:
        """What the layer path of :mod:`vermatwist.jantzen` keeps for each
        parameter it has read, filled by ``jantzen._keep_layer_data`` alone."""
        return {}


def _combine(rows, coeffs) -> list[int]:
    """Sum of c times sparse row i over the (i, c) pairs of ``coeffs``, as
    one dense list of ints indexed by position."""
    out = [0] * len(rows)
    for i, c in coeffs:
        for j, m in rows[i]:
            out[j] += c * m
    return out


def _solve(rows, coeffs) -> list[int]:
    """The x, as one dense list of ints indexed by position, whose sum of
    x_i times sparse row i is given by the (i, c) pairs of ``coeffs``.
    Row i is 1 at i and 0 above it, so walking down, x_i is what remains
    at i."""
    n = len(rows)
    rest = [0] * n
    for i, c in coeffs:
        rest[i] = c
    out = [0] * n
    for i in range(n - 1, -1, -1):
        c = out[i] = rest[i]
        if c:
            for j, m in rows[i]:
                rest[j] -= c * m
    return out


def decomposition_matrix(block: BlockContext, source=None) -> DecompositionMatrix:
    """The block's decomposition matrix.

    Without a ``source`` this is available exactly for regular integral
    blocks of rank at most 2 (Bruhat incidence; see the module docstring).
    ``source`` may be a path to a JSON file, see
    :func:`load_decomposition_file`.
    """
    if source is not None:
        return load_decomposition_file(block, source)
    if not (block.regular and block.integral):
        raise NeedsUserMatrix(
            "no built-in decomposition matrix for singular or nonintegral blocks"
        )
    if block.rs.rank > 2:
        raise NeedsUserMatrix(
            "no built-in decomposition matrix above rank 2; supply one via a file"
        )
    members = block._class
    if members._matrix is None:
        # a regular integral block's parameters are the whole group, in table order
        n = len(block.params)
        rows = tuple(
            tuple(ideal >> j & 1 for j in range(n)) for ideal in _group_tables(block.rs).ideals
        )
        members._matrix = DecompositionMatrix._of(block.params, rows)
    return members._matrix


def load_decomposition_file(block: BlockContext, source) -> DecompositionMatrix:
    """Read and validate a decomposition matrix from JSON.

    Expected shape: ``{"params": [word, ...], "matrix": [[int, ...], ...]}``
    with one word per block parameter.  Rows are reordered to the block's
    canonical parameter order; the matrix must be unitriangular along the
    Bruhat order with nonnegative integer entries.
    """
    if not (block.regular and block.integral):
        raise UnsupportedBlock(
            "user decomposition matrices are only accepted for regular integral blocks"
        )
    # the unitriangularity check reads the Bruhat ideals: a group over their
    # bound is refused here, before the file is read
    ideals = _group_tables(block.rs).ideals
    if isinstance(source, (str, Path)):
        data = _read_json(source, BadDecompositionFile, "decomposition file")
    else:
        data = source
    if not isinstance(data, dict) or "params" not in data or "matrix" not in data:
        raise BadDecompositionFile('decomposition data needs "params" and "matrix" keys')
    words = data["params"]
    # a number is not read as a word: 1 is not the word "1"
    if not isinstance(words, list) or not all(isinstance(p, str) for p in words):
        raise BadDecompositionFile('decomposition data "params" must be a list of words')

    rs = block.rs
    try:
        given = [element_from_word(rs, parse_word_text(rs, p)) for p in words]
    except Exception as exc:
        raise BadDecompositionFile(f"cannot parse parameter words: {exc}") from exc
    if len(given) != len(block.params) or set(given) != set(block.params):
        raise BadDecompositionFile(
            "parameter words do not match the block parameters "
            f"({[word_text(w) for w in block.params]})"
        )
    matrix = data["matrix"]
    n = len(given)
    square = isinstance(matrix, list) and len(matrix) == n
    if not square or any(not isinstance(row, list) or len(row) != n for row in matrix):
        raise BadDecompositionFile("matrix shape does not match the parameter count")
    # a JSON integer, not a float, a string or a boolean
    if not _ints_only(matrix):
        raise BadDecompositionFile("matrix entries must be integers")

    position = {w: k for k, w in enumerate(given)}
    params = block.params
    # a group has at least two elements, so the getter gives tuples
    pick = itemgetter(*(position[x] for x in params))
    rows = tuple(map(pick, pick(matrix)))
    # the parameters are the whole group, in table order; a row that fails
    # is walked entry by entry to name its first fault
    for i, (row, ideal) in enumerate(zip(rows, ideals)):
        if min(row) >= 0 and row[i] == 1 and all(ideal >> j & 1 for j in compress(range(n), row)):
            continue
        for j, c in enumerate(row):
            if c < 0:
                raise BadDecompositionFile("multiplicities must be nonnegative")
            if i == j and c != 1:
                raise BadDecompositionFile("diagonal multiplicities must equal 1")
            if c and not ideal >> j & 1:
                raise BadDecompositionFile(
                    f"nonzero entry at ({word_text(params[i])}, {word_text(params[j])}) "
                    "violates Bruhat unitriangularity"
                )
    return DecompositionMatrix._of(params, rows)


def _block_matrix(block: BlockContext, dm: DecompositionMatrix | None) -> DecompositionMatrix:
    """``dm``, or the built-in matrix when it is None; anything else that
    is not a matrix with the block's parameters raises ``BadDecompositionFile``."""
    if dm is None:
        return decomposition_matrix(block)
    if not isinstance(dm, DecompositionMatrix):
        raise BadDecompositionFile(f"decomposition must be a DecompositionMatrix, not {dm!r}")
    if dm.params != block.params:
        raise BadDecompositionFile("the decomposition matrix belongs to another block")
    return dm


def _check_vector(block: BlockContext, v: CharVector) -> None:
    bad = [w for w in v._coeffs if not block.contains_param(w)]
    if bad:
        # the shortest offender, the first of equals in the vector's order
        first = min(bad, key=lambda w: (w.length, w.word))
        raise ValueError(f"{first!r} is not a parameter of this block")


def change_basis(
    block: BlockContext, v: CharVector, to: str, decomposition: DecompositionMatrix | None = None
) -> CharVector:
    """Rewrite a character vector in the other basis, exactly.

    Verma to simple sums the decomposition matrix rows; simple to Verma
    solves the unitriangular system on the same rows, making the two
    directions mutually inverse on the nose.
    """
    if to not in (VERMA, SIMPLE):
        raise ValueError(f"unknown basis {to!r}")
    _check_vector(block, v)
    if v.basis == to:
        return CharVector._of(to, dict(v._coeffs))
    dm = _block_matrix(block, decomposition)
    index, params = dm._index, dm.params
    coeffs = [(index[y], c) for y, c in v._coeffs.items()]
    out = _combine(dm._sparse, coeffs) if v.basis == VERMA else _solve(dm._sparse, coeffs)
    return CharVector._of(to, {params[j]: c for j, c in enumerate(out) if c})


def dimension_at(
    block: BlockContext,
    v: CharVector,
    mu: Weight,
    decomposition: DecompositionMatrix | None = None,
) -> int:
    """Dimension of the ``mu`` weight space of the virtual module ``v``.

    Verma contributions are Kostant partition counts of the drop from the
    highest weight; simple basis vectors are converted first.
    """
    rs = block.rs
    _check_rank(rs, mu)
    if v.basis == SIMPLE:
        v = change_basis(block, v, VERMA, decomposition)
    _check_vector(block, v)
    # y . lam - mu is the drop of y plus lam - mu, and every drop lies in
    # the root lattice, so no term counts when lam - mu lies outside it
    base = rs.weight_to_root_coords(block.base - mu)
    if any(x.denominator != 1 for x in base):
        return 0
    base = tuple(map(int, base))
    total = 0
    for y, c in v.items():
        nu = tuple(b + d for b, d in zip(base, block._drop(y)))
        total += c * kostant_partition(rs, nu)
    return total

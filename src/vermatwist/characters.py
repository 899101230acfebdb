"""Blocks of highest weight modules and their character bookkeeping.

A block is described by an antidominant base weight together with the
integral Weyl group orbit through it under the shifted (dot) action.
Orbit weights are indexed by their minimal length coset representatives,
called the block parameters.  Character vectors are formal integer
combinations of parameters in either the Verma basis or the simple basis;
the two are related by the block's decomposition matrix.

Regular integral, singular integral and regular nonintegral blocks are
read off the Weyl group's integer tables, with no weight built per
element.  The integral Weyl group is the closure of the identity under
the reflections through the integral roots.  A regular block's
parameters are its group; a singular integral block's are the shortest
elements of the cosets of W_J, for J the simple coroots pairing to 0
with lam + rho.  Only a singular nonintegral block finds its parameters
through the orbit weights, and only it and a ``mu`` input build the
weight to parameter map.

In the regular integral blocks of rank at most 2 the decomposition
matrix is the Bruhat order incidence matrix, read off the lower ideals
of the group's tables: those Weyl groups are dihedral, where all
composition multiplicities of Verma modules are known to be 0 or 1.
Anything larger needs a user supplied matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import (
    BadDecompositionFile,
    NeedsUserMatrix,
    NotAntidominant,
    NotInBlockOrbit,
    UnsupportedBlock,
)
from .rootsystem import RootSystem, Weight, kostant_partition, pairing
from .weyl import (
    WeylElement,
    _group_tables,
    dot_action,
    element_from_word,
    parse_word_text,
    word_text,
)

VERMA = "verma"
SIMPLE = "simple"


class CharVector:
    """Formal integer combination of block parameters in a named basis."""

    __slots__ = ("basis", "_coeffs")

    def __init__(self, basis: str, coeffs=None):
        if basis not in (VERMA, SIMPLE):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self._coeffs: dict[WeylElement, int] = {}
        if coeffs:
            for w, c in dict(coeffs).items():
                if c:
                    self._coeffs[w] = int(c)

    def coeff(self, w: WeylElement) -> int:
        return self._coeffs.get(w, 0)

    def support(self) -> tuple[WeylElement, ...]:
        return tuple(sorted(self._coeffs, key=lambda w: (w.length, w.word)))

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
        return CharVector(self.basis, merged)

    def __add__(self, other: CharVector) -> CharVector:
        return self._merge(other, 1)

    def __sub__(self, other: CharVector) -> CharVector:
        return self._merge(other, -1)

    def __neg__(self) -> CharVector:
        return CharVector(self.basis, {w: -c for w, c in self._coeffs.items()})

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


class BlockContext:
    """An orbit of the integral Weyl group through an antidominant weight.

    Every block but a singular nonintegral one is read off the group's
    tables: ``_param_of[k]`` is the table index of the parameter of
    w_k . lam, or -1 when w_k lies outside the integral Weyl group, and
    bit b of ``_root_mask`` is set when the b-th positive root is
    integral for lam.  A singular nonintegral block has ``_param_of``
    None and finds its parameters through the orbit weights.
    """

    def __init__(self, rs: RootSystem, lam: Weight):
        if len(lam.coords) != rs.rank:
            raise ValueError("weight has wrong rank for this root system")
        shifted = lam + rs.rho
        values = [pairing(rs, shifted, beta) for beta in rs.positive_roots]
        for beta, value in zip(rs.positive_roots, values):
            if value.denominator == 1 and value > 0:
                raise NotAntidominant(
                    f"base weight must pair nonpositively with {beta!r} after the rho shift"
                )
        self.rs = rs
        self.base = lam
        self.integral = lam.is_integral
        self.regular = 0 not in values
        self._root_mask = sum(1 << b for b, v in enumerate(values) if v.denominator == 1)

        # the integral Weyl group is generated by the reflections in integral roots
        tables = _group_tables(rs)
        if self.integral:
            members = range(len(tables.elements))
            self.group = tables.elements
        else:
            members = tables.generated(self._root_mask)
            self.group = tuple(tables.elements[k] for k in members)
        self._param_of: list[int] | None = None
        if self.regular:
            # a regular weight has a trivial stabilizer: every element is a parameter
            self._param_of = [-1] * len(tables.elements)
            for k in members:
                self._param_of[k] = k
            self.params = self.group
        elif self.integral:
            # the stabilizer is W_J for the simple coroots J pairing to 0 with
            # lam + rho, and the parameters are the shortest coset elements
            zero = [i for i, c in enumerate(shifted.coords) if c == 0]
            self._param_of = tables.coset_minima(zero)
            self.params = tuple(
                w for k, w in enumerate(tables.elements) if self._param_of[k] == k
            )
        else:
            params = self._param_by_weight.values()
            self.params = tuple(sorted(params, key=lambda w: (w.length, w.word)))
        self._param_set = frozenset(self.params)
        self._default_decomp: DecompositionMatrix | None = None

    @cached_property
    def _param_by_weight(self) -> dict[Weight, WeylElement]:
        """Each orbit weight with its parameter, the shortest element reaching it."""
        best: dict[Weight, WeylElement] = {}
        for w in self.group:
            mu = dot_action(self.rs, w, self.base)
            cur = best.get(mu)
            if cur is None or (w.length, w.word) < (cur.length, cur.word):
                best[mu] = w
        return best

    def __repr__(self) -> str:
        kind = "regular" if self.regular else "singular"
        kind += " integral" if self.integral else " nonintegral"
        return f"BlockContext({self.rs!r}, {kind}, {len(self.params)} parameters)"

    def weight_of(self, w: WeylElement) -> Weight:
        return dot_action(self.rs, w, self.base)

    def param_for_weight(self, mu: Weight) -> WeylElement:
        try:
            return self._param_by_weight[mu]
        except KeyError:
            raise NotInBlockOrbit(f"{mu!r} is not in the block orbit") from None

    def contains_param(self, w: WeylElement) -> bool:
        return w in self._param_set


def make_block(rs: RootSystem, lam: Weight) -> BlockContext:
    """Build the block through the antidominant weight ``lam``.

    Raises ``NotAntidominant`` when some integral positive coroot pairs
    strictly positively with lam + rho.
    """
    return BlockContext(rs, lam)


@dataclass(frozen=True)
class DecompositionMatrix:
    """Composition multiplicities of simple modules inside Verma modules.

    ``rows[i][j]`` is the multiplicity of the simple module of parameter
    ``params[j]`` inside the Verma module of parameter ``params[i]``.
    Rows and columns follow the block parameter order, which is graded by
    length, so the matrix is lower unitriangular.
    """

    params: tuple[WeylElement, ...]
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def _index(self) -> dict[WeylElement, int]:
        return {w: i for i, w in enumerate(self.params)}

    def entry(self, y: WeylElement, x: WeylElement) -> int:
        return self.rows[self._index[y]][self._index[x]]

    @cached_property
    def inverse_rows(self) -> tuple[tuple[int, ...], ...]:
        """Exact inverse via back substitution on the unitriangular rows."""
        n = len(self.params)
        inv: list[list[int]] = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            for k in range(i):
                c = self.rows[i][k]
                if c:
                    for j in range(k + 1):
                        row[j] -= c * inv[k][j]
            inv.append(row)
        return tuple(tuple(r) for r in inv)

    def inverse_entry(self, y: WeylElement, x: WeylElement) -> int:
        return self.inverse_rows[self._index[y]][self._index[x]]


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
    if block._default_decomp is None:
        # a regular integral block's parameters are the whole group, in table order
        n = len(block.params)
        rows = tuple(
            tuple(ideal >> j & 1 for j in range(n)) for ideal in _group_tables(block.rs).ideals
        )
        block._default_decomp = DecompositionMatrix(block.params, rows)
    return block._default_decomp


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
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadDecompositionFile(f"cannot read decomposition file: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict) or "params" not in data or "matrix" not in data:
        raise BadDecompositionFile('decomposition data needs "params" and "matrix" keys')

    rs = block.rs
    try:
        given = [element_from_word(rs, parse_word_text(rs, str(p))) for p in data["params"]]
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
    if any(type(x) is not int for row in matrix for x in row):
        raise BadDecompositionFile("matrix entries must be integers")

    position = {w: k for k, w in enumerate(given)}
    params = block.params
    rows = tuple(
        tuple(matrix[position[y]][position[x]] for x in params) for y in params
    )
    # the parameters are the whole group, in table order
    ideals = _group_tables(rs).ideals
    for i, y in enumerate(params):
        for j, x in enumerate(params):
            c = rows[i][j]
            if c < 0:
                raise BadDecompositionFile("multiplicities must be nonnegative")
            if i == j and c != 1:
                raise BadDecompositionFile("diagonal multiplicities must equal 1")
            if c and not ideals[i] >> j & 1:
                raise BadDecompositionFile(
                    f"nonzero entry at ({word_text(y)}, {word_text(x)}) "
                    "violates Bruhat unitriangularity"
                )
    return DecompositionMatrix(params, rows)


def _check_vector(block: BlockContext, v: CharVector) -> None:
    bad = [w for w in v._coeffs if not block.contains_param(w)]
    if bad:
        first = min(bad, key=lambda w: (w.length, w.word))
        raise ValueError(f"{first!r} is not a parameter of this block")


def change_basis(
    block: BlockContext, v: CharVector, to: str, decomposition: DecompositionMatrix | None = None
) -> CharVector:
    """Rewrite a character vector in the other basis, exactly.

    Verma to simple uses the decomposition matrix rows; simple to Verma
    uses its unitriangular inverse, making the two directions mutually
    inverse on the nose.
    """
    if to not in (VERMA, SIMPLE):
        raise ValueError(f"unknown basis {to!r}")
    _check_vector(block, v)
    if v.basis == to:
        return CharVector(to, v._coeffs)
    dm = decomposition if decomposition is not None else decomposition_matrix(block)
    out: dict[WeylElement, int] = {}
    rows = dm.rows if v.basis == VERMA else dm.inverse_rows
    for y, c in v._coeffs.items():
        for x, m in zip(dm.params, rows[dm._index[y]]):
            if m:
                out[x] = out.get(x, 0) + c * m
    return CharVector(to, out)


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
    if v.basis == SIMPLE:
        v = change_basis(block, v, VERMA, decomposition)
    _check_vector(block, v)
    rs = block.rs
    total = 0
    for y, c in v.items():
        drop = block.weight_of(y) - mu
        coords = rs.weight_to_root_coords(drop)
        if any(x.denominator != 1 for x in coords):
            continue
        nu = tuple(int(x) for x in coords)
        if any(x < 0 for x in nu):
            continue
        total += c * kostant_partition(rs, nu)
    return total

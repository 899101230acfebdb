"""Finite root systems from Cartan matrices, in integers.

Conventions used throughout the package:

* ``cartan[i][j]`` is the pairing of the j-th simple root against the i-th
  simple coroot.  The simple reflection ``s_i`` therefore acts on simple
  roots by ``s_i(a_j) = a_j - cartan[i][j] * a_i``.
* A :class:`Root` stores integer coordinates in the simple root basis.
* A weight stores rational coordinates in the fundamental weight basis
  (:class:`vermatwist.weights.Weight`); ``rho`` is the weight with every
  coordinate equal to 1.
* ``rs.coroot(b)`` is the coroot ``2 b / (b, b)`` of the root with simple
  root coordinates b, in integer simple coroot coordinates c, so that
  ``<lam, b^vee> = sum(c_i * lam.coords[i])``.

Root systems are interned: building twice from equal Cartan data returns
the same object, so identity comparison is meaningful and cheap.  A root
system is built in integers: the symmetrizer, the root norms and the
integer coroot table.  Weights are the layer :mod:`vermatwist.weights`;
the rational views of a root system, ``rho``, ``form``,
``root_to_weight``, ``weight_to_root_coords``, ``in_root_lattice`` and
the inverse Cartan matrix, import it or ``fractions`` on first use, so
enumerating a Weyl group loads no ``fractions``.  The inverse needs no
elimination: the sum v_i of the positive roots with a_i in their support
is permuted by every s_j with j != i, so it pairs to zero with those
simple coroots and is a multiple k_i of the fundamental weight w_i;
column i of the inverse is v_i / k_i, the one rational step.

Roots, weights and the records of this module, ``weyl``, ``weights``,
``characters`` and ``jantzen`` derive from :class:`vermatwist.errors._Record`,
the package's one record base, which names the fields once and gives
them the equality, hash and repr a frozen dataclass would; no command
loads ``dataclasses``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd, prod

from .errors import GroupTooLarge, InvariantViolated, NotARoot, NotFiniteType, _Record, _set

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .weights import Weight

#: Cartan matrices for the built-in type labels.  Indexing follows the
#: module convention above.  For B2 the first simple root is the short one.
CARTAN_BY_LABEL: dict[str, tuple[tuple[int, ...], ...]] = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "G2": ((2, -3), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "B4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
}


class Root(_Record):
    """A root written in simple root coordinates.

    Roots of a finite system are either positive (all coordinates >= 0) or
    negative (all <= 0); mixed signs are rejected, and so are coordinates
    that are not whole numbers.
    """

    coords: tuple[int, ...]
    _fields = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        given = _sequence(coords, NotARoot, "root coordinates")
        coords = tuple(map(_whole, given))
        if None in coords:
            raise NotARoot(f"root coordinates must be whole numbers: {given!r}")
        _set(self, "coords", coords)
        if not coords or all(c == 0 for c in coords):
            raise NotARoot(f"zero vector is not a root: {coords}")
        if any(c > 0 for c in coords) and any(c < 0 for c in coords):
            raise NotARoot(f"mixed signs in root coordinates: {coords}")

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords)

    @property
    def height(self) -> int:
        return sum(self.coords)

    def __neg__(self) -> Root:
        return Root(tuple(-c for c in self.coords))

    def __repr__(self) -> str:
        return f"Root{self.coords}"


def _validate_cartan(matrix) -> tuple[tuple[int, ...], ...]:
    if not isinstance(matrix, (list, tuple)) or any(
        not isinstance(row, (list, tuple)) for row in matrix
    ):
        raise ValueError("Cartan matrix must be a list of rows")
    # an integer, not a float, a string, a boolean or null
    if any(type(x) is not int for row in matrix for x in row):
        raise ValueError("Cartan matrix entries must be integers")
    rows = tuple(tuple(row) for row in matrix)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("Cartan matrix must be square and non-empty")
    for i in range(n):
        if rows[i][i] != 2:
            raise ValueError(f"Cartan matrix diagonal entry ({i},{i}) must be 2")
        for j in range(n):
            if i != j and rows[i][j] > 0:
                raise ValueError(f"off-diagonal Cartan entry ({i},{j}) must be <= 0")
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                raise ValueError(f"Cartan entries ({i},{j}) and ({j},{i}) must vanish together")
    return rows


def _symmetrizer(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Minimal positive integers d with d[i]*a[i][j] == d[j]*a[j][i].

    Computed per connected component of the Dynkin diagram, in integers:
    d[j] = d[i] * a[i][j] / a[j][i] along each edge, the component scaled
    up whenever that quotient is not whole.  The gcd of a component stays
    1: the scale den/g is coprime to the new entry num/g.  Raises
    ``NotFiniteType`` if the matrix is not symmetrizable.
    """
    n = len(cartan)
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start] = 1
        component = [start]
        for i in component:
            for j in range(n):
                if d[j] or cartan[i][j] == 0:
                    continue
                # both entries are negative, so the quotient is positive
                num, den = -d[i] * cartan[i][j], -cartan[j][i]
                g = gcd(num, den)
                if den != g:
                    for k in component:
                        d[k] *= den // g
                d[j] = num // g
                component.append(j)
    for i in range(n):
        for j in range(n):
            if d[i] * cartan[i][j] != d[j] * cartan[j][i]:
                raise NotFiniteType("Cartan matrix is not symmetrizable")
    return tuple(d)


def _reflect_root(cartan, i: int, c: tuple[int, ...]) -> tuple[int, ...]:
    """s_i(c) for c in simple root coordinates, i 0-based: coordinate i
    changes by -<c, a_i^vee> = -sum_j a_ij c_j, and no other coordinate."""
    return c[:i] + (c[i] - sum(a * x for a, x in zip(cartan[i], c) if x),) + c[i + 1 :]


def _reflect_weight(cartan, i: int, m: tuple) -> tuple:
    """s_i(m) for m in fundamental weight coordinates, i 0-based: each m_j
    changes by -m_i a_ji, for a_i has coordinates column i of the Cartan matrix."""
    c = m[i]
    return tuple([x - c * row[i] for x, row in zip(m, cartan)])


def _generate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> tuple[Root, ...]:
    """Close the simple roots under simple reflections, keeping positives.

    For a finite type this produces exactly the positive roots.  The loop
    aborts with ``NotFiniteType`` once the closure exceeds 10 * rank**2,
    which comfortably covers every finite type (F4 has 24 positive roots).
    """
    n = len(cartan)
    bound = 10 * n * n
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simples)
    queue = list(simples)
    while queue:
        beta = queue.pop()
        for i in range(n):
            img = _reflect_root(cartan, i, beta)
            if img[i] < 0:
                continue
            if img not in seen:
                seen.add(img)
                queue.append(img)
                if len(seen) > bound:
                    raise NotFiniteType(
                        f"positive root closure exceeded {bound} vectors; "
                        "the Cartan matrix is not of finite type"
                    )
    ordered = sorted(seen, key=lambda v: (sum(v), v))
    return tuple(Root(v) for v in ordered)


class RootSystem:
    """A finite root system together with its exact invariant form.

    Instances are immutable once built and interned by Cartan matrix, so
    ``build_root_system(m) is build_root_system(m)`` holds.  Do not call
    the constructor directly; use :func:`build_root_system`.
    """

    def __init__(self, cartan: tuple[tuple[int, ...], ...], label: str | None):
        self.cartan = cartan
        self.rank = len(cartan)
        self.label = label
        self.symmetrizer = _symmetrizer(cartan)
        self.positive_roots = _generate_positive_roots(cartan)
        # a_i^vee = a_i / d_i, so beta^vee = sum 2 d_i beta_i / (beta, beta) a_i^vee,
        # with (beta, beta) = sum_ij beta_i d_i a_ij beta_j
        self._coroots: dict[tuple[int, ...], tuple[int, ...]] = {}
        for beta in self.positive_roots:
            b = beta.coords
            twice = [2 * d * x for d, x in zip(self.symmetrizer, b)]
            norm = sum(t * a * y for t, row in zip(twice, cartan) for a, y in zip(row, b)) // 2
            if any(t % norm for t in twice):
                raise InvariantViolated(f"coroot of {beta!r} is not integral: {twice} / {norm}")
            coroot = tuple(t // norm for t in twice)
            self._coroots[b] = coroot
            self._coroots[(-beta).coords] = tuple(-c for c in coroot)
        # the Weyl group tables, built on first use by weyl.py
        self._weyl_tables = None
        # its block classes by (stabilizer, integral roots) mask, built on
        # first use by characters.py
        self._block_classes = {}

    @cached_property
    def rho(self) -> Weight:
        from .weights import Weight

        return Weight((1,) * self.rank)

    @cached_property
    def _cartan_inv(self) -> tuple[tuple[Fraction, ...], ...]:
        """The inverse Cartan matrix: column i is w_i in simple root coordinates,
        v_i / k_i for the root sum v_i of the module docstring."""
        from fractions import Fraction

        columns = []
        for i, row in enumerate(self.cartan):
            v = [sum(c) for c in zip(*(b.coords for b in self.positive_roots if b.coords[i]))]
            k = sum(a * x for a, x in zip(row, v))
            columns.append([Fraction(x, k) for x in v])
        return tuple(zip(*columns))

    def __repr__(self) -> str:
        name = self.label if self.label else f"rank {self.rank}"
        return f"RootSystem({name}, {len(self.positive_roots)} positive roots)"

    def is_root(self, coords: tuple[int, ...]) -> bool:
        return coords in self._coroots

    def coroot(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Simple coroot coordinates of the coroot of ``coords``; ``NotARoot`` if no root."""
        try:
            return self._coroots[coords]
        except (KeyError, TypeError):
            raise NotARoot(f"{coords!r} is not a root of {self!r}") from None

    def form(self, x: tuple, y: tuple) -> Fraction:
        """Invariant symmetric form on root coordinates.

        ``form(a_i, a_j) = d_i * cartan[i][j]`` where d is the symmetrizer,
        so every short root has squared length 2 * min(d).
        """
        from fractions import Fraction

        rows = zip(x, self.symmetrizer, self.cartan)
        return Fraction(sum(xi * d * a * yj for xi, d, row in rows for a, yj in zip(row, y)))

    def root_to_weight(self, beta: Root) -> Weight:
        """Rewrite a root, or any root lattice vector, in fundamental weight coordinates."""
        from .weights import Weight

        return Weight(_lattice_pairings(self, beta))

    def weight_to_root_coords(self, lam: Weight) -> tuple[Fraction, ...]:
        """Coordinates of a weight in the simple root basis (rational)."""
        from .weights import _check_rank

        _check_rank(self, lam)
        return tuple(sum(a * m for a, m in zip(row, lam.coords) if a) for row in self._cartan_inv)

    def in_root_lattice(self, lam: Weight) -> bool:
        return all(c.denominator == 1 for c in self.weight_to_root_coords(lam))


_REGISTRY: dict[tuple[tuple[int, ...], ...], RootSystem] = {}

#: the largest Weyl group enumerated by default: E6 (51,840 elements) passes, and
#: A8, D7, B7 and C7 (322,560 elements and more) are refused; ``build_root_system``
#: refuses a rank whose group must exceed it
GROUP_BOUND = 100_000


def build_root_system(cartan) -> RootSystem:
    """Build (or fetch the interned) root system for the given Cartan data.

    ``cartan`` is either a type label such as ``"B2"`` (see
    ``CARTAN_BY_LABEL``) or a square matrix of integers.  Raises
    ``NotFiniteType`` when the data does not describe a finite root system,
    and ``GroupTooLarge``, before reading the entries, when its rank alone
    puts the Weyl group over ``GROUP_BOUND`` elements.

    >>> rs = build_root_system("B2")
    >>> [r.coords for r in rs.positive_roots]
    [(0, 1), (1, 0), (1, 1), (2, 1)]
    >>> build_root_system("B2") is rs
    True
    """
    label: str | None
    if isinstance(cartan, str):
        key = cartan.upper()
        if key not in CARTAN_BY_LABEL:
            raise ValueError(f"unknown type label {cartan!r}; known: {sorted(CARTAN_BY_LABEL)}")
        matrix, label = CARTAN_BY_LABEL[key], key
    elif isinstance(cartan, (list, tuple)) and 2 ** len(cartan) > GROUP_BOUND:
        # the simple reflections of distinct subsets multiply to distinct
        # elements, so a group of rank r has at least 2^r elements
        raise GroupTooLarge(
            f"a Weyl group of rank {len(cartan)} has at least 2^{len(cartan)} elements, "
            f"over the bound of {GROUP_BOUND} elements"
        )
    else:
        matrix = _validate_cartan(cartan)
        label = next((name for name, known in CARTAN_BY_LABEL.items() if known == matrix), None)
    if matrix not in _REGISTRY:
        _REGISTRY[matrix] = RootSystem(matrix, label)
    return _REGISTRY[matrix]


def _coroot_of(rs: RootSystem, beta: Root) -> tuple[int, ...]:
    if not isinstance(beta, Root):
        raise NotARoot(f"expected a Root, got {beta!r}")
    return rs.coroot(beta.coords)


def _lattice_pairings(rs: RootSystem, gamma: Root) -> tuple[int, ...]:
    """The pairings of a root lattice vector with the simple coroots."""
    c = gamma.coords
    return tuple(sum(a * x for a, x in zip(row, c, strict=True)) for row in rs.cartan)


def coroot_pairing_roots(rs: RootSystem, gamma: Root, beta: Root) -> int:
    """Pairing of the root ``gamma`` against the coroot of ``beta``, in integers."""
    coroot = _coroot_of(rs, beta)
    return sum(c * m for c, m in zip(coroot, _lattice_pairings(rs, gamma)) if c)


def _whole(c) -> int | None:
    """``c`` as an int when it is a whole number, else None (inf and nan are not)."""
    try:
        whole = int(c)
    except (OverflowError, TypeError, ValueError):
        return None
    return whole if whole == c else None


def _read_json(path, error: type[Exception], what: str):
    """The JSON value in the file at ``path``, or ``error`` naming ``what``;
    imported here, ``json`` and ``pathlib`` load only when a file is read."""
    import json
    from pathlib import Path

    try:
        return json.loads(Path(path).read_text())
    # ValueError covers bad JSON, bytes that are not UTF-8 and the digit limit
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what}: {exc}") from exc


def _sequence(given, error: type[Exception], what: str) -> tuple:
    """``given`` as a tuple; ``error`` when it is not iterable, or when it
    is a string or bytes, whose characters or bytes would be read as
    entries: ``"12"`` is not the sequence (1, 2)."""
    if isinstance(given, (str, bytes, bytearray)):
        raise error(f"{what} must be a sequence, not {given!r}")
    try:
        return tuple(given)
    except TypeError:
        raise error(f"{what} must be a sequence, not {given!r}") from None


#: bound on |R+| * prod(nu_i + 1), which bounds the table updates of a count
KOSTANT_COST_BOUND = 100_000


def kostant_partition(rs: RootSystem, nu: tuple[int, ...]) -> int:
    """Number of ways to write ``nu`` as a sum of positive roots.

    ``nu`` is given in simple root coordinates.  Vectors outside the
    nonnegative cone have no partitions.  The count fills one table over
    the box 0 <= v <= nu, one positive root at a time, so it holds
    prod(nu_i + 1) integers and makes at most |R+| * prod(nu_i + 1)
    updates.  It raises ``ValueError`` before allocating when that product
    exceeds ``KOSTANT_COST_BOUND``.  On a 2-core VM with Python 3.11, B2 at
    nu = (150, 150) takes 0.02 s, the slowest count inside the bound, A1
    at (99999,), about 0.03 s, and (400, 400) is refused.  A coordinate
    that is not a whole number raises ``ValueError``.

    >>> rs = build_root_system("B2")
    >>> kostant_partition(rs, (1, 1))
    2
    >>> kostant_partition(rs, (0, 0))
    1
    """
    whole = tuple(map(_whole, nu))
    if None in whole:
        raise ValueError(f"partition count of {tuple(nu)} needs integer coordinates")
    nu = whole
    if len(nu) != rs.rank:
        raise ValueError("vector has wrong rank for this root system")
    roots = [r.coords for r in rs.positive_roots]
    if any(c < 0 for c in nu):
        return 0
    size = prod(c + 1 for c in nu)
    if len(roots) * size > KOSTANT_COST_BOUND:
        raise ValueError(f"partition count of {nu} exceeds the cost bound {KOSTANT_COST_BOUND}")
    # count[k] counts the partitions of the k-th v of the box, in row-major
    # order, into the roots taken so far; v - beta comes before v, so the
    # pass over the v >= beta may take beta again
    strides = [prod(c + 1 for c in nu[i + 1 :]) for i in range(rs.rank)]
    count = [1] + [0] * (size - 1)
    for beta in roots:
        shift = sum(b * s for b, s in zip(beta, strides))
        offsets = (range(b * s, (c + 1) * s, s) for b, c, s in zip(beta, nu, strides))
        for k in map(sum, product(*offsets)):
            count[k] += count[k - shift]
    return count[-1]

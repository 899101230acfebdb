"""Jantzen-style sum formula for twisted highest weight modules.

The central computation: given a twist w and an orbit weight mu = y . lam
in a block, the sum of the characters of the Jantzen filtration layers
(below the top) of the twisted module is

    sum over beta in R+(mu) of
        ch M(y . lam) - ch M(s_beta y . lam)   if beta lies in R+(w),
        ch M(s_beta y . lam)                   otherwise,

where R+(mu) collects the positive roots whose coroot pairs with mu + rho
to a strictly positive integer, and R+(w) is the inversion set of w.
Pairing zero is deliberately excluded from R+(mu): those reflections fix
mu under the dot action and contribute no wall crossing, which keeps the
formula aligned with the simplicity dichotomy for the untwisted module.

For w = e this is the classical Verma module sum formula; for w = w0 the
two branches swap roles, which is the complementarity identity tested in
the suite.

In every block each term is a lookup in the group's tables.  Let y be the
parameter of mu = y . lam: the first element, in table order, of its
coset y Stab(lam + rho), which is the coset's unique shortest element
(Dyer; see :mod:`vermatwist.characters`).  With lam + rho antidominant,
y sends the positive roots of the stabilizer to positive roots, so
R+(mu) is the inversion set of y cut down to the integral roots, and
s_beta . mu = (t_beta y) . lam.  The terms never merge:
s_beta . mu = mu - n beta with n > 0, so distinct roots give distinct
orbit weights, none of them mu, and each term sits once, at the
parameter of the coset of t_beta y (t_beta y itself in a regular block,
whose stabilizer is trivial).

A twist only flips signs: at w = e every term is +1, Jantzen's classical
formula, and the twist w turns the term of each beta in R+(mu) cap R+(w)
to -1 and adds one [y] for each.  So the first call at y makes one
integer walk over the bits of R+(mu), reads t_beta y off the reflection
table and keeps in the block's class (``characters._BlockClass``) the
untwisted terms, each at 1 and keyed by element, and the term of each
root's bit; it builds no weight.  Every call at y, the first one
included, then copies the kept terms and flips the bits of
R+(mu) cap R+(w).  The kept terms take about 70 bytes each, 0.91 MiB for
all 1152 parameters of F4.  Every block of a root system with the same
stabilizer and integral roots shares one class, regular, singular or
nonintegral alike, so each class's terms are walked once per root system
and live as long as it does.

Layer tables are read off the same flip, in the simple basis and in
integers.  With D[x] the sparse row of x in the decomposition matrix,
B(y) = sum over beta in R+(mu) of D[t_beta y] the simple image of the
untwisted terms and F = R+(mu) cap R+(w), the layer vector is

    B(y) - 2 * sum over beta in F of D[t_beta y] + |F| * D[y].

The first layer call at y whose row passes the multiplicity-free check
keeps in the matrix, ``DecompositionMatrix._layer_data``, B(y) as one
dense list of ints indexed by position, summed by the one dense kernel
:func:`vermatwist.characters._combine`, with y's row and each root
bit's term's row, both by reference.  Every call copies B(y), takes
twice the rows of the bits of F off it, and reads each factor's depth at
its position in y's row, where D[y] is 1, plus |F|.  B(y) ends at the
last position of y and its terms, as no row of a lower unitriangular
matrix reaches past its own: for all 1152 parameters of F4 with a loaded
Bruhat incidence matrix that is 5.5 MiB, against 10.2 MiB for the
matrix's dense rows (tracemalloc).  The built-in matrix is held by the
regular class, so its layer data goes with the root system; a loaded
matrix keeps its own.  Positions come from the matrix, as in
:func:`vermatwist.characters.change_basis`; no character vector is
built.

The input, the result and the layer table are
:class:`vermatwist.errors._Record` classes, each with a positional
constructor that stores its fields directly, so the block commands load
no ``dataclasses``.

The two-letter form :func:`sum_formula_xy` is one rewrite of its input,
to twist x * w0 and parameter x * y, and goes through the same walk.
"""

from __future__ import annotations

from .characters import (
    VERMA,
    BlockContext,
    CharVector,
    DecompositionMatrix,
    _block_matrix,
    _combine,
)
from .errors import (
    BadDecompositionFile,
    NotInBlockOrbit,
    NotMultiplicityFree,
    UnsupportedBlock,
    _Record,
)
from .rootsystem import Root
from .weights import Weight, _shifted_pairings
from .weyl import (
    WeylElement,
    _bits,
    _check_element,
    longest_element,
    word_text,
)


class SumFormulaInput(_Record):
    """Pins down one sum formula evaluation.

    Exactly one of ``y`` (an orbit parameter) and ``mu`` (an orbit weight)
    must be given; ``w`` is the twist.
    """

    block: BlockContext
    w: WeylElement
    y: WeylElement | None
    mu: Weight | None
    _fields = ("block", "w", "y", "mu")

    def __init__(
        self,
        block: BlockContext,
        w: WeylElement,
        y: WeylElement | None = None,
        mu: Weight | None = None,
    ) -> None:
        if (y is None) == (mu is None):
            raise ValueError("give exactly one of y and mu")
        _check_element(w, block.rs, "twist does not belong to the block's root system")
        if y is not None:
            _check_element(y, block.rs, "parameter does not belong to the block's root system")
        if mu is not None and not isinstance(mu, Weight):
            raise NotInBlockOrbit(f"mu = {mu!r} is not a Weight")
        fields = self.__dict__
        fields["block"] = block
        fields["w"] = w
        fields["y"] = y
        fields["mu"] = mu


class SumFormulaResult(_Record):
    vector: CharVector
    rplus_mu: tuple[Root, ...]
    rplus_w: tuple[Root, ...]
    _fields = ("vector", "rplus_mu", "rplus_w")

    def __init__(
        self, vector: CharVector, rplus_mu: tuple[Root, ...], rplus_w: tuple[Root, ...]
    ) -> None:
        fields = self.__dict__
        fields["vector"] = vector
        fields["rplus_mu"] = rplus_mu
        fields["rplus_w"] = rplus_w


class LayerTable(_Record):
    """Filtration depth of every composition factor of a twisted module.

    ``layers`` maps each simple factor's parameter to its layer index;
    ``zero_top`` records that no factor sits at depth 0, i.e. the whole
    module coincides with the first filtration step.
    """

    layers: dict[WeylElement, int]
    zero_top: bool
    _fields = ("layers", "zero_top")

    def __init__(self, layers: dict[WeylElement, int], zero_top: bool) -> None:
        fields = self.__dict__
        fields["layers"] = layers
        fields["zero_top"] = zero_top

    def depth_of(self, x: WeylElement) -> int:
        try:
            return self.layers[x]
        except (KeyError, TypeError):
            name = word_text(x) if x.__class__ is WeylElement else repr(x)
            raise KeyError(f"{name} is not a composition factor here") from None

    def by_depth(self) -> tuple[tuple[WeylElement, ...], ...]:
        """The factors regrouped as rows: index k lists the depth k factors.

        Row 0 is always there; a negative depth has no row."""
        top = max([0, *self.layers.values()])
        rows: list[list[WeylElement]] = [[] for _ in range(top + 1)]
        for x in sorted(self.layers, key=lambda w: w._k):
            if self.layers[x] >= 0:
                rows[self.layers[x]].append(x)
        return tuple(map(tuple, rows))


def r_plus_of_weight(block: BlockContext, mu: Weight) -> tuple[Root, ...]:
    """Positive roots pairing to a strictly positive integer with mu + rho."""
    nums, d = _shifted_pairings(block.rs, mu)
    return tuple(b for b, n in zip(block.rs.positive_roots, nums) if n > 0 and n % d == 0)


def _param_index(inp: SumFormulaInput) -> int:
    """Table index of the block parameter of the module's highest weight.

    A ``mu`` input goes through the block's weight map.
    """
    block = inp.block
    if inp.mu is not None:
        return block.param_for_weight(inp.mu)._k
    k = block._param_of[inp.y._k]
    if k < 0:
        raise NotInBlockOrbit(
            f"y = {word_text(inp.y)} lies outside the block's integral Weyl group"
        )
    return k


#: a parameter's kept untwisted terms: each term's element at 1, and the
#: element of each root bit's term
_Kept = tuple[dict[WeylElement, int], list]


def _sum_counts(inp: SumFormulaInput) -> tuple[WeylElement, _Kept, int]:
    """The block parameter y of the module's highest weight, y's kept
    untwisted terms and the flip mask, the bits of R+(mu) cap R+(w).

    The first call at a parameter y of the block's class walks the bits
    of R+(mu) and keeps in ``block._terms``, the class's dict, the
    untwisted terms, each at 1 and keyed by element, and each root's bit
    with its term's element; a later call at y, from any block of the
    class, walks none.  The callers flip: :func:`_verma_counts` in the
    Verma basis and :func:`_layers` in the simple basis.
    """
    block = inp.block
    tables = block._tables
    k = _param_index(inp)
    rplus = tables.masks[k] & block._root_mask
    kept = block._terms.get(k)
    if kept is None:
        elements, refl, param_of = tables.elements, tables.refl, block._param_of
        m = rplus
        terms, at = {}, [None] * len(refl)
        while m:
            low = m & -m
            m ^= low
            b = low.bit_length() - 1
            x = at[b] = elements[param_of[refl[b][k]]]
            terms[x] = 1
        kept = block._terms[k] = terms, at
    return tables.elements[k], kept, rplus & tables.masks[inp.w._k]


def _verma_counts(y: WeylElement, kept: _Kept, flip: int) -> dict[WeylElement, int]:
    """The sum vector of :func:`_sum_counts`'s result as the coefficient
    dict of its Verma basis ``CharVector``: a copy of the kept terms with
    those of the flip mask at -1 (see the module docstring); it holds no
    zeros."""
    terms, at = kept
    coeffs = terms.copy()
    m = flip
    while m:
        low = m & -m
        m ^= low
        coeffs[at[low.bit_length() - 1]] = -1
    # each term lands on its own parameter, never on y (see the module
    # docstring), and [y] gains 1 for each beta in R+(mu) cap R+(w)
    if flip:
        coeffs[y] = flip.bit_count()
    return coeffs


def _rplus_mu(block: BlockContext, y: WeylElement) -> tuple[Root, ...]:
    """R+(mu) for the block parameter y of mu: y's inversions, cut to the
    block's integral roots."""
    # in an integral block no root is cut, and y's inversions are cached
    if block.integral:
        return y.inversions
    roots = block.rs.positive_roots
    return tuple(roots[b] for b in _bits(block._tables.masks[y._k] & block._root_mask))


def sum_formula(inp: SumFormulaInput) -> SumFormulaResult:
    """Evaluate the sum formula by lookups in the group's tables.

    See the module docstring for the shape.  One walk over the bits of
    R+(mu) writes each term into the Verma vector once, at the parameter
    of the coset of t_beta y.
    """
    y, kept, flip = _sum_counts(inp)
    return SumFormulaResult(
        CharVector._of(VERMA, _verma_counts(y, kept, flip)),
        _rplus_mu(inp.block, y),
        inp.w.inversions,
    )


def _xy_input(block: BlockContext, x: WeylElement, y: WeylElement) -> SumFormulaInput:
    """The module the two-letter form names: twist x * w0 at parameter x * y.

    Refuses a block that is not regular and integral, then arguments that
    are no element of the block's root system.
    """
    if not (block.regular and block.integral):
        raise UnsupportedBlock("the two-letter form needs a regular integral block")
    _check_element(x, block.rs, "elements do not belong to the block's root system")
    _check_element(y, block.rs, "elements do not belong to the block's root system")
    return SumFormulaInput(block, x * longest_element(block.rs), x * y)


def sum_formula_xy(block: BlockContext, x: WeylElement, y: WeylElement) -> SumFormulaResult:
    """The sum formula in its two-letter form.

    For parameters written as a product x * y the formula reads: over
    beta in R+(xy) outside R+(x), add ch M(xy . lam) - ch M(s_beta xy . lam);
    over beta in R+(xy) inside R+(x), add ch M(s_beta xy . lam).  The
    inversion set of x * w0 is the complement of R+(x) in R+, so this is
    exactly ``sum_formula`` at twist x * w0 and parameter x * y, and it is
    evaluated as that.  Only regular integral blocks are accepted
    (``UnsupportedBlock``).
    """
    return sum_formula(_xy_input(block, x, y))


def check_xy_consistency(block: BlockContext, x: WeylElement, y: WeylElement) -> bool:
    """Confirm the two-letter form against the direct formula at (x * w0, x * y).

    Both sides are the one rewrite :func:`_xy_input` through the one
    evaluator, so this holds on every input the rewrite accepts and refuses
    what it refuses.  The literal two-letter route, the split on R+(x)
    itself, is the test oracle ``tests/xy_path.py``.
    """
    return sum_formula_xy(block, x, y).vector == sum_formula(_xy_input(block, x, y)).vector


def layers_multiplicity_free(
    inp: SumFormulaInput, decomposition: DecompositionMatrix | None = None
) -> LayerTable:
    """Read off the full Jantzen layer table from the sum formula.

    Only valid when every composition multiplicity of the underlying
    Verma module is 1: then the simple basis coefficient of the sum
    vector is exactly the filtration depth of that factor.  Raises
    ``NotMultiplicityFree`` otherwise, and ``UnsupportedBlock`` for
    singular or nonintegral blocks, where parameters merge and depths are
    no longer attributable.  Raises ``BadDecompositionFile`` when the
    decomposition matrix contradicts the sum formula: a simple factor
    outside the composition series, or a negative depth.

    The matrix keeps the simple image of the untwisted terms of each
    parameter read (see the module docstring), so a later call at that
    parameter, at any twist, applies only the twist's flips.  No refusal
    is kept: every call checks again and refuses again.
    """
    dm = _layer_matrix(inp.block, decomposition)
    return _layers(dm, *_sum_counts(inp))


def _layer_matrix(
    block: BlockContext, decomposition: DecompositionMatrix | None
) -> DecompositionMatrix:
    """The refusals that come before the sum formula: the block, then the matrix."""
    if not (block.regular and block.integral):
        raise UnsupportedBlock(
            "layer extraction is only supported in regular integral blocks"
        )
    return _block_matrix(block, decomposition)


def _layers(dm: DecompositionMatrix, y: WeylElement, kept: _Kept, flip: int) -> LayerTable:
    """The layer table of ``layers_multiplicity_free`` from :func:`_sum_counts`.

    The first call at y that finds y's row multiplicity-free keeps, in
    ``dm._layer_data``, the dense simple image of the untwisted terms and
    the sparse rows of y and of each root bit's term.  Every call copies
    that image and flips the bits of ``flip`` in the simple basis (see the
    module docstring): the depth of each factor of y's row is read at its
    position, and once those are cleared any entry left is a factor
    outside the composition series.
    """
    untwisted, row, rows = dm._layer_data.get(y) or _keep_layer_data(dm, y, kept)
    simple = untwisted.copy()
    m = flip
    while m:
        low = m & -m
        m ^= low
        for j, c in rows[low.bit_length() - 1]:
            simple[j] -= 2 * c
    # y's row is 1 at each of its positions, and [y] has one count for
    # each flipped term
    count = flip.bit_count()
    params = dm.params
    depths = {}
    for j, _ in row:
        depths[params[j]] = simple[j] + count
        simple[j] = 0
    if any(simple):
        first = next(j for j, c in enumerate(simple) if c)
        raise BadDecompositionFile(
            f"sum formula hit {word_text(params[first])} outside the composition series"
        )
    # the row holds its diagonal entry, so there is a depth
    low = min(depths.values())
    if low < 0:
        raise BadDecompositionFile("negative filtration depth")
    return LayerTable(depths, low > 0)


def _keep_layer_data(dm: DecompositionMatrix, y: WeylElement, kept: _Kept) -> tuple:
    """What ``dm`` keeps for the layers at y, once y's row is found
    multiplicity-free (``NotMultiplicityFree`` otherwise, and nothing is
    kept): the dense simple image of the untwisted terms, y's sparse row
    and, for each root bit, its term's sparse row, both by reference.

    The matrix is lower unitriangular, so a row has no entry past its own
    position, and the image ends at the last position of y and its terms.
    """
    params, index, sparse = dm.params, dm._index, dm._sparse
    row = sparse[index[y]]
    for j, c in row:
        if c > 1:
            raise NotMultiplicityFree(
                f"factor {word_text(params[j])} occurs {c} times in the Verma module "
                f"of {word_text(y)}"
            )
    terms, at = kept
    positions = [index[x] for x in terms]
    end = max([index[y], *positions]) + 1
    untwisted = _combine(sparse, [(i, 1) for i in positions])[:end]
    rows = [None if x is None else sparse[index[x]] for x in at]
    data = dm._layer_data[y] = untwisted, row, rows
    return data


def duality_partner(w: WeylElement, y: WeylElement) -> tuple[WeylElement, WeylElement]:
    """Parameters of the dual module: the twist picks up a factor of w0.

    Pure parameter bookkeeping: the dual of the module at (w, y) lives at
    (w * w0, y).  At the character level the two sum vectors are tied
    together by the complementarity identity; no claim is made that the
    layer tables coincide (in general they do not).
    """
    message = "elements do not belong to the same root system"
    _check_element(w, getattr(w, "rs", None), message)  # w names its own system
    _check_element(y, w.rs, message)
    return (w * longest_element(w.rs), y)

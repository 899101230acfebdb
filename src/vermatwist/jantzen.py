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

In every block but a singular nonintegral one, each term is a lookup in
the group's tables.  With y the parameter of mu = y . lam (a shortest
coset element in a singular block) and lam + rho antidominant, R+(mu) is
the inversion set of y cut down to the integral roots, and
s_beta . mu = (t_beta y) . lam, so :func:`sum_formula` reads t_beta y off
the reflection table, maps it to its parameter, and builds no weight.
That covers regular integral, singular integral and regular nonintegral
blocks.  A singular nonintegral block, whose stabilizer is generated by
reflections that need not be simple in the whole root system, goes
through the weights (``_weight_sum``), where each reflected weight has a
closed form: with n = <mu + rho, beta^vee>, the integer found while
collecting R+(mu),

    s_beta . mu = mu - n * beta.

Neither route builds a reflection matrix.  The two-letter form
:func:`sum_formula_xy` keeps the literal route through the reflection
matrix of each root and the dot action; it is the independent oracle that
:func:`check_xy_consistency` and the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .characters import (
    SIMPLE,
    VERMA,
    BlockContext,
    CharVector,
    DecompositionMatrix,
    change_basis,
    decomposition_matrix,
)
from .errors import (
    BadDecompositionFile,
    MixedRootSystems,
    NotInBlockOrbit,
    NotMultiplicityFree,
    UnsupportedBlock,
)
from .rootsystem import Root, RootSystem, Weight, pairing
from .weyl import (
    WeylElement,
    _bits,
    _group_tables,
    dot_action,
    longest_element,
    reflection_through,
    word_text,
)


@dataclass(frozen=True)
class SumFormulaInput:
    """Pins down one sum formula evaluation.

    Exactly one of ``y`` (an orbit parameter) and ``mu`` (an orbit weight)
    must be given; ``w`` is the twist.
    """

    block: BlockContext
    w: WeylElement
    y: WeylElement | None = None
    mu: Weight | None = None

    def __post_init__(self) -> None:
        if (self.y is None) == (self.mu is None):
            raise ValueError("give exactly one of y and mu")
        if self.w.rs is not self.block.rs:
            raise MixedRootSystems("twist does not belong to the block's root system")
        if self.y is not None and self.y.rs is not self.block.rs:
            raise MixedRootSystems("parameter does not belong to the block's root system")


@dataclass(frozen=True)
class SumFormulaResult:
    vector: CharVector
    rplus_mu: tuple[Root, ...]
    rplus_w: tuple[Root, ...]


@dataclass(frozen=True, eq=False)
class LayerTable:
    """Filtration depth of every composition factor of a twisted module.

    ``layers`` maps each simple factor's parameter to its layer index;
    ``zero_top`` records that no factor sits at depth 0, i.e. the whole
    module coincides with the first filtration step.
    """

    layers: dict[WeylElement, int]
    zero_top: bool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerTable):
            return NotImplemented
        return self.layers == other.layers and self.zero_top == other.zero_top

    def depth_of(self, x: WeylElement) -> int:
        try:
            return self.layers[x]
        except KeyError:
            raise KeyError(f"{word_text(x)} is not a composition factor here") from None

    def by_depth(self) -> tuple[tuple[WeylElement, ...], ...]:
        """The factors regrouped as rows: index k lists the depth k factors."""
        top = max(self.layers.values(), default=0)
        return tuple(
            tuple(
                x
                for x in sorted(self.layers, key=lambda w: (w.length, w.word))
                if self.layers[x] == k
            )
            for k in range(top + 1)
        )


def _r_plus_pairings(rs: RootSystem, mu: Weight) -> list[tuple[Root, int]]:
    """R+(mu) in root order, each root with its pairing against mu + rho."""
    shifted = mu + rs.rho
    out = []
    for beta in rs.positive_roots:
        value = pairing(rs, shifted, beta)
        if value.denominator == 1 and value > 0:
            out.append((beta, int(value)))
    return out


def _dot_reflect(rs: RootSystem, mu: Weight, beta: Root, n: int | Fraction) -> Weight:
    """s_beta . mu, given n = <mu + rho, beta^vee>."""
    return Weight(
        tuple(m - n * b for m, b in zip(mu.coords, rs.root_to_weight(beta).coords))
    )


def r_plus_of_weight(block: BlockContext, mu: Weight) -> tuple[Root, ...]:
    """Positive roots pairing to a strictly positive integer with mu + rho."""
    return tuple(beta for beta, _ in _r_plus_pairings(block.rs, mu))


def _outside(y: WeylElement) -> NotInBlockOrbit:
    return NotInBlockOrbit(
        f"y = {word_text(y)} lies outside the block's integral Weyl group"
    )


def _resolve_orbit_weight(inp: SumFormulaInput) -> tuple[Weight, WeylElement]:
    block = inp.block
    if inp.mu is not None:
        return inp.mu, block.param_for_weight(inp.mu)
    mu = block.weight_of(inp.y)
    try:
        return mu, block.param_for_weight(mu)
    except NotInBlockOrbit:
        raise _outside(inp.y) from None


def _param_index(inp: SumFormulaInput) -> int:
    """Table index of the block parameter of the module's highest weight.

    For a block read off the tables (``_param_of`` set); a ``mu`` input
    goes through the block's weight map.
    """
    block = inp.block
    tables = _group_tables(block.rs)
    if inp.mu is not None:
        return tables.index[block.param_for_weight(inp.mu).mat]
    k = block._param_of[tables.index[inp.y.mat]]
    if k < 0:
        raise _outside(inp.y)
    return k


def _orbit_param(inp: SumFormulaInput) -> WeylElement:
    """The block parameter of the module's highest weight."""
    if inp.block._param_of is None:
        return _resolve_orbit_weight(inp)[1]
    return _group_tables(inp.block.rs).elements[_param_index(inp)]


def sum_formula(inp: SumFormulaInput) -> SumFormulaResult:
    """Evaluate the sum formula; see the module docstring for the shape.

    Works in singular and nonintegral blocks as well: contributions land
    on orbit parameters, so coincident reflected weights merge.
    """
    if inp.block._param_of is None:
        return _weight_sum(inp)
    return _table_sum(inp)


def _table_sum(inp: SumFormulaInput) -> SumFormulaResult:
    """The sum formula by lookups in the group's tables.

    With y the parameter and mu = y . lam, R+(mu) is the inversion set of
    y cut down to the integral roots, and s_beta . mu = (t_beta y) . lam,
    so each term's parameter is that of t_beta y, off the reflection table.
    """
    block = inp.block
    tables = _group_tables(block.rs)
    k = _param_index(inp)
    kw = tables.index[inp.w.mat]
    in_w = tables.masks[kw]
    param_of = block._param_of
    rplus = tables.masks[k] & block._root_mask
    counts: dict[int, int] = {}
    for b in _bits(rplus):
        lower = param_of[tables.refl[b][k]]
        if in_w >> b & 1:
            counts[k] = counts.get(k, 0) + 1
            counts[lower] = counts.get(lower, 0) - 1
        else:
            counts[lower] = counts.get(lower, 0) + 1
    y = tables.elements[k]
    # y's cached inversions when no root is cut: rebuilding the tuple from
    # the bits costs about 3 us of a 17 us call in the F4 regular block
    return SumFormulaResult(
        vector=CharVector(VERMA, {tables.elements[j]: c for j, c in counts.items()}),
        rplus_mu=y.inversions
        if rplus == tables.masks[k]
        else tuple(block.rs.positive_roots[b] for b in _bits(rplus)),
        rplus_w=tables.elements[kw].inversions,
    )


def _weight_sum(inp: SumFormulaInput) -> SumFormulaResult:
    """The sum formula through the orbit weights, for any block.

    :func:`sum_formula` takes this route only in singular nonintegral
    blocks; elsewhere it is the oracle the tables are tested against.
    """
    block = inp.block
    rs = block.rs
    mu, y_param = _resolve_orbit_weight(inp)
    pairings = _r_plus_pairings(rs, mu)
    inversions = set(b.coords for b in inp.w.inversions)

    coeffs: dict[WeylElement, int] = {}

    def bump(param: WeylElement, c: int) -> None:
        coeffs[param] = coeffs.get(param, 0) + c

    for beta, n in pairings:
        lower = block.param_for_weight(_dot_reflect(rs, mu, beta, n))
        if beta.coords in inversions:
            bump(y_param, 1)
            bump(lower, -1)
        else:
            bump(lower, 1)
    return SumFormulaResult(
        vector=CharVector(VERMA, coeffs),
        rplus_mu=tuple(beta for beta, _ in pairings),
        rplus_w=inp.w.inversions,
    )


def sum_formula_xy(block: BlockContext, x: WeylElement, y: WeylElement) -> SumFormulaResult:
    """The sum formula in its two-letter form, implemented literally.

    For parameters written as a product x * y the formula reads: over
    beta in R+(xy) outside R+(x), add ch M(xy . lam) - ch M(s_beta xy . lam);
    over beta in R+(xy) inside R+(x), add ch M(s_beta xy . lam).  This
    agrees with ``sum_formula`` at twist x * w0 and parameter x * y, which
    :func:`check_xy_consistency` verifies on demand.
    """
    if not (block.regular and block.integral):
        raise UnsupportedBlock("the two-letter form needs a regular integral block")
    if x.rs is not block.rs or y.rs is not block.rs:
        raise MixedRootSystems("elements do not belong to the block's root system")
    rs = block.rs
    xy = x * y
    mu = block.weight_of(xy)
    x_inversions = set(b.coords for b in x.inversions)

    coeffs: dict[WeylElement, int] = {}

    def bump(param: WeylElement, c: int) -> None:
        coeffs[param] = coeffs.get(param, 0) + c

    for beta in xy.inversions:
        reflected = dot_action(rs, reflection_through(rs, beta), mu)
        lower = block.param_for_weight(reflected)
        if beta.coords not in x_inversions:
            bump(xy, 1)
            bump(lower, -1)
        else:
            bump(lower, 1)
    return SumFormulaResult(
        vector=CharVector(VERMA, coeffs),
        rplus_mu=xy.inversions,
        rplus_w=(x * longest_element(rs)).inversions,
    )


def check_xy_consistency(block: BlockContext, x: WeylElement, y: WeylElement) -> bool:
    """Confirm the two-letter form against the direct formula."""
    direct = sum_formula(
        SumFormulaInput(block=block, w=x * longest_element(block.rs), y=x * y)
    )
    return sum_formula_xy(block, x, y).vector == direct.vector


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
    """
    dm = _layer_matrix(inp.block, decomposition)
    return _layer_table(inp, sum_formula(inp), dm)


def _layer_matrix(
    block: BlockContext, decomposition: DecompositionMatrix | None
) -> DecompositionMatrix:
    """The refusals that come before the sum formula: the block, then the matrix."""
    if not (block.regular and block.integral):
        raise UnsupportedBlock(
            "layer extraction is only supported in regular integral blocks"
        )
    return decomposition if decomposition is not None else decomposition_matrix(block)


def _layer_table(
    inp: SumFormulaInput, result: SumFormulaResult, dm: DecompositionMatrix
) -> LayerTable:
    """The layer table of ``layers_multiplicity_free``, from its sum formula ``result``."""
    block = inp.block
    y_param = _orbit_param(inp)

    support = []
    for x, c in zip(dm.params, dm.rows[dm._index[y_param]]):
        if c == 0:
            continue
        if c > 1:
            raise NotMultiplicityFree(
                f"factor {word_text(x)} occurs {c} times in the Verma module "
                f"of {word_text(y_param)}"
            )
        support.append(x)

    simple_vec = change_basis(block, result.vector, SIMPLE, dm)
    support_set = set(support)
    for x in simple_vec.support():
        if x not in support_set:
            raise BadDecompositionFile(
                f"sum formula hit {word_text(x)} outside the composition series"
            )
    depths = {x: simple_vec.coeff(x) for x in support}
    if any(d < 0 for d in depths.values()):
        raise BadDecompositionFile("negative filtration depth")
    return LayerTable(layers=depths, zero_top=all(d > 0 for d in depths.values()))


def duality_partner(w: WeylElement, y: WeylElement) -> tuple[WeylElement, WeylElement]:
    """Parameters of the dual module: the twist picks up a factor of w0.

    Pure parameter bookkeeping: the dual of the module at (w, y) lives at
    (w * w0, y).  At the character level the two sum vectors are tied
    together by the complementarity identity; no claim is made that the
    layer tables coincide (in general they do not).
    """
    if w.rs is not y.rs:
        raise MixedRootSystems("elements do not belong to the same root system")
    return (w * longest_element(w.rs), y)

"""Exact Jantzen filtration computations for twisted Verma modules.

The package is organized bottom-up: root systems and Weyl groups
(``rootsystem``, ``weyl``), block and character bookkeeping
(``characters``), the twisted sum formula and layer solver (``jantzen``),
and an independent rank 1 deformation laboratory (``localring``,
``sl2lab``).  The ``cli`` module wires everything into the ``vermatwist``
command.
"""

from .characters import (
    SIMPLE,
    VERMA,
    BlockContext,
    CharVector,
    DecompositionMatrix,
    change_basis,
    decomposition_matrix,
    dimension_at,
    load_decomposition_file,
    make_block,
    unit_vector,
)
from .errors import (
    BadDecompositionFile,
    GroupTooLarge,
    IndexOutOfRange,
    InvariantViolated,
    MixedRootSystems,
    NeedsUserMatrix,
    NotAntidominant,
    NotARoot,
    NotFiniteType,
    NotInBlockOrbit,
    NotMultiplicityFree,
    TruncationTooSmall,
    UnsupportedBlock,
    VermatwistError,
)
from .jantzen import (
    LayerTable,
    SumFormulaInput,
    SumFormulaResult,
    check_xy_consistency,
    duality_partner,
    layers_multiplicity_free,
    r_plus_of_weight,
    sum_formula,
    sum_formula_xy,
)
from .localring import LocalRingElem, constant, one, variable, zero
from .rootsystem import (
    CARTAN_BY_LABEL,
    Root,
    RootSystem,
    Weight,
    WeightClassification,
    build_root_system,
    classify_weight,
    coroot_pairing_roots,
    integral_positive_roots,
    kostant_partition,
    pairing,
    weight,
)
from .sl2lab import (
    DEFAULT_TRUNCATION,
    DUAL_TO_VERMA,
    VERMA_TO_DUAL,
    WeightMap,
    check_equivariance,
    coker_check_over_A,
    deformed_binomial,
    four_term_rank_check,
    is_natural,
    jantzen_layers_sl2,
    phi,
    psi,
)
from .weyl import (
    RootSequence,
    WeylElement,
    all_elements,
    bruhat_leq,
    dot_action,
    element_from_word,
    identity_element,
    inverse,
    inversion_set,
    length,
    longest_element,
    multiply,
    parse_word_text,
    reflection_through,
    root_sequence_through,
    simple_reflection,
    weight_action,
    word_text,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

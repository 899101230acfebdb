"""Exact Jantzen filtration computations for twisted Verma modules.

The package is organized bottom-up: the integer root lattice and Weyl
group tables (``rootsystem``, ``weyl``), weights with their rational
arithmetic and the group actions on them (``weights``), block and
character bookkeeping (``characters``), the twisted sum formula and
layer solver (``jantzen``), and an independent rank 1 deformation
laboratory (``localring``, ``sl2lab``).  The ``cli`` module wires
everything into the ``vermatwist`` command.

The package front is lazy (PEP 562): ``import vermatwist`` loads no
layer.  Each name in ``__all__`` is imported from its module on first
access and then kept in the package namespace, so ``from vermatwist
import X`` works for every exported name.  The command line front end
does the same inside each command, so a command loads only the layers it
runs: ``weyl`` needs ``rootsystem`` and ``weyl``, and no ``fractions``
or ``json``, ``sl2`` needs only ``localring`` and ``sl2lab``, and
``sum-formula``, ``layers`` and ``b2-table`` need ``rootsystem``,
``weyl``, ``weights``, ``characters`` and ``jantzen``, neither of the
rank 1 modules.
"""

from importlib import import_module as _import_module

#: the names each layer module exports, as in ``from vermatwist.<module> import ...``
_EXPORTS = {
    "characters": (
        "SIMPLE VERMA BlockContext CharVector DecompositionMatrix change_basis "
        "decomposition_matrix dimension_at load_decomposition_file make_block unit_vector"
    ),
    "errors": (
        "BadDecompositionFile GroupTooLarge IndexOutOfRange InvariantViolated "
        "MixedRootSystems NeedsUserMatrix NotAntidominant NotARoot NotFiniteType "
        "NotInBlockOrbit NotMultiplicityFree TruncationTooSmall UnsupportedBlock "
        "VermatwistError"
    ),
    "jantzen": (
        "LayerTable SumFormulaInput SumFormulaResult check_xy_consistency duality_partner "
        "layers_multiplicity_free r_plus_of_weight sum_formula sum_formula_xy"
    ),
    "localring": "LocalRingElem constant one variable zero",
    "rootsystem": (
        "CARTAN_BY_LABEL Root RootSystem build_root_system coroot_pairing_roots kostant_partition"
    ),
    "sl2lab": (
        "DEFAULT_TRUNCATION DUAL_TO_VERMA VERMA_TO_DUAL WeightMap check_equivariance "
        "coker_check_over_A deformed_binomial four_term_rank_check is_natural "
        "jantzen_layers_sl2 phi psi"
    ),
    "weights": (
        "Weight WeightClassification classify_weight dot_action integral_positive_roots "
        "pairing weight weight_action"
    ),
    "weyl": (
        "RootSequence WeylElement all_elements bruhat_leq element_from_word identity_element "
        "inverse inversion_set length longest_element multiply parse_word_text "
        "reflection_through root_sequence_through simple_reflection word_text"
    ),
}

#: the module each exported name comes from; a layer module maps to itself
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names.split())
}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = _import_module(f"{__name__}.{module}")
    value = loaded if name == module else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

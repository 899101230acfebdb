"""The lazy package front, what each command loads, and the plain record classes."""

import dataclasses
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vermatwist
from vermatwist import (
    DUAL_TO_VERMA,
    VERMA_TO_DUAL,
    DecompositionMatrix,
    LayerTable,
    LocalRingElem,
    Root,
    RootSequence,
    SumFormulaInput,
    SumFormulaResult,
    Weight,
    WeightClassification,
    WeightMap,
    WeylElement,
    build_root_system,
    classify_weight,
    decomposition_matrix,
    element_from_word,
    layers_multiplicity_free,
    make_block,
    one,
    phi,
    root_sequence_through,
    sum_formula,
    weight,
)

LAYERS = (
    "characters", "errors", "jantzen", "localring", "rootsystem", "sl2lab", "weights", "weyl",
)  # fmt: skip

#: ``vermatwist.__all__`` as it stood when every layer was imported eagerly, with the
#: later ``weights`` module
EXPORTED = [
    "BadDecompositionFile", "BlockContext", "CARTAN_BY_LABEL", "CharVector",
    "DEFAULT_TRUNCATION", "DUAL_TO_VERMA", "DecompositionMatrix", "GroupTooLarge",
    "IndexOutOfRange", "InvariantViolated", "LayerTable", "LocalRingElem",
    "MixedRootSystems", "NeedsUserMatrix", "NotARoot", "NotAntidominant", "NotFiniteType",
    "NotInBlockOrbit", "NotMultiplicityFree", "Root", "RootSequence", "RootSystem", "SIMPLE",
    "SumFormulaInput", "SumFormulaResult", "TruncationTooSmall", "UnsupportedBlock", "VERMA",
    "VERMA_TO_DUAL", "VermatwistError", "Weight", "WeightClassification", "WeightMap",
    "WeylElement", "all_elements", "bruhat_leq", "build_root_system", "change_basis",
    "characters", "check_equivariance", "check_xy_consistency", "classify_weight",
    "coker_check_over_A", "constant", "coroot_pairing_roots", "decomposition_matrix",
    "deformed_binomial", "dimension_at", "dot_action", "duality_partner", "element_from_word",
    "errors", "four_term_rank_check", "identity_element", "integral_positive_roots", "inverse",
    "inversion_set", "is_natural", "jantzen", "jantzen_layers_sl2", "kostant_partition",
    "layers_multiplicity_free", "length", "load_decomposition_file", "localring",
    "longest_element", "make_block", "multiply", "one", "pairing", "parse_word_text", "phi",
    "psi", "r_plus_of_weight", "reflection_through", "root_sequence_through", "rootsystem",
    "simple_reflection", "sl2lab", "sum_formula", "sum_formula_xy", "unit_vector", "variable",
    "weight", "weight_action", "weights", "weyl", "word_text", "zero",
]  # fmt: skip


def test_all_is_unchanged():
    assert vermatwist.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(vermatwist))


def test_every_name_is_the_object_its_module_defines():
    modules = {layer: importlib.import_module(f"vermatwist.{layer}") for layer in LAYERS}
    for name in EXPORTED:
        value = getattr(vermatwist, name)
        if name in modules:
            assert value is modules[name]
            continue
        assert any(vars(module).get(name) is value for module in modules.values()), name
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("vermatwist."):
            assert getattr(sys.modules[home], name) is value, name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from vermatwist import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTED
    assert namespace["sum_formula"] is vermatwist.jantzen.sum_formula


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        vermatwist.cli_main  # noqa: B018


LOADED_BY_COMMAND = """
import sys
before = set(sys.modules)
import vermatwist
front = set(sys.modules) - before
import contextlib, io
import vermatwist.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = vermatwist.cli.main(sys.argv[1:])
print(code)
print(" ".join(sorted(front)))
print(" ".join(sorted(set(sys.modules) - before)))
"""

#: each command with the layers it runs, as the package and ``cli``
#: docstrings state them
LAYERS_BY_COMMAND = {
    ("weyl", "--type", "A3", "--format", "json"): {"rootsystem", "weyl"},
    ("sl2", "--lambda", "2", "--trunc", "10"): {"localring", "sl2lab"},
    ("sum-formula", "--type", "B2", "--lambda=-2,-2", "--w", "s", "--y", "e"): {
        "rootsystem", "weyl", "characters", "jantzen", "weights",
    },
    ("layers", "--type", "B2", "--lambda=-2,-2", "--w", "s", "--y", "e"): {
        "rootsystem", "weyl", "characters", "jantzen", "weights",
    },
    ("b2-table",): {"rootsystem", "weyl", "characters", "jantzen", "weights"},
}


def test_each_command_loads_only_its_layers():
    src = str(Path(vermatwist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for args, layers in LAYERS_BY_COMMAND.items():
        # -S: no site module, whose hooks may load modules of their own
        proc = subprocess.run(
            [sys.executable, "-S", "-c", LOADED_BY_COMMAND, *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.stderr == ""
        code, front, loaded = proc.stdout.splitlines()
        assert code == "0"
        assert [m for m in front.split() if m.startswith("vermatwist")] == ["vermatwist"]
        loaded = set(loaded.split())
        want = {"vermatwist", "vermatwist.cli", "vermatwist.errors"}
        want |= {f"vermatwist.{layer}" for layer in layers}
        assert {m for m in loaded if m.startswith("vermatwist")} == want, args
        # every record is an errors._Record or _Frozen, and only a file read loads pathlib
        assert not loaded & {"dataclasses", "pathlib"}, args
        # the weyl command is integer code: no rational arithmetic, no JSON encoder
        if args[0] == "weyl":
            assert not loaded & {"fractions", "decimal", "numbers", "json"}, loaded


def assert_frozen(obj, names):
    for name in (*names, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)


def test_root_record():
    beta = Root((1, 1))
    assert beta == Root(coords=(1, 1)) == Root([1, 1])
    assert beta != Root((0, 1)) and beta != (1, 1)
    assert hash(beta) == hash(((1, 1),))
    assert repr(beta) == "Root(1, 1)" and repr(-beta) == "Root(-1, -1)"
    assert_frozen(beta, ["coords"])
    assert beta.coords == (1, 1)


def test_weight_record():
    lam = Weight((-2, Fraction(1, 2)))
    assert lam.coords == (Fraction(-2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in lam.coords)
    assert lam == weight(-2, Fraction(1, 2)) == Weight(coords=(Fraction(-2), Fraction(1, 2)))
    assert lam != weight(-2, 0) and lam != lam.coords
    assert hash(lam) == hash(((Fraction(-2), Fraction(1, 2)),))
    assert repr(lam) == "Weight(-2, 1/2)"
    assert -lam == weight(2, Fraction(-1, 2)) and lam - lam == lam + -lam == weight(0, 0)
    assert_frozen(lam, ["coords"])


def test_weyl_element_record():
    rs = build_root_system("B2")
    w = element_from_word(rs, (1, 2))
    same = WeylElement(rs=rs, mat=w.mat)
    assert w == same and hash(w) == hash(same)
    assert {w: 1}[same] == 1
    assert w != element_from_word(rs, (2, 1)) and w != w.mat
    assert w != element_from_word(build_root_system("A2"), (1, 2))
    assert repr(w) == "WeylElement(st)"
    assert_frozen(w, ["rs", "mat", "length"])
    assert w.length == 2


def test_classification_and_root_sequence_records():
    rs = build_root_system("B2")
    got = classify_weight(rs, weight(-2, -2))
    want = WeightClassification(antidominant=True, dominant=False, regular=True, integral=True)
    assert got == want and hash(got) == hash((True, False, True, True))
    assert repr(got) == (
        "WeightClassification(antidominant=True, dominant=False, regular=True, integral=True)"
    )
    assert_frozen(got, ["regular"])
    seq = root_sequence_through(rs, element_from_word(rs, (1,)))
    assert seq == RootSequence(word=seq.word, betas=seq.betas, split=1)
    assert hash(seq) == hash((seq.word, seq.betas, 1))
    assert repr(seq) == (
        "RootSequence(word=(1, 2, 1, 2), "
        "betas=(Root(1, 0), Root(0, 1), Root(1, 1), Root(2, 1)), split=1)"
    )
    assert_frozen(seq, ["split"])


def test_records_take_their_fields_positionally_or_by_keyword():
    got = WeightClassification(True, False, regular=True, integral=False)
    assert got == WeightClassification(True, False, True, False)
    assert hash(got) == hash((True, False, True, False))
    assert got != RootSequence(True, False, True) and got != (True, False, True, False)
    every = {"antidominant": True, "dominant": True, "regular": True, "integral": True}
    for args, kwargs in [
        ((True,) * 5, {}),
        ((True,) * 3, {}),
        ((True,), every),
        ((), {**every, "other": True}),
    ]:
        with pytest.raises(TypeError, match="takes the fields"):
            WeightClassification(*args, **kwargs)


def test_sum_formula_input_record():
    block = make_block(build_root_system("B2"), weight(-2, -2))
    e, s, t = block.params[:3]
    inp = SumFormulaInput(block=block, w=s, y=t)
    assert inp == SumFormulaInput(block, s, t) == SumFormulaInput(block, s, y=t, mu=None)
    assert inp != SumFormulaInput(block=block, w=e, y=t) and inp != (block, s, t, None)
    assert hash(inp) == hash((block, s, t, None))
    assert {inp: 1}[SumFormulaInput(block, s, t)] == 1
    assert repr(inp) == (
        "SumFormulaInput(block=BlockContext(RootSystem(B2, 4 positive roots), "
        "regular integral, 8 parameters), w=WeylElement(s), y=WeylElement(t), mu=None)"
    )
    assert_frozen(inp, ["block", "w", "y", "mu"])
    lam = weight(-2, -2)
    by_weight = SumFormulaInput(block, s, mu=lam)
    assert by_weight == SumFormulaInput(block, s, None, lam) and by_weight.y is None
    assert hash(by_weight) == hash((block, s, None, lam))
    for args, kwargs in [((block,), {}), ((block, s, t, None, None), {}), ((block, s), {"z": t})]:
        with pytest.raises(TypeError):
            SumFormulaInput(*args, **kwargs)


def test_sum_formula_result_record():
    block = make_block(build_root_system("B2"), weight(-2, -2))
    e, s, t = block.params[:3]
    got = sum_formula(SumFormulaInput(block, s, t))
    same = SumFormulaResult(got.vector, got.rplus_mu, rplus_w=got.rplus_w)
    assert got == same == SumFormulaResult(vector=got.vector, rplus_mu=got.rplus_mu,
                                           rplus_w=got.rplus_w)
    assert got != sum_formula(SumFormulaInput(block, e, t))
    assert got != (got.vector, got.rplus_mu, got.rplus_w)
    # the vector is unhashable, so the result is too
    with pytest.raises(TypeError, match="unhashable"):
        hash(got)
    assert repr(got) == (
        "SumFormulaResult(vector=CharVector(verma, +[e]), "
        "rplus_mu=(Root(0, 1),), rplus_w=(Root(1, 0),))"
    )
    assert_frozen(got, ["vector", "rplus_mu", "rplus_w"])
    for args in [(got.vector, got.rplus_mu), (got.vector, got.rplus_mu, got.rplus_w, None)]:
        with pytest.raises(TypeError):
            SumFormulaResult(*args)


def test_layer_table_record():
    block = make_block(build_root_system("A2"), weight(-2, -2))
    e, s = block.params[:2]
    got = layers_multiplicity_free(SumFormulaInput(block, e, s))
    assert got == LayerTable({e: 1, s: 0}, False)
    assert got == LayerTable(layers={s: 0, e: 1}, zero_top=False)
    assert got != LayerTable({e: 1, s: 0}, True) and got != ({e: 1, s: 0}, False)
    with pytest.raises(TypeError, match="unhashable"):
        hash(got)
    assert repr(got) == "LayerTable(layers={WeylElement(e): 1, WeylElement(s): 0}, zero_top=False)"
    assert_frozen(got, ["layers", "zero_top"])
    for args, kwargs in [(({e: 0},), {}), (({e: 0}, False), {"zero_top": False})]:
        with pytest.raises(TypeError):
            LayerTable(*args, **kwargs)


def test_decomposition_matrix_record():
    block = make_block(build_root_system("A2"), weight(-2, -2))
    dm = decomposition_matrix(block)
    same = DecompositionMatrix(block.params, rows=dm.rows)
    assert dm == same == DecompositionMatrix(params=block.params, rows=dm.rows)
    # the cached views are no fields
    assert dm.inverse_rows and dm == same and hash(dm) == hash(same)
    assert hash(dm) == hash((block.params, dm.rows))
    identity = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
    assert dm != DecompositionMatrix(block.params, identity) and dm != (block.params, dm.rows)
    assert repr(DecompositionMatrix(block.params, identity)) == (
        "DecompositionMatrix(params=(WeylElement(e), WeylElement(s), WeylElement(t), "
        "WeylElement(st), WeylElement(ts), WeylElement(sts)), rows=((1, 0, 0, 0, 0, 0), "
        "(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), "
        "(0, 0, 0, 0, 0, 1)))"
    )
    # whole numbers of any type are stored, and shown, as ints
    assert DecompositionMatrix(block.params, tuple(tuple(map(float, r)) for r in identity)) == (
        DecompositionMatrix(block.params, identity)
    )
    assert_frozen(dm, ["params", "rows"])
    for args in [(block.params,), (block.params, identity, identity)]:
        with pytest.raises(TypeError):
            DecompositionMatrix(*args)


def test_weight_map_record():
    # compared, hashed and shown as the frozen dataclass it was
    entries = (one(), LocalRingElem((5, 1)))
    wmap = WeightMap(Fraction(5), 1, VERMA_TO_DUAL, entries)
    assert wmap == phi(5, 1) == WeightMap(5, 1, VERMA_TO_DUAL, entries=entries)
    assert wmap == WeightMap(lam=5, truncation=1, direction=VERMA_TO_DUAL, entries=entries)
    assert type(wmap.lam) is Fraction
    assert wmap != WeightMap(5, 1, DUAL_TO_VERMA, entries)
    assert wmap != (Fraction(5), 1, VERMA_TO_DUAL, entries)
    assert hash(wmap) == hash((Fraction(5), 1, VERMA_TO_DUAL, entries))
    assert {wmap: 1}[phi(5, 1)] == 1
    assert repr(wmap) == (
        "WeightMap(lam=Fraction(5, 1), truncation=1, direction='verma_to_dual', "
        "entries=(LocalRingElem('1'), LocalRingElem('X + 5')))"
    )
    assert_frozen(wmap, ["lam", "truncation", "direction", "entries"])
    for args, kwargs in [
        ((5, 1, VERMA_TO_DUAL), {}),
        ((5, 1), {"entries": entries}),
        ((5, 1, VERMA_TO_DUAL, entries, None), {}),
        ((5, 1, VERMA_TO_DUAL), {"entries": entries, "other": None}),
    ]:
        with pytest.raises(TypeError):
            WeightMap(*args, **kwargs)
    # the backward partner is built once, and is no field
    backward = wmap._backward
    assert backward.direction == DUAL_TO_VERMA and wmap._backward is backward
    assert wmap == phi(5, 1) and hash(wmap) == hash((Fraction(5), 1, VERMA_TO_DUAL, entries))

"""Deformed rank 1 laboratory: the two canonical maps and their checks."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sl2_path
from hypothesis import given, settings
from hypothesis import strategies as st

import vermatwist

from vermatwist import (
    DEFAULT_TRUNCATION,
    DUAL_TO_VERMA,
    VERMA_TO_DUAL,
    TruncationTooSmall,
    WeightMap,
    check_equivariance,
    coker_check_over_A,
    deformed_binomial,
    four_term_rank_check,
    is_natural,
    jantzen_layers_sl2,
    one,
    phi,
    psi,
    variable,
)

SAMPLE_WEIGHTS = [
    Fraction(-3),
    Fraction(-1),
    Fraction(0),
    Fraction(1),
    Fraction(2),
    Fraction(5),
    Fraction(-7, 2),
    Fraction(1, 3),
]


def test_is_natural():
    assert is_natural(0)
    assert is_natural(7)
    assert not is_natural(-1)
    assert not is_natural(Fraction(1, 2))


#: every public function that takes lam, called at lam
LAM_READERS = {
    "is_natural": is_natural,
    "deformed_binomial": lambda lam: deformed_binomial(lam, 3),
    "phi": lambda lam: phi(lam, 6),
    "psi": lambda lam: psi(lam, 6),
    "check_equivariance": lambda lam: check_equivariance(phi(2, 6), lam),
    "jantzen_layers_sl2": lambda lam: jantzen_layers_sl2(lam, 12),
    "four_term_rank_check": lambda lam: four_term_rank_check(lam, 12),
    "coker_check_over_A": lambda lam: coker_check_over_A(lam, 12),
    "WeightMap": lambda lam: WeightMap(lam, 0, VERMA_TO_DUAL, (one(),)),
}


@pytest.mark.parametrize("name", sorted(LAM_READERS))
def test_a_float_lam_must_be_whole(name):
    # the binary value of 0.1 is not one tenth, so it is refused; 2.0 is 2
    call = LAM_READERS[name]
    for lam in (0.1, -3.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="is not a rational or a whole float"):
            call(lam)
    assert call(2.0) == call(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: phi(1, 101),
        lambda: phi(1, -1),
        lambda: phi(1, 2.5),
        lambda: phi(1, True),
        lambda: phi(1, "12"),
        lambda: psi(1, 101),
        lambda: jantzen_layers_sl2(Fraction(1, 2), 101),
    ],
    ids=["101", "-1", "2.5", "True", "str", "psi", "jantzen"],
)
def test_truncation_outside_the_bound_is_refused_before_an_entry_is_built(monkeypatch, call):
    from vermatwist import localring

    built = []
    monkeypatch.setattr(localring.LocalRingElem, "__post_init__", lambda elem: built.append(1))
    with pytest.raises(ValueError, match="^truncation must be"):
        call()
    assert built == []


@pytest.mark.parametrize("i", [101, -1, 2.5, True, "3"])
def test_binomial_index_outside_the_bound_is_refused_before_an_entry_is_built(monkeypatch, i):
    from vermatwist import localring

    built = []
    monkeypatch.setattr(localring.LocalRingElem, "__post_init__", lambda elem: built.append(1))
    message = f"^binomial index must be an int from 0 to 100, got {re.escape(repr(i))}$"
    with pytest.raises(ValueError, match=message):
        deformed_binomial(1, i)
    assert built == []


def test_truncation_bound_is_inclusive():
    from vermatwist.sl2lab import MAX_TRUNCATION

    assert len(phi(1, MAX_TRUNCATION).entries) == MAX_TRUNCATION + 1
    assert phi(1, 0).entries == (one(),)


def test_deformed_binomial_values():
    b = deformed_binomial(3, 2)
    assert b.specialize() == 3
    assert deformed_binomial(4, 0).specialize() == 1
    # binomial(1 + X, 3) = (1+X) X (X-1) / 6 vanishes once at X = 0
    assert deformed_binomial(1, 3).valuation() == 1
    assert deformed_binomial(Fraction(-7, 2), 5).valuation() == 0


def test_phi_specializes_to_classical_binomials():
    p = phi(3, 10)
    import math

    assert p.specialized() == tuple(
        Fraction(math.comb(3, i)) if i <= 3 else Fraction(0) for i in range(11)
    )


def test_psi_specializes_to_classical_inverse():
    # frozen classical values for lam = 1: zero through index lam, then
    # (-1)^i * binomial(i, i - lam - 1) afterwards
    q = psi(1, 8)
    assert q.specialized() == (
        Fraction(0),
        Fraction(0),
        Fraction(1),
        Fraction(-3),
        Fraction(6),
        Fraction(-10),
        Fraction(15),
        Fraction(-21),
        Fraction(28),
    )


def test_equivariance_of_both_maps():
    for lam in SAMPLE_WEIGHTS:
        assert check_equivariance(phi(lam, 9)), lam
        assert check_equivariance(psi(lam, 9)), lam


def test_all_ones_map_is_not_equivariant():
    ones = WeightMap(Fraction(1), 8, DUAL_TO_VERMA, tuple(one() for _ in range(9)))
    assert check_equivariance(ones) is False


def test_weight_map_validation():
    with pytest.raises(ValueError):
        WeightMap(Fraction(0), 3, "sideways", (one(),) * 4)
    with pytest.raises(ValueError):
        WeightMap(Fraction(0), 3, VERMA_TO_DUAL, (one(),) * 3)


def test_psi_phi_is_identity_off_the_natural_locus():
    for lam in (Fraction(-7, 2), Fraction(1, 3), Fraction(-1), Fraction(-4)):
        p = phi(lam, 6)
        q = psi(lam, 6)
        for a, b in zip(p.entries, q.entries):
            assert (a * b) == one()


def test_valuation_complementarity():
    # val(phi_i) + val(psi_i) is 1 on the natural locus and 0 off it
    for lam in SAMPLE_WEIGHTS:
        p = phi(lam, 8)
        q = psi(lam, 8)
        expected = 1 if is_natural(lam) else 0
        for vp, vq in zip(p.valuations(), q.valuations()):
            assert vp + vq == expected, lam


def test_phi_valuation_pattern_on_natural_weights():
    for lam in (0, 1, 2, 3):
        vals = phi(lam, 10).valuations()
        assert vals == tuple(1 if i >= lam + 1 else 0 for i in range(11)), lam


def test_jantzen_layers_examples():
    assert jantzen_layers_sl2(3, 12) == {i: (1 if i >= 4 else 0) for i in range(13)}
    assert jantzen_layers_sl2(0, 6) == {i: (1 if i >= 1 else 0) for i in range(7)}
    assert jantzen_layers_sl2(-3, 6) == {i: 0 for i in range(7)}
    assert jantzen_layers_sl2(Fraction(-7, 2), 4) == {i: 0 for i in range(5)}


def test_four_term_rank_check():
    for lam in (0, 1, 2, 3, 7):
        assert four_term_rank_check(lam, 12 if lam < 4 else 18)
    for lam in (-2, -1, Fraction(1, 2), Fraction(-7, 2), Fraction(5, 3)):
        with pytest.raises(ValueError, match="natural highest weight"):
            four_term_rank_check(lam, 12)
    with pytest.raises(TruncationTooSmall):
        four_term_rank_check(3, 9)  # needs at least 2*3 + 4 = 10
    assert four_term_rank_check(3, 10)
    message = "^truncation 3 cannot certify lam = 0; need at least 4$"
    with pytest.raises(TruncationTooSmall, match=message):
        four_term_rank_check(0, 3)
    assert four_term_rank_check(0, 4)


def test_coker_check_over_A():
    for lam in (0, 1, 2, 3, 7):
        assert coker_check_over_A(lam, 12 if lam < 4 else 18)
    # off the natural locus the cokernel condition is vacuous but the
    # bookkeeping must still succeed, at any truncation
    for lam in (Fraction(-7, 2), -3, -1, Fraction(1, 2), Fraction(5, 3)):
        assert coker_check_over_A(lam, 8)
        assert coker_check_over_A(lam, 1)
    message = "^truncation 9 cannot certify lam = 3; need at least 10$"
    with pytest.raises(TruncationTooSmall, match=message):
        coker_check_over_A(3, 9)
    assert coker_check_over_A(3, 10)


def test_checks_refuse_before_building_a_map(monkeypatch):
    from vermatwist import sl2lab

    backward = psi(phi(3, 12))
    calls = []
    real = sl2lab.phi

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sl2lab, "phi", counted)
    # off the natural locus the four term check refuses before the window,
    # however small, and however large, the truncation
    for truncation in (1, 10**6):
        with pytest.raises(ValueError) as exc:
            four_term_rank_check(Fraction(1, 2), truncation)
        assert not isinstance(exc.value, TruncationTooSmall)
    for check in (four_term_rank_check, coker_check_over_A):
        with pytest.raises(TruncationTooSmall):
            check(3, 9)
        with pytest.raises(ValueError, match="forward map"):
            check(backward)
    assert calls == []


@pytest.mark.parametrize("truncation", ["x", 2.5, True, -1, 101])
@pytest.mark.parametrize("call", [four_term_rank_check, coker_check_over_A, psi, jantzen_layers_sl2])
def test_every_reader_of_a_truncation_refuses_it_before_the_window(monkeypatch, call, truncation):
    # at a natural lam the window would otherwise be read first
    from vermatwist import localring

    built = []
    monkeypatch.setattr(localring.LocalRingElem, "__post_init__", lambda elem: built.append(1))
    with pytest.raises(ValueError) as exc:
        call(1, truncation)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"truncation must be an int from 0 to 100, got {truncation!r}"
    assert built == []


@pytest.mark.parametrize("window", [2.5, "3", True])
def test_check_equivariance_refuses_a_window_that_is_no_int(monkeypatch, window):
    from vermatwist import sl2lab

    maps = (phi(1, 5), psi(1, 5))
    checked = []
    monkeypatch.setattr(sl2lab, "scaled_equal", lambda *args: checked.append(1))
    for wmap in maps:
        with pytest.raises(ValueError, match="^truncation window must be an int, got "):
            check_equivariance(wmap, truncation=window)
    assert checked == []


def test_truncated_window_equivariance():
    # restricting the checked window must not change the answer on maps
    # that are equivariant everywhere
    p = phi(2, 10)
    assert check_equivariance(p, truncation=5)


ZERO_ENTRY_VALUATIONS = """
from vermatwist import VERMA_TO_DUAL, WeightMap, zero
try:
    WeightMap(0, 0, VERMA_TO_DUAL, (zero(),)).valuations()
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
"""


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_zero_entry_valuations_refused_under_both_interpreter_modes(flags):
    src = str(Path(vermatwist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", ZERO_ENTRY_VALUATIONS],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "InvariantViolated: weight map entries must be nonzero\n"


def _binomial_from_scratch(lam, i):
    """binomial(lam + X, i) as the product of i linear factors over i!."""
    out = one()
    for k in range(i):
        out = out * (variable() + Fraction(lam) - k)
    factorial = 1
    for k in range(2, i + 1):
        factorial *= k
    return out / factorial


@pytest.mark.parametrize("lam", SAMPLE_WEIGHTS)
def test_phi_entries_match_binomials_from_scratch(lam):
    entries = phi(lam, 16).entries
    for i, entry in enumerate(entries):
        assert entry == _binomial_from_scratch(lam, i)
        assert str(entry) == str(_binomial_from_scratch(lam, i))
        assert deformed_binomial(lam, i) == entry
    assert psi(lam, 16).entries == tuple(
        psi(lam, 0).entries[0] / entry for entry in entries
    )


def test_deformed_binomial_refuses_negative_index():
    # binomial(z, i) is 0 for i < 0, not 1
    for i in (-1, -5):
        with pytest.raises(ValueError, match=f"^binomial index must be an int from 0 to 100, got {i}$"):
            deformed_binomial(3, i)


@pytest.mark.parametrize("lam", SAMPLE_WEIGHTS)
def test_checks_take_the_forward_map(lam):
    # given the map, a check reads lam and the truncation off it, and
    # refuses another truncation
    forward = phi(lam, 16)
    assert psi(forward) == psi(lam, 16)
    assert jantzen_layers_sl2(forward, truncation=16) == jantzen_layers_sl2(lam, 16)
    with pytest.raises(ValueError, match="^truncation 3 is not the map's own, 16$"):
        jantzen_layers_sl2(forward, truncation=3)
    assert coker_check_over_A(forward) == coker_check_over_A(lam, 16)
    if is_natural(lam):
        assert four_term_rank_check(forward) == four_term_rank_check(lam, 16)
    with pytest.raises(ValueError, match="forward map"):
        coker_check_over_A(psi(forward))


@pytest.mark.parametrize(
    "call, truncation, message",
    [
        (coker_check_over_A, "x", "^truncation must be an int from 0 to 100, got 'x'$"),
        (four_term_rank_check, 2.5, "^truncation must be an int from 0 to 100, got 2.5$"),
        (jantzen_layers_sl2, 50, "^truncation 50 is not the map's own, 6$"),
        (psi, 7, "^truncation 7 is not the map's own, 6$"),
    ],
    ids=["coker", "four-term", "jantzen", "psi"],
)
def test_a_forward_map_refuses_a_truncation_not_its_own(call, truncation, message):
    forward = phi(1, 6)
    with pytest.raises(ValueError, match=message):
        call(forward, truncation)
    # its own truncation, or none, is the map's; none with a lam is the default
    assert call(forward, 6) == call(forward) == call(1, 6)
    assert call(1) == call(1, DEFAULT_TRUNCATION)


def test_sl2_report_builds_the_forward_map_once(monkeypatch):
    import contextlib
    import io

    from vermatwist import cli, sl2lab

    calls = []
    real = sl2lab.phi

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sl2lab, "phi", counted)
    for check in ("all", "phi", "psi", "four-term", "jantzen"):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sl2", "--lambda", "3", "--trunc", "12", "--check", check]) == 0
        assert calls == [(Fraction(3), 12)]


def _tampered(wmap, index, entry):
    entries = list(wmap.entries)
    entries[index] = entry
    return WeightMap(wmap.lam, wmap.truncation, wmap.direction, tuple(entries))


@pytest.mark.parametrize("lam", SAMPLE_WEIGHTS)
@pytest.mark.parametrize("build", [phi, psi], ids=["phi", "psi"])
def test_every_tampered_index_is_refused(lam, build):
    # the last index sits in one identity only, the one at n - 1
    wmap = build(lam, 8)
    assert check_equivariance(wmap)
    for i, entry in enumerate(wmap.entries):
        for wrong in (2 * entry, entry + variable()):
            assert check_equivariance(_tampered(wmap, i, wrong)) is False, (i, wrong)


def test_wrong_lam_override_is_refused():
    for build in (phi, psi):
        for lam, other in ((3, 4), (-2, Fraction(-5, 2)), (Fraction(1, 2), Fraction(1, 3))):
            wmap = build(lam, 10)
            assert check_equivariance(wmap, lam=lam)
            assert check_equivariance(wmap, lam=other) is False, (build, lam, other)


def test_truncation_window_sees_only_its_identities():
    for build in (phi, psi):
        wmap = build(Fraction(-7, 2), 10)
        # a window of t checks the t identities between the entries 0..t
        for t in range(11):
            for i in range(11):
                bad = _tampered(wmap, i, 2 * wmap.entries[i])
                refused = 0 < t and i <= t
                assert check_equivariance(bad, truncation=t) is not refused, (build, t, i)
        assert check_equivariance(wmap, truncation=20)


@pytest.mark.parametrize("lam", SAMPLE_WEIGHTS)
def test_maps_match_the_ring_element_route(lam):
    for ours, theirs in (
        (phi(lam, 12), sl2_path.phi(lam, 12)),
        (psi(lam, 12), sl2_path.psi(lam, 12)),
    ):
        assert ours == theirs
        assert [str(e) for e in ours.entries] == [str(e) for e in theirs.entries]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_equivariance_matches_the_ring_element_route(data):
    lam = Fraction(data.draw(st.integers(-12, 12)), data.draw(st.integers(1, 4)))
    truncation = data.draw(st.integers(0, 10))
    wmap = data.draw(st.sampled_from([phi, psi]))(lam, truncation)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, truncation))
        scale = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        shift = data.draw(st.sampled_from([0, 1, Fraction(1, 2)]))
        wmap = _tampered(wmap, i, wmap.entries[i] * (scale + shift * variable()) + shift)
    other_lam = data.draw(st.none() | st.fractions(-6, 6, max_denominator=4))
    window = data.draw(st.none() | st.integers(-1, 12))
    got = check_equivariance(wmap, other_lam, window)
    assert got == sl2_path.check_equivariance(wmap, other_lam, window)


@pytest.mark.parametrize("trunc", [30, 100])
@pytest.mark.parametrize("lam", ["3", "-2", "1/2", "0", "-7/3"])
def test_sl2_report_builds_about_two_ring_elements_per_index(monkeypatch, lam, trunc):
    # phi and psi build one element per entry; the checks build none
    import contextlib
    import io

    from vermatwist import cli, localring

    built = []
    post_init = localring.LocalRingElem.__post_init__

    def counted(elem):
        built.append(1)
        post_init(elem)

    monkeypatch.setattr(localring.LocalRingElem, "__post_init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sl2", "--lambda", lam, "--trunc", str(trunc)]) == 0
    assert len(built) <= 2 * (trunc + 1) + 4


def test_the_deformation_agrees_with_the_a1_block():
    # the layers of M(n) and of its dual, read off the deformation, index
    # by index, against the layer tables of the A1 block and the weight
    # space dimensions of its simple modules
    from vermatwist import (
        SIMPLE,
        SumFormulaInput,
        build_root_system,
        dimension_at,
        element_from_word,
        layers_multiplicity_free,
        make_block,
        sum_formula,
        unit_vector,
        weight,
    )

    N = 20
    rs = build_root_system("A1")
    e, s = element_from_word(rs, ()), element_from_word(rs, (1,))
    for n in range(9):
        block = make_block(rs, weight(-n - 2))
        for w, valuations in ((e, jantzen_layers_sl2(n, N)), (s, psi(n, N).valuations())):
            table = layers_multiplicity_free(SumFormulaInput(block, w, s))
            for i in range(N + 1):
                depth = sum(
                    d * dimension_at(block, unit_vector(SIMPLE, x), weight(n - 2 * i))
                    for x, d in table.layers.items()
                )
                assert depth == valuations[i], (n, w, i)
    # off the natural locus M(lam) is simple: nothing deforms and the sum is zero
    for lam in (-1, -2, -3, Fraction(1, 2), Fraction(-7, 2), Fraction(5, 3)):
        assert set(jantzen_layers_sl2(lam, N).values()) == {0}
        assert set(psi(lam, N).valuations()) == {0}
        block = make_block(rs, weight(lam))
        assert sum_formula(SumFormulaInput(block, e, e)).vector.is_zero, lam

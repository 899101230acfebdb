"""Every command's output, pinned by a digest over a fixed sweep.

The sweep runs ``main()`` in process on a fixed list of command lines and
records each call as ``[argv, exit code, stdout, stderr]``, refusals
included.  The sha256 of the records, one JSON line each, was computed
before the root system and Weyl group layers were rewritten without
matrix algebra; a change that alters any byte of any output, or turns a
refusal into an answer, changes it.

A second digest pins the runs that read ``--decomp-file``: ``layers`` and
``sum-formula`` on the regular A2, B2 and G2 blocks with their built-in
matrices written as files, a sample of A3 with its Bruhat incidence file,
and one B2 file for each kind of refusal, so the loader's messages and
their order are pinned too.  It was computed before simple to Verma
became a triangular solve.

A third digest pins the rank 1 laboratory: ``sl2`` on natural, negative
and nonintegral lambda, with truncations on both sides of the window that
the four term check needs, every ``--check`` and both formats.  It was
computed before the local ring's operators and the two natural-window
checks were each written once.

A fourth digest pins the rank 1 laboratory at the truncations where its
coefficients grow to hundreds of bits: ``sl2`` at truncation 60 and 100
on natural, negative, half-integral and thirds lambda, every ``--check``
and both formats.  It was computed before the local ring's products took
the short operand from either side and its scaled comparison cancelled
the gcd of the two scalar parts.
"""

import contextlib
import hashlib
import io
import json
import random

from vermatwist import all_elements, build_root_system, word_text
from vermatwist.cli import main
from vermatwist.weyl import _group_tables

#: sha256 of the sweep's records
SWEEP_SHA256 = "93c91e87ba5b24858113f1f9ca1f91d73d5ad1d6ae7a8036e378a956ad3d7dd2"

#: for A2, B2 and G2: regular integral, singular integral, regular
#: nonintegral and singular nonintegral base weights
RANK2_LAMBDAS = ("-2,-2", "-1,-2", "-5/2,-2", "-1,-5/2")

#: sampled pairs and their weights for the rank 3 and 4 types
SAMPLED = {
    "B3": ("-2,-2,-2", "-1,-2,-2", "-5/2,-2,-2"),
    "C3": ("-2,-2,-2", "-2,-1,-2", "-2,-2,-1/2"),
    "F4": ("-2,-2,-2,-2", "-1,-2,-2,-2", "-2,-2,-2,-3/2"),
}


def sweep_argvs():
    argvs = []
    for label in ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "B4", "D4", "F4"):
        for fmt in ("table", "json"):
            argvs.append(["weyl", "--type", label, "--format", fmt])
    argvs.append(["b2-table"])
    for label in ("A2", "B2", "G2"):
        words = [word_text(w) for w in all_elements(build_root_system(label))]
        for lam in RANK2_LAMBDAS:
            for w in words:
                for y in words:
                    for command in ("sum-formula", "layers"):
                        for fmt in ("table", "json"):
                            argvs.append([command, "--type", label, "--lambda", lam,
                                          "--w", w, "--y", y, "--format", fmt])
    pick = random.Random(20010)
    for label, lams in SAMPLED.items():
        words = [word_text(w) for w in all_elements(build_root_system(label))]
        for lam in lams:
            for _ in range(12):
                w, y = pick.choice(words), pick.choice(words)
                for command in ("sum-formula", "layers"):
                    argvs.append([command, "--type", label, "--lambda", lam,
                                  "--w", w, "--y", y, "--format", pick.choice(("table", "json"))])
    for lam in ("3", "-2", "1/2"):
        for trunc in ("4", "12"):
            for fmt in ("table", "json"):
                argvs.append(["sl2", "--lambda", lam, "--trunc", trunc, "--format", fmt])
    return argvs


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return [argv, code, out.getvalue(), err.getvalue()]


def test_sweep_output_is_pinned():
    digest = hashlib.sha256()
    codes = set()
    for argv in sweep_argvs():
        rec = record(argv)
        codes.add(rec[1])
        digest.update(json.dumps(rec).encode() + b"\n")
    # the sweep reaches both answers and refusals
    assert codes == {0, 1}
    assert digest.hexdigest() == SWEEP_SHA256


#: sha256 of the decomposition-file sweep's records
DECOMP_SHA256 = "62fdb202aa733a1bd3b0f444ea99005fca8c60ff39b57a9037144ef0cc2d8590"


def bruhat_file(label):
    """The regular block's Bruhat incidence matrix, as the loader reads it:
    the built-in matrix in rank 2, read off the group's lower ideals."""
    rs = build_root_system(label)
    n = len(all_elements(rs))
    return {
        "params": [word_text(w) for w in all_elements(rs)],
        "matrix": [[ideal >> j & 1 for j in range(n)] for ideal in _group_tables(rs).ideals],
    }


def b2_refusal_files():
    """One B2 file for each kind of refusal, by name; the positions follow
    the table order e, s, t, st, ts, sts, tst, stst."""
    good = bruhat_file("B2")

    def edited(i, j, value):
        matrix = [list(row) for row in good["matrix"]]
        matrix[i][j] = value
        return {"params": names, "matrix": matrix}

    names = good["params"]
    return {
        "missing_key.json": {"params": names},
        "bad_word.json": {"params": names[:-1] + ["s,x"], "matrix": good["matrix"]},
        "wrong_params.json": {"params": names[:-1] + ["e"], "matrix": good["matrix"]},
        "wrong_shape.json": {"params": names, "matrix": good["matrix"][:-1]},
        "non_integer.json": edited(3, 1, 1.0),
        "negative.json": edited(1, 0, -1),
        "diagonal_2.json": edited(4, 4, 2),
        "outside_bruhat.json": edited(2, 1, 1),
        "identity.json": {
            "params": names,
            "matrix": [[int(i == j) for j in range(8)] for i in range(8)],
        },
        "entry_2.json": edited(3, 1, 2),
    }


def decomp_argvs():
    """The command lines of the sweep, and the files they read."""
    files = {}
    argvs = []

    def runs(label, lam, name, pairs):
        for w, y in pairs:
            for command in ("sum-formula", "layers"):
                for fmt in ("table", "json"):
                    argvs.append([command, "--type", label, "--lambda", lam, "--w", w,
                                  "--y", y, "--format", fmt, "--decomp-file", name])

    for label in ("A2", "B2", "G2"):
        name = f"{label}.json"
        files[name] = bruhat_file(label)
        words = files[name]["params"]
        runs(label, "-2,-2", name, [(w, y) for w in words for y in words])
    b2 = files["B2.json"]["params"]
    few = [("e", "e"), ("s", "st"), ("stst", "tst")]
    every = [(w, y) for w in b2 for y in b2]
    for name, data in b2_refusal_files().items():
        files[name] = data
        runs("B2", "-2,-2", name, every if name in ("identity.json", "entry_2.json") else few)
    runs("B2", "-1,-2", "B2.json", few)
    runs("B2", "-2,-2", "missing.json", few)
    files["A3.json"] = bruhat_file("A3")
    a3 = files["A3.json"]["params"]
    pick = random.Random(20018)
    runs("A3", "-2,-2,-2", "A3.json", [(pick.choice(a3), pick.choice(a3)) for _ in range(24)])
    return files, argvs


def test_decomposition_file_runs_are_pinned(tmp_path, monkeypatch):
    # bare file names in the current directory, so no record holds a path
    monkeypatch.chdir(tmp_path)
    files, argvs = decomp_argvs()
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    digest = hashlib.sha256()
    codes = set()
    for argv in argvs:
        rec = record(argv)
        codes.add(rec[1])
        digest.update(json.dumps(rec).encode() + b"\n")
    assert codes == {0, 1}
    assert digest.hexdigest() == DECOMP_SHA256


#: sha256 of the rank 1 sweep's records
SL2_SHA256 = "b20ef88f99f8cc6e3be48086301d52cabf83dec680a40ff4af00a4946314efbe"


def sl2_argvs():
    return [
        ["sl2", "--lambda", lam, "--trunc", trunc, "--check", check, "--format", fmt]
        for lam in ("0", "1", "2", "3", "-1", "-2", "-3", "1/2", "-7/2", "5/3")
        for trunc in ("1", "4", "9", "10", "30")
        for check in ("all", "phi", "psi", "four-term", "jantzen")
        for fmt in ("table", "json")
    ]


def test_sl2_runs_are_pinned():
    digest = hashlib.sha256()
    refused = 0
    for argv in sl2_argvs():
        rec = record(argv)
        refused += rec[3].startswith("error: TruncationTooSmall: ")
        digest.update(json.dumps(rec).encode() + b"\n")
    # natural lambda below the window of 2 lambda + 4, under "all" and "four-term"
    assert refused == 32
    assert digest.hexdigest() == SL2_SHA256


#: sha256 of the long-truncation rank 1 sweep's records
SL2_LONG_SHA256 = "80459a081d42378cd96f31fd0a95e2d1a7b2b593d3324c34d54e4a81d4488a8a"


def sl2_long_argvs():
    return [
        ["sl2", "--lambda", lam, "--trunc", trunc, "--check", check, "--format", fmt]
        for lam in ("0", "8", "-8", "15/2", "-15/2", "5/3")
        for trunc in ("60", "100")
        for check in ("all", "phi", "psi", "four-term", "jantzen")
        for fmt in ("table", "json")
    ]


def test_sl2_long_truncation_runs_are_pinned():
    digest = hashlib.sha256()
    for argv in sl2_long_argvs():
        rec = record(argv)
        # every lambda here is inside its window: no run is refused
        assert rec[1] == 0 and rec[3] == "", rec
        digest.update(json.dumps(rec).encode() + b"\n")
    assert digest.hexdigest() == SL2_LONG_SHA256

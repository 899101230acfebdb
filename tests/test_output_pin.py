"""Every command's output, pinned by one digest over a fixed sweep.

The sweep runs ``main()`` in process on a fixed list of command lines and
records each call as ``[argv, exit code, stdout, stderr]``, refusals
included.  The sha256 of the records, one JSON line each, was computed
before the root system and Weyl group layers were rewritten without
matrix algebra; a change that alters any byte of any output, or turns a
refusal into an answer, changes it.
"""

import contextlib
import hashlib
import io
import json
import random

from vermatwist import all_elements, build_root_system, word_text
from vermatwist.cli import main

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

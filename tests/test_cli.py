"""Command line behaviour: shapes, determinism, exit codes."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vermatwist
from vermatwist import (
    CARTAN_BY_LABEL,
    all_elements,
    bruhat_leq,
    build_root_system,
    longest_element,
    make_block,
    reflection_through,
    weight,
    word_text,
)
from vermatwist.cli import golden_b2_text, main, render_b2_table


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_sum_formula_table_a1():
    code, out, err = run_cli("sum-formula", "--type", "A1", "--w", "e", "--y", "s")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "sum formula"
    assert "verma vector: +1[e]" in lines
    assert "zero top: no" in lines


def test_sum_formula_json_b2():
    code, out, err = run_cli(
        "sum-formula", "--type", "B2", "--w", "st", "--y", "sts", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"w", "y", "verma", "simple", "layers", "zero_top"}
    assert data["w"] == "st" and data["y"] == "sts"
    assert data["verma"] == {"e": -1, "st": 1, "ts": -1, "sts": 2}
    assert data["layers"] == {"e": 1, "s": 2, "t": 2, "st": 3, "ts": 1, "sts": 2}
    assert data["zero_top"] is True


def test_sum_formula_json_layers_null_when_blocked():
    # singular block: the sum formula still prints, layers are null
    code, out, err = run_cli(
        "sum-formula",
        "--type",
        "B2",
        "--w",
        "e",
        "--y",
        "e",
        "--lambda",
        "-1,-2",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verma"] == {}
    assert data["simple"] is None
    assert data["layers"] is None
    assert data["zero_top"] is None


def test_sum_formula_table_reports_blocked_layers():
    code, out, err = run_cli(
        "sum-formula", "--type", "B2", "--w", "e", "--y", "e", "--lambda", "-1,-2"
    )
    assert code == 0
    assert "layers: unavailable (UnsupportedBlock:" in out


def test_layers_table_b2():
    code, out, err = run_cli("layers", "--type", "B2", "--w", "st", "--y", "sts")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "layers of the twisted module at w = st, y = sts"
    assert "  0: 0" in lines
    assert "  1: L(e) L(ts)" in lines
    assert "  2: L(s) L(t) L(sts)" in lines
    assert "  3: L(st)" in lines
    assert "zero top: yes" in lines


def test_layers_errors_exit_one_with_error_name():
    code, out, err = run_cli(
        "layers", "--type", "B2", "--w", "e", "--y", "e", "--lambda", "-1,-2"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: UnsupportedBlock:")

    code, out, err = run_cli("layers", "--type", "B2", "--w", "e", "--y", "e", "--lambda", "0,0")
    assert code == 1
    assert err.startswith("error: NotAntidominant:")

    code, out, err = run_cli("layers", "--type", "B2", "--w", "zz", "--y", "e")
    assert code == 1
    assert err.startswith("error: ValueError:")


def test_negative_lambda_flag_forms():
    # space separated, equals form, and parenthesized all parse
    for args in (
        ("--lambda", "-3,-2"),
        ("--lambda=-3,-2",),
        ("--lambda", "(-3,-2)"),
    ):
        code, out, err = run_cli("layers", "--type", "B2", "--w", "st", "--y", "sts", *args)
        assert code == 0, (args, err)
        assert "zero top: yes" in out


def test_lambda_defaults_to_minus_two_in_every_coordinate():
    code, out, err = run_cli("sum-formula", "--type", "B2", "--w", "s", "--y", "e")
    assert (code, err) == (0, "")
    assert "block: lambda = (-2, -2)" in out.splitlines()


def test_lambda_parentheses_are_stripped_only_in_pairs():
    # "-3,-2)" is no weight; stripping its last character alone would read
    # it as (3, -2), which fails later, as no antidominant weight
    code, out, err = run_cli("sum-formula", "--type", "B2", "--w", "s", "--y", "e", "--lambda=-3,-2)")
    assert (code, out) == (1, "")
    assert err == (
        "error: ValueError: cannot parse weight '-3,-2)': '-2)' is not a rational or a whole float\n"
    )


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("sum-formula", "--type", "B2", "--y", "s")  # missing --w
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("weyl")  # needs --type or --cartan-file
    assert exc.value.code == 2


def usage_error(*argv):
    """The exit code and stderr of a run that the parser ends."""
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(err):
            main(list(argv))
    return exc.value.code, err.getvalue()


SYSTEM_COMMANDS = {
    "sum-formula": ("--w", "s", "--y", "e"),
    "layers": ("--w", "s", "--y", "e"),
    "weyl": (),
}


@pytest.mark.parametrize("command", sorted(SYSTEM_COMMANDS))
def test_type_and_cartan_file_exclude_each_other(tmp_path, command):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"matrix": CARTAN_BY_LABEL["B2"]}))
    rest = SYSTEM_COMMANDS[command]
    code, err = usage_error(command, "--type", "B2", "--cartan-file", str(path), *rest)
    assert code == 2
    assert err.splitlines()[-1].endswith("argument --cartan-file: not allowed with argument --type")
    code, err = usage_error(command, *rest)
    assert code == 2
    assert "one of the arguments --type --cartan-file is required" in err
    # each alone is accepted
    for flags in (("--type", "B2"), ("--cartan-file", str(path))):
        assert run_cli(command, *flags, *rest)[0::2] == (0, "")


@pytest.mark.parametrize("value", ["1/0", "-3/0", "x", "1e3", ""])
def test_sl2_lambda_that_is_no_rational_is_a_usage_error(value):
    code, err = usage_error("sl2", "--lambda", value)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"vermatwist sl2: error: argument --lambda: invalid rational value: {value!r}"
    )


#: each command's flags, as its --help names them
FLAGS = {
    "sum-formula": (
        "--type", "--cartan-file", "--lambda", "--decomp-file", "--format", "--w", "--y", "--xy",
    ),
    "layers": ("--type", "--cartan-file", "--lambda", "--decomp-file", "--format", "--w", "--y"),
    "b2-table": (),
    "weyl": ("--type", "--cartan-file", "--format"),
    "sl2": ("--lambda", "--trunc", "--check", "--format"),
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_command_has_help(command):
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out):
        main([command, "--help"])
    assert exc.value.code == 0
    text = out.getvalue()
    assert text.startswith(f"usage: vermatwist {command} ")
    named = {word.strip("[]()|,") for word in text.split() if word.lstrip("[(").startswith("--")}
    assert named - {"--help"} == set(FLAGS[command])


def readme_commands():
    """The ``vermatwist ...`` lines of the README's command line quick start."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Quick start, command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("vermatwist ")]


def test_readme_quick_start_commands_run():
    commands = readme_commands()
    assert len(commands) == 5
    assert [argv[0] for argv in commands] == ["sum-formula", "layers", "b2-table", "weyl", "sl2"]
    for argv in commands:
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, ""), argv
        assert out


def test_readme_quick_start_python_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Quick start, Python", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines()[0] == "True"


def test_a_weight_with_too_many_coordinates_exits_one():
    argv = ("sum-formula", "--type", "B2", "--lambda=-2,-2,-2", "--w", "e", "--y", "e")
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err == "error: ValueError: weight needs 2 coordinates, got 3\n"


def test_sl2_truncation_below_one_is_a_usage_error():
    code, err = usage_error("sl2", "--lambda", "1", "--trunc", "0")
    assert code == 2
    assert err.splitlines()[-1].endswith("error: --trunc must be at least 1")


def test_b2_table_matches_golden():
    code, out, err = run_cli("b2-table")
    assert code == 0
    assert out == golden_b2_text()
    assert out == render_b2_table()


def test_weyl_json_a2():
    code, out, err = run_cli("weyl", "--type", "A2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "A2" and data["rank"] == 2
    assert [e["word"] for e in data["elements"]] == ["e", "s", "t", "st", "ts", "sts"]
    assert [e["length"] for e in data["elements"]] == [0, 1, 1, 2, 2, 3]
    assert ["e", "s"] in data["covers"] or ("e", "s") in [tuple(c) for c in data["covers"]]
    assert len(data["covers"]) == 8


def test_weyl_cartan_file(tmp_path):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"matrix": [[2, -2], [-1, 2]], "rank": 2}))
    code, out, err = run_cli("weyl", "--cartan-file", str(path))
    assert code == 0
    assert "8 elements" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[2, -2], [-1, 2]], "rank": 3}))
    code, out, err = run_cli("weyl", "--cartan-file", str(bad))
    assert code == 1
    assert err.startswith("error:")

    nokey = tmp_path / "nokey.json"
    nokey.write_text(json.dumps({"rows": []}))
    code, out, err = run_cli("weyl", "--cartan-file", str(nokey))
    assert code == 1


def test_sl2_table_and_json():
    code, out, err = run_cli("sl2", "--lambda", "1")
    assert code == 0
    assert "phi equivariance: pass" in out
    assert "psi equivariance: pass" in out
    assert "four-term exactness at X=0: pass" in out
    assert "cokernel valuations over A: pass" in out
    assert "jantzen valuations (index:valuation): 0:0 1:0 2:1" in out

    code, out, err = run_cli("sl2", "--lambda", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["phi_equivariance"] is True
    assert data["psi_equivariance"] is True
    assert data["four_term_exactness_at_X0"] is True
    assert data["cokernel_valuations_over_A"] is True
    assert data["jantzen"]["0"] == 0 and data["jantzen"]["2"] == 1


def test_sl2_non_natural_lambda_skips_four_term():
    code, out, err = run_cli("sl2", "--lambda", "-7/2")
    assert code == 0
    assert "four-term exactness at X=0: skipped (lambda is not a natural number)" in out

    code, out, err = run_cli("sl2", "--lambda", "-7/2", "--format", "json")
    data = json.loads(out)
    assert data["four_term_exactness_at_X0"] is None


def test_sl2_single_check_and_trunc():
    code, out, err = run_cli("sl2", "--lambda", "2", "--check", "phi", "--trunc", "6")
    assert code == 0
    assert "phi equivariance: pass" in out
    assert "psi equivariance" not in out

    # four-term needs a window of 2*lambda + 4
    code, out, err = run_cli("sl2", "--lambda", "4", "--check", "four-term", "--trunc", "6")
    assert code == 1
    assert err.startswith("error: TruncationTooSmall:")


def test_decomp_file_route(tmp_path):
    from vermatwist import (
        build_root_system,
        decomposition_matrix,
        make_block,
        weight,
        word_text,
    )

    rs = build_root_system("B2")
    block = make_block(rs, weight(-2, -2))
    dm = decomposition_matrix(block)
    path = tmp_path / "d.json"
    path.write_text(
        json.dumps(
            {
                "params": [word_text(w) for w in block.params],
                "matrix": [[dm.entry(y, x) for x in block.params] for y in block.params],
            }
        )
    )
    code, out, err = run_cli(
        "layers", "--type", "B2", "--w", "st", "--y", "sts", "--decomp-file", str(path)
    )
    assert code == 0
    assert "zero top: yes" in out

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, out, err = run_cli(
        "layers", "--type", "B2", "--w", "st", "--y", "sts", "--decomp-file", str(broken)
    )
    assert code == 1
    assert err.startswith("error: BadDecompositionFile:")


def test_xy_route():
    code, out, err = run_cli(
        "sum-formula", "--type", "B2", "--w", "st", "--y", "s", "--xy", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    # reported at the equivalent direct parameters: twist st*w0, orbit st*s
    assert data["w"] == "ts"
    assert data["y"] == "sts"
    assert data["verma"] == {"e": 1, "st": -1, "ts": 1, "sts": 1}


def test_xy_is_the_direct_form_at_x_w0_and_xy():
    rs = build_root_system("B2")
    w0 = longest_element(rs)
    params = make_block(rs, weight(-2, -2)).params
    for x in params:
        for y in params:
            for fmt in ("table", "json"):
                two_letter = run_cli(
                    "sum-formula", "--type", "B2", "--xy",
                    "--w", word_text(x), "--y", word_text(y), "--format", fmt,
                )
                direct = run_cli(
                    "sum-formula", "--type", "B2",
                    "--w", word_text(x * w0), "--y", word_text(x * y), "--format", fmt,
                )
                assert two_letter == direct, (word_text(x), word_text(y), fmt)


def test_xy_refuses_a_singular_block():
    code, out, err = run_cli(
        "sum-formula", "--type", "B2", "--lambda", "-1,-2", "--w", "s", "--y", "t", "--xy"
    )
    assert (code, out) == (1, "")
    assert err == "error: UnsupportedBlock: the two-letter form needs a regular integral block\n"


def test_layers_refuses_a_nonintegral_block_before_resolving_y():
    # s . lambda lies outside the integral orbit of this block; the block
    # itself is the first thing refused
    code, out, err = run_cli("layers", "--type", "A2", "--lambda=-1/2,-2", "--w", "e", "--y", "s")
    assert (code, out) == (1, "")
    assert err == (
        "error: UnsupportedBlock: layer extraction is only supported in regular integral blocks\n"
    )


def _env():
    src = str(Path(vermatwist.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _subprocess_cli(flags, *argv):
    return subprocess.run(
        [sys.executable, *flags, "-m", "vermatwist.cli", *argv],
        capture_output=True,
        text=True,
        env=_env(),
    )


@pytest.mark.parametrize(
    "fmt, first", [("table", b"Weyl group, type B4 (rank 4)\n"), ("json", b"{\n")]
)
def test_a_reader_that_stops_early_ends_the_run_quietly(fmt, first):
    # as ``vermatwist weyl --type B4 | head -1`` does: the rest of the output,
    # 100 kB and more, overfills the pipe, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "vermatwist.cli", "weyl", "--type", "B4", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=_env(),
    )
    assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
def test_wrong_decomposition_matrix_is_refused(tmp_path, flags):
    # the identity matrix passes the loader's own checks, but the B2
    # Verma module of sts has six composition factors, not one
    rs = build_root_system("B2")
    params = [word_text(w) for w in make_block(rs, weight(-2, -2)).params]
    n = len(params)
    path = tmp_path / "identity.json"
    path.write_text(
        json.dumps({"params": params, "matrix": [[int(i == j) for j in range(n)] for i in range(n)]})
    )
    message = "BadDecompositionFile: sum formula hit e outside the composition series"
    argv = ("--type", "B2", "--w", "st", "--y", "sts", "--decomp-file", str(path))
    proc = _subprocess_cli(flags, "layers", *argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {message}\n"
    proc = _subprocess_cli(flags, "sum-formula", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == f"layers: unavailable ({message})"


def test_b2_table_under_optimized_python():
    proc = _subprocess_cli(("-O",), "b2-table")
    assert proc.returncode == 0
    assert proc.stdout == golden_b2_text()


def test_output_is_deterministic():
    for argv in (
        ("b2-table",),
        ("weyl", "--type", "B2", "--format", "json"),
        ("sum-formula", "--type", "B2", "--w", "ts", "--y", "w0", "--format", "json"),
        ("sl2", "--lambda", "3", "--format", "json"),
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


def test_json_outputs_parse_and_round_trip():
    for argv in (
        ("weyl", "--type", "G2", "--format", "json"),
        ("layers", "--type", "B2", "--w", "e", "--y", "w0", "--format", "json"),
        ("sl2", "--lambda", "0", "--format", "json"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 0
        data = json.loads(out)
        assert json.dumps(data, indent=2) + "\n" == out or json.dumps(data, indent=2) == out.rstrip("\n")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "vermatwist.cli", "b2-table"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == golden_b2_text()


def test_sum_formula_names_a_y_outside_the_integral_weyl_group():
    # s is not in the integral Weyl group of this nonintegral A2 block
    code, out, err = run_cli(
        "sum-formula", "--type", "A2", "--lambda=-1/2,-2", "--w", "e", "--y", "s"
    )
    assert (code, out) == (1, "")
    assert err == "error: NotInBlockOrbit: y = s lies outside the block's integral Weyl group\n"


def _pairwise_covers(rs):
    elements = all_elements(rs)
    return [
        [word_text(x), word_text(y)]
        for y in elements
        for x in elements
        if x.length + 1 == y.length and bruhat_leq(x, y)
    ]


@pytest.mark.parametrize(
    "system",
    [
        "A1", "A2", "B2", "G2", "A3", "B3", "C3",
        [[2, 0], [0, 2]],
        [[2, 0, 0], [0, 2, -2], [0, -1, 2]],
    ],
    ids=["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A1xA1", "A1xB2"],
)
def test_weyl_covers_match_the_pairwise_definition(tmp_path, system):
    if isinstance(system, str):
        flags = ("--type", system)
    else:
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"rank": len(system), "matrix": system}))
        flags = ("--cartan-file", str(path))
    code, out, err = run_cli("weyl", *flags, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["covers"] == _pairwise_covers(build_root_system(system))


def test_weyl_cover_counts_rank_4():
    for label, count in (("D4", 790), ("B4", 1740)):
        code, out, err = run_cli("weyl", "--type", label, "--format", "json")
        assert code == 0
        assert len(json.loads(out)["covers"]) == count, label


@pytest.mark.parametrize(
    "argv",
    [
        ("sum-formula", "--type", "B2", "--w", "st", "--y", "sts"),
        ("sum-formula", "--type", "B2", "--w", "st", "--y", "sts", "--format", "json"),
        ("layers", "--type", "B2", "--w", "st", "--y", "sts", "--format", "json"),
        ("layers", "--type", "B2", "--w", "st", "--y", "sts"),
        ("sum-formula", "--type", "B2", "--w", "st", "--y", "s", "--xy"),
    ],
    ids=["sum-formula", "sum-formula-json", "layers-json", "layers", "sum-formula-xy"],
)
def test_one_sum_formula_evaluation_per_run(monkeypatch, argv):
    # every route to the sum vector, sum_formula included, goes through _sum_counts
    from vermatwist import jantzen

    calls = []
    real = jantzen._sum_counts

    def counted(inp):
        calls.append(inp)
        return real(inp)

    monkeypatch.setattr(jantzen, "_sum_counts", counted)
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_sl2_truncation_bound():
    from vermatwist.sl2lab import MAX_TRUNCATION

    with pytest.raises(SystemExit) as exc:
        run_cli("sl2", "--lambda", "3", "--trunc", str(MAX_TRUNCATION + 1))
    assert exc.value.code == 2
    code, out, err = run_cli("sl2", "--lambda", "-1/2", "--check", "phi", "--trunc", str(MAX_TRUNCATION))
    assert (code, err) == (0, "")
    assert "phi equivariance: pass" in out


def test_main_builds_its_parser_once(monkeypatch):
    from vermatwist import DEFAULT_TRUNCATION, cli

    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    first = run_cli("weyl", "--type", "A2")
    code, out, err = run_cli("sl2", "--lambda", "1")
    assert (code, err) == (0, "")
    assert out.startswith(f"sl2 deformation report: lambda = 1, truncation = {DEFAULT_TRUNCATION}\n")
    assert run_cli("weyl", "--type", "A2") == first
    assert len(built) == 1
    assert real() is not real()


@pytest.mark.parametrize(
    "matrix, rank",
    [
        ([[2, -1.7], [-1, 2]], None),  # would run as A2 if truncated
        ([[2.9]], None),  # would run as A1
        ([[2, -1], [-1, True]], None),
        ([[2, "-1"], [-1, 2]], None),
        ([[2, None], [-1, 2]], None),
        ([None, [-1, 2]], None),
        (5, None),
        ("ab", None),
        ([[2, -1], [-1, 2]], "null"),
        ([[2, -1], [-1, 2]], 2.0),
    ],
)
def test_malformed_cartan_files_are_refused(tmp_path, matrix, rank):
    data = {"matrix": matrix}
    if rank is not None:
        data["rank"] = None if rank == "null" else rank
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli("weyl", "--cartan-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError: ") and err.count("\n") == 1


#: files that no JSON reader accepts: too deep for the parser, not UTF-8,
#: and an integer over the interpreter's digit limit
UNREADABLE = {
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "not_utf8": b'{"matrix": [[2]]}\xff\xfe',
    "digits": b'{"matrix": [[' + b"7" * 5000 + b"]]}",
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_files_are_refused(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE[name])
    code, out, err = run_cli("weyl", "--cartan-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError: cannot read Cartan file: ") and err.count("\n") == 1
    code, out, err = run_cli(
        "layers", "--type", "B2", "--w", "st", "--y", "sts", "--decomp-file", str(path)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: BadDecompositionFile: cannot read decomposition file: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("params", ["e1", {"e": 0, "1": 1}], ids=["string", "object"])
def test_decomp_file_params_must_be_a_list(tmp_path, params):
    # iterated as they stand, both would spell the two A1 words
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"params": params, "matrix": [[1, 0], [1, 1]]}))
    code, out, err = run_cli(
        "layers", "--type", "A1", "--w", "e", "--y", "1", "--decomp-file", str(path)
    )
    assert (code, out) == (1, "")
    assert err == (
        'error: BadDecompositionFile: decomposition data "params" must be a list of words\n'
    )


def test_cartan_file_rank_is_bounded_before_anything_is_built(tmp_path, monkeypatch):
    from vermatwist import rootsystem

    monkeypatch.setattr(rootsystem, "RootSystem", lambda *args: pytest.fail("built"))
    # A17: every Weyl group of rank r has at least 2^r elements
    a17 = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(17)] for i in range(17)]
    path = tmp_path / "a17.json"
    path.write_text(json.dumps({"matrix": a17, "rank": 17}))
    code, out, err = run_cli("weyl", "--cartan-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: GroupTooLarge: a Weyl group of rank 17 ")


def test_exponent_notation_lambda_is_refused():
    code, out, err = run_cli("sum-formula", "--type", "B2", "--lambda", "1e3,-2", "--w", "s", "--y", "s")
    assert (code, out) == (1, "")
    assert err == "error: ValueError: cannot parse weight '1e3,-2': exponent notation is not accepted\n"
    with pytest.raises(SystemExit) as exc:
        run_cli("sl2", "--lambda", "1e3")
    assert exc.value.code == 2
    # integers, fractions and decimals are accepted
    code, out, err = run_cli("sum-formula", "--type", "B2", "--lambda", "-1.5,-4/2", "--w", "s", "--y", "t")
    assert (code, err) == (0, "")
    code, out, err = run_cli("sl2", "--lambda", "2.5", "--check", "phi")
    assert (code, err) == (0, "")


#: sha256 of the weyl command's output, pinned since before elements were table rows
WEYL_SHA256 = {
    ("A3", "json"): "029bbb945234af6f0e5a26e331a19f71aa88927d22de68092ee65caf3b053fa5",
    ("A3", "table"): "143e4fd5572f2f4b13d5a6f865c323501da10392b04b1863f89490f663b31977",
    ("B3", "json"): "03336a74649b8cc99b3dfbdee4f7f9a8f1a6c7e7967af2784a485b0590cee756",
    ("B3", "table"): "9e46727f81d7965f1cd2dd3facd595c5a5b2b5ecd23e60c0e57ad6f58561fb38",
    ("C3", "json"): "7d13e4f9ecb6200b7fa6ca785a4eee09de67b270c419dc20d02c4326a042a353",
    ("C3", "table"): "c7fdd8d1dd3f61c0cdbfe5ce785a331f9f50d7e0bfb9c64b85f11ac865d9c66e",
    ("D4", "json"): "41369dcb60689cf7c2fc551c210d21a0d76f87564f0a8256dbd60ad7900df3d9",
    ("D4", "table"): "6f2435e5311c10a26223039221352ca4c90bb6b0563ff855b56904925c7f4336",
    ("B4", "json"): "0bcb4e9f76e194ab6bb8049884795be88969834b0dd6535b1d9e467cd4328b99",
    ("B4", "table"): "e4de1129c4e70533323cfec384684aecdd67ef129693c4e55637334eb0f63baa",
    ("F4", "json"): "346c7db9954f8ff3994a0e67b6ef310822745ac2d2dba5bc7e16fe975aad5780",
    ("F4", "table"): "74f115af4f24c0cb9a339b371e240e8fffe9e7891b772ea4d239feb678d5f908",
}


@pytest.mark.parametrize("label, fmt", sorted(WEYL_SHA256))
def test_weyl_output_is_pinned(label, fmt):
    code, out, err = run_cli("weyl", "--type", label, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == WEYL_SHA256[label, fmt]


def _encoder_weyl_payload(rs):
    """The weyl payload built from the public API, for ``json.dumps(indent=2)``.

    Covers are the pairs x < y with x = y * t for a reflection t and
    l(x) = l(y) - 1, listed by y and then by x, both in table order.
    """
    elements = all_elements(rs)
    position = {w: k for k, w in enumerate(elements)}
    reflections = [reflection_through(rs, beta) for beta in rs.positive_roots]
    covers = []
    for y in elements:
        below = sorted(position[y * t] for t in reflections)
        covers.extend(
            [word_text(elements[j]), word_text(y)]
            for j in below
            if elements[j].length + 1 == y.length
        )
    return {
        "type": rs.label,
        "rank": rs.rank,
        "elements": [
            {
                "word": word_text(w),
                "length": w.length,
                "inversions": [list(beta.coords) for beta in w.inversions],
            }
            for w in elements
        ],
        "covers": covers,
    }


@pytest.mark.parametrize(
    "system, label",
    [
        *((name, name) for name in CARTAN_BY_LABEL),
        # a Cartan file of type B2 takes the label; A1 x G2 has none
        ([[2, -2], [-1, 2]], "B2"),
        ([[2, 0, 0], [0, 2, -3], [0, -1, 2]], None),
    ],
    ids=[*CARTAN_BY_LABEL, "B2-file", "A1xG2-file"],
)
def test_weyl_json_writer_matches_the_encoder(tmp_path, system, label):
    if isinstance(system, str):
        flags = ("--type", system)
    else:
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"matrix": system}))
        flags = ("--cartan-file", str(path))
    code, out, err = run_cli("weyl", *flags, "--format", "json")
    assert (code, err) == (0, "")
    payload = _encoder_weyl_payload(build_root_system(system))
    assert payload["type"] == label
    want = json.dumps(payload, indent=2) + "\n"
    # line by line, so that a failure shows the first line that differs
    lines = itertools.zip_longest(out.splitlines(keepends=True), want.splitlines(keepends=True))
    for k, (got, expected) in enumerate(lines, start=1):
        assert got == expected, f"line {k}"


def test_weyl_json_never_enters_the_pure_python_encoder(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("the pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(pytest.fail.Exception):
        json.dumps([1], indent=2)
    path = tmp_path / "a1xb2.json"
    path.write_text(json.dumps({"matrix": [[2, 0, 0], [0, 2, -2], [0, -1, 2]]}))
    for flags in (("--type", "B3"), ("--type", "F4"), ("--cartan-file", str(path))):
        code, out, err = run_cli("weyl", *flags, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["rank"] in (3, 4)

"""Command line front end.

Subcommands: ``sum-formula``, ``layers``, ``b2-table``, ``weyl``, ``sl2``.
All output is deterministic (stable orderings everywhere).  Exit codes:
0 on success, 1 on domain errors (the error class name is printed
verbatim), 2 on usage errors, and 141 (128 + SIGPIPE) from the console
script when the reader of stdout closes it early, as ``| head`` does.

Each coordinate of ``--lambda``, and the ``sl2`` command's lam, is read
by :func:`vermatwist.errors.rational`, the package's one reader of a
rational, so the library and the flags accept and refuse the same
values; the ``sl2`` parser takes it as its ``type=``, so a refusal there
is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import VermatwistError, rational

# Each command imports the layers it runs inside its body, so that a
# ``weyl`` run never loads the weight, character, sum-formula or rank 1
# modules, ``sl2`` loads only the rank 1 ones, and ``sum-formula``,
# ``layers`` and ``b2-table`` load no rank 1 module.  ``json`` is
# imported by the functions that use it, and ``fractions`` by
# ``errors.rational``, so the ``weyl`` command loads neither.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .characters import CharVector
    from .jantzen import LayerTable, SumFormulaInput
    from .rootsystem import Root, RootSystem
    from .weights import Weight
    from .weyl import WeylElement


def _dumps(obj) -> str:
    import json

    return json.dumps(obj, indent=2)


def _weight_text(lam: Weight) -> str:
    return "(" + ", ".join(str(c) for c in lam.coords) + ")"


def _root_text(beta: Root) -> str:
    return "(" + ",".join(str(c) for c in beta.coords) + ")"


def _vector_text(coeffs: dict[str, int]) -> str:
    return " ".join(f"{c:+}[{word}]" for word, c in coeffs.items()) or "0"


def _vector_json(vec: CharVector) -> dict[str, int]:
    from .weyl import word_text

    return {word_text(w): c for w, c in vec.items()}


def _layers_json(table: LayerTable) -> dict[str, int]:
    from .weyl import word_text

    ordered = sorted(table.layers, key=lambda w: w._k)
    return {word_text(w): table.layers[w] for w in ordered}


def _simple_json(table: LayerTable) -> dict[str, int]:
    # _layers checks that the sum vector's simple basis
    # coefficients are exactly the depths it reports
    return {word: depth for word, depth in _layers_json(table).items() if depth}


def _layer_lines(table: LayerTable, name) -> list[str]:
    lines = []
    for k, row in enumerate(table.by_depth()):
        body = " ".join(f"L({name(x)})" for x in row) if row else "0"
        lines.append(f"  {k}: {body}")
    return lines


def _resolve_system(args) -> RootSystem:
    """The root system of ``--type`` or ``--cartan-file``; the parser admits exactly one."""
    from .rootsystem import _read_json, build_root_system

    if args.type:
        return build_root_system(args.type)
    data = _read_json(args.cartan_file, ValueError, "Cartan file")
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError('Cartan file needs a "matrix" key')
    matrix = data["matrix"]
    if not isinstance(matrix, list):
        raise ValueError("Cartan file matrix must be a list of rows")
    rank = data.get("rank", len(matrix))
    if type(rank) is not int:
        raise ValueError("Cartan file rank must be an integer")
    if rank != len(matrix):
        raise ValueError("Cartan file rank does not match the matrix size")
    return build_root_system(matrix)


def _resolve_lambda(rs: RootSystem, text: str) -> Weight:
    from .weights import Weight

    if text == "default":
        return Weight((-2,) * rs.rank)
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    try:
        coords = tuple(rational(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse weight {text!r}: {exc}") from exc
    if len(coords) != rs.rank:
        raise ValueError(f"weight needs {rs.rank} coordinates, got {len(coords)}")
    return Weight(coords)


def _resolve_element(rs: RootSystem, text: str) -> WeylElement:
    from .weyl import element_from_word, parse_word_text

    return element_from_word(rs, parse_word_text(rs, text))


def _resolve_input(args) -> SumFormulaInput:
    """The module named on the command line.

    With ``--xy`` the words are x and y of the two-letter form, which names
    the module at twist x * w0 and orbit parameter x * y.
    """
    from .characters import make_block
    from .jantzen import SumFormulaInput, _xy_input

    rs = _resolve_system(args)
    block = make_block(rs, _resolve_lambda(rs, args.lam))
    w = _resolve_element(rs, args.w)
    y = _resolve_element(rs, args.y)
    if getattr(args, "xy", False):
        return _xy_input(block, w, y)
    return SumFormulaInput(block=block, w=w, y=y)


def _payload(
    inp: SumFormulaInput, y: WeylElement, vector: CharVector, table: LayerTable | None
) -> dict:
    """``y`` is the module's block parameter and ``vector`` its sum vector."""
    from .weyl import word_text

    return {
        "w": word_text(inp.w),
        "y": word_text(y),
        "verma": _vector_json(vector),
        "simple": _simple_json(table) if table is not None else None,
        "layers": _layers_json(table) if table is not None else None,
        "zero_top": table.zero_top if table is not None else None,
    }


def _table_lines(table: LayerTable) -> list[str]:
    from .weyl import word_text

    return _layer_lines(table, word_text) + [f"zero top: {'yes' if table.zero_top else 'no'}"]


def cmd_sum_formula(args, parser) -> int:
    from .characters import VERMA, CharVector, load_decomposition_file
    from .jantzen import _layer_matrix, _layers, _rplus_mu, _sum_counts, _verma_counts
    from .weyl import word_text

    inp = _resolve_input(args)
    # evaluated before the decomposition file is read: a y outside the
    # block's orbit is reported as such whatever the file holds
    y, kept, flip = _sum_counts(inp)
    vector = CharVector._of(VERMA, _verma_counts(y, kept, flip))
    block = inp.block
    decomp = None if args.decomp_file is None else load_decomposition_file(block, args.decomp_file)
    try:
        table, blocked = _layers(_layer_matrix(block, decomp), y, kept, flip), None
    except VermatwistError as exc:
        table, blocked = None, exc
    if args.format == "json":
        print(_dumps(_payload(inp, y, vector, table)))
        return 0
    lines = ["sum formula"]
    lines.append(f"block: lambda = {_weight_text(block.base)}")
    lines.append(f"w = {word_text(inp.w)}")
    lines.append(f"y = {word_text(y)}  (mu = {_weight_text(block.weight_of(y))})")
    lines.append("R+(mu): " + (" ".join(_root_text(b) for b in _rplus_mu(block, y)) or "-"))
    lines.append("R+(w): " + (" ".join(_root_text(b) for b in inp.w.inversions) or "-"))
    lines.append(f"verma vector: {_vector_text(_vector_json(vector))}")
    if table is None:
        lines.append(f"layers: unavailable ({type(blocked).__name__}: {blocked})")
    else:
        lines.append(f"simple vector: {_vector_text(_simple_json(table))}")
        lines.append("layers:")
        lines.extend(_table_lines(table))
    print("\n".join(lines))
    return 0


def cmd_layers(args, parser) -> int:
    from .characters import VERMA, CharVector, load_decomposition_file
    from .jantzen import _layer_matrix, _layers, _sum_counts, _verma_counts
    from .weyl import word_text

    inp = _resolve_input(args)
    block = inp.block
    decomp = None if args.decomp_file is None else load_decomposition_file(block, args.decomp_file)
    # raises before the orbit parameter is resolved, so a nonintegral block
    # is refused as such even when y lies outside its integral orbit
    dm = _layer_matrix(block, decomp)
    y, kept, flip = _sum_counts(inp)
    table = _layers(dm, y, kept, flip)
    if args.format == "json":
        print(_dumps(_payload(inp, y, CharVector._of(VERMA, _verma_counts(y, kept, flip)), table)))
        return 0
    lines = [f"layers of the twisted module at w = {word_text(inp.w)}, y = {word_text(y)}"]
    lines.append(f"block: lambda = {_weight_text(block.base)}")
    lines.extend(_table_lines(table))
    print("\n".join(lines))
    return 0


def render_b2_table() -> str:
    """The full B2 reproduction: every (w, y) pair, grouped by layer table."""
    from .characters import make_block
    from .jantzen import SumFormulaInput, layers_multiplicity_free
    from .rootsystem import build_root_system
    from .weights import Weight
    from .weyl import longest_element, word_text

    rs = build_root_system("B2")
    lam = Weight((-2, -2))
    block = make_block(rs, lam)
    w0 = longest_element(rs)

    def name(w: WeylElement) -> str:
        return "w0" if w == w0 else word_text(w)

    lines = ["Twisted Jantzen layer tables, type B2"]
    lines.append(
        f"block: lambda = {_weight_text(lam)}, regular integral; "
        "parameters by length: " + ", ".join(name(p) for p in block.params)
    )
    lines.append("w0 = stst; the module at (w, y) is dual to the module at (w*w0, y)")
    for y in block.params:
        lines.append("")
        lines.append(f"=== y = {name(y)} ===")
        groups: list[tuple[list[WeylElement], LayerTable]] = []
        for w in block.params:
            table = layers_multiplicity_free(SumFormulaInput(block=block, w=w, y=y))
            for members, known in groups:
                if known == table:
                    members.append(w)
                    break
            else:
                groups.append(([w], table))
        for members, table in groups:
            twists = ", ".join(name(m) for m in members)
            lines.append(f"M^w({name(y)}) for w in {{{twists}}}:")
            lines.extend(_layer_lines(table, name))
    lines.append("")
    return "\n".join(lines)


def golden_b2_text() -> str:
    """The frozen transcription shipped with the package."""
    from importlib import resources

    return resources.files("vermatwist").joinpath("data/b2_golden.txt").read_text()


def cmd_b2_table(args, parser) -> int:
    sys.stdout.write(render_b2_table())
    return 0


def _json_list(items: list[str], depth: int) -> str:
    """A JSON array of rendered items, at ``depth`` in the ``indent=2`` layout."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def cmd_weyl(args, parser) -> int:
    from .weyl import _bits, _group_tables, word_text

    rs = _resolve_system(args)
    tables = _group_tables(rs)
    elements, masks = tables.elements, tables.masks
    names = [word_text(w) for w in elements]
    if args.format == "json":
        # json.dumps(payload, indent=2), written directly: the layout is
        # fixed, and the strings, words of "e", "s", "t", digits and commas
        # and the type labels, need no escape
        quoted = ['"' + name + '"' for name in names]
        roots = [_json_list([str(c) for c in beta.coords], 4) for beta in rs.positive_roots]
        rows = [
            f'{{\n      "word": {name},\n      "length": {w.length},\n      "inversions": '
            + _json_list([roots[b] for b in _bits(mask)], 3)
            + "\n    }"
            for w, name, mask in zip(elements, quoted, masks)
        ]
        pairs = [_json_list([quoted[j], quoted[k]], 2) for j, k in tables.covers()]
        label = "null" if rs.label is None else '"' + rs.label + '"'
        print(
            f'{{\n  "type": {label},\n  "rank": {rs.rank},\n  "elements": '
            f'{_json_list(rows, 1)},\n  "covers": {_json_list(pairs, 1)}\n}}'
        )
        return 0
    label = rs.label if rs.label else "custom"
    lines = [f"Weyl group, type {label} (rank {rs.rank})"]
    # the longest element is the last in (length, word) order
    lines.append(f"{len(elements)} elements; longest element = {names[-1]}")
    roots = [_root_text(b) for b in rs.positive_roots]
    lines.append("positive roots: " + " ".join(roots))
    lines.append("elements (word: length, inversion set):")
    for w, name, mask in zip(elements, names, masks):
        invs = " ".join(roots[b] for b in _bits(mask)) or "-"
        lines.append(f"  {name}: {w.length}, {invs}")
    lines.append("bruhat covers:")
    lines.extend(f"  {names[j]} < {names[k]}" for j, k in tables.covers())
    print("\n".join(lines))
    return 0


def cmd_sl2(args, parser) -> int:
    from .sl2lab import (
        DEFAULT_TRUNCATION,
        MAX_TRUNCATION,
        check_equivariance,
        coker_check_over_A,
        four_term_rank_check,
        is_natural,
        jantzen_layers_sl2,
        phi,
        psi,
    )

    lam = args.lam
    trunc = DEFAULT_TRUNCATION if args.trunc is None else args.trunc
    if trunc < 1:
        parser.error("--trunc must be at least 1")
    if trunc > MAX_TRUNCATION:
        parser.error(f"--trunc must be at most {MAX_TRUNCATION}")
    which = args.check

    # every check reads the forward map, built once and handed on
    forward = phi(lam, trunc)
    # (JSON key, text label, value); json.dumps writes the valuations' int keys as strings
    rows: list[tuple[str, str, object]] = []
    if which in ("all", "phi"):
        rows.append(("phi_equivariance", "phi equivariance", check_equivariance(forward)))
    if which in ("all", "psi"):
        rows.append(("psi_equivariance", "psi equivariance", check_equivariance(psi(forward))))
    if which in ("all", "four-term"):
        four_term = four_term_rank_check(forward) if is_natural(lam) else None
        rows.append(("four_term_exactness_at_X0", "four-term exactness at X=0", four_term))
        coker = coker_check_over_A(forward)
        rows.append(("cokernel_valuations_over_A", "cokernel valuations over A", coker))
    if which in ("all", "jantzen"):
        rows.append(("jantzen", "jantzen valuations", jantzen_layers_sl2(forward)))

    if args.format == "json":
        payload = {"lambda": str(lam), "truncation": trunc}
        payload.update((key, value) for key, _, value in rows)
        print(_dumps(payload))
        return 0
    lines = [f"sl2 deformation report: lambda = {lam}, truncation = {trunc}"]
    for _, label, value in rows:
        if isinstance(value, dict):
            vals = " ".join(f"{i}:{v}" for i, v in value.items())
            lines.append(f"{label} (index:valuation): {vals}")
        elif value is None:
            lines.append(f"{label}: skipped (lambda is not a natural number)")
        else:
            lines.append(f"{label}: {'pass' if value else 'fail'}")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the flags that several commands share are declared once, on parent parsers
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json"), default="table")
    system = argparse.ArgumentParser(add_help=False)
    one_of = system.add_mutually_exclusive_group(required=True)
    one_of.add_argument("--type", help="root system label, e.g. B2")
    one_of.add_argument("--cartan-file", help='JSON file {"rank": n, "matrix": [[...]]}')
    block = argparse.ArgumentParser(add_help=False, parents=[system])
    block.add_argument(
        "--lambda",
        dest="lam",
        default="default",
        help='base weight coordinates "m1,m2,..." (default: all -2)',
    )
    block.add_argument("--decomp-file", help="JSON decomposition matrix for rank > 2 blocks")
    block.add_argument("--w", required=True, help='twist word, e.g. "st" or "1,2"')
    block.add_argument("--y", required=True, help="orbit parameter word")

    parser = argparse.ArgumentParser(
        prog="vermatwist",
        description="Twisted Verma module Jantzen filtrations, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, text: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=list(parents), help=text)
        p.set_defaults(func=func)
        return p

    p_sum = command("sum-formula", cmd_sum_formula, "evaluate the twisted sum formula", block, fmt)
    p_sum.add_argument(
        "--xy",
        action="store_true",
        help="interpret --w as x and --y as y in the two-letter form (parameter x*y)",
    )
    command("layers", cmd_layers, "full Jantzen layer table of one module", block, fmt)
    command("b2-table", cmd_b2_table, "reproduce the full B2 table set")
    command("weyl", cmd_weyl, "list the Weyl group with Bruhat covers", system, fmt)
    p_sl2 = command("sl2", cmd_sl2, "rank 1 deformation checks", fmt)
    p_sl2.add_argument(
        "--lambda", dest="lam", type=rational, required=True, help="highest weight, a rational"
    )
    # the default, sl2lab.DEFAULT_TRUNCATION, is filled in by cmd_sl2
    p_sl2.add_argument("--trunc", type=int)
    p_sl2.add_argument(
        "--check",
        choices=("all", "phi", "psi", "four-term", "jantzen"),
        default="all",
    )
    return parser


def _merge_value_flags(argv: list[str]) -> list[str]:
    # argparse rejects separated values that start with "-" (e.g. a weight
    # like -3,-1), so fold them into --flag=value form before parsing.
    merged: list[str] = []
    for tok in argv:
        if merged and merged[-1] in ("--lambda", "--trunc"):
            merged[-1] += "=" + tok
        else:
            merged.append(tok)
    return merged


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # parsing leaves no state on the parser, so one serves every call
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_value_flags(list(argv)))
    try:
        return args.func(args, parser)
    except (VermatwistError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    try:
        code = main()
        # flush here, so that a closed pipe raises inside the try
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at the null
        # device, so that nothing more is written, to stdout or stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)  # 128 + SIGPIPE, the status of a process that SIGPIPE ended
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()

"""A mutation check of the package: small edits to chosen functions, each
run against the tier-1 suite, to see whether some test notices.

It is a tool, run by hand from the repository root, and no test; tier-1
imports this module for its doctests, so all work happens under
``__main__``::

    python tests/mutate.py jantzen characters weyl
    python tests/mutate.py weyl._check_element jantzen.SumFormulaInput.__init__

An argument names a module of ``src/vermatwist``, for every function and
method in it, or one function in it by its qualified name.  Each site of a
function gives one mutant:

* a comparison operator swapped: ``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
* an arithmetic operator: ``+`` and ``-``, ``*`` and ``//``, ``/``, ``%``
  and ``**`` to ``*``, ``//`` and ``%``;
* a bit operator: ``&`` and ``|``, ``^`` to ``|``, ``<<`` and ``>>``;
* a boolean operator: ``and`` and ``or``;
* an integer constant plus 1;
* unary ``-`` to ``+``, and ``not`` to ``~``.

Annotations are skipped: the package never evaluates them.  The mutated
function is rendered by ``ast.unparse`` into a copy of the repository,
where ``python -m pytest -q -x`` runs; a failing run or a timeout kills
the mutant.  First the suite runs once with every chosen function
rendered unmutated, which must pass, and each mutant's timeout is
``TIMEOUT_FACTOR`` times that run's time, so a mutant that never ends
costs a fixed multiple of the suite, whatever the machine.  A surviving
mutant is reported unless it is in ``EQUIVALENT``, and so is an entry
there that names no site of a chosen function; the exit status is 1 when
either is found.

>>> source = "def f(a, b: int = 2):\\n    return not a < b + 1\\n"
>>> for m in mutants(source, "f"):
...     print(m.before, "->", m.after)
2 -> 3
not a < b + 1 -> ~(a < b + 1)
a < b + 1 -> a <= b + 1
b + 1 -> b - 1
b + 1 -> b + 2

Sites of the same text are told apart by their order in the function:

>>> [(m.after, m.nth) for m in mutants("def g(x):\\n    return x + 1, x + 1\\n", "g")]
[('x - 1', 1), ('x + 2', 1), ('x - 1', 2), ('x + 2', 2)]
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vermatwist"
#: a mutant's timeout, in multiples of the unmutated suite's time
TIMEOUT_FACTOR = 2

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And,
    ast.USub: ast.UAdd, ast.Not: ast.Invert,
}

#: Survivors that change no behaviour, or none seen on any finite type, as
#: (module, function, before, after, n): the n-th site of the function, in
#: the order of :func:`mutants`, whose mutant has that text.  Four more were
#: annotations, ``X | None`` turned to ``X & None``, which are skipped.
EQUIVALENT = frozenset({
    # initial values that are always overwritten: in _solve the second
    # list, out; the first, rest, keeps its 0 where no pair is given
    ("weyl", "_build_tables", "[0] * size", "[1] * size", 1),
    ("characters", "_solve", "[0] * n", "[1] * n", 2),
    # the -1 sentinel is only read as negative
    ("characters", "_BlockClass.__init__", "-1", "-2", 1),
    # x | -x is minus the lowest bit of x, of the same bit length
    ("characters", "_BlockClass.__init__", "step & -step", "step | -step", 1),
    ("weyl", "bruhat_leq", "descents & -descents", "descents | -descents", 1),
    # the highest descent for the lowest: for the parameters, any descent
    # seems to give the same one, but this is not proved
    ("characters", "_BlockClass.__init__", "-step", "+step", 1),
    # a coordinate of a vector in the orbit of rho is never 0
    ("weyl", "_build_tables", "v[i] < 0", "v[i] <= 0", 1),
    ("weyl", "_build_tables", "v[i] < 0", "v[i] < 1", 1),
    # which operand leads at equal lengths
    ("localring", "_z_mul", "len(a) > len(b)", "len(a) >= len(b)", 1),
    # the closure bound's last step, and skipping images whose i-th
    # coordinate is 0: no finite type differs, but this is not proved
    ("rootsystem", "_generate_positive_roots", "10 * n", "11 * n", 1),
    ("rootsystem", "_generate_positive_roots", "len(seen) > bound", "len(seen) >= bound", 1),
    ("rootsystem", "_generate_positive_roots", "img[i] < 0", "img[i] <= 0", 1),
    ("rootsystem", "_generate_positive_roots", "img[i] < 0", "img[i] < 1", 1),
    # the coroot is the quotient of twice and norm, which scale together:
    # norm stays whole, as (beta, beta) = 2 d_i for beta in the orbit of a_i
    ("rootsystem", "RootSystem.__init__", "2 * d", "3 * d", 1),
    # a stored coefficient is never 0
    ("characters", "CharVector.__repr__", "c >= 0", "c > 0", 1),
    ("characters", "CharVector.__repr__", "c >= 0", "c >= 1", 1),
    # fast paths: what they let through is checked again entry by entry
    ("characters", "DecompositionMatrix.__init__", "not _ints_only(rows)", "~_ints_only(rows)", 1),
    ("characters", "load_decomposition_file", "min(row) >= 0", "min(row) > 0", 1),
    ("characters", "load_decomposition_file", "min(row) >= 0", "min(row) >= 1", 1),
    ("characters", "load_decomposition_file", "ideal >> j", "ideal << j", 1),
    # on the fast path no row passes, as bit i + 1 of the ideal of the i-th
    # parameter is never set; the slow path's site of the same text, the
    # second, is killed by a row whose next index lies inside its ideal
    ("characters", "load_decomposition_file", "ideal >> j & 1", "ideal >> j & 2", 1),
    # no height holds more than rank positive roots
    ("weyl", "_group_order", "rs.rank + 1", "rs.rank + 2", 1),
    # one more position past the last one a row of a lower unitriangular
    # matrix reaches: it stays 0 and no depth is read there
    ("jantzen", "_keep_layer_data", "max([index[y], *positions]) + 1",
     "max([index[y], *positions]) + 2", 1),
    # more trailing zeros: the only reader of the sum, __post_init__, trims them
    ("localring", "_z_add", "len(b) - len(a)", "len(b) + len(a)", 1),
    # dividing by 1 keeps every coefficient
    ("localring", "_z_primitive", "g > 1", "g >= 1", 1),
    # d(0) is never 0 once the common power of X is cancelled
    ("localring", "LocalRingElem.__post_init__", "d[0] < 0", "d[0] <= 0", 1),
    ("localring", "LocalRingElem.__post_init__", "d[0] < 0", "d[0] < 1", 1),
    # a constant gcd is 1 or -1, and the canonical form divides by d(0) after
    ("localring", "LocalRingElem._canonical", "len(g) > 1", "len(g) >= 1", 1),
    # a zero coefficient is skipped before its sign is read
    ("localring", "_poly_text", "c < 0", "c <= 0", 1),
    # the loop sets every entry of the quotient, from the top down
    ("localring", "_z_exact_quotient", "[0] * (len(a) - len(b) + 1)",
     "[1] * (len(a) - len(b) + 1)", 1),
})


class Mutant(NamedTuple):
    module: str
    function: str
    site: int
    line: int
    before: str
    after: str
    nth: int

    def key(self) -> tuple[str, str, str, str, int]:
        return (self.module, self.function, self.before, self.after, self.nth)


def _children(node: ast.AST):
    """The child nodes of ``node`` in field order, without annotations."""
    for name, value in ast.iter_fields(node):
        if name in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield child


def _sites(node: ast.AST, parents: tuple[ast.AST, ...] = ()):
    """Each mutable site under ``node``, depth first: (node, the node whose
    text shows the change).  A constant shows in the expression around it,
    and beyond the lists, tuples, sets and dicts that hold it."""
    if isinstance(node, ast.Compare):
        for _ in node.ops:
            yield node, node
    elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.UnaryOp, ast.AugAssign)):
        if type(node.op) in SWAPS:
            yield node, node
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        shown = node
        for up in reversed(parents):
            if not isinstance(up, ast.expr):
                break
            shown = up
            if not isinstance(up, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
                break
        yield node, shown
    for child in _children(node):
        yield from _sites(child, parents + (node,))


def _mutate(node: ast.AST, nth: int) -> None:
    """Apply the mutation of ``node``'s site; ``nth`` picks a Compare's operator."""
    if isinstance(node, ast.Compare):
        node.ops[nth] = SWAPS[type(node.ops[nth])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAPS[type(node.op)]()


def _find(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope: ast.AST | None = tree
    for name in qualname.split("."):
        scope = next(
            (node for node in getattr(scope, "body", ())
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name == name),
            None,
        )
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise ValueError(f"no function {qualname}")
    return scope


def functions(source: str) -> list[str]:
    """The qualified names of the module's functions and methods."""
    names = []

    def visit(scope, prefix):
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.append(prefix + node.name)
            elif isinstance(node, ast.ClassDef):
                visit(node, prefix + node.name + ".")

    visit(ast.parse(source), "")
    return names


def _apply(source: str, qualname: str, site: int | None):
    """The function node of ``qualname``, freshly parsed and mutated at
    ``site``, its index in :func:`_sites`, with the node that shows the change."""
    func = _find(ast.parse(source), qualname)
    seen: dict[int, int] = {}
    for k, (node, shown) in enumerate(_sites(func)):
        nth = seen[id(node)] = seen.get(id(node), -1) + 1
        if k == site:
            _mutate(node, nth)
            return func, shown
    return func, None


def render(source: str, qualname: str, site: int | None = None) -> str:
    """The module source with ``qualname`` rendered by ``ast.unparse``,
    mutated at ``site`` unless it is None."""
    func = _apply(source, qualname, site)[0]
    lines = source.splitlines(keepends=True)
    start = min([func.lineno] + [d.lineno for d in func.decorator_list]) - 1
    pad = " " * func.col_offset
    text = "".join(pad + line + "\n" if line else "\n" for line in ast.unparse(func).split("\n"))
    return "".join(lines[:start]) + text + "".join(lines[func.end_lineno :])


def mutants(source: str, qualname: str, module: str = "") -> list[Mutant]:
    """One mutant for each site of ``qualname`` in ``source``, numbered
    from 1 among the function's mutants of the same text."""
    found, seen = [], {}
    for k, (_, shown) in enumerate(_sites(_find(ast.parse(source), qualname))):
        view = _apply(source, qualname, k)[1]
        before, after = ast.unparse(shown), ast.unparse(view)
        nth = seen[before, after] = seen.get((before, after), 0) + 1
        found.append(Mutant(module, qualname, k, shown.lineno, before, after, nth))
    return found


def unmatched(args: list[str], found: list[Mutant]) -> list[tuple]:
    """The ``EQUIVALENT`` entries of the functions ``args`` name, a whole
    module naming all of its own, that match none of the mutants ``found``.

    No tier-1 test reads the list against the package: in the tool's own
    copy such a test would fail for every mutant that alters a listed
    site's text, and so kill it.
    """
    keys = {m.key() for m in found}
    chosen = {tuple(arg.split(".", 1)) for arg in args}
    return sorted(
        entry for entry in EQUIVALENT
        if entry not in keys and ((entry[0],) in chosen or entry[:2] in chosen)
    )


def _run_suite(copy: Path, timeout: float | None = None) -> str:
    """'killed', 'survived' or 'timeout' for the suite in ``copy``, given
    ``timeout`` seconds, or all it takes when that is None."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return "survived" if proc.wait(timeout=timeout) == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        # on a timeout, and on an interrupt, which the suite's own session
        # does not receive
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _targets(args: list[str]) -> list[tuple[str, str]]:
    targets = []
    for arg in args:
        module, _, qualname = arg.partition(".")
        source = (PACKAGE / f"{module}.py").read_text()
        targets.extend((module, name) for name in ([qualname] if qualname else functions(source)))
    return targets


def main(args: list[str]) -> int:
    if not args:
        print("usage: python tests/mutate.py MODULE[.FUNCTION] ...", file=sys.stderr)
        return 2
    targets = _targets(args)
    originals = {m: (PACKAGE / f"{m}.py").read_text() for m, _ in targets}
    found = {t: mutants(originals[t[0]], t[1], t[0]) for t in targets}
    stale = unmatched(args, [m for ms in found.values() for m in ms])
    for entry in stale:
        print(f"NO SITE {entry}", flush=True)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        )
        plain = dict(originals)
        for module, qualname in targets:
            plain[module] = render(plain[module], qualname)
        for module, text in plain.items():
            (copy / "src" / "vermatwist" / f"{module}.py").write_text(text)
        start = time.perf_counter()
        if _run_suite(copy) != "survived":
            print("the suite fails with the chosen functions rendered unmutated", file=sys.stderr)
            return 2
        took = time.perf_counter() - start
        timeout = TIMEOUT_FACTOR * took
        print(f"unmutated suite {took:.1f} s, each mutant's timeout {timeout:.1f} s", flush=True)
        survivors, counts = [], {"killed": 0, "timeout": 0, "survived": 0, "equivalent": 0}
        for module, qualname in targets:
            path = copy / "src" / "vermatwist" / f"{module}.py"
            for m in found[module, qualname]:
                path.write_text(render(originals[module], qualname, m.site))
                start = time.perf_counter()
                outcome = _run_suite(copy, timeout)
                if outcome == "survived" and m.key() in EQUIVALENT:
                    outcome = "equivalent"
                counts[outcome] += 1
                if outcome == "survived":
                    survivors.append(m)
                print(
                    f"{outcome:10} {module}.{qualname}:{m.line}  {m.before} -> {m.after}"
                    f"  ({time.perf_counter() - start:.1f} s)",
                    flush=True,
                )
            path.write_text(originals[module])
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    for m in survivors:
        print(f"SURVIVED {m.module}.{m.function}:{m.line}  {m.before} -> {m.after}  (#{m.nth})")
    for entry in stale:
        print(f"NO SITE {entry}")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""One benchmark workload in a fresh interpreter.

Started by ``bench/run.py`` as::

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

with ``PYTHONPATH`` pointing at the checkout's ``src``.  The worker imports
vermatwist, does the workload's fixed setup and prints
``ready <mean of 1 / reference seconds> <seconds spent in the reference loop>``,
so the parent can time interpreter start, import and setup together and
scale that time (see ``speed.py``).  With SECONDS = 0 it exits there.
Otherwise it runs the workload and prints one JSON line of results.

MODE is ``plain`` (time-bounded, untraced), ``traced`` (a fixed amount of
work with spans on, see ``spans.py``) or ``fixed`` (the same fixed work
with spans off, to state the tracing overhead).

Every workload runs in rounds.  A round is a short, seeded list of ops
whose mix of input kinds is the same in every round, so the rate does not
depend on which kinds the seed happened to draw.  Each op's output is
checked outside the timed region; an op that raises or whose output fails
its check counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import Tracer
from speed import Speedometer, scale

import vermatwist as V
from vermatwist import cli

HERE = Path(__file__).resolve().parent


@contextlib.contextmanager
def tracing(tracer: Tracer | None):
    """Spans on for the body, when there is a tracer."""
    if tracer is None:
        yield
        return
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


def attempt(op):
    """The op's output, or None when it raised."""
    try:
        return op()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


class Workload:
    """Setup, seeded rounds of ops, and their checks."""

    name = ""
    #: rounds of the traced run's fixed work
    trace_rounds = 1
    #: whether ops run in this process, so the speedometer samples during them
    in_process = True

    def __init__(self, seed: int, tracer: Tracer | None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer = tracer
        self.speed = Speedometer()

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        """Benchmark-side work after setup that the program does not see."""

    def next_round(self) -> list:
        """Ops of one round, each a zero-argument callable returning its output."""
        raise NotImplementedError

    def timed(self, op):
        """Run one op: its output, wall seconds and seconds at reference speed."""
        with tracing(self.tracer):
            return self.speed.timed(lambda: attempt(op))

    def failures(self, outputs: list) -> int:
        """Number of ops in the round whose output is wrong."""
        raise NotImplementedError

    def traced_work(self) -> tuple[float, int, int]:
        """Fixed, seed-determined work for the traced run: scaled seconds, ops, failed ops.

        Spans are on only while the program works, never during checks.
        """
        busy, ops, failed = 0.0, 0, 0
        for _ in range(self.trace_rounds):
            scaled, _, bad = run_round(self)
            busy += sum(scaled)
            ops += len(scaled)
            failed += bad
        return busy, ops, failed

    def layer_metrics(self, agg: dict, counts: dict) -> dict:
        """Per-layer metrics from the traced run, times unscaled."""
        return {}


def _total_ms(agg: dict, name: str) -> float:
    return agg.get(name, {}).get("total_s", 0.0) * 1e3


def _mean_us(agg: dict, name: str) -> float:
    row = agg.get(name)
    return row["total_s"] / row["calls"] * 1e6 if row else 0.0


class SumFormulaF4(Workload):
    """Random (w, y) pairs of the F4 regular integral block, each beside (w*w0, y)."""

    name = "sum-formula-f4"
    trace_rounds = 100

    def setup(self) -> None:
        self.rs = V.build_root_system("F4")
        self.elements = V.all_elements(self.rs)
        self.w0 = V.longest_element(self.rs)
        self.block = V.make_block(self.rs, V.weight(-2, -2, -2, -2))

    def next_round(self) -> list:
        params = self.block.params
        w = params[self.rng.randrange(len(params))]
        y = params[self.rng.randrange(len(params))]
        partner = w * self.w0
        block = self.block
        self._y = y
        return [
            lambda: V.sum_formula(V.SumFormulaInput(block=block, w=w, y=y)),
            lambda: V.sum_formula(V.SumFormulaInput(block=block, w=partner, y=y)),
        ]

    def failures(self, outputs: list) -> int:
        a, b = outputs
        if a is None or b is None:
            return 2
        if self.tracer is not None:
            self.tracer.count("jantzen.terms", len(a.rplus_mu) + len(b.rplus_mu))
        # complementarity: sf(w, y) + sf(w*w0, y) = |R+(mu)| [y]
        want = len(a.rplus_mu) * V.unit_vector(V.VERMA, self._y)
        return 0 if a.vector + b.vector == want else 2

    def traced_work(self) -> tuple[float, int, int]:
        busy, ops, failed = super().traced_work()

        # first touch of every element's inversion set that the pairs left cold
        def touch():
            for w in self.elements:
                w.inversions

        with tracing(self.tracer):
            _, _, scaled = self.speed.timed(touch)
        return busy + scaled, ops, failed

    def layer_metrics(self, agg: dict, counts: dict) -> dict:
        sf = agg["jantzen.sum_formula"]
        return {
            "rootsystem.build_root_system_ms": _total_ms(agg, "rootsystem.build_root_system"),
            "weyl.all_elements_s": _total_ms(agg, "weyl.all_elements") / 1e3,
            "weyl.group_order": len(self.elements),
            "weyl.inversion_set_ms": _total_ms(agg, "weyl.WeylElement.inversions"),
            "weyl.longest_element_ms": _total_ms(agg, "weyl.longest_element"),
            "characters.make_block_s": _total_ms(agg, "characters.make_block") / 1e3,
            "characters.params": len(self.block.params),
            "jantzen.sum_formula_us": _mean_us(agg, "jantzen.sum_formula"),
            "jantzen.sum_formula_calls": sf["calls"],
            "jantzen.terms": counts["jantzen.terms"],
            "jantzen.us_per_term": sf["total_s"] * 1e6 / counts["jantzen.terms"],
        }


def _rank2_lambda(rng: random.Random, kind: str, round_index: int) -> tuple:
    """An antidominant base weight of the given kind, in fundamental weight coordinates.

    Each kind has a few shapes, taken in turn from round to round: the
    shape fixes the block's structure, the seed only the magnitudes.  Every
    coordinate is at most -1, so lam + rho pairs nonpositively with every
    positive coroot and the weight is antidominant by construction.
    """
    a, b = -rng.randint(2, 5), -rng.randint(2, 5)
    h, k = Fraction(-rng.choice((3, 5, 7)), 2), Fraction(-rng.choice((3, 5, 7)), 2)
    shapes = {
        "regular": [(a, b)],
        "singular": [(-1, b), (a, -1), (-1, -1)],
        "nonintegral": [(h, b), (a, h), (h, k)],
    }[kind]
    return shapes[round_index % len(shapes)]


class Rank2Blocks(Workload):
    """Whole blocks of A2, B2 and G2: layer tables, or sum formulas where layers are refused."""

    name = "rank2-blocks"
    TYPES = ("A2", "B2", "G2")
    KINDS = ("regular", "singular", "nonintegral")

    def setup(self) -> None:
        self.systems = {}
        for label in self.TYPES:
            rs = V.build_root_system(label)
            self.systems[label] = (rs, V.all_elements(rs), V.longest_element(rs))
        self._b2_pending = True
        self._rounds = 0

    def next_round(self) -> list:
        combos = [(t, k) for t in self.TYPES for k in self.KINDS]
        self.rng.shuffle(combos)
        self._rounds += 1
        self._labels = []
        ops = []
        if self._b2_pending:
            # the B2 table is rendered once per run, as the first op
            self._b2_pending = False
            self._labels.append(None)
            ops.append(cli.render_b2_table)
        for label, kind in combos:
            rs, group, _ = self.systems[label]
            lam = V.weight(*_rank2_lambda(self.rng, kind, self._rounds))
            self._labels.append(label)
            ops.append(lambda rs=rs, group=group, lam=lam: self._block_op(rs, group, lam))
        return ops

    @staticmethod
    def _block_op(rs, group, lam):
        block = V.make_block(rs, lam)
        pairs = [(w, y) for y in block.params for w in group]
        if block.regular and block.integral:
            tables = {
                (w, y): V.layers_multiplicity_free(V.SumFormulaInput(block=block, w=w, y=y))
                for w, y in pairs
            }
            return block, tables
        vectors = {
            (w, y): V.sum_formula(V.SumFormulaInput(block=block, w=w, y=y)) for w, y in pairs
        }
        return block, vectors

    def failures(self, outputs: list) -> int:
        failed = 0
        for label, out in zip(self._labels, outputs):
            if out is None:
                failed += 1
            elif label is None:
                failed += out != cli.golden_b2_text()
            else:
                failed += not self._block_ok(label, *out)
        return failed

    def _block_ok(self, label, block, results) -> bool:
        _, group, w0 = self.systems[label]
        sums = results
        if block.regular and block.integral:
            e = group[0]
            for (w, y), table in results.items():
                if w == e and any(d != y.length - x.length for x, d in table.layers.items()):
                    return False
                if w == w0 and any(d != x.length for x, d in table.layers.items()):
                    return False
            sums = {
                (w, y): V.sum_formula(V.SumFormulaInput(block=block, w=w, y=y))
                for w, y in results
            }
        # complementarity: sf(w, y) + sf(w*w0, y) = |R+(mu)| [y]
        for (w, y), a in sums.items():
            b = sums[(w * w0, y)]
            if a.vector + b.vector != len(a.rplus_mu) * V.unit_vector(V.VERMA, y):
                return False
        return True

    def layer_metrics(self, agg: dict, counts: dict) -> dict:
        return {
            "characters.decomposition_matrix_ms": _total_ms(agg, "characters.decomposition_matrix"),
            "characters.change_basis_us": _mean_us(agg, "characters.change_basis"),
            "jantzen.layers_us": _mean_us(agg, "jantzen.layers_multiplicity_free"),
        }


#: sha256 of ``vermatwist weyl --type X --format json`` stdout, frozen at the
#: commit that introduced this benchmark.
WEYL_STDOUT_SHA256 = {
    "A3": "029bbb945234af6f0e5a26e331a19f71aa88927d22de68092ee65caf3b053fa5",
    "B3": "03336a74649b8cc99b3dfbdee4f7f9a8f1a6c7e7967af2784a485b0590cee756",
    "C3": "7d13e4f9ecb6200b7fa6ca785a4eee09de67b270c419dc20d02c4326a042a353",
    "D4": "41369dcb60689cf7c2fc551c210d21a0d76f87564f0a8256dbd60ad7900df3d9",
    "B4": "0bcb4e9f76e194ab6bb8049884795be88969834b0dd6535b1d9e467cd4328b99",
}

#: Cartan matrices, a_ij = <alpha_i^vee, alpha_j>, kept here so that the
#: cover count below does not depend on the program.
CARTAN = {
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "B4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
}


def independent_cover_count(cartan) -> int:
    """Number of Bruhat covers, as pairs (x, x*t) with t a reflection and l(x*t) = l(x) + 1.

    Lengths are distances from the identity in the Cayley graph of the
    simple reflections; the reflections are the conjugates of the simple ones.
    """
    n = len(cartan)

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )

    # column j of s_i is s_i(alpha_j) = alpha_j - a_ij alpha_i
    simple = [
        tuple(
            tuple((r == j) - (cartan[i][j] if r == i else 0) for j in range(n)) for r in range(n)
        )
        for i in range(n)
    ]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    length = {ident: 0}
    inverse = {ident: ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for w in frontier:
            for s in simple:
                u = mul(w, s)
                if u not in length:
                    length[u] = length[w] + 1
                    inverse[u] = mul(s, inverse[w])
                    fresh.append(u)
        frontier = fresh
    reflections = {mul(mul(w, s), inverse[w]) for w in length for s in simple}
    return sum(1 for x in length for t in reflections if length[mul(x, t)] == length[x] + 1)


class WeylCovers(Workload):
    """The real ``weyl`` CLI in a subprocess: A3, B3, C3 three times and D4, B4 once a round."""

    name = "weyl-covers"
    in_process = False
    TYPES = ("A3", "B3", "C3", "D4", "B4")
    #: The rank 3 types run three times a round: they cost little next to D4
    #: and B4, and with three samples each the median op lands inside their
    #: spread of process start times rather than at its edge.
    ROUND = ("A3", "B3", "C3") * 3 + ("D4", "B4")
    #: B4 is left out of the traced run to keep it short; D4 takes the same path
    TRACE_TYPES = ("A3", "B3", "C3", "D4")

    def prepare(self) -> None:
        self.covers = {t: independent_cover_count(CARTAN[t]) for t in self.TYPES}

    def next_round(self) -> list:
        types = list(self.ROUND)
        self.rng.shuffle(types)
        self._labels = types
        return [lambda t=t: self._run_cli(t) for t in types]

    @staticmethod
    def _run_cli(label: str) -> subprocess.CompletedProcess:
        # cli_child.py runs ``-m vermatwist.cli`` under its own speedometer
        argv = [sys.executable, str(HERE / "cli_child.py"), "weyl", "--type", label, "--format", "json"]
        return subprocess.run(argv, capture_output=True, timeout=150)

    def timed(self, op):
        """Wall time of the CLI process, scaled by that process's own reference timings."""
        start = perf_counter()
        out = attempt(op)
        wall = perf_counter() - start
        reports = [
            line.split() for line in (out.stderr.decode() if out else "").splitlines()
            if line.startswith("speed ")
        ]
        if not reports:
            # the child did not get as far as timing itself: a failed op
            return None, wall, wall
        _, speed, spent = reports[-1]
        return out, wall, scale(wall - float(spent), float(speed))

    def failures(self, outputs: list) -> int:
        failed = 0
        for label, out in zip(self._labels, outputs):
            if out is None or not self._stdout_ok(label, out.returncode, out.stdout):
                failed += 1
                detail = "" if out is None else (
                    f"(exit {out.returncode}, {len(out.stdout)} bytes out, "
                    f"{hashlib.sha256(out.stdout).hexdigest()[:12]}, err {out.stderr[-300:]!r})"
                )
                print(f"weyl --type {label} failed its check {detail}", file=sys.stderr)
        return failed

    def _stdout_ok(self, label: str, returncode: int, stdout: bytes) -> bool:
        if returncode != 0 or hashlib.sha256(stdout).hexdigest() != WEYL_STDOUT_SHA256[label]:
            return False
        return len(json.loads(stdout)["covers"]) == self.covers[label]

    def traced_work(self) -> tuple[float, int, int]:
        """Import-only subprocesses, then the weyl command in process with group and inversions warm."""
        imports = []
        for _ in range(3):
            argv = [sys.executable, "-c", "import vermatwist.cli"]
            _, _, scaled = self.speed.timed(lambda: subprocess.run(argv, check=True, timeout=60))
            imports.append(scaled)
        self.import_s = statistics.median(imports)
        busy, failed = 0.0, 0
        for label in self.TRACE_TYPES:
            rs = V.build_root_system(label)
            for w in V.all_elements(rs):
                w.inversions
            buf = io.StringIO()
            argv = ["weyl", "--type", label, "--format", "json"]
            with tracing(self.tracer), contextlib.redirect_stdout(buf):
                rc, _, scaled = self.speed.timed(lambda: cli.main(argv))
            busy += scaled
            if not self._stdout_ok(label, rc, buf.getvalue().encode()):
                failed += 1
            elif self.tracer is not None:
                self.tracer.count("weyl.covers", self.covers[label])
        return busy, len(self.TRACE_TYPES), failed

    def layer_metrics(self, agg: dict, counts: dict) -> dict:
        return {
            "cli.import_s": self.import_s,
            "cli.weyl_s": _total_ms(agg, "cli.main") / 1e3,
            "weyl.covers": counts["weyl.covers"],
        }


SL2_TRUNCATION = 30


class Sl2Deform(Workload):
    """The ``sl2`` command in process: one natural, one negative, one half-integral lambda per round."""

    name = "sl2-deform"

    def next_round(self) -> list:
        lams = [
            Fraction(self.rng.randint(0, 8)),
            Fraction(-self.rng.randint(1, 8)),
            Fraction(self.rng.choice((-1, 1)) * (2 * self.rng.randint(0, 7) + 1), 2),
        ]
        self.rng.shuffle(lams)
        self._lams = lams
        return [lambda lam=lam: self._run_cli(lam) for lam in lams]

    @staticmethod
    def _run_cli(lam: Fraction) -> tuple[int, str]:
        argv = ["sl2", "--lambda", str(lam), "--trunc", str(SL2_TRUNCATION), "--format", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def failures(self, outputs: list) -> int:
        return sum(
            out is None or not self._report_ok(lam, *out) for lam, out in zip(self._lams, outputs)
        )

    @staticmethod
    def _report_ok(lam: Fraction, rc: int, stdout: str) -> bool:
        if rc != 0:
            return False
        natural = lam.denominator == 1 and lam >= 0
        return json.loads(stdout) == {
            "lambda": str(lam),
            "truncation": SL2_TRUNCATION,
            "phi_equivariance": True,
            "psi_equivariance": True,
            "four_term_exactness_at_X0": True if natural else None,
            "cokernel_valuations_over_A": True,
            # valuation 1 exactly above lambda for natural lambda, 0 otherwise
            "jantzen": {str(i): int(natural and i > lam) for i in range(SL2_TRUNCATION + 1)},
        }

    def layer_metrics(self, agg: dict, counts: dict) -> dict:
        return {
            "sl2lab.phi_ms": _total_ms(agg, "sl2lab.phi"),
            "sl2lab.psi_ms": _total_ms(agg, "sl2lab.psi"),
            "sl2lab.check_equivariance_ms": _total_ms(agg, "sl2lab.check_equivariance"),
            "sl2lab.four_term_ms": _total_ms(agg, "sl2lab.four_term_rank_check"),
            "sl2lab.coker_check_ms": _total_ms(agg, "sl2lab.coker_check_over_A"),
            "sl2lab.jantzen_layers_ms": _total_ms(agg, "sl2lab.jantzen_layers_sl2"),
            "localring.entries": counts["localring.entries"],
        }


WORKLOADS = {cls.name: cls for cls in (SumFormulaF4, Rank2Blocks, WeylCovers, Sl2Deform)}


def run_round(workload: Workload) -> tuple[list[float], list[float], int]:
    """Run one round: each op's scaled and wall seconds, then the number of failed ops."""
    scaled, wall, outputs = [], [], []
    for op in workload.next_round():
        out, seconds, at_ref = workload.timed(op)
        scaled.append(at_ref)
        wall.append(seconds)
        outputs.append(out)
    return scaled, wall, workload.failures(outputs)


#: Fewest rounds in a run, so that a workload with long rounds still has
#: each of its ops at least twice.
MIN_ROUNDS = 2


def measure(workload: Workload, seconds: float) -> dict:
    """Closed loop from one caller: whole rounds until ``seconds`` of wall time have passed."""
    scaled: list[float] = []
    wall: list[float] = []
    failed = 0
    start = perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        at_ref, raw, bad = run_round(workload)
        scaled.extend(at_ref)
        wall.extend(raw)
        failed += bad
        rounds += 1
    return {"latencies": scaled, "wall": wall, "failed": failed}


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[name](seed, tracer)
    speed = workload.speed
    speed.start_timer()
    with tracing(tracer):
        _, _, setup_s = speed.timed(workload.setup)
    # no timer signal while writing to a pipe: it can cut a write short
    speed.stop_timer()
    print(f"ready {speed.speed()} {speed.spent(0.0, perf_counter())}", flush=True)
    if seconds == 0:
        return 0
    if workload.in_process:
        speed.start_timer()
    workload.prepare()
    if mode == "plain":
        result = measure(workload, seconds)
    else:
        busy, ops, failed = workload.traced_work()
        result = {"work_s": setup_s + busy, "ops": ops, "failed": failed}
    speed.stop_timer()
    result["peak_rss_mb"] = peak_rss_mb()
    result["speed"] = speed.speed()
    if tracer is not None:
        result["functions"] = tracer.aggregate()
        result["spans"] = len(tracer)
        result["layer_metrics"] = workload.layer_metrics(result["functions"], tracer.counts)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

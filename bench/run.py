"""The vermatwist benchmark: cold-process workloads with checked outputs.

Run from the repository root; it needs only the standard library and the
package sources under ``src/``::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, then one traced sweep

Each workload runs in a fresh child interpreter (``worker.py``), because a
user's run starts with cold caches: root systems are interned and the
group, inversion, Kostant and Bruhat caches live on them.  The load is a
closed loop from a single caller, with no threads.

``--trace 0`` measures the workload with tracing off and prints the
end-to-end metrics named in ``BENCHMARK.json``:

- ``setup_s``: interpreter start, ``import vermatwist`` and the workload's
  fixed setup, timed by this process until the child reports ready.  It is
  the median of several cold set-ups.
- ``ops_per_s``: ops completed per second of op time.
- ``op_p50_ms``: median latency of one op.
- ``peak_rss_mb``: peak resident set of the measuring child (and of the
  CLI processes it starts).

Times are reported at reference speed (``speed.py``): each is scaled by
the speed, measured in the same process, at which a fixed reference loop
ran around and during it.  The unscaled median op time is printed too.

It also prints ``failed_ratio`` and, when a run has at least 100 ops,
``op_p90_ms`` with its sample count.  Neither is in ``BENCHMARK.json``:
the ratio is 0 on a correct program, and runs of the subprocess and rank 1
workloads hold too few ops for a 90th percentile.

``--trace 1`` runs every workload once more, with spans around the calls
into each module (``spans.py``) and a fixed, seed-determined amount of
work, and prints the per-layer metrics of ``BENCHMARK.json``.  Each comes
from the workload whose layer it describes; the counts among them repeat
exactly for a fixed seed.  The same fixed work of the selected workload is
also run untraced, and the difference is stated as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

WORKLOADS = ("sum-formula-f4", "rank2-blocks", "weyl-covers", "sl2-deform")
#: Cold set-ups per run: at least the minimum, and more while they take
#: less than SETUP_SECONDS together, up to the maximum.
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 1.5
#: A run must end well inside the three minutes a run is allowed.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A child failed to start, crashed, or ran out of time."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Start one worker; return its set-up time as seen from here and its result.

    The set-up time runs from the start of the child to its ``ready`` line,
    less the reference timings the child made, at reference speed.  The
    result is None when ``seconds`` is 0, i.e. the worker only sets up.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(WORKER), workload, str(seed), str(seconds), mode]
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, start_new_session=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - perf_counter(), 0))
        first = proc.stdout.readline().split() if ready else []
        wall = perf_counter() - start
        if len(first) != 3 or first[0] != "ready":
            raise BenchError(f"{workload} ({mode}) did not finish set-up")
        speed, spent = float(first[1]), float(first[2])
        setup_s = scale(wall - spent, speed)
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) ran out of time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{workload} ({mode}) exited with code {proc.returncode}")
    if seconds == 0:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} ({mode}) printed no result")
    return setup_s, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Untraced run: end-to-end metrics and the op counts."""
    setups = []
    start = perf_counter()
    least, most = SETUP_REPEATS
    while len(setups) < least - 1 or (
        len(setups) < most - 1 and perf_counter() - start < SETUP_SECONDS
    ):
        setups.append(run_child(workload, seed, 0, "plain", deadline)[0])
    setup_s, result = run_child(workload, seed, seconds, "plain", deadline)
    setups.append(setup_s)
    lat = result["latencies"]
    out = {
        "attempted": len(lat),
        "failed": result["failed"],
        "metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "failed_ratio": result["failed"] / len(lat),
    }
    if len(lat) >= 100:
        out["op_p90_ms"] = statistics.quantiles(lat, n=10)[8] * 1e3
    out["wall_op_p50_ms"] = statistics.median(result["wall"]) * 1e3
    out["ref_ms"] = 1e3 / result["speed"]
    return out


def trace(selected: str, seed: int, spec: dict, deadline: float) -> dict:
    """Traced sweep over every workload, plus the untraced twin of the selected one."""
    layer_metrics: dict = {}
    layer_self: dict[str, float] = {}
    attempted = failed = spans = 0
    traced_work = None
    time_units = {m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "ms", "us")}
    for name in WORKLOADS:
        _, res = run_child(name, seed, 1, "traced", deadline)
        for metric, value in res["layer_metrics"].items():
            layer_metrics[metric] = scale(value, res["speed"]) if metric in time_units else value
        attempted += res["ops"]
        failed += res["failed"]
        spans += res["spans"]
        for fn, row in res["functions"].items():
            layer = fn.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + scale(row["self_s"], res["speed"])
        if name == selected:
            traced_work = res["work_s"]
    _, plain = run_child(selected, seed, 1, "fixed", deadline)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": layer_metrics,
        "layer_self_s": layer_self,
        "spans": spans,
        "overhead": traced_work / plain["work_s"] - 1,
        "traced_s": traced_work,
        "untraced_s": plain["work_s"],
    }


def _print_metric(prefix: str, name: str, value: float, unit: str) -> None:
    print(f"{prefix:<16} {name:<36} {value:>14.6g} {unit}")


def report_measure(name: str, res: dict, spec: dict) -> dict:
    for m in spec["end_to_end"]:
        _print_metric(name, m["name"], res["metrics"][m["name"]], m["unit"])
    _print_metric(name, "failed_ratio", res["failed_ratio"], f"({res['failed']}/{res['attempted']})")
    if "op_p90_ms" in res:
        _print_metric(name, "op_p90_ms", res["op_p90_ms"], f"ms (n={res['attempted']})")
    else:
        print(f"{name:<16} {'op_p90_ms':<36} {'-':>14} (n={res['attempted']}, fewer than 100 ops)")
    _print_metric(name, "wall_op_p50_ms", res["wall_op_p50_ms"], "ms, unscaled")
    _print_metric(name, "reference_loop_ms", res["ref_ms"], "ms, mean speed")
    return {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def report_trace(name: str, res: dict, spec: dict) -> dict:
    for m in spec["per_layer"]:
        _print_metric("trace", m["name"], res["metrics"][m["name"]], m["unit"])
    for layer, self_s in sorted(res["layer_self_s"].items()):
        _print_metric("trace", f"self time {layer}", self_s, "s")
    print(
        f"tracing overhead on {name}: {res['overhead'] * 100:+.1f}% "
        f"({res['traced_s']:.3f} s traced against {res['untraced_s']:.3f} s untraced, "
        f"{res['spans']} spans over the sweep)"
    )
    return {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vermatwist" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_BUDGET_S
    try:
        if args.workload == "all":
            return run_all(args, spec)
        if args.trace:
            res = trace(args.workload, args.seed, spec, deadline)
            metrics = report_trace(args.workload, res, spec)
        else:
            res = measure(args.workload, args.seed, args.seconds, deadline)
            metrics = report_measure(args.workload, res, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload untraced, then the traced sweep; one combined result line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = measure(name, args.seed, args.seconds, perf_counter() + RUN_BUDGET_S)
        for metric, value in report_measure(name, res, spec).items():
            summary["metrics"][f"{name}/{metric}"] = value
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
    res = trace(WORKLOADS[0], args.seed, spec, perf_counter() + RUN_BUDGET_S)
    summary["metrics"].update(report_trace(WORKLOADS[0], res, spec))
    summary["attempted"] += res["attempted"]
    summary["failed"] += res["failed"]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

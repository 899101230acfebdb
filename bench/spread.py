"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Run from the repository root::

    python3 bench/spread.py --runs 10 [--workloads a,b] [--first-seed 1] [--record FILE]

Each workload is run ``--runs`` times, each time with the next seed, via
``bench/run.py --trace 0``.  For every end-to-end metric it prints the
median, the quartiles and the spread, i.e. (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, beside the metric's
bound from ``BENCHMARK.json``.  A spread above a third of its bound is
flagged (``setup_s`` is exempt from the spread rule and only reported).

``--record FILE`` also makes one traced run and writes the machine, every
run's values and the summary to FILE as JSON, so later changes can cite a
trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, load_spec  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with code {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.stderr.write(out.stderr)
    return res


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def commit() -> str | None:
    """The checkout's git commit, when it is a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"commit": commit(), "machine": machine(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            res = bench(name, seed, seconds, 0)
            if not res["correct"]:
                steady = False
                print(f"{name} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
            runs.append({"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                         **{m: v["value"] for m, v in res["metrics"].items()}})
        summary = {}
        for metric, bound in bounds.items():
            s = summarize([r[metric] for r in runs])
            summary[metric] = s
            flag = ""
            if metric != "setup_s" and s["spread"] >= bound / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"{name:<16} {metric:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bound}){flag}", flush=True)
        record["workloads"][name] = {"runs": runs, "summary": summary}
    if args.record:
        traced = bench(WORKLOADS[0], args.first_seed, seconds, 1)
        record["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

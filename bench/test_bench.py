"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q

They run the benchmark for a second or so, on the cheapest workload,
except the traced sweep, which always runs every workload (about half a
minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def result_line(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_smoke_prints_every_end_to_end_metric_with_its_unit():
    out = run_bench(ROOT, "--workload", "rank2-blocks", "--seconds", "1", "--trace", "0")
    result = result_line(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    lines = out.stdout.splitlines()
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
        assert any(
            line.split()[1:2] == [metric["name"]] and line.endswith(" " + metric["unit"])
            for line in lines
        ), metric
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.split()[1:3] == ["failed_ratio", "0"] for line in lines)


def test_traced_sweep_prints_every_per_layer_metric_and_its_overhead():
    out = run_bench(ROOT, "--workload", "sl2-deform", "--trace", "1")
    result = result_line(out)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0, metric
        assert any(line.split()[1:2] == [metric["name"]] for line in out.stdout.splitlines())
    assert "tracing overhead on sl2-deform" in out.stdout
    counts = {m["name"]: result["metrics"][m["name"]]["value"] for m in SPEC["per_layer"]}
    assert counts["weyl.group_order"] == 1152
    assert counts["characters.params"] == 1152
    assert counts["weyl.covers"] == 58 + 138 + 138 + 790


def _checkout_copy(tmp_path: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_corrupted_output_raises_failed_ratio(tmp_path):
    checkout = _checkout_copy(tmp_path, with_src=True)
    cli = checkout / "src" / "vermatwist" / "cli.py"
    source = cli.read_text()
    marker = 'lines = ["Twisted Jantzen layer tables, type B2"]'
    assert marker in source
    cli.write_text(source.replace(marker, 'lines = ["Twisted Jantzen layer tables, type B2 "]'))
    out = run_bench(checkout, "--workload", "rank2-blocks", "--seconds", "1", "--trace", "0")
    result = result_line(out)
    assert not result["correct"]
    assert result["failed"] == 1
    ratio = next(line for line in out.stdout.splitlines() if line.split()[1] == "failed_ratio")
    assert float(ratio.split()[2]) == pytest.approx(1 / result["attempted"])


def test_refuses_to_run_without_the_program(tmp_path):
    checkout = _checkout_copy(tmp_path, with_src=False)
    out = run_bench(checkout, "--workload", "rank2-blocks", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_checks_reject_wrong_outputs():
    weyl = worker.WeylCovers(1, None)
    weyl.prepare()
    assert weyl.covers == {"A3": 58, "B3": 138, "C3": 138, "D4": 790, "B4": 1740}
    good = subprocess.run(
        [sys.executable, "-m", "vermatwist.cli", "weyl", "--type", "A3", "--format", "json"],
        capture_output=True,
        check=True,
    ).stdout
    assert weyl._stdout_ok("A3", 0, good)
    assert not weyl._stdout_ok("A3", 0, good.replace(b'"length": 1', b'"length": 2', 1))

    lam = Fraction(2)
    rc, report = worker.Sl2Deform._run_cli(lam)
    assert worker.Sl2Deform._report_ok(lam, rc, report)
    payload = json.loads(report)
    payload["jantzen"]["3"] = 0
    assert not worker.Sl2Deform._report_ok(lam, rc, json.dumps(payload))


def test_inputs_repeat_for_a_seed():
    def lams(seed):
        sl2 = worker.Sl2Deform(seed, None)
        return [sl2.next_round() and sl2._lams for _ in range(3)]

    assert lams(5) == lams(5)
    assert lams(5) != lams(6)

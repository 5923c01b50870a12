"""Smoke test of the benchmark harness at tiny sizes, with no timing gate.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_output, load_reference, reference_key  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SUMMARY_NAMES = ("setup_s", "construct_s", "verify_s", "project_s", "p4_table_s",
                 "cycle_s", "peak_rss_mb", "error_rate")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_without_errors(trace, section):
    done = run_bench("--workload", "all", "--tiny", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    if not trace:
        for name in SUMMARY_NAMES:
            assert name in done.stdout
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        result = json.loads((WORK / f"{workload}.trace{trace}.json").read_text())
        assert result["error_rate"] == 0, result["problems"]
        assert set(result["line"]) == {"correct", "attempted", "failed", "metrics"}
        assert result["line"]["correct"] and result["line"]["attempted"] >= 1
        metrics = result["line"]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == wanted
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    if trace:
        p4 = json.loads((WORK / "p4-partial.trace1.json").read_text())["line"]["metrics"]
        assert p4["solver.scales_failed"]["value"] == 2  # tiny j_max = 10: j = 9, 10 fail
        assert p4["solver.solve_mu.useful_ratio"]["value"] < 1


def test_a_changed_output_bit_counts_as_an_error(tmp_path):
    import run

    cli = run.import_cli()
    op = WORKLOADS["p4-partial"].ops(0, tiny=True)[2]
    key = reference_key("p4-partial", True, "p4")
    reference = load_reference()
    cert = tmp_path / "unused.json"
    _, code, stdout, _ = run.execute(cli, op, cert)
    assert check_output(op, key, 0, code, stdout, cert, reference) == []
    flipped = stdout.replace('"n": 5', '"n": 6')
    assert flipped != stdout
    assert check_output(op, key, 0, code, flipped, cert, reference)
    assert check_output(op, key, 0, 1, stdout, cert, reference) == ["exit code 1, expected 0"]


def test_without_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "certify-p6", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

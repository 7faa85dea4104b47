"""Tests of the benchmark harness itself, at smoke sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TABLE3 = workloads.load_table3(run.ROOT)
REGISTRY = workloads.workloads(TABLE3)


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(REGISTRY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(REGISTRY)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(REGISTRY))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(NAME.fullmatch(name) for name in result["metrics"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_digest(calls):
    return [dataclasses.replace(call, sha256="0" * 64) for call in calls]


def _corrupt_golden(calls):
    wrong = [(lo, hi, value + 2 if lo == 3 else value) for lo, hi, value in TABLE3]
    return workloads.operation(workloads.workloads(wrong)["table"], 1, smoke=True)


@pytest.mark.parametrize("corrupt", [None, _corrupt_digest, _corrupt_golden])
def test_corrupted_expected_output_is_a_failure(corrupt):
    calls = workloads.operation(REGISTRY["table"], 1, smoke=True)
    if corrupt:
        calls = corrupt(calls)
    tally, metrics = run.untraced_run(calls, run.ROOT / "src", seconds=0, smoke=True)
    fail_ratio = tally.failed / tally.attempted
    assert (fail_ratio > 0) == (corrupt is not None)
    assert metrics["wall_s"] > 0


@pytest.mark.parametrize(
    "code, stdout, stderr",
    [
        (2, "PASS: x\n", ""),
        (0, "PASS: x\n", "warning\n"),
        (0, "note: y\nFAIL: x\n", ""),
        (0, "", ""),
    ],
)
def test_verify_verdicts_are_checked(code, stdout, stderr):
    call = workloads.Call(("verify",), workloads.THEOREM4_PASS, workloads.all_pass)
    assert call.problem(code, stdout, stderr)


def test_tracer_wraps_every_binding_site():
    cli = run.import_checkout(run.ROOT / "src")
    analysis, closedform = sys.modules["polydisc.analysis"], sys.modules["polydisc.closedform"]
    discriminator = sys.modules["polydisc.discriminator"]
    compute, is_discriminating = discriminator.compute, discriminator.is_discriminating
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.compute.__wrapped__ is compute and closedform.compute.__wrapped__ is compute
        assert analysis.is_discriminating.__wrapped__ is is_discriminating
        analysis.check_theorem3(16)
        closedform.check_theorem4(closedform.x_dx_minus_1(3), 5, 9)
        cli.scan(closedform.x_dx_minus_1(29), 40)
    assert cli.compute is compute and analysis.is_discriminating is is_discriminating
    counts = tracer.counts()
    assert counts["analysis.check_theorem3.calls"] == 1
    assert counts["discriminator.compute.calls"] == 2
    assert counts["discriminator.scan.calls"] == 1
    via_theorem3 = tracer.edges[("analysis.check_theorem3", "discriminator.is_discriminating")]
    assert counts["discriminator.candidates"] + via_theorem3 == counts["discriminator.is_discriminating.calls"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

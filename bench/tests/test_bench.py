"""Self-tests of the benchmark: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

VB = run.import_package()


def make(name: str, seed: int, tmp_path: Path):
    return wl.make_workload(name, VB, seed, ROOT, tmp_path)


def first_block(name: str, seed: int, tmp_path: Path) -> list:
    return next(make(name, seed, tmp_path).stream())


def run_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_smoke_each_workload_on_a_tiny_stream(name, tmp_path):
    block = first_block(name, 3, tmp_path)
    # Two cheap ops of the first block, plus the known-defect op if the
    # block has one, so every outcome class is exercised.
    def known_defect(op):
        return op.kind == wl.CLI_KNOWN_DEFECT or (name == "sampling" and "-boundary-" in op.key)

    ops = sorted(block, key=lambda op: op.work)[:2]
    ops += [op for op in block if known_defect(op) and op not in ops]
    phase = run.measure([ops], 0.0)
    assert phase.attempted == len(ops)
    assert phase.counts[wl.FAIL] == 0, phase.failures
    assert phase.counts[wl.DEFECT] == sum(map(known_defect, ops))
    assert phase.busy_s > 0


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_stream_digest_follows_the_seed(name, tmp_path):
    def digest(seed):
        return wl.stream_digest(make(name, seed, tmp_path).stream(), 2)

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_block_composition_does_not_depend_on_the_seed(tmp_path):
    def shape(name, seed):
        block = first_block(name, seed, tmp_path)
        return sorted((op.kind, op.work) for op in block)

    assert shape("exact", 1) == shape("exact", 2)
    assert shape("cli", 1) == shape("cli", 2)
    decide = [sorted((op.kind, op.work) for op in first_block("decide", s, tmp_path))
              for s in (1, 2)]
    assert decide[0] == decide[1]


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace,units", [("0", run.E2E_UNITS), ("1", tracing.LAYER_UNITS)])
def test_command_prints_every_metric_by_name_and_unit(trace, units):
    done = run_command("--workload", "decide", "--seed", "5", "--seconds", "0.1",
                       "--trace", trace)
    assert done.returncode == 0, done.stderr
    *_, detail, last = done.stdout.strip().splitlines()
    summary = json.loads(last)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert {k: m["unit"] for k, m in summary["metrics"].items()} == units
    assert all(set(m) == {"value", "unit"} for m in summary["metrics"].values())
    record = json.loads(detail)
    assert record["machine"]["seed"] == 5
    assert record["machine"]["trace"] is (trace == "1")


def test_wrong_exact_reference_counts_as_a_failed_op(tmp_path):
    workload = make("exact", 4, tmp_path)
    op = next(op for op in next(workload.stream()) if op.kind == "optimal_error")
    entry = workload.entries[op.key.split(":", 1)[1]]
    entry["optimal_error"] *= 1 + 1e-9
    phase = run.measure([[op]], 0.0)
    assert phase.counts[wl.FAIL] == 1 and phase.work_rate == 0.0
    assert phase.latencies == [float("inf")]


def test_wrong_decide_reference_counts_as_a_failed_op(tmp_path):
    workload = make("decide", 4, tmp_path)
    op = next(op for op in next(workload.stream()) if ":bad" not in op.key)
    key = op.key.split(":", 1)[1]
    workload.entries[key]["decisions_sha256"] = "0" * 64
    assert run.measure([[op]], 0.0).counts[wl.FAIL] == 1


def test_wrong_cli_reference_counts_as_a_failed_op(tmp_path):
    workload = make("cli", 4, tmp_path)
    op = workload._op("validate-json-0")
    workload.cases["validate-json-0"]["stdout"] += " "
    assert run.measure([[op]], 0.0).counts[wl.FAIL] == 1


def test_malformed_vector_must_name_its_index(tmp_path):
    workload = make("decide", 4, tmp_path)
    bad = next(op for op in next(workload.stream()) if ":bad" in op.key)
    assert run.measure([[bad]], 0.0).counts[wl.OK] == 1


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(140) == 92
    stats = run.latency_stats([float(i) for i in range(140)])
    assert stats["beyond_tail"] >= 10 and stats["tail_percentile"] == 92


def test_tail_stays_finite_when_a_share_of_ops_fails():
    # One op in 16 fails, as in the sampling stream, over many blocks.
    latencies = [math.inf if i % 16 == 4 else 0.1 + i % 7 * 0.01 for i in range(400)]
    stats = run.latency_stats(latencies)
    assert math.isfinite(stats["tail_ms"]) and stats["tail_ms"] == pytest.approx(160.0)
    assert stats["failed_ops"] == 25 and stats["samples"] == 375
    assert stats["beyond_tail"] >= 10
    assert stats["p50_ms"] == pytest.approx(130.0)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run_command("--workload", "exact", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""

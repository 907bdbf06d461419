"""The benchmark's own tests: smoke runs, seeding, and work-counter invariants.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import import_program

import probes
import workloads
from spans import Tracer

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

zk = import_program()


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_workloads_match_generators():
    assert sorted(WORKLOADS) == sorted(workloads.GENERATORS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_metric_names_match_benchmark_json(workload, trace):
    done = run_bench(
        REPO, "--workload", workload, "--seed", "3", "--seconds", "0.3",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    done = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests(workload):
    generate = workloads.GENERATORS[workload]
    first = workloads.digest(generate(7, True))
    assert first == workloads.digest(generate(7, True))
    if workload != "fine-grid-basis":  # its request does not depend on the seed
        assert first != workloads.digest(generate(8, True))


@pytest.mark.parametrize("strategy", ["cached", "independent"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_step_counter_equals_traced_chain_work(strategy, k):
    """StepCounter reports exactly the jacobi_chain calls and steps executed."""
    rng = random.Random(f"{strategy}-{k}")
    pool = workloads.full_pairs(14)
    modes = zk.as_mode_set(rng.choice(pool) for _ in range(40))
    rho = sorted(rng.random() for _ in range(16))

    tracer = Tracer()
    api = probes.install(tracer, zk, [])
    with tracer.patched():
        _, counter = api.evaluate_batch(
            api.BatchRequest(modes, rho, k, strategy), parallel=False
        )
    assert counter.chain_count == tracer.counts["evaluate.chain_calls"]
    assert (
        counter.recursion_steps * len(rho)
        == tracer.counts["evaluate.recursion_point_steps"]
    )


def test_patches_are_restored():
    before = zk.batch.jacobi_chain
    tracer = Tracer()
    probes.install(tracer, zk, [])
    with tracer.patched():
        assert zk.batch.jacobi_chain is not before
    assert zk.batch.jacobi_chain is before

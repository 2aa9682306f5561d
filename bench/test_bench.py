"""Self-test of the benchmark: `python3 -m pytest bench -q` from the checkout root.

Runs every workload on a tiny lattice (checked cell by cell against the
pinned digests), shows that the gate fails a corrupted sweep, and that the
benchmark refuses to run without the engine's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ((4, 5), (1, 2))


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_lattice_reports_every_metric(workload: str, trace: bool) -> None:
    result = run.run_workload(workload, seed=1, seconds=0, trace=trace, lattice=TINY)
    assert result.correct and result.failed == 0 and result.attempted > 0
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    assert got == units("per_layer" if trace else "end_to_end")
    line = json.loads(result.to_json())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_exact_counters_on_tiny_lattice() -> None:
    metrics = run.run_workload("acceptance_sweep", 1, 0, True, lattice=TINY).metrics
    assert metrics["params.classify.calls_per_tuple"][0] == 3.0
    assert metrics["verify.node_oracle_fallbacks"][0] == 0
    assert metrics["oracle.disagreements"][0] == 0


def test_workload_list_matches_contract() -> None:
    assert sorted(w["name"] for w in CONTRACT["workloads"]) == sorted(run.WORKLOADS)


def test_flipped_verdicts_fail_the_gate() -> None:
    flip = lambda t, status: "verify_fail" if status == "pass" and t[2] % 3 == 0 else status  # noqa: E731
    result = run.run_workload("acceptance_sweep", 1, 0, False, lattice=TINY, corrupt=flip)
    assert not result.correct
    assert result.failed > 0
    assert result.metrics["ok_frac"][0] < 1.0


def test_changed_lines_fail_the_digest_alone() -> None:
    # A status outside the failing set changes only the bytes of the output,
    # so only the digest can catch it; its whole (g, r) cell counts as failed.
    flip = lambda t, status: "hypothesis_failed" if t == (4, 1, 5, 2) else status  # noqa: E731
    result = run.run_workload("acceptance_sweep", 1, 0, False, lattice=TINY, corrupt=flip)
    cell = [t for t in run.lattice_tuples(TINY) if t[:2] == (4, 1)]
    assert not result.correct
    assert result.failed == len(cell)


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "acceptance_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

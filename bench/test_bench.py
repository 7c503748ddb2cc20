"""Smoke tests of the benchmark runner at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

import run  # puts this checkout's src/ first on sys.path
from spans import Tracer

import dendrosim  # noqa: E402
import dendrosim.solver  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "desk-noisy": dataclasses.replace(run.WORKLOADS["desk-noisy"], n=24, steps=6),
    "sample-dense": dataclasses.replace(run.WORKLOADS["sample-dense"], n=24, steps=6,
                                        snapshot_every=3),
    "sweep-k": dataclasses.replace(run.WORKLOADS["sweep-k"], n=32, steps=60),
}


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_reports_every_metric(name, trace, one_setup):
    result = run.run_benchmark(TINY[name], seed=3, seconds=0.01, trace=trace)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_trace_counts_and_coverage_on_desk_noisy(tmp_path):
    w = TINY["desk-noisy"]
    with Tracer(run.TRACE_POINTS) as tracer:
        ops = run.timed_ops(w, 1, 0, tmp_path)
    m = run.layer_metrics(tracer.spans, ops[0].meter.seconds, 1)
    assert m["lattice.shifted.calls_per_step"][0] == 28
    assert m["lattice.roll_copies_per_step"][0] == 36
    assert m["lattice.roll_bytes_per_step"][0] == 36 * 8 * w.n * w.n
    assert m["trace.self_time_coverage"][0] > 0.9


def test_tracer_restores_names_and_skips_missing_functions():
    original = dendrosim.solver.step
    points = run.TRACE_POINTS + (
        ("dendrosim.solver", "no_such_function", "solver.gone", None),
        ("dendrosim.no_such_module", "f", "solver.gone", None),
    )
    params = dendrosim.params_from_dict(run.config(TINY["desk-noisy"], 1))
    with Tracer(points) as tracer:
        assert dendrosim.solver.step is not original
        dendrosim.run(params)
    assert dendrosim.solver.step is original
    names = {s.name for s in tracer.spans}
    assert "solver.step" in names and "solver.gone" not in names
    # a function the package stopped calling reads as zero, not as an error
    kept = [s for s in tracer.spans if s.name != "lattice.shifted"]
    m = run.layer_metrics(kept, 1.0, 1)
    assert m["lattice.shifted.calls_per_step"][0] == 0
    assert m["lattice.roll_bytes_per_step"][0] == 0


def test_reference_kernel_joins_its_threads():
    before = threading.active_count()
    for w in run.WORKLOADS.values():
        assert run.reference_seconds(dataclasses.replace(w, n=24)) > 0
    assert threading.active_count() == before


def test_field_checks():
    ok = np.zeros((4, 4))
    assert run.field_problems(ok, ok) == []
    assert run.field_problems(np.full((4, 4), np.nan), ok)
    assert run.field_problems(np.full((4, 4), 1.0 + 2 * run.PHI_MARGIN), ok)


def test_fingerprint_mismatch_fails(tmp_path):
    spec = json.loads((run.BENCH / "fingerprint.json").read_text(encoding="utf-8"))
    spec["sha256"] = "0" * 64
    path = tmp_path / "fingerprint.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run.fingerprint_problems(path)


def test_changed_arithmetic_fails_the_run(monkeypatch, one_setup):
    reaction = dendrosim.solver.reaction_term
    monkeypatch.setattr(dendrosim.solver, "reaction_term",
                        lambda phi, m: reaction(phi, m) * (1.0 + 1e-12))
    result = run.run_benchmark(TINY["desk-noisy"], seed=3, seconds=0.01, trace=False)
    assert not result["correct"]
    assert any("fingerprint" in p for p in result["problems"])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-noisy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

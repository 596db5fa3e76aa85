"""Tests of the benchmark itself: input determinism, declared metrics, checks and tracer.

Run from the repository root with `python3 -m pytest bench/tests -q`
(about a minute: each workload runs briefly in both modes).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = ("depmatrix.s_match_frac", "depmatrix.calibrated_frac", "attention.logit_cells",
                 "pipeline.json_bytes", "pipeline.csv_bytes", "gradcheck.loss_evals")


def _files(directory: Path) -> dict:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "first")
    gen.generate(workload, 7, tmp_path / "again")
    gen.generate(workload, 8, tmp_path / "other")
    first = _files(tmp_path / "first")
    assert first and first == _files(tmp_path / "again")
    assert first != _files(tmp_path / "other")


def test_workload_names_match_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(gen.WORKLOADS)


_RUNS = {}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """(result, info) of a one-second run, cached so each pairing runs once."""
    if (workload, trace) not in _RUNS:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        _RUNS[workload, trace] = json.loads(lines[-1]), json.loads(lines[-2])
    return _RUNS[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_short_run_prints_declared_metrics(workload, trace):
    result, info = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and np.isfinite(entry["value"])
    assert info["env"]["OPENBLAS_NUM_THREADS"] == "1" and info["env"]["nproc"] >= 1


def test_traced_counts_repeat_exactly():
    first, _ = _run("gradcheck-sweep", 1)
    _RUNS.pop(("gradcheck-sweep", 1))
    again, _ = _run("gradcheck-sweep", 1)
    for name in COUNT_METRICS:
        assert first["metrics"][name] == again["metrics"][name], name


def test_worker_refuses_unpinned_blas(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "gradcheck-sweep",
         "--inputs", str(tmp_path), "--scratch", str(tmp_path), "--setup-only"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "refusing to run" in proc.stderr


def _good_layer(n=2, m=3, heads=2):
    d_seq = n + m + 3
    weights = np.full((heads, d_seq, d_seq), 1.0 / d_seq)
    calibration = np.ones((d_seq, d_seq))
    calibration[1:n + 1, n + 2:n + m + 2] = 1.5
    calibration[n + 2:n + m + 2, 1:n + 1] = 1.5
    gates = np.full((heads, d_seq), 0.5)
    return dict(n=n, m=m, fused=np.zeros((d_seq, 8)), sem_weights=weights,
                dep_weights=weights.copy(), fusion_gates=gates, filter_gates=gates.copy(),
                calibration=calibration)


@pytest.mark.parametrize("name, index, value", [
    ("fused", (0, 0), np.nan),
    ("sem_weights", (0, 0, 0), 0.5),
    ("dep_weights", (1, 3, 2), 1.0 / 8 + 1e-11),   # row sum off by 1e-11
    ("fusion_gates", (0, 0), 1.0),
    ("filter_gates", (1, 1), 0.0),
    ("calibration", (1, 4), 0.999),   # cross-sentence cell below 1
    ("calibration", (0, 0), 1.25),    # cell outside the cross blocks
])
def test_layer_check_rejects_broken_output(name, index, value):
    layer = _good_layer()
    assert workloads.check_layer(**layer) is None
    layer[name][index] = value
    assert workloads.check_layer(**layer) is not None


def test_tracer_times_nested_calls_and_restores_originals(tmp_path):
    gen.generate("layer-long", 5, tmp_path, units=1)
    load = workloads.LayerLong(tmp_path)
    depmatrix = sys.modules["dafa.depmatrix"]
    originals = {name: getattr(depmatrix, name)
                 for name in ("base_matrix", "subgraph_matrix", "final_matrix")}
    plain = load.run(load.units[0])
    tracer = workloads.Tracer()
    with tracer:
        traced = load.run(load.units[0])
    assert load.same(plain, traced)
    for span in ("depmatrix.base_matrix", "depmatrix.subgraph_matrix", "depmatrix.final_matrix",
                 "pipeline.dafa_layer", "fusion.fuse", "pipeline.embed"):
        assert tracer.ms[span] > 0, span
    assert tracer.counts["logit_cells"] == 2 * workloads.HEADS * traced.output.calibration.size
    for name, original in originals.items():
        assert getattr(depmatrix, name) is original
    assert workloads.dafa_layer.__globals__["final_matrix"] is originals["final_matrix"]


def test_reference_kernel_uses_no_dafa_code():
    code = ("import sys, reference; reference.sample_ms(); "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'dafa']")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

"""Benchmark entry point: one workload run, metrics as JSON on the last stdout line.

  python3 bench/run.py --workload layer-long --seed 1 --seconds 20 --trace 0

Generates the seeded inputs under .bench_work/ in the repository root,
starts bench/worker.py with BLAS threading pinned to one thread (first a
few set-up probes, then the measured run), checks every output, and
prints one line with the environment and one line with the result. The
exit code is 0 only when every item passed its output checks. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
SETUP_PROBES = 9          # set-up is the median over these plus the measured run
# a traced run measures the layers its workload never calls on a small pool of these
COMPANIONS = ("cli-short", "gradcheck-sweep")
COMPANION_UNITS = 2
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 120       # on top of --seconds

END_TO_END = {
    "throughput_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "out_bytes_per_item": "B",
}
PER_LAYER = {
    "depmatrix.base_matrix_ms": "ms",
    "depmatrix.subgraph_matrix_ms": "ms",
    "depmatrix.final_matrix_ms": "ms",
    "depmatrix.embed_calibration_ms": "ms",
    "depmatrix.s_match_frac": "frac",
    "depmatrix.calibrated_frac": "frac",
    "attention.multi_head_dafa_ms": "ms",
    "fusion.fuse_ms": "ms",
    "attention.logit_cells": "count",
    "tfidf.weights_ms": "ms",
    "tfidf.from_json_ms": "ms",
    "pipeline.embed_ms": "ms",
    "attention.init_ms": "ms",
    "fusion.init_ms": "ms",
    "pipeline.dafa_layer_ms": "ms",
    "conllu.read_pairs_ms": "ms",
    "pipeline.to_json_ms": "ms",
    "pipeline.write_heatmap_csv_ms": "ms",
    "cli.matrix_ms": "ms",
    "cli.demo_ms": "ms",
    "pipeline.json_bytes": "B",
    "pipeline.csv_bytes": "B",
    "gradcheck.analytic_gradient_ms": "ms",
    "gradcheck.fd_gradient_ms": "ms",
    "gradcheck.check_ms": "ms",
    "gradcheck.loss_evals": "count",
    "trace.throughput_per_s": "1/s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion; its JSON plus `setup_s`, measured from process start
    and scaled to the reference host speed."""
    env = {**os.environ, **PINNED}
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready"] - start) * result["scale"]
    return result


def _run(args, work: Path) -> int:
    inputs, scratch = work / "inputs", work / "scratch"
    scratch.mkdir()
    gen.generate(args.workload, args.seed, inputs)
    common = ["--workload", args.workload, "--inputs", str(inputs), "--scratch", str(scratch)]
    if args.trace:
        companions = work / "companions"
        for name in COMPANIONS:
            if name != args.workload:
                gen.generate(name, args.seed, companions / name, units=COMPANION_UNITS)
        result = _worker([*common, "--seconds", str(args.seconds), "--trace", "1",
                          "--companions", str(companions)], args.seconds + RUN_TIMEOUT_S)
        values = result["per_layer"]
        missing = sorted(set(PER_LAYER) - set(values))
        if missing:
            raise BenchError(f"traced run did not report {missing}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        setups = []
    else:
        setups = [_worker([*common, "--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _worker([*common, "--seconds", str(args.seconds), "--trace", "0"],
                         args.seconds + RUN_TIMEOUT_S)
        setups.append(result["setup_s"])
        values = {**result, "setup_s": statistics.median(setups)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "items": result["items"], "calls": result.get("calls"),
            "unscaled_throughput_per_s": result.get("unscaled_throughput_per_s"),
            "setup_samples_s": setups, "env": result["env"]}
    print(json.dumps(info, sort_keys=True))
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dafa" / "__init__.py").is_file():
        print(f"error: no dafa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        return _run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, then stop (a set-up probe) or measure it.

`run.py` starts this script with BLAS threading pinned to one thread;
it refuses to run otherwise. The last stdout line is one JSON object.

  --setup-only   set up, report when set-up finished, and exit
  --trace 0      closed loop over the unit pool until --seconds have passed,
                 timing each call into dafa with nothing else in the way,
                 and scaling it to the reference host speed (reference.py)
  --trace 1      the same loop, but every unit runs twice, once plain and
                 once with the Tracer installed; the two outputs must be
                 bitwise equal. Reports per-item medians of each span.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# tracer counts -> per-item count metrics; the fractions divide two counts
COUNT_METRICS = {
    "logit_cells": "attention.logit_cells",
    "json_bytes": "pipeline.json_bytes",
    "csv_bytes": "pipeline.csv_bytes",
    "loss_evals": "gradcheck.loss_evals",
}
FRACTION_METRICS = {
    "depmatrix.s_match_frac": ("s_match_cells", "s_cells"),
    "depmatrix.calibrated_frac": ("calibrated_cells", "cross_cells"),
}


def _git_commit(root: Path) -> str:
    """HEAD commit read straight from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                       cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dafa").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": _git_commit(ROOT),
        "src_sha256": src.hexdigest(),
    }


class Tally:
    """Attempted and failed items, with each failure reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, items: int, message: str) -> None:
        self.failed += items
        print(f"FAILED: {message}", file=sys.stderr)

    def call(self, workload, unit, run):
        """Run one unit through `run`; None if it raised."""
        try:
            return run(unit)
        except Exception:  # a crash in the code under test is a failed item, not a dead benchmark
            self.fail(workload.items(unit), traceback.format_exc())
            return None

    def check(self, workload, unit, outcome) -> None:
        problems = workload.check(unit, outcome)
        if problems:
            self.fail(min(len(problems), outcome.items), "; ".join(problems))


def measure(workload, seconds: float, tally: Tally, reference_ms: float) -> dict:
    """Closed loop over the pool, every call scaled to the reference host speed.

    Each unit is followed by one run of the reference kernel, and the
    unit's calls are scaled by `NOMINAL_MS` over the mean kernel time
    just before and after it.
    """
    import numpy as np
    import reference
    workload.run(workload.units[0])  # warm-up, not timed
    calls, raw_ms, items, out_bytes = [], 0.0, 0, 0
    deadline = time.perf_counter() + seconds
    for unit in itertools.cycle(workload.units):
        if time.perf_counter() >= deadline:
            break
        tally.attempted += workload.items(unit)
        outcome = tally.call(workload, unit, workload.run)
        before, reference_ms = reference_ms, reference.kernel_ms()
        if outcome is None:
            continue
        tally.check(workload, unit, outcome)
        scale = reference.NOMINAL_MS / ((before + reference_ms) / 2)
        calls += [ms * scale for ms in outcome.calls_ms]
        raw_ms += sum(outcome.calls_ms)
        items += outcome.items
        out_bytes += outcome.out_bytes
    p50, p90 = np.percentile(calls, [50, 90])
    return {
        "throughput_per_s": items / (sum(calls) / 1e3),
        "call_ms_p50": float(p50),
        "call_ms_p90": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "out_bytes_per_item": out_bytes / items,
        "calls": len(calls),
        "items": items,
        "unscaled_throughput_per_s": items / (raw_ms / 1e3),
    }


def _item_values(tracer, outcome) -> tuple[dict, dict]:
    """Per-item span times and counts of one traced unit."""
    per = outcome.items
    times = {f"{span}_ms": ms / per for span, ms in {**tracer.ms, **outcome.spans_ms}.items()}
    counts = {metric: tracer.counts[key] / per
              for key, metric in COUNT_METRICS.items() if key in tracer.counts}
    for metric, (num, den) in FRACTION_METRICS.items():
        if tracer.counts.get(den):
            counts[metric] = tracer.counts.get(num, 0) / tracer.counts[den]
    return times, counts


def trace(workload, seconds: float, tally: Tally, companions: list, wl) -> dict:
    tracer = wl.Tracer()

    def traced_run(unit, load=workload):
        tracer.reset()
        with tracer:
            return load.run(unit)

    workload.run(workload.units[0])  # warm-up, not timed
    traced_run(workload.units[0])
    times, counts = defaultdict(list), defaultdict(list)
    plain_ms = traced_ms = traced_items = 0.0
    deadline = time.perf_counter() + seconds
    for k, unit in enumerate(itertools.cycle(workload.units)):
        # every unit is traced at least once, so the counts cover the whole pool
        if k >= len(workload.units) and time.perf_counter() >= deadline:
            break
        tally.attempted += workload.items(unit)
        outcomes = {}
        # alternate which run goes first, so neither always finds warm caches
        for traced in (k % 2 == 1, k % 2 == 0):
            outcome = tally.call(workload, unit, traced_run if traced else workload.run)
            if outcome is None:
                break
            outcomes[traced] = outcome
            if traced:
                unit_times, unit_counts = _item_values(tracer, outcome)
        if len(outcomes) < 2:
            continue
        plain, traced = outcomes[False], outcomes[True]
        tally.check(workload, unit, traced)
        if not workload.same(plain, traced):
            tally.fail(traced.items, f"traced output differs from plain output on unit {k}")
        plain_ms += sum(plain.calls_ms)
        traced_ms += sum(traced.calls_ms)
        traced_items += traced.items
        for name, value in unit_times.items():
            times[name].append(value)
        if k < len(workload.units):
            for name, value in unit_counts.items():
                counts[name].append(value)

    # layers this workload never calls are measured on a small companion pool
    for load in companions:
        extra_times, extra_counts = defaultdict(list), defaultdict(list)
        for unit in load.units:
            tally.attempted += load.items(unit)
            outcome = tally.call(load, unit, lambda u: traced_run(u, load))
            if outcome is None:
                continue
            tally.check(load, unit, outcome)
            unit_times, unit_counts = _item_values(tracer, outcome)
            for name, value in unit_times.items():
                extra_times[name].append(value)
            for name, value in unit_counts.items():
                extra_counts[name].append(value)
        for mine, extra in ((times, extra_times), (counts, extra_counts)):
            for name, values in extra.items():
                mine.setdefault(name, values)

    metrics = {name: statistics.median(values) for name, values in {**times, **counts}.items()}
    metrics["trace.throughput_per_s"] = traced_items / (traced_ms / 1e3)
    metrics["trace.overhead_pct"] = (traced_ms / plain_ms - 1.0) * 100.0
    return {"per_layer": metrics, "items": int(traced_items)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--companions", type=Path, default=None,
                        help="inputs of the workloads whose layers a traced run also measures, "
                             "one subdirectory per workload")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    unpinned = [var for var in BLAS_VARS if os.environ.get(var) != "1"]
    if unpinned:
        print(f"refusing to run: {', '.join(unpinned)} must be 1 before numpy loads",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import reference
    import workloads as wl

    workload = wl.make(args.workload, args.inputs, args.scratch)
    ready = time.monotonic()
    # the host speed right after set-up, which scales the set-up time
    reference_ms = reference.sample_ms()
    scale = reference.NOMINAL_MS / reference_ms
    if args.setup_only:
        print(json.dumps({"ready": ready, "scale": scale}))
        return 0

    tally = Tally()
    if args.trace:
        companions = [wl.make(path.name, path, args.scratch)
                      for path in sorted(args.companions.iterdir())]
        result = trace(workload, args.seconds, tally, companions, wl)
    else:
        result = measure(workload, args.seconds, tally, reference_ms)
    result.update(ready=ready, scale=scale, attempted=tally.attempted, failed=tally.failed,
                  env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

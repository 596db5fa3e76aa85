"""The three benchmark workloads, their output checks, and the outside-in tracer.

A workload owns a pool of units (a pair, a chunk file of pairs, or a
gradient-check configuration). `run(unit)` makes the timed calls into
`dafa` and returns an `Outcome`; `check` returns one message per item
whose output breaks an invariant; `same` says whether two outcomes are
bitwise equal. Importing this module imports numpy, so the caller pins
BLAS threading first.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dafa.attention import AttnConfig, AttnParams
from dafa.cli import run as cli_run
from dafa.conllu import parse_conllu, read_pairs
from dafa.depmatrix import DepMatrixConfig
from dafa.fusion import FusionParams
from dafa.gradcheck import GradCheckConfig, check
from dafa.pipeline import EmbeddingTable, build_layout, dafa_layer
from dafa.tfidf import TfIdfModel

# the CLI defaults, fixed here so the workload does not move if they change
D_MODEL, HEADS, D_K, D_V, D_HID, SEED = 16, 2, 8, 8, 8, 42
GRAD_OPS = ("fuse", "sem_attention", "dep_attention")
GRAD_TOL = GRAD_EPS = 1e-5
STOCHASTIC_TOL = 1e-12


@dataclass
class Outcome:
    """What one unit of work produced: call latencies, items, output bytes and outputs."""

    calls_ms: list
    items: int
    out_bytes: int
    output: object
    spans_ms: dict = field(default_factory=dict)  # spans the workload records itself


# ---------------------------------------------------------------- output checks

def check_layer(n: int, m: int, fused, sem_weights, dep_weights, fusion_gates, filter_gates,
                calibration) -> str | None:
    """First invariant one layer output breaks, or None."""
    arrays = {"fused": fused, "sem_weights": sem_weights, "dep_weights": dep_weights,
              "fusion_gates": fusion_gates, "filter_gates": filter_gates,
              "calibration": calibration}
    arrays = {name: np.asarray(value, dtype=np.float64) for name, value in arrays.items()}
    for name, value in arrays.items():
        if not np.all(np.isfinite(value)):
            return f"{name} is not finite"
    for name in ("sem_weights", "dep_weights"):
        w = arrays[name]
        if np.any(w < 0) or np.max(np.abs(w.sum(axis=-1) - 1.0)) > STOCHASTIC_TOL:
            return f"{name} rows are not stochastic within {STOCHASTIC_TOL}"
    for name in ("fusion_gates", "filter_gates"):
        g = arrays[name]
        if not (np.all(g > 0.0) and np.all(g < 1.0)):
            return f"{name} outside (0, 1)"
    c = arrays["calibration"]
    d_seq = n + m + 3
    if c.shape != (d_seq, d_seq):
        return f"calibration shape {c.shape} != {(d_seq, d_seq)}"
    cross = np.zeros(c.shape, dtype=bool)
    cross[1:n + 1, n + 2:n + m + 2] = True
    cross |= cross.T
    if np.any(c[cross] < 1.0) or np.any(c[~cross] != 1.0):
        return "calibration is not >= 1 on cross-sentence cells and exactly 1 elsewhere"
    return None


# ---------------------------------------------------------------- workloads

class LayerLong:
    """In-process `dafa_layer` on long paraphrase-style pairs, parameters built per pair as `demo` does."""

    def __init__(self, input_dir: Path):
        self.units = read_pairs((input_dir / "pairs.jsonl").read_text(encoding="utf-8"))
        corpus = parse_conllu((input_dir / "corpus.conllu").read_text(encoding="utf-8"))
        self.tfidf = TfIdfModel.fit(corpus)

    def run(self, pair) -> Outcome:
        start = perf_counter()
        layout = build_layout(pair.a, pair.b)
        config = AttnConfig(d_model=D_MODEL, heads=HEADS, d_k=D_K, d_v=D_V, d_seq=layout.d_seq)
        embeddings = EmbeddingTable.build(pair.a.forms() + pair.b.forms(), D_MODEL, SEED)
        attn_params = AttnParams.init(config, SEED)
        fusion_params = FusionParams.init(layout.d_seq, D_V, D_HID, SEED)
        out = dafa_layer(pair.a, pair.b, self.tfidf, embeddings, attn_params, fusion_params,
                         config, DepMatrixConfig(), pair_id=pair.pair_id)
        elapsed = (perf_counter() - start) * 1e3
        arrays = (out.fused, out.sem_weights, out.dep_weights, out.fusion_gates,
                  out.filter_gates, out.calibration)
        return Outcome([elapsed], 1, sum(a.nbytes for a in arrays), out)

    @staticmethod
    def items(pair) -> int:
        return 1

    def check(self, pair, outcome: Outcome) -> list[str]:
        out = outcome.output
        problem = check_layer(pair.a.n, pair.b.n, out.fused, out.sem_weights, out.dep_weights,
                              out.fusion_gates, out.filter_gates, out.calibration)
        return [f"{pair.pair_id}: {problem}"] if problem else []

    @staticmethod
    def same(x: Outcome, y: Outcome) -> bool:
        a, b = x.output, y.output
        names = ("fused", "sem_weights", "dep_weights", "fusion_gates", "filter_gates", "calibration")
        return a.tokens == b.tokens and all(
            getattr(a, k).shape == getattr(b, k).shape
            and getattr(a, k).tobytes() == getattr(b, k).tobytes() for k in names
        )


class CliShort:
    """`dafa matrix` then `dafa demo` through `dafa.cli.run` on chunk files of short pairs."""

    def __init__(self, input_dir: Path, scratch_dir: Path):
        self.scratch = scratch_dir
        self.tfidf = scratch_dir / "tfidf.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_run(["tfidf", "fit", "--corpus", str(input_dir / "corpus.conllu"),
                            "--out", str(self.tfidf)])
        if code != 0:
            raise RuntimeError(f"dafa tfidf fit exited {code}")
        self.units = []
        for path in sorted(input_dir.glob("chunk-*.jsonl")):
            records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            # the benchmark reads only ids and token counts; the CLI parses the blocks
            shapes = [(r["id"], r["a"].count("\n"), r["b"].count("\n")) for r in records]
            self.units.append((path, shapes))

    def run(self, unit) -> Outcome:
        path, shapes = unit
        out_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            matrix_out = out_dir / "matrix.jsonl"
            demo_out = out_dir / "demo"
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code_matrix = cli_run(["matrix", "--pairs", str(path), "--tfidf", str(self.tfidf),
                                       "--out", str(matrix_out)])
                t1 = perf_counter()
                code_demo = cli_run(["demo", "--pairs", str(path), "--tfidf", str(self.tfidf),
                                     "--out", str(demo_out)])
                t2 = perf_counter()
            files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
                     for p in sorted(out_dir.rglob("*")) if p.is_file()}
        finally:
            shutil.rmtree(out_dir)
        output = {"codes": (code_matrix, code_demo), "files": files}
        return Outcome([(t2 - t0) * 1e3], len(shapes), sum(map(len, files.values())), output,
                       {"cli.matrix": (t1 - t0) * 1e3, "cli.demo": (t2 - t1) * 1e3})

    @staticmethod
    def items(unit) -> int:
        return len(unit[1])

    def check(self, unit, outcome: Outcome) -> list[str]:
        _, shapes = unit
        output = outcome.output
        if output["codes"] != (0, 0):
            return [f"{pid}: exit codes {output['codes']}" for pid, _, _ in shapes]
        files = output["files"]
        matrix = [json.loads(line) for line in files["matrix.jsonl"].decode().splitlines()]
        if [r["id"] for r in matrix] != [pid for pid, _, _ in shapes]:
            return [f"{pid}: matrix records out of order or missing" for pid, _, _ in shapes]
        problems = []
        for (pid, n, m), record in zip(shapes, matrix):
            problem = self._check_pair(files, pid, n, m, record)
            if problem:
                problems.append(f"{pid}: {problem}")
        return problems

    @staticmethod
    def _check_pair(files, pid, n, m, record) -> str | None:
        mats = {k: np.asarray(record[k], dtype=np.float64) for k in ("M", "S", "MF")}
        for name, value in mats.items():
            if value.shape != (n, m) or not np.all(np.isfinite(value)) or np.any(value < 0):
                return f"matrix {name} is not a finite non-negative {n}x{m} matrix"
        demo = json.loads(files[f"demo/{pid}.json"])
        weights = {kind: np.stack([_read_csv(files[f"demo/{pid}.{kind}.h{h}.csv"])
                                   for h in range(HEADS)]) for kind in ("sem", "dep")}
        calibration = np.asarray(demo["calibration"], dtype=np.float64)
        problem = check_layer(n, m, demo["fused"], weights["sem"], weights["dep"],
                              demo["fusion_gates"], demo["filter_gates"], calibration)
        if problem:
            return problem
        if not np.array_equal(calibration[1:n + 1, n + 2:n + m + 2], mats["MF"] + 1.0):
            return "demo calibration disagrees with matrix MF + 1"
        return None

    @staticmethod
    def same(x: Outcome, y: Outcome) -> bool:
        return x.output == y.output


def _read_csv(data: bytes) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(data.decode())))[1:]
    return np.array([[float(v) for v in row[1:]] for row in rows], dtype=np.float64)


class GradcheckSweep:
    """`dafa.gradcheck.check` for every op over small seeded configurations."""

    def __init__(self, input_dir: Path):
        self.units = []
        for line in (input_dir / "configs.jsonl").read_text(encoding="utf-8").splitlines():
            spec = json.loads(line)
            seed = spec.pop("seed")
            self.units.append((GradCheckConfig(**spec), seed))

    def run(self, unit) -> Outcome:
        config, seed = unit
        calls, reports = [], []
        for op in GRAD_OPS:
            start = perf_counter()
            report = check(op, config, seed=seed, tol=GRAD_TOL, eps=GRAD_EPS)
            calls.append((perf_counter() - start) * 1e3)
            reports.append(report.to_json())
        return Outcome(calls, 1, sum(len(r.encode()) for r in reports), reports)

    @staticmethod
    def items(unit) -> int:
        return 1

    def check(self, unit, outcome: Outcome) -> list[str]:
        config, seed = unit
        reports = [json.loads(r) for r in outcome.output]
        failed = [r["op_name"] for r in reports if not r["passed"]]
        return [f"{config} seed {seed}: gradcheck failed for {failed}"] if failed else []

    @staticmethod
    def same(x: Outcome, y: Outcome) -> bool:
        return x.output == y.output


def make(workload: str, input_dir: Path, scratch_dir: Path):
    if workload == "layer-long":
        return LayerLong(input_dir)
    if workload == "cli-short":
        return CliShort(input_dir, scratch_dir)
    if workload == "gradcheck-sweep":
        return GradcheckSweep(input_dir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- tracing

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_s_matches(counts, args, kwargs, result):
    counts["s_match_cells"] += int(np.count_nonzero(result > 0))
    counts["s_cells"] += result.size


def _count_calibrated(counts, args, kwargs, result):
    layout = _arg(args, kwargs, 1, "layout")
    block = result[np.ix_(list(layout.a_span), list(layout.b_span))]
    counts["calibrated_cells"] += int(np.count_nonzero(block > 1.0))
    counts["cross_cells"] += block.size


def _count_logits(counts, args, kwargs, result):
    q, k = _arg(args, kwargs, 0, "q"), _arg(args, kwargs, 1, "k")
    counts["logit_cells"] += len(q) * len(k)


def _count_json_bytes(counts, args, kwargs, result):
    counts["json_bytes"] += len(result.encode())


def _count_csv_bytes(counts, args, kwargs, result):
    counts["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_loss_eval(counts, args, kwargs, result):
    counts["loss_evals"] += 1


# (module, owner class or None, attribute, span name, count hook)
TRACED = [
    ("dafa.depmatrix", None, "base_matrix", "depmatrix.base_matrix", None),
    ("dafa.depmatrix", None, "subgraph_matrix", "depmatrix.subgraph_matrix", _count_s_matches),
    ("dafa.depmatrix", None, "final_matrix", "depmatrix.final_matrix", None),
    ("dafa.depmatrix", None, "embed_calibration", "depmatrix.embed_calibration", _count_calibrated),
    ("dafa.attention", None, "sem_attention", "attention.sem_attention", _count_logits),
    ("dafa.attention", None, "dep_attention", "attention.dep_attention", _count_logits),
    ("dafa.attention", None, "multi_head_dafa", "attention.multi_head_dafa", None),
    ("dafa.attention", "AttnParams", "init", "attention.init", None),
    ("dafa.fusion", None, "fuse", "fusion.fuse", None),
    ("dafa.fusion", "FusionParams", "init", "fusion.init", None),
    ("dafa.tfidf", "TfIdfModel", "weights", "tfidf.weights", None),
    ("dafa.tfidf", "TfIdfModel", "from_json", "tfidf.from_json", None),
    ("dafa.conllu", None, "read_pairs", "conllu.read_pairs", None),
    ("dafa.pipeline", "EmbeddingTable", "build", "pipeline.embed", None),
    ("dafa.pipeline", "EmbeddingTable", "encode", "pipeline.embed", None),
    ("dafa.pipeline", None, "dafa_layer", "pipeline.dafa_layer", None),
    ("dafa.pipeline", "LayerOutput", "to_json", "pipeline.to_json", _count_json_bytes),
    ("dafa.pipeline", None, "write_heatmap_csv", "pipeline.write_heatmap_csv", _count_csv_bytes),
    ("dafa.gradcheck", None, "check", "gradcheck.check", None),
    ("dafa.gradcheck", None, "fd_gradient", "gradcheck.fd_gradient", None),
    # check() calls the per-op passes that analytic_gradient dispatches to
    ("dafa.gradcheck", None, "fuse_gradients", "gradcheck.analytic_gradient", None),
    ("dafa.gradcheck", None, "sem_attention_gradients", "gradcheck.analytic_gradient", None),
    ("dafa.gradcheck", None, "dep_attention_gradients", "gradcheck.analytic_gradient", None),
    ("dafa.gradcheck", None, "probe_loss", "gradcheck.probe_loss", _count_loss_eval),
]


class Tracer:
    """Times calls into dafa's public functions by swapping in timing wrappers.

    While installed, every module of the package that holds one of the
    traced functions holds its wrapper instead, and traced methods are
    replaced on their class, so calls made inside dafa are timed too.
    Each wrapper adds its call's duration in ms to `ms[span]` and lets a
    hook add to `counts`; `reset` starts the next unit.
    """

    def __init__(self):
        self.ms = defaultdict(float)
        self.counts = defaultdict(int)
        self._patches = []

    def reset(self) -> None:
        self.ms.clear()
        self.counts.clear()

    def _wrap(self, fn, span, hook):
        ms, counts = self.ms, self.counts

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            ms[span] += (perf_counter() - start) * 1e3
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        # this module imports some traced functions by name, so it is patched too
        package = [mod for name, mod in list(sys.modules.items())
                   if name in ("dafa", __name__) or name.startswith("dafa.")]
        for module_name, owner_name, attr, span, hook in TRACED:
            module = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, span, hook))
                else:
                    wrapped = self._wrap(original, span, hook)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, span, hook)
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

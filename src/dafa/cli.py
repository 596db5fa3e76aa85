"""Command-line surface: tfidf, matrix, attend, fuse, gradcheck, demo."""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .attention import AttnConfig, AttnParams, _shapes
from .conllu import SentencePair, parse_conllu, read_pairs
from .depmatrix import DepMatrixConfig, _combine_matrices, base_matrix, subgraph_matrix
from .fusion import FusionParams, _draws, _float_array, fuse
from .gradcheck import DEFAULT_EPS, DEFAULT_TOL, GradCheckConfig, _fd_cells, check
from .pipeline import (EmbeddingTable, PairLayout, _check_budget, _layer_estimate, build_layout,
                       dafa_layer, pair_attention, write_heatmap_csv)
from .tfidf import TfIdfModel

DEFAULT_SEED = 42
DEFAULT_D_HID = 8  # hidden size of seeded fusion params in `fuse` and `demo`


class _InputError(Exception):
    """Unreadable or unparseable input, or flags that exclude each other; maps to exit code 2."""


def _load(path, parse, what=None):
    """Read one input file and parse its text; any failure is an _InputError naming the path.

    Besides ValueError and TypeError, JSON that Python cannot hold fails in `parse`: arrays
    nested deeper than the recursion limit raise RecursionError, and an integer too large
    for a float raises OverflowError where it is converted. When `what` is given, an empty
    result is an error naming the records it lacks.
    """
    try:
        value = parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, TypeError, RecursionError, OverflowError) as exc:
        raise _InputError(f"{path}: {exc}") from None
    if what is not None and not value:
        raise _InputError(f"{path}: no {what} found")
    return value


def _parse_signals(text: str) -> tuple[np.ndarray, np.ndarray]:
    data = json.loads(text)
    if not isinstance(data, dict) or "sem" not in data or "dep" not in data:
        raise ValueError("expected object with 'sem' and 'dep' arrays")
    sem, dep = _float_array("sem", data["sem"]), _float_array("dep", data["dep"])
    if sem.ndim < 2 or sem.shape != dep.shape:
        raise ValueError("'sem' and 'dep' must be arrays of one shape (..., L, d_v)")
    return sem, dep


def _pair_tfidf(model: TfIdfModel | None, pair: SentencePair) -> TfIdfModel:
    # without a fitted model, fall back to the pair's own two sentences
    return model if model is not None else TfIdfModel.fit([pair.a, pair.b])


@contextmanager
def _naming(pair: SentencePair):
    """Prefix a ValueError or MemoryError raised while one pair is computed with that pair's id."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"pair {pair.pair_id!r}: {exc}") from None
    except MemoryError as exc:
        # a plain MemoryError: numpy's subclass is built from a shape and dtype, not a message
        raise MemoryError(f"pair {pair.pair_id!r}: {str(exc) or 'out of memory'}") from None


def _non_negative(source: str, seed: int) -> int:
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _seed(args) -> int:
    if args.seed is not None:
        return _non_negative("--seed", args.seed)
    env = os.environ.get("DAFA_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        seed = int(env)
    except ValueError:
        raise ValueError(f"DAFA_SEED must be an integer, got {env!r}") from None
    return _non_negative("DAFA_SEED", seed)


def _dep_config(args) -> DepMatrixConfig:
    return DepMatrixConfig(theta=args.theta, alpha=args.alpha, nu=args.nu)


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


@contextmanager
def _staged_dir(out_dir: Path):
    """A directory to write into that becomes `out_dir` only when the block completes.

    An existing `out_dir` stages its files in a hidden temporary directory inside itself (no
    output stem starts with '.'), so only `out_dir` itself must be writable and each file is
    moved up on one file system; a file there is replaced, not written through a link. A new
    `out_dir` is staged beside itself and renamed into place. On any failure the staging
    directory is removed, so `out_dir` is never left partial.
    """
    if out_dir.exists() and not out_dir.is_dir():
        raise _InputError(f"--out {out_dir}: exists and is not a directory")
    out_dir = out_dir.resolve()
    existing = out_dir.is_dir()
    if not existing:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
    # mkdtemp's directory is private (mode 0700); a new out_dir is made inside it, usual mode
    staging = Path(tempfile.mkdtemp(prefix=".dafa-partial-",
                                    dir=out_dir if existing else out_dir.parent))
    try:
        work = staging if existing else staging / "out"
        work.mkdir(exist_ok=True)
        yield work
        if existing:
            for path in work.iterdir():
                os.replace(path, out_dir / path.name)
        else:
            work.rename(out_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _cmd_tfidf_fit(args) -> int:
    model = TfIdfModel.fit(_load(args.corpus, parse_conllu, "sentences"))
    _write_text(args.out, model.to_json() + "\n")
    print(f"fitted tf-idf on {model.doc_count} sentences -> {args.out}")
    return 0


def _cmd_matrix(args) -> int:
    pairs = _load(args.pairs, read_pairs, "pair records")
    model = _load(args.tfidf, TfIdfModel.from_json)
    config = _dep_config(args)
    lines = []
    for pair in pairs:
        m = base_matrix(pair.a, pair.b, config)
        s = subgraph_matrix(pair.a, pair.b, config)
        with _naming(pair):
            mf = _combine_matrices(m, s, model.weights(pair.a), model.weights(pair.b))
        record = {
            "id": pair.pair_id,
            "n": pair.a.n,
            "m": pair.b.n,
            "M": m.tolist(),
            "S": s.tolist(),
            "MF": mf.tolist(),
        }
        lines.append(json.dumps(record, sort_keys=True, allow_nan=False))
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(lines)} matrix records -> {args.out}")
    return 0


def _fusion_cells(d_seq: int, d_v: int, d_hid: int) -> int:
    """Cells `FusionParams.init` draws, discarded draws included."""
    return sum(math.prod(shape) for _, shape, _ in _draws(d_seq, d_v, d_hid))


def _attn_config(args, pair: SentencePair, layout: PairLayout, d_hid: int = 0) -> AttnConfig:
    """The attention config for the pair's layout, once the pair's layer and what the size flags
    draw beside it fit the memory budget: each AttnParams weight (heads, d_model, d) and its
    product with x, (heads, L, d); the embedding table (at most L rows) and x; and, given
    `d_hid`, the pair's FusionParams."""
    config = AttnConfig(d_model=args.d_model, heads=args.heads, d_k=args.d_k, d_v=args.d_v,
                        d_seq=layout.d_seq)
    source, needs = _layer_estimate(layout, config.heads)
    cells = sum(heads * (d_model + layout.d_seq) * d
                for heads, d_model, d in _shapes(config).values())
    cells += 2 * layout.d_seq * config.d_model
    cells += _fusion_cells(layout.d_seq, config.d_v, d_hid) if d_hid else 0
    sizes = f", d_model = {config.d_model}, d_k = {config.d_k}, d_v = {config.d_v}"
    with _naming(pair):
        _check_budget(source + sizes + (f", d_hid = {d_hid}" if d_hid else ""), needs + 8 * cells)
    return config


def _cmd_attend(args) -> int:
    pairs = _load(args.pair, read_pairs, "pair records")
    pair = pairs[0]
    if len(pairs) > 1:
        print(f"note: {args.pair} has {len(pairs)} pair records; using the first, "
              f"{pair.pair_id!r}", file=sys.stderr)
    seed = _seed(args)
    layout = build_layout(pair.a, pair.b)
    config = _attn_config(args, pair, layout)
    model = _pair_tfidf(_load(args.tfidf, TfIdfModel.from_json) if args.tfidf else None, pair)
    dep_config = _dep_config(args)
    embeddings = EmbeddingTable.build(pair.a.forms() + pair.b.forms(), config.d_model, seed)
    params = AttnParams.init(config, seed)
    with _naming(pair):
        _, sem_w, sem, dep_w, dep = pair_attention(pair.a, pair.b, layout, model, embeddings,
                                                   params, dep_config)
    payload = {
        "id": pair.pair_id,
        "tokens": list(layout.tokens),
        "sem": sem.tolist(),
        "dep": dep.tolist(),
        "sem_weights": sem_w.tolist(),
        "dep_weights": dep_w.tolist(),
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote attention signals for {pair.pair_id!r} -> {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    if args.params is not None:
        for flag, dest in (("--seed", "seed"), ("--d-hid", "d_hid")):
            if dest in args.given_flags:
                raise _InputError(f"{flag} and --params exclude each other: "
                                  "the params file fixes every weight and d_hid")
    sem, dep = _load(args.signals, _parse_signals)
    # the forward holds 1 (L, L) float64 array per (L, d_v) slice; seeded params are drawn beside
    *slices, d_seq, d_v = sem.shape
    seeded = args.params is None
    draws = _fusion_cells(d_seq, d_v, args.d_hid) if seeded else 0
    _check_budget(f"{args.signals}: signals of shape {sem.shape}"
                  + (f" with d_hid = {args.d_hid}" if seeded else ""),
                  8 * (math.prod(slices) * d_seq ** 2 + draws))
    if not (np.all(np.isfinite(sem)) and np.all(np.isfinite(dep))):
        raise ValueError(f"{args.signals}: 'sem' and 'dep' must be finite")
    if seeded:
        params = FusionParams.init(d_seq, d_v, args.d_hid, _seed(args))
    else:
        params = _load(args.params, FusionParams.from_json)
    out = fuse(sem, dep, params)
    payload = {name: getattr(out, name).tolist()
               for name in ("fused", "fusion_gate", "filter_gate", "dep_refined", "sem_refined")}
    _write_text(args.out, json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    print(f"fused {'x'.join(map(str, sem.shape))} signals -> {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    config = GradCheckConfig(d_seq=args.d_seq, d_k=args.d_k, d_v=args.d_v, d_hid=args.d_hid)
    ops = ["fuse"] if args.op == "fuse" else ["sem_attention", "dep_attention"]
    seed = _seed(args)
    _check_budget(f"gradcheck --op {args.op} with "
                  + ", ".join(f"{name} = {value}" for name, value in vars(config).items()),
                  sum(_fd_cells(op, config) for op in ops), "cells")
    reports = [check(op, config, seed=seed, tol=args.tol, eps=args.eps) for op in ops]
    payload = json.dumps([json.loads(r.to_json()) for r in reports], sort_keys=True, indent=2,
                         allow_nan=False)
    print(payload)
    if args.out:
        _write_text(args.out, payload + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _output_stems(pairs, heads: int) -> list[str]:
    """One output file stem per pair; a stem that is empty, hidden, already used or no valid
    file name (a NUL byte, or `<stem>.sem.h<heads-1>.csv` over 255 UTF-8 bytes) is an error."""
    stems, seen = [pair.pair_id.replace("/", "_") for pair in pairs], set()
    for pair, stem in zip(pairs, stems):
        longest = f"{stem}.sem.h{heads - 1}.csv".encode("utf-8")  # ids are valid text
        bad_name = b"\0" in longest or len(longest) > 255
        if not stem or stem.startswith(".") or stem in seen or bad_name:
            raise ValueError(f"pair id {pair.pair_id!r} maps to output stem {stem!r}, which is "
                             "empty, starts with '.', is used by an earlier pair or is not a "
                             "valid file name")
        seen.add(stem)
    return stems


def _cmd_demo(args) -> int:
    pairs = _load(args.pairs, read_pairs, "pair records")
    stems = _output_stems(pairs, args.heads)
    tfidf = _load(args.tfidf, TfIdfModel.from_json) if args.tfidf else None
    seed = _seed(args)
    # every setting is checked before the output directory exists
    dep_config = _dep_config(args)
    if args.d_hid < 1:
        raise ValueError(f"d_hid must be >= 1, got {args.d_hid}")
    configs = [_attn_config(args, pair, build_layout(pair.a, pair.b), args.d_hid)
               for pair in pairs]
    # the attention weights do not depend on d_seq, so one seeded set serves every pair
    attn_params = AttnParams.init(configs[0], seed)
    with _staged_dir(Path(args.out)) as out_dir:
        for pair, stem, config in zip(pairs, stems, configs):
            model = _pair_tfidf(tfidf, pair)
            forms = pair.a.forms() + pair.b.forms()
            embeddings = EmbeddingTable.build(forms, config.d_model, seed)
            with _naming(pair):
                # fusion weights are sized by d_seq, so each pair gets its own seeded set
                fusion_params = FusionParams.init(config.d_seq, config.d_v, args.d_hid, seed)
                output = dafa_layer(
                    pair.a, pair.b, model, embeddings, attn_params, fusion_params,
                    config, dep_config, pair_id=pair.pair_id,
                )
            _write_text(out_dir / f"{stem}.json", output.to_json() + "\n")
            tokens = output.tokens
            for head in range(config.heads):
                write_heatmap_csv(out_dir / f"{stem}.sem.h{head}.csv", tokens, tokens,
                                  output.sem_weights[head])
                write_heatmap_csv(out_dir / f"{stem}.dep.h{head}.csv", tokens, tokens,
                                  output.dep_weights[head])
    print(f"wrote {len(pairs)} pair outputs -> {Path(args.out)}")
    return 0


class _StoreOnce(argparse.Action):
    """Store a flag's value once; argparse alone lets a repeat, even abbreviated, replace it."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given_flags", set())  # each parse has its own
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """A parser whose flags, and those of its subparsers, are `_StoreOnce` actions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)


def _add_dep_flags(parser) -> None:
    parser.add_argument("--theta", type=float, default=DepMatrixConfig.theta,
                        help="relation-match factor (default %(default)s)")
    parser.add_argument("--alpha", type=float, default=DepMatrixConfig.alpha,
                        help="subtree match score (default %(default)s)")
    parser.add_argument("--nu", type=float, default=DepMatrixConfig.nu,
                        help="subtree child decay (default %(default)s)")


def _add_seed_flag(parser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default 42, or env DAFA_SEED)")


def _add_attn_flags(parser) -> None:
    parser.add_argument("--d-model", type=int, default=16,
                        help="token embedding size (default %(default)s)")
    parser.add_argument("--heads", type=int, default=2,
                        help="attention heads (default %(default)s)")
    parser.add_argument("--d-k", type=int, default=8,
                        help="query and key size per head (default %(default)s)")
    parser.add_argument("--d-v", type=int, default=8,
                        help="value size per head (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dafa", description="Dependency-calibrated attention toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tfidf = sub.add_parser("tfidf", help="corpus tf-idf statistics")
    tfidf_sub = p_tfidf.add_subparsers(dest="action", required=True)
    p_fit = tfidf_sub.add_parser("fit", help="fit a model on a CoNLL-U corpus")
    p_fit.add_argument("--corpus", required=True, help="CoNLL-U file, one sentence per block")
    p_fit.add_argument("--out", required=True, help="output model JSON")
    p_fit.set_defaults(func=_cmd_tfidf_fit)

    p_matrix = sub.add_parser("matrix", help="emit M, S, MF matrices per pair")
    p_matrix.add_argument("--pairs", required=True, help="JSONL pair records")
    p_matrix.add_argument("--tfidf", required=True, help="fitted tf-idf model JSON")
    _add_dep_flags(p_matrix)
    p_matrix.add_argument("--out", required=True, help="output JSONL")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_attend = sub.add_parser("attend", help="attention weights/signals for one pair")
    p_attend.add_argument("--pair", required=True, help="JSONL file; the first record is used")
    p_attend.add_argument("--tfidf", default=None, help="fitted model JSON (default: fit on the pair)")
    _add_attn_flags(p_attend)
    _add_dep_flags(p_attend)
    _add_seed_flag(p_attend)
    p_attend.add_argument("--out", required=True, help="output JSON")
    p_attend.set_defaults(func=_cmd_attend)

    p_fuse = sub.add_parser("fuse", help="adaptive fusion over sem/dep signals")
    p_fuse.add_argument("--signals", required=True,
                        help="JSON with 'sem' and 'dep' arrays of one shape (..., L, d_v), "
                             "such as attend's output")
    p_fuse.add_argument("--params", default=None,
                        help="fusion params JSON file (default: params drawn from --seed)")
    p_fuse.add_argument("--d-hid", type=int, default=DEFAULT_D_HID,
                        help="hidden size for seeded params (default %(default)s)")
    _add_seed_flag(p_fuse)
    p_fuse.add_argument("--out", required=True, help="output JSON")
    p_fuse.set_defaults(func=_cmd_fuse)

    p_grad = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p_grad.add_argument("--op", required=True, choices=["fuse", "attend"])
    _add_seed_flag(p_grad)
    p_grad.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="relative-error tolerance (default %(default)s)")
    p_grad.add_argument("--eps", type=float, default=DEFAULT_EPS,
                        help="finite-difference step (default %(default)s)")
    for name, value in vars(GradCheckConfig()).items():
        p_grad.add_argument(f"--{name.replace('_', '-')}", type=int, default=value,
                            help=f"{name} of the checked op (default %(default)s)")
    p_grad.add_argument("--out", default=None, help="also write the JSON report here")
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_demo = sub.add_parser("demo", help="full layer evaluation with heatmap CSVs")
    p_demo.add_argument("--pairs", required=True, help="JSONL pair records")
    p_demo.add_argument("--tfidf", default=None, help="fitted model JSON (default: fit per pair)")
    _add_attn_flags(p_demo)
    p_demo.add_argument("--d-hid", type=int, default=DEFAULT_D_HID,
                        help="fusion hidden size (default %(default)s)")
    _add_dep_flags(p_demo)
    _add_seed_flag(p_demo)
    p_demo.add_argument("--out", required=True, help="output directory")
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (_InputError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1 if isinstance(exc, (ValueError, MemoryError)) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

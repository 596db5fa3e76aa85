"""Command-line surface: tfidf, matrix, attend, fuse, gradcheck, demo."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
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
                       dafa_layer, pair_attention, write_heatmap_csv, write_json)
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
    if 0 in sem.shape[-2:]:
        raise ValueError(f"'sem' and 'dep' need L >= 1 and d_v >= 1, got shape {sem.shape}")
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


def _seed(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _dep_config(args) -> DepMatrixConfig:
    return DepMatrixConfig(theta=args.theta, alpha=args.alpha, nu=args.nu)


@contextmanager
def _staged_into(directory: Path):
    """A private directory to write into whose entries, when the block completes, replace those
    of the same names in `directory` (a rename: a link there is replaced, not written through).
    It is removed when the block ends, so on any failure `directory` is as it was."""
    with tempfile.TemporaryDirectory(prefix=".dafa-partial-", dir=directory,
                                     ignore_cleanup_errors=True) as staging:
        yield Path(staging)
        for path in Path(staging).iterdir():
            os.replace(path, directory / path.name)


def _out_file(path) -> Path:
    """--out as one file, checked before any work: a regular file or absent, in an existing
    directory, and no link out of it. The rename would replace a directory, device, FIFO or such
    a link (/dev/stdout) rather than write to it."""
    out = Path(path)
    if (out.exists() and not out.is_file()) or not out.parent.is_dir():
        raise _InputError(f"--out {out}: exists and is not a regular file, or is in no directory")
    if out.is_symlink() and out.resolve().parent != out.parent.resolve():
        raise _InputError(f"--out {out}: is a link that leads out of its directory")
    return out


@contextmanager
def _out_stream(out: Path):
    """The open text file that, when the block completes, replaces --out (`_staged_into`)."""
    with _staged_into(out.parent) as staging, open(staging / out.name, "w", encoding="utf-8") as fh:
        yield fh


def _cmd_tfidf_fit(args) -> int:
    corpus = _load(args.corpus, parse_conllu, "sentences")
    out = _out_file(args.out)
    model = TfIdfModel.fit(corpus)
    with _out_stream(out) as fh:
        fh.write(model.to_json() + "\n")
    print(f"fitted tf-idf on {model.doc_count} sentences -> {args.out}")
    return 0


# `matrix`'s peak per n·m cell of the record being built: M, S and MF and the temporaries of
# `_combine_matrices`; records are written one at a time, a row at a time. Fitted with
# tracemalloc on one-form chains of 300 x 300 to 600 x 600 cells: within 10% of the peak.
_MATRIX_CELL_BYTES = 36


def _matrix_record(pair: SentencePair, model: TfIdfModel, config: DepMatrixConfig) -> dict:
    m = base_matrix(pair.a, pair.b, config)
    s = subgraph_matrix(pair.a, pair.b, config)
    mf = _combine_matrices(m, s, model.weights(pair.a), model.weights(pair.b))
    return {"id": pair.pair_id, "n": pair.a.n, "m": pair.b.n, "M": m, "S": s, "MF": mf}


def _cmd_matrix(args) -> int:
    pairs = _load(args.pairs, read_pairs, "pair records")
    model = _load(args.tfidf, TfIdfModel.from_json)
    config = _dep_config(args)
    cells = [pair.a.n * pair.b.n for pair in pairs]
    largest = pairs[cells.index(max(cells))]
    with _naming(largest):
        _check_budget(f"matrix record of n = {largest.a.n} by m = {largest.b.n} cells, the largest "
                      f"of {len(pairs)},", _MATRIX_CELL_BYTES * max(cells))
    out = _out_file(args.out)
    with _out_stream(out) as fh:
        for pair in pairs:  # each record is written as it is made
            with _naming(pair):
                write_json(fh, _matrix_record(pair, model, config), end="\n")
    print(f"wrote {len(pairs)} matrix records -> {args.out}")
    return 0


def _fusion_cells(d_seq: int, d_v: int, d_hid: int) -> int:
    """Cells `FusionParams.init` draws, discarded draws included."""
    return sum(math.prod(shape) for _, shape, _ in _draws(d_seq, d_v, d_hid))


def _draw_cells(config: AttnConfig, d_seq: int, d_hid: int) -> int:
    """Cells the size flags draw beside a layer of packed length `d_seq`: each AttnParams weight
    (heads, d_model, d) and its product with x, (heads, d_seq, d); the embedding table (at most
    d_seq rows) and x; and, given `d_hid`, the FusionParams. At d_seq = 0, the draws no pair
    sizes."""
    cells = sum(heads * (d_model + d_seq) * d for heads, d_model, d in _shapes(config).values())
    cells += 2 * d_seq * config.d_model
    return cells + (_fusion_cells(d_seq, config.d_v, d_hid) if d_hid else 0)


def _attn_config(args, pair: SentencePair, layout: PairLayout, d_hid: int = 0) -> AttnConfig:
    """The attention config for the pair's layout, once what the size flags draw (`_draw_cells`)
    and then the pair's layer beside those draws fit the memory budget. Draws over the budget
    alone are refused in a message that names the flags, not the pair: every pair would be
    refused, and none is the cause."""
    config = AttnConfig(d_model=args.d_model, heads=args.heads, d_k=args.d_k, d_v=args.d_v,
                        d_seq=layout.d_seq)
    flags = (f"--heads {config.heads}, --d-model {config.d_model}, --d-k {config.d_k}, "
             f"--d-v {config.d_v}" + (f", --d-hid {d_hid}" if d_hid else ""))
    _check_budget(f"drawing the weights for {flags}", 8 * _draw_cells(config, 0, d_hid))
    source, needs = _layer_estimate(layout, config.heads)
    sizes = f", d_model = {config.d_model}, d_k = {config.d_k}, d_v = {config.d_v}"
    with _naming(pair):
        _check_budget(source + sizes + (f", d_hid = {d_hid}" if d_hid else ""),
                      needs + 8 * _draw_cells(config, layout.d_seq, d_hid))
    return config


def _cmd_attend(args) -> int:
    pairs = _load(args.pair, read_pairs, "pair records")
    pair = pairs[0]
    if len(pairs) > 1:
        print(f"note: {args.pair} has {len(pairs)} pair records; using the first, "
              f"{pair.pair_id!r}", file=sys.stderr)
    model = _pair_tfidf(_load(args.tfidf, TfIdfModel.from_json) if args.tfidf else None, pair)
    seed = _seed(args)
    dep_config = _dep_config(args)
    layout = build_layout(pair.a, pair.b)
    config = _attn_config(args, pair, layout)
    out = _out_file(args.out)
    embeddings = EmbeddingTable.build(pair.a.forms() + pair.b.forms(), config.d_model, seed)
    params = AttnParams.init(config, seed)
    with _naming(pair):
        _, sem_w, sem, dep_w, dep = pair_attention(pair.a, pair.b, layout, model, embeddings,
                                                   params, dep_config)
    with _out_stream(out) as fh, _naming(pair):
        write_json(fh, {"id": pair.pair_id, "tokens": list(layout.tokens), "sem": sem, "dep": dep,
                        "sem_weights": sem_w, "dep_weights": dep_w}, end="\n")
    print(f"wrote attention signals for {pair.pair_id!r} -> {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    if args.params is not None:
        for flag, dest in (("--seed", "seed"), ("--d-hid", "d_hid")):
            if dest in args.given_flags:
                raise _InputError(f"{flag} and --params exclude each other: "
                                  "the params file fixes every weight and d_hid")
    sem, dep = _load(args.signals, _parse_signals)
    out_file = _out_file(args.out)
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
    with _out_stream(out_file) as fh:
        write_json(fh, {name: getattr(out, name) for name in ("fused", "fusion_gate",
                        "filter_gate", "dep_refined", "sem_refined")}, end="\n")
    print(f"fused {'x'.join(map(str, sem.shape))} signals -> {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    config = GradCheckConfig(d_seq=args.d_seq, d_k=args.d_k, d_v=args.d_v, d_hid=args.d_hid)
    unread = "d_k" if args.op == "fuse" else "d_hid"  # fuse has no keys, attention no hidden layer
    if unread in args.given_flags:
        raise _InputError(f"--{unread.replace('_', '-')} does not apply to --op {args.op}")
    ops = ["fuse"] if args.op == "fuse" else ["sem_attention", "dep_attention"]
    seed = _seed(args)
    _check_budget(f"gradcheck --op {args.op} with "
                  + ", ".join(f"{name} = {value}" for name, value in vars(config).items()),
                  sum(_fd_cells(op, config) for op in ops), "cells")
    out = _out_file(args.out) if args.out else None
    reports = [check(op, config, seed=seed, tol=args.tol, eps=args.eps) for op in ops]
    payload = json.dumps([vars(r) for r in reports], sort_keys=True, indent=2, allow_nan=False)
    if out:
        with _out_stream(out) as fh:
            fh.write(payload + "\n")
    print(payload)
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
    # --out and its missing parents are built inside a staging directory in the nearest existing
    # one (--out itself if it exists), so only that must be writable, and a failed run makes none
    out_dir = Path(args.out).resolve()
    anchor = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not anchor.is_dir():
        where = "" if anchor == out_dir else f"{anchor} "
        raise _InputError(f"--out {args.out}: {where}exists and is not a directory")
    # the attention weights do not depend on d_seq, so one seeded set serves every pair
    attn_params = AttnParams.init(configs[0], seed)
    with _staged_into(anchor) as staging:
        work = staging / out_dir.relative_to(anchor)
        work.mkdir(parents=True, exist_ok=True)
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
                (work / f"{stem}.json").write_text(output.to_json() + "\n", encoding="utf-8")
            tokens = output.tokens
            for head in range(config.heads):
                write_heatmap_csv(work / f"{stem}.sem.h{head}.csv", tokens, tokens,
                                  output.sem_weights[head])
                write_heatmap_csv(work / f"{stem}.dep.h{head}.csv", tokens, tokens,
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


def _path(text: str) -> str:
    """The argparse type of every path flag: an empty path would name the working directory
    (a read fails on it, `demo --out` writes into it), so it is a usage error naming the flag."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


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
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="RNG seed (default %(default)s)")


def _add_attn_flags(parser) -> None:
    parser.add_argument("--d-model", type=int, default=16,
                        help="token embedding size (default %(default)s)")
    parser.add_argument("--heads", type=int, default=2,
                        help="attention heads (default %(default)s)")
    parser.add_argument("--d-k", type=int, default=8,
                        help="query and key size per head (default %(default)s)")
    parser.add_argument("--d-v", type=int, default=8,
                        help="value size per head (default %(default)s)")


@functools.cache  # parsing leaves the parser as it was, so one serves every `run` in a process
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dafa", description="Dependency-calibrated attention toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tfidf = sub.add_parser("tfidf", help="corpus tf-idf statistics")
    tfidf_sub = p_tfidf.add_subparsers(dest="action", required=True)
    p_fit = tfidf_sub.add_parser("fit", help="fit a model on a CoNLL-U corpus")
    p_fit.add_argument("--corpus", type=_path, required=True,
                       help="CoNLL-U file, one sentence per block")
    p_fit.add_argument("--out", type=_path, required=True, help="output model JSON")
    p_fit.set_defaults(func=_cmd_tfidf_fit)

    p_matrix = sub.add_parser("matrix", help="emit M, S, MF matrices per pair")
    p_matrix.add_argument("--pairs", type=_path, required=True, help="JSONL pair records")
    p_matrix.add_argument("--tfidf", type=_path, required=True, help="fitted tf-idf model JSON")
    _add_dep_flags(p_matrix)
    p_matrix.add_argument("--out", type=_path, required=True, help="output JSONL")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_attend = sub.add_parser("attend", help="attention weights/signals for one pair")
    p_attend.add_argument("--pair", type=_path, required=True,
                          help="JSONL file; the first record is used")
    p_attend.add_argument("--tfidf", type=_path, default=None,
                          help="fitted model JSON (default: fit on the pair)")
    _add_attn_flags(p_attend)
    _add_dep_flags(p_attend)
    _add_seed_flag(p_attend)
    p_attend.add_argument("--out", type=_path, required=True, help="output JSON")
    p_attend.set_defaults(func=_cmd_attend)

    p_fuse = sub.add_parser("fuse", help="adaptive fusion over sem/dep signals")
    p_fuse.add_argument("--signals", type=_path, required=True,
                        help="JSON with 'sem' and 'dep' arrays of one shape (..., L, d_v), "
                             "such as attend's output")
    p_fuse.add_argument("--params", type=_path, default=None,
                        help="fusion params JSON file (default: params drawn from --seed)")
    p_fuse.add_argument("--d-hid", type=int, default=DEFAULT_D_HID,
                        help="hidden size for seeded params (default %(default)s)")
    _add_seed_flag(p_fuse)
    p_fuse.add_argument("--out", type=_path, required=True, help="output JSON")
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
    p_grad.add_argument("--out", type=_path, default=None, help="also write the JSON report here")
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_demo = sub.add_parser("demo", help="full layer evaluation with heatmap CSVs")
    p_demo.add_argument("--pairs", type=_path, required=True, help="JSONL pair records")
    p_demo.add_argument("--tfidf", type=_path, default=None,
                        help="fitted model JSON (default: fit per pair)")
    _add_attn_flags(p_demo)
    p_demo.add_argument("--d-hid", type=int, default=DEFAULT_D_HID,
                        help="fusion hidden size (default %(default)s)")
    _add_dep_flags(p_demo)
    _add_seed_flag(p_demo)
    p_demo.add_argument("--out", type=_path, required=True, help="output directory")
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

"""Command-line surface: tfidf, matrix, attend, fuse, gradcheck, demo."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .attention import AttnConfig, AttnParams, multi_head_dafa
from .conllu import SentencePair, parse_conllu, read_pairs
from .depmatrix import (
    DepMatrixConfig,
    base_matrix,
    combine_matrices,
    embed_calibration,
    final_matrix,
    subgraph_matrix,
)
from .fusion import FusionParams, fuse
from .gradcheck import GradCheckConfig, check
from .pipeline import EmbeddingTable, build_layout, dafa_layer, sequence_tokens, write_heatmap_csv
from .tfidf import TfIdfModel

DEFAULT_SEED = 42


class _InputError(Exception):
    """Unreadable or unparseable input; maps to exit code 2."""


def _load(path, parse, what=None):
    """Read one input file and parse its text; any failure is an _InputError naming the path.

    `parse` may raise TypeError as well as ValueError: JSON of the wrong structure (a list or
    an object where a number belongs) fails numpy's float conversion with a TypeError. When
    `what` is given, an empty result is an error naming the records it lacks.
    """
    try:
        value = parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, TypeError) as exc:
        raise _InputError(f"{path}: {exc}") from None
    if what is not None and not value:
        raise _InputError(f"{path}: no {what} found")
    return value


def _parse_signals(text: str) -> tuple[np.ndarray, np.ndarray]:
    data = json.loads(text)
    if not isinstance(data, dict) or "sem" not in data or "dep" not in data:
        raise ValueError("expected object with 'sem' and 'dep' matrices")
    sem = np.asarray(data["sem"], dtype=np.float64)
    dep = np.asarray(data["dep"], dtype=np.float64)
    if sem.ndim != 2 or sem.shape != dep.shape:
        raise ValueError("'sem' and 'dep' must be equal-shape matrices")
    return sem, dep


_CONFIG_KEYS = ("d_model", "heads", "d_k", "d_v")


def _parse_config(text: str) -> dict:
    overrides = json.loads(text)
    if not isinstance(overrides, dict) or any(type(v) is not int for v in overrides.values()):
        raise ValueError("attention config must be a JSON object of integers")
    unknown = sorted(set(overrides) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown attention config keys {unknown}, expected {_CONFIG_KEYS}")
    return overrides


def _pair_tfidf(model: TfIdfModel | None, pair: SentencePair) -> TfIdfModel:
    # without a fitted model, fall back to the pair's own two sentences
    return model if model is not None else TfIdfModel.fit([pair.a, pair.b])


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("DAFA_SEED")
    return int(env) if env else DEFAULT_SEED


def _dep_config(args) -> DepMatrixConfig:
    return DepMatrixConfig(theta=args.theta, alpha=args.alpha, nu=args.nu)


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


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
        mf = combine_matrices(m, s, model.weights(pair.a), model.weights(pair.b))
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


def _attn_config(args, d_seq: int) -> AttnConfig:
    overrides = _load(args.config, _parse_config) if args.config else {}
    return AttnConfig(**{key: overrides.get(key, getattr(args, key)) for key in _CONFIG_KEYS},
                      d_seq=d_seq)


def _cmd_attend(args) -> int:
    pairs = _load(args.pair, read_pairs, "pair records")
    pair = pairs[0]
    if len(pairs) > 1:
        print(f"note: {args.pair} has {len(pairs)} pair records; using the first, "
              f"{pair.pair_id!r}", file=sys.stderr)
    seed = _seed(args)
    layout = build_layout(pair.a, pair.b)
    config = _attn_config(args, layout.d_seq)
    model = _pair_tfidf(_load(args.tfidf, TfIdfModel.from_json) if args.tfidf else None, pair)
    calibration = embed_calibration(final_matrix(pair.a, pair.b, model, _dep_config(args)), layout)
    embeddings = EmbeddingTable.build(pair.a.forms() + pair.b.forms(), config.d_model, seed)
    params = AttnParams.init(config, seed)
    signals = multi_head_dafa(embeddings.encode(sequence_tokens(pair.a, pair.b)), params, calibration)
    payload = {
        "id": pair.pair_id,
        "tokens": sequence_tokens(pair.a, pair.b),
        "sem": [sig.sem.tolist() for sig in signals],
        "dep": [sig.dep.tolist() for sig in signals],
        "sem_weights": [sig.sem_weights.tolist() for sig in signals],
        "dep_weights": [sig.dep_weights.tolist() for sig in signals],
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote attention signals for {pair.pair_id!r} -> {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    sem, dep = _load(args.signals, _parse_signals)
    if not (np.all(np.isfinite(sem)) and np.all(np.isfinite(dep))):
        raise ValueError(f"{args.signals}: 'sem' and 'dep' must be finite")
    if args.params is not None and not _is_int(args.params):
        params = _load(args.params, FusionParams.from_json)
    else:
        seed = int(args.params) if args.params is not None else _seed(args)
        params = FusionParams.init(sem.shape[0], sem.shape[1], args.d_hid, seed)
    out = fuse(sem, dep, params)
    payload = {
        "fused": out.fused.tolist(),
        "fusion_gate": out.fusion_gate.tolist(),
        "filter_gate": out.filter_gate.tolist(),
        "dep_refined": out.dep_refined.tolist(),
        "sem_refined": out.sem_refined.tolist(),
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    print(f"fused {sem.shape[0]}x{sem.shape[1]} signals -> {args.out}")
    return 0


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _cmd_gradcheck(args) -> int:
    config = GradCheckConfig(d_seq=args.d_seq, d_k=args.d_k, d_v=args.d_v, d_hid=args.d_hid)
    ops = ["fuse"] if args.op == "fuse" else ["sem_attention", "dep_attention"]
    seed = _seed(args)
    reports = [check(op, config, seed=seed, tol=args.tol, eps=args.eps) for op in ops]
    payload = json.dumps([json.loads(r.to_json()) for r in reports], sort_keys=True, indent=2,
                         allow_nan=False)
    print(payload)
    if args.out:
        _write_text(args.out, payload + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _output_stems(pairs) -> list[str]:
    """One output file stem per pair; a stem that is empty, hidden or already used is an error."""
    stems, seen = [pair.pair_id.replace("/", "_") for pair in pairs], set()
    for pair, stem in zip(pairs, stems):
        if not stem or stem.startswith(".") or stem in seen:
            raise ValueError(f"pair id {pair.pair_id!r} maps to output stem {stem!r}, "
                             "which is empty, starts with '.' or is used by an earlier pair")
        seen.add(stem)
    return stems


def _cmd_demo(args) -> int:
    pairs = _load(args.pairs, read_pairs, "pair records")
    stems = _output_stems(pairs)
    tfidf = _load(args.tfidf, TfIdfModel.from_json) if args.tfidf else None
    seed = _seed(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dep_config = _dep_config(args)
    for pair, stem in zip(pairs, stems):
        layout = build_layout(pair.a, pair.b)
        config = AttnConfig(
            d_model=args.d_model, heads=args.heads, d_k=args.d_k, d_v=args.d_v, d_seq=layout.d_seq
        )
        model = _pair_tfidf(tfidf, pair)
        embeddings = EmbeddingTable.build(pair.a.forms() + pair.b.forms(), config.d_model, seed)
        attn_params = AttnParams.init(config, seed)
        # fusion weights are sized by d_seq, so each pair gets its own seeded set
        fusion_params = FusionParams.init(layout.d_seq, config.d_v, args.d_hid, seed)
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
    print(f"wrote {len(pairs)} pair outputs -> {out_dir}")
    return 0


def _add_dep_flags(parser) -> None:
    parser.add_argument("--theta", type=float, default=2.0, help="relation-match factor (default 2.0)")
    parser.add_argument("--alpha", type=float, default=1.0, help="subtree match score (default 1.0)")
    parser.add_argument("--nu", type=float, default=0.5, help="subtree child decay (default 0.5)")


def _add_seed_flag(parser) -> None:
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default 42, or env DAFA_SEED)")


def _add_attn_flags(parser) -> None:
    parser.add_argument("--d-model", type=int, default=16)
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--d-k", type=int, default=8)
    parser.add_argument("--d-v", type=int, default=8)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dafa",
                                     description="Dependency-calibrated attention toolkit")
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
    p_attend.add_argument("--config", default=None, help="JSON with d_model/heads/d_k/d_v overrides")
    p_attend.add_argument("--tfidf", default=None, help="fitted model JSON (default: fit on the pair)")
    _add_attn_flags(p_attend)
    _add_dep_flags(p_attend)
    _add_seed_flag(p_attend)
    p_attend.add_argument("--out", required=True, help="output JSON")
    p_attend.set_defaults(func=_cmd_attend)

    p_fuse = sub.add_parser("fuse", help="adaptive fusion over sem/dep signal matrices")
    p_fuse.add_argument("--signals", required=True, help="JSON with 'sem' and 'dep' matrices")
    p_fuse.add_argument("--params", default=None,
                        help="fusion params JSON path, or an integer seed (default: --seed)")
    p_fuse.add_argument("--d-hid", type=int, default=8, help="hidden size for seeded params")
    _add_seed_flag(p_fuse)
    p_fuse.add_argument("--out", required=True, help="output JSON")
    p_fuse.set_defaults(func=_cmd_fuse)

    p_grad = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p_grad.add_argument("--op", required=True, choices=["fuse", "attend"])
    _add_seed_flag(p_grad)
    p_grad.add_argument("--tol", type=float, default=1e-5)
    p_grad.add_argument("--eps", type=float, default=1e-5)
    p_grad.add_argument("--d-seq", type=int, default=4)
    p_grad.add_argument("--d-k", type=int, default=3)
    p_grad.add_argument("--d-v", type=int, default=3)
    p_grad.add_argument("--d-hid", type=int, default=3)
    p_grad.add_argument("--out", default=None, help="also write the JSON report here")
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_demo = sub.add_parser("demo", help="full layer evaluation with heatmap CSVs")
    p_demo.add_argument("--pairs", required=True, help="JSONL pair records")
    p_demo.add_argument("--tfidf", default=None, help="fitted model JSON (default: fit per pair)")
    _add_attn_flags(p_demo)
    p_demo.add_argument("--d-hid", type=int, default=8)
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
    except (_InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

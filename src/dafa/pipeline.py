"""End-to-end single-layer evaluation for a parsed sentence pair.

Packs the pair as <CLS> a-tokens <SEP> b-tokens <SEP>, embeds the tokens
with a seeded table, builds the calibration matrix from the dependency
trees, runs both attention paths per head, fuses each head's signals,
and averages the fused features across heads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .attention import AttnConfig, AttnParams, multi_head_dafa
from .conllu import DepSentence
from .depmatrix import DepMatrixConfig, PairLayout, embed_calibration, final_matrix
from .fusion import FusionParams, fuse
from .tfidf import TfIdfModel

CLS_TOKEN = "<CLS>"
SEP_TOKEN = "<SEP>"
UNK_TOKEN = "<UNK>"


def build_layout(a: DepSentence, b: DepSentence) -> PairLayout:
    """Packed layout with separator positions at 0, n+1, and n+m+2."""
    n, m = a.n, b.n
    return PairLayout(d_seq=n + m + 3, a_span=range(1, n + 1), b_span=range(n + 2, n + m + 2))


def sequence_tokens(a: DepSentence, b: DepSentence) -> list[str]:
    return [CLS_TOKEN, *a.forms(), SEP_TOKEN, *b.forms(), SEP_TOKEN]


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Seeded random token embeddings; unknown forms share one row."""

    vocab: dict
    matrix: np.ndarray
    seed: int

    @classmethod
    def build(cls, forms, d_model: int, seed: int) -> "EmbeddingTable":
        if d_model < 1:
            raise ValueError(f"d_model must be >= 1, got {d_model}")
        specials = [CLS_TOKEN.lower(), SEP_TOKEN.lower(), UNK_TOKEN.lower()]
        regular = sorted({form.lower() for form in forms} - set(specials))
        vocab = {form: row for row, form in enumerate(specials + regular)}
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(-0.1, 0.1, (len(vocab), d_model))
        return cls(vocab=vocab, matrix=matrix, seed=seed)

    def lookup(self, form: str) -> np.ndarray:
        row = self.vocab.get(form.lower(), self.vocab[UNK_TOKEN.lower()])
        return self.matrix[row]

    def encode(self, forms) -> np.ndarray:
        return np.stack([self.lookup(form) for form in forms])


@dataclass(frozen=True, eq=False)
class LayerOutput:
    """Everything one layer evaluation produces for a pair."""

    pair_id: str
    tokens: list
    fused: np.ndarray         # (d_seq, d_v), mean over heads
    sem_weights: np.ndarray   # (heads, d_seq, d_seq)
    dep_weights: np.ndarray   # (heads, d_seq, d_seq)
    fusion_gates: np.ndarray  # (heads, d_seq)
    filter_gates: np.ndarray  # (heads, d_seq)
    calibration: np.ndarray   # (d_seq, d_seq)

    def to_json(self) -> str:
        """Ids, tokens, fused output, gates and calibration; the attention weights are not
        included, because `dafa demo` writes each head's weights once, as heatmap CSVs."""
        payload = {
            "pair_id": self.pair_id,
            "tokens": list(self.tokens),
            "fused": self.fused.tolist(),
            "fusion_gates": self.fusion_gates.tolist(),
            "filter_gates": self.filter_gates.tolist(),
            "calibration": self.calibration.tolist(),
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)


def dafa_layer(
    a: DepSentence,
    b: DepSentence,
    tfidf: TfIdfModel,
    embeddings: EmbeddingTable,
    attn_params: AttnParams,
    fusion_params: FusionParams,
    attn_config: AttnConfig,
    dep_config: DepMatrixConfig = DepMatrixConfig(),
    pair_id: str = "pair",
) -> LayerOutput:
    """Evaluate one calibrated-attention-plus-fusion layer on a sentence pair."""
    layout = build_layout(a, b)
    if attn_config.d_seq != layout.d_seq:
        raise ValueError(f"config d_seq {attn_config.d_seq} != pair layout d_seq {layout.d_seq}")
    attn_params.check_config(attn_config)
    if fusion_params.d_seq != layout.d_seq or fusion_params.d_v != attn_config.d_v:
        raise ValueError(
            f"fusion params sized ({fusion_params.d_seq}, {fusion_params.d_v}), "
            f"layer needs ({layout.d_seq}, {attn_config.d_v})"
        )

    calibration = embed_calibration(final_matrix(a, b, tfidf, dep_config), layout)
    x = embeddings.encode(sequence_tokens(a, b))
    signals = multi_head_dafa(x, attn_params, calibration)

    fused_heads, sem_w, dep_w, g_gates, f_gates = [], [], [], [], []
    for sig in signals:
        out = fuse(sig.sem, sig.dep, fusion_params)
        fused_heads.append(out.fused)
        g_gates.append(out.fusion_gate)
        f_gates.append(out.filter_gate)
        sem_w.append(sig.sem_weights)
        dep_w.append(sig.dep_weights)

    return LayerOutput(
        pair_id=pair_id,
        tokens=sequence_tokens(a, b),
        fused=np.mean(fused_heads, axis=0),
        sem_weights=np.stack(sem_w),
        dep_weights=np.stack(dep_w),
        fusion_gates=np.stack(g_gates),
        filter_gates=np.stack(f_gates),
        calibration=calibration,
    )


def write_heatmap_csv(path, row_labels, col_labels, matrix) -> None:
    """Labelled CSV heatmap; values keep full float round-trip precision."""
    # csv writes a Python float as its repr, the shortest text that parses back to it
    rows = np.asarray(matrix, dtype=np.float64).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["", *col_labels])
        writer.writerows([label, *row] for label, row in zip(row_labels, rows))


def read_heatmap_csv(path):
    """Inverse of write_heatmap_csv: (row_labels, col_labels, matrix)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty heatmap CSV")
    col_labels = rows[0][1:]
    row_labels = [row[0] for row in rows[1:]]
    matrix = np.array([[float(x) for x in row[1:]] for row in rows[1:]], dtype=np.float64)
    return row_labels, col_labels, matrix

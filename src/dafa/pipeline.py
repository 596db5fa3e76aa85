"""End-to-end single-layer evaluation for a parsed sentence pair.

Packs the pair as <CLS> a-tokens <SEP> b-tokens <SEP>, embeds the tokens
with a seeded table, builds the calibration matrix from the dependency
trees, runs both attention paths for every head, fuses the heads' signals
in one call on their stack (the head is the leading axis throughout), and
averages the fused features across heads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .attention import AttnConfig, AttnParams, multi_head_dafa
from .conllu import DepSentence
from .depmatrix import DepMatrixConfig, embed_calibration, final_matrix
from .fusion import FusionParams, fuse
from .tfidf import TfIdfModel

CLS_TOKEN = "<CLS>"
SEP_TOKEN = "<SEP>"
UNK_TOKEN = "<UNK>"


@dataclass(frozen=True)
class PairLayout:
    """One pair packed as <CLS> a-tokens <SEP> b-tokens <SEP>; `n` is the length of a."""

    tokens: tuple[str, ...]
    n: int

    @property
    def d_seq(self) -> int:
        return len(self.tokens)

    @property
    def a_span(self) -> range:
        return range(1, self.n + 1)

    @property
    def b_span(self) -> range:
        return range(self.n + 2, len(self.tokens) - 1)


def build_layout(a: DepSentence, b: DepSentence) -> PairLayout:
    """The packed tokens of a pair, with separators at positions 0, n+1 and n+m+2."""
    return PairLayout(tokens=(CLS_TOKEN, *a.forms(), SEP_TOKEN, *b.forms(), SEP_TOKEN), n=a.n)


MAX_LAYER_BYTES = 2 ** 30


def _check_layer_budget(layout: PairLayout, heads: int) -> None:
    """Reject a pair whose estimated `dafa_layer` peak at `heads` heads exceeds MAX_LAYER_BYTES,
    before any of its (L, L) arrays is allocated.

    The traced peak holds about 4 (L, L) float64 arrays per head plus the calibration, at
    L = n + m + 3 (traced at 1, 2, 4 and 8 heads), so the estimate is (4·heads + 1)·8·L² bytes.
    """
    d_seq = layout.d_seq
    peak = (4 * heads + 1) * 8 * d_seq ** 2
    if peak > MAX_LAYER_BYTES:
        raise ValueError(f"packed length L = {d_seq} (n = {layout.n}, m = {len(layout.b_span)}) "
                         f"with heads = {heads} needs about {peak:,} bytes, over the layer budget "
                         f"of {MAX_LAYER_BYTES:,} bytes")


def _check_fuse_budget(source: str, shape: tuple) -> None:
    """Reject signals of `shape` (..., L, d_v) from `source` whose `fuse` peak, as traced 2 (L, L)
    float64 arrays per (L, d_v) slice or 2·slices·8·L² bytes, exceeds MAX_LAYER_BYTES."""
    peak = 2 * math.prod(shape[:-2]) * 8 * shape[-2] ** 2
    if peak > MAX_LAYER_BYTES:
        raise ValueError(f"{source}: signals of shape {shape} need about {peak:,} bytes in fuse, "
                         f"over the layer budget of {MAX_LAYER_BYTES:,} bytes")


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Seeded random token embeddings; unknown forms share one row."""

    vocab: dict
    matrix: np.ndarray

    @classmethod
    def build(cls, forms, d_model: int, seed: int) -> "EmbeddingTable":
        if d_model < 1:
            raise ValueError(f"d_model must be >= 1, got {d_model}")
        specials = [CLS_TOKEN.lower(), SEP_TOKEN.lower(), UNK_TOKEN.lower()]
        regular = sorted({form.lower() for form in forms} - set(specials))
        vocab = {form: row for row, form in enumerate(specials + regular)}
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(-0.1, 0.1, (len(vocab), d_model))
        return cls(vocab=vocab, matrix=matrix)

    def encode(self, forms) -> np.ndarray:
        """One row per form, (len(forms), d_model); forms match case-insensitively."""
        unk = self.vocab[UNK_TOKEN.lower()]
        return self.matrix[[self.vocab.get(form.lower(), unk) for form in forms]]


@dataclass(frozen=True, eq=False)
class LayerOutput:
    """Everything one layer evaluation produces for a pair."""

    pair_id: str
    tokens: list
    fused: np.ndarray         # (d_seq, d_v), mean over heads
    sem_weights: np.ndarray   # (heads, d_seq, d_seq)
    dep_weights: np.ndarray   # (heads, d_seq, d_seq)
    fusion_gates: np.ndarray  # (heads,), one value per head, shared by every position
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


def pair_attention(a: DepSentence, b: DepSentence, layout: PairLayout, tfidf: TfIdfModel,
                   embeddings: EmbeddingTable, attn_params: AttnParams,
                   dep_config: DepMatrixConfig) -> tuple[np.ndarray, ...]:
    """The attention half shared with `dafa attend`: calibration, then multi_head_dafa's stacks."""
    calibration = embed_calibration(final_matrix(a, b, tfidf, dep_config), layout)
    x = embeddings.encode(layout.tokens)
    return (calibration, *multi_head_dafa(x, attn_params, calibration))


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
    _check_layer_budget(layout, attn_config.heads)
    if attn_config.d_seq != layout.d_seq:
        raise ValueError(f"config d_seq {attn_config.d_seq} != pair layout d_seq {layout.d_seq}")
    attn_params.check_config(attn_config)
    calibration, sem_weights, sem, dep_weights, dep = pair_attention(
        a, b, layout, tfidf, embeddings, attn_params, dep_config)
    fusion = fuse(sem, dep, fusion_params)  # rejects fusion params of another size
    return LayerOutput(
        pair_id=pair_id,
        tokens=list(layout.tokens),
        fused=fusion.fused.mean(axis=0),
        sem_weights=sem_weights,
        dep_weights=dep_weights,
        fusion_gates=fusion.fusion_gate,
        filter_gates=fusion.filter_gate,
        calibration=calibration,
    )


def write_heatmap_csv(path, row_labels, col_labels, matrix) -> None:
    """Labelled CSV heatmap; values keep full float round-trip precision."""
    # Each value is its repr, the shortest text that parses back to it: what csv.writer writes
    # for a float. A repr holds no character csv quotes, so the floats are joined directly,
    # saving csv's per-field work, about a third of its time. Labels are arbitrary text and go
    # through csv.writer, rendered before one empty field so csv quotes them as in the full row
    # ("<label>,"; an empty label alone would be written '""'). The writer's sink returns its
    # argument, so `writerow` returns the line instead of writing it.
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    rows = np.asarray(matrix, dtype=np.float64).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line.writerow(["", *col_labels]))
        for label, row in zip(row_labels, rows):
            head = line.writerow([label, ""] if row else [label])[:-1]
            fh.write(head + ",".join(map(repr, row)) + "\n")

"""End-to-end single-layer evaluation for a parsed sentence pair.

Packs the pair as <CLS> a-tokens <SEP> b-tokens <SEP>, embeds the tokens
with a seeded table, builds the calibration matrix from the dependency
trees, runs both attention paths for every head, fuses each head's signals
in its own call, so one head's (L, L) tanh block is alive at a time, and
averages the fused features across heads.
"""

from __future__ import annotations

import csv
import json
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
# gradcheck's work budget, in the cells `fd_gradient` stacks. Its oracle ran at 6-13 ns per cell
# (2-vCPU VM, one BLAS thread): `--op fuse --d-seq 40 --d-v 8 --d-hid 8`, 1.1e7 cells, in 0.11 s;
# dep_attention at d_seq = 600, 3.95e9 cells, in 28 s; `--op fuse --d-seq 850 --d-v 1 --d-hid 1`,
# 7.4e9 cells, in 94 s at a 63 MB peak RSS. So 2**33 cells is one to two minutes, and it refuses
# `--op fuse --d-seq 3000 --d-v 2 --d-hid 2` (5.4e11 cells, about 1.7 h). Under W cells N
# perturbed scalars and d_seq are at most sqrt(W/2) and (W/6)**(1/3), so an admitted check also
# peaks at tens of MB.
MAX_GRADCHECK_CELLS = 2 ** 33


def _check_budget(source: str, needs: int, unit: str = "bytes") -> None:
    """Reject what `source` names, with its sizes, when its estimate `needs` is over the budget:
    MAX_LAYER_BYTES of memory, or MAX_GRADCHECK_CELLS of gradcheck's work for the unit "cells".
    Each caller estimates from shapes, before it draws or allocates what it counts."""
    budget = MAX_GRADCHECK_CELLS if unit == "cells" else MAX_LAYER_BYTES
    if needs > budget:
        raise ValueError(f"{source} needs about {needs:,} {unit}, over the budget of "
                         f"{budget:,} {unit}")


def _layer_estimate(layout: PairLayout, heads: int) -> tuple[str, int]:
    """The pair named by its sizes, and its estimated `dafa_layer` peak in bytes at `heads` heads.

    The traced peak holds about 2 (L, L) float64 arrays per head plus 2.5. The 2 per head are
    the sem and dep weight stacks; the 2.5 are the calibration, one fresh array beside the
    stacks (a head's logits in attention, then its tanh block in fuse) and about half an array
    of scoring and vectors. At L = n + m + 3 (traced at 1, 2, 4 and 8 heads, 1.02-1.06 times
    this) the estimate is thus (2·heads + 2.5)·8·L² = 4·(4·heads + 5)·L² bytes.
    """
    return (f"packed length L = {layout.d_seq} (n = {layout.n}, m = {len(layout.b_span)}) "
            f"with heads = {heads}", 4 * (4 * heads + 5) * layout.d_seq ** 2)


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
    _check_budget(*_layer_estimate(layout, attn_config.heads))
    if attn_config.d_seq != layout.d_seq:
        raise ValueError(f"config d_seq {attn_config.d_seq} != pair layout d_seq {layout.d_seq}")
    attn_params.check_config(attn_config)
    calibration, sem_weights, sem, dep_weights, dep = pair_attention(
        a, b, layout, tfidf, embeddings, attn_params, dep_config)
    # one head per call, so one (L, L) tanh block is alive; rejects fusion params of another size
    fusions = [fuse(*signals, fusion_params) for signals in zip(sem, dep)]
    fused, fusion_gates, filter_gates = (np.stack([getattr(f, name) for f in fusions])
                                         for name in ("fused", "fusion_gate", "filter_gate"))
    return LayerOutput(
        pair_id=pair_id,
        tokens=list(layout.tokens),
        fused=fused.mean(axis=0),
        sem_weights=sem_weights,
        dep_weights=dep_weights,
        fusion_gates=fusion_gates,
        filter_gates=filter_gates,
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
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(row_labels), len(col_labels)):
        raise ValueError(f"matrix of shape {matrix.shape} does not match the labels' "
                         f"({len(row_labels)}, {len(col_labels)})")
    rows = matrix.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line.writerow(["", *col_labels]))
        for label, row in zip(row_labels, rows):
            head = line.writerow([label, ""] if row else [label])[:-1]
            fh.write(head + ",".join(map(repr, row)) + "\n")

"""End-to-end single-layer evaluation for a parsed sentence pair.

Packs the pair as <CLS> a-tokens <SEP> b-tokens <SEP>, embeds the tokens
with a seeded table, builds the calibration matrix from the dependency
trees, runs both attention paths for every head, fuses each head's signals
in its own call, so one head's (L, L) tanh block is alive at a time on
each lane, and averages the fused features across heads. Long pairs run
on two lanes: the sem path and the even heads' fusion on a helper thread.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .attention import AttnConfig, AttnParams, _two_lanes, multi_head_dafa
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

    The traced peak holds about 2 (L, L) float64 arrays per head plus 3.5. The 2 per head are the
    sem and dep weights, one (2, heads, L, L) block (the peak two stacks had); the 3.5 are the
    calibration, one fresh array on each of the two lanes (a head's logits in attention, then its
    tanh block in fuse) and about half an array of scoring and vectors. At L = n + m + 3 that is
    (2·heads + 3.5)·8·L² = 4·(4·heads + 7)·L² bytes at every length; a pair short enough to run
    on one lane holds one fresh array less, under 203 KB below L = 160. Traced at L = 203 with
    the two lanes' attention calls held in step, so both fresh arrays are alive at once, the
    peak read 1.02-1.05, 1.03-1.05, 1.04-1.06 and 1.06 times the estimate at 1, 2, 4 and 8 heads
    (100 rounds each, 2-vCPU VM, one BLAS thread); unforced, it reads as low as 0.83.
    """
    d_seq = layout.d_seq
    return (f"packed length L = {d_seq} (n = {layout.n}, m = {len(layout.b_span)}) "
            f"with heads = {heads}", 4 * (4 * heads + 7) * d_seq ** 2)


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
        text = io.StringIO()
        write_json(text, {k: v for k, v in vars(self).items() if not k.endswith("_weights")})
        return text.getvalue()


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
    # one head per call, so one (L, L) tanh block is alive per lane; even heads on the helper
    # lane, odd ones here, and a lone head here. Rejects fusion params of another size.
    def heads_from(first):
        return [fuse(sem[h], dep[h], fusion_params) for h in range(first, len(sem), 2)]

    fusions = [None] * len(sem)
    fusions[0::2], fusions[1::2] = _two_lanes(layout.d_seq if len(sem) > 1 else 0,
                                              lambda: heads_from(0), lambda: heads_from(1))
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


# cells `_row_texts` reads per block: its temporaries (0.3-3.1 MB traced) do not grow with `a`
_ROW_BLOCK_CELLS = 2 ** 14


def _row_texts(a: np.ndarray, sep: str):
    """Each last-axis row of the float64 array `a`, its values' reprs joined by `sep`.

    Rows are read a block of about _ROW_BLOCK_CELLS cells at a time. repr is called once per
    distinct bit pattern in the block (unique floats would merge 0.0 and -0.0), and the rows are
    joined from one gather of those texts. A float's repr is its JSON text and csv.writer's."""
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])   # (-1, 0) is ambiguous when empty
    step = max(1, _ROW_BLOCK_CELLS // max(1, rows.shape[1]))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        bits, index = np.unique(block.view(np.int64), return_inverse=True)
        texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        # numpy 1.x returns the index flat
        yield from map(sep.join, texts[index.reshape(block.shape)].tolist())


def write_json(fh, payload: dict, end: str = "") -> None:
    """Write `payload` to `fh` as json.dumps(payload, sort_keys=True, allow_nan=False) would, then
    `end`, each float64 array a last-axis row at a time; one with a NaN or inf is refused before a
    byte."""
    for key, value in payload.items():
        if isinstance(value, np.ndarray) and not np.isfinite(value).all():
            raise ValueError(f"{key!r} holds a NaN or an infinity, which JSON cannot hold")
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode

    def nest(shape, rows, head):   # `head`, then the next shape[0] rows in brackets
        if len(shape) == 1:
            return fh.write(head + "[" + next(rows) + "]")
        fh.write(head + "[")
        for i in range(shape[0]):
            nest(shape[1:], rows, ", " if i else "")
        fh.write("]")

    fh.write("{")
    for i, key in enumerate(sorted(payload)):
        value, head = payload[key], (", " if i else "") + encode(key) + ": "
        if isinstance(value, np.ndarray) and value.ndim and value.dtype == np.float64:
            nest(value.shape, _row_texts(value, ", "), head)
        else:
            fh.write(head + encode(value.tolist() if isinstance(value, np.ndarray) else value))
    fh.write("}" + end)


def write_heatmap_csv(path, row_labels, col_labels, matrix) -> None:
    """Labelled CSV heatmap; values keep full float round-trip precision."""
    # Each value is its repr, the shortest text that parses back to it: what csv.writer writes
    # for a float. A repr holds no character csv quotes, so `_row_texts` joins the values
    # directly, calling repr once per distinct value, not per cell. Labels are arbitrary text and
    # go through csv.writer, rendered before one empty field so csv quotes them as in the full
    # row ("<label>,"; an empty label alone would be written '""'). The writer's sink returns its
    # argument, so `writerow` returns the line instead of writing it.
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(row_labels), len(col_labels)):
        raise ValueError(f"matrix of shape {matrix.shape} does not match the labels' "
                         f"({len(row_labels)}, {len(col_labels)})")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line.writerow(["", *col_labels]))
        for label, text in zip(row_labels, _row_texts(matrix, ",")):
            head = line.writerow([label, ""] if len(col_labels) else [label])[:-1]
            fh.write(head + text + "\n")

"""Cross-sentence dependency agreement matrices and the attention calibration embedding.

Three n-by-m matrices score how the dependency trees of a sentence pair
line up: a branch-level agreement matrix over (head, relation, tail)
units, a recursive subtree-agreement matrix, and their tf-idf-weighted
combination. The combined matrix is then embedded (shifted by +1) into
the full packed-sequence layout so it can multiply attention logits
elementwise without erasing positions that carry no dependency evidence.

Both agreement matrices work on integer codes built inside each call
(`_encode`): one table maps the lowercased forms of both sentences to
ids, another maps relation labels to ids, and each token becomes a
(tail form, head form, relation, parent) record. Equal ids mean exactly
what `word_match` / equal labels meant cell by cell, so the outputs are
bitwise those of the per-cell definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conllu import ROOT_FORM, DepSentence
from .tfidf import TfIdfModel


@dataclass(frozen=True)
class DepMatrixConfig:
    """Scoring constants: relation-match factor, per-match score, child decay."""

    theta: float = 2.0
    alpha: float = 1.0
    nu: float = 0.5

    def __post_init__(self):
        for name in ("theta", "alpha", "nu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.theta <= 0:
            raise ValueError(f"theta must be > 0, got {self.theta}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 <= self.nu < 1:
            raise ValueError(f"nu must be in [0, 1), got {self.nu}")


@dataclass(frozen=True)
class PairLayout:
    """Where each sentence's positions sit inside the packed input sequence."""

    d_seq: int
    a_span: range
    b_span: range

    def __post_init__(self):
        for name, span in (("a_span", self.a_span), ("b_span", self.b_span)):
            if len(span) and not (0 <= span[0] and span[-1] < self.d_seq):
                raise ValueError(f"{name} {span} outside [0, {self.d_seq})")
        if set(self.a_span) & set(self.b_span):
            raise ValueError("sentence spans overlap")


def word_match(a: str, b: str) -> float:
    """1.0 for case-insensitive form equality, else 0.0."""
    return 1.0 if a.lower() == b.lower() else 0.0


def rel_match(a: str, b: str, theta: float) -> float:
    """theta for equal relation labels, else 1.0."""
    return theta if a == b else 1.0


def base_matrix(a: DepSentence, b: DepSentence, config: DepMatrixConfig = DepMatrixConfig()) -> np.ndarray:
    """Branch agreement: (head match + tail match) scaled by the relation factor.

    Entry (i, j) compares the branch ending at token i of sentence a with
    the branch ending at token j of sentence b, so every entry lies in
    {0, 1, 2, theta, 2*theta}. The three equality tests are broadcast
    comparisons of the integer codes from `_encode`; this is the same
    arithmetic as summing `word_match` terms and multiplying by
    `rel_match` cell by cell.
    """
    codes_a, codes_b = _encode(a, b)
    tail_eq = np.array(codes_a.tail)[:, None] == np.array(codes_b.tail)
    head_eq = np.array(codes_a.head)[:, None] == np.array(codes_b.head)
    # root branches carry no governing word: they match each other only
    # through their tails, never through the sentinel
    root_a, root_b = codes_a.parent.index(-1), codes_b.parent.index(-1)
    head_eq[root_a, root_b] = tail_eq[root_a, root_b]
    factor = np.where(np.array(codes_a.rel)[:, None] == np.array(codes_b.rel), config.theta, 1.0)
    return (head_eq + tail_eq.astype(np.float64)) * factor


def subgraph_matrix(a: DepSentence, b: DepSentence, config: DepMatrixConfig = DepMatrixConfig()) -> np.ndarray:
    """Recursive subtree agreement between the two dependency trees.

    A cell (i, j) is nonzero only when the two tail words match
    (case-insensitive) and their incoming relation labels are equal. A
    matching pair earns the fixed score alpha plus nu times the summed
    scores of all pairs of their children, recursively.

    Only matching pairs are visited: sentence a's nodes deepest-first, and
    for each one the b nodes with the same (form, relation) code, so every
    child pair is scored before its parents. The child sum is a plain
    sequential sum over the matching child pairs in (a child ascending,
    b child ascending) order. Unmatched child pairs would only add +0.0,
    so the result is bitwise equal to summing over all child pairs; a
    matrix product over whole depth levels would reorder the additions
    and change the last bits.
    """
    codes_a, codes_b = _encode(a, b)
    key_a = list(zip(codes_a.tail, codes_a.rel))
    key_b = list(zip(codes_b.tail, codes_b.rel))
    nodes_b: dict[tuple[int, int], list[int]] = {}
    for j, key in enumerate(key_b):
        nodes_b.setdefault(key, []).append(j)
    # each b node's children grouped by code, ascending within a group
    kids_b: list[dict[tuple[int, int], list[int]]] = [{} for _ in key_b]
    for y, parent in enumerate(codes_b.parent):
        if parent >= 0:
            kids_b[parent].setdefault(key_b[y], []).append(y)
    kids_a = _children(codes_a.parent)

    alpha, nu = config.alpha, config.nu
    scores: list[dict[int, float]] = [{} for _ in key_a]  # scores[i][j], matching pairs only
    for i in _deepest_first(kids_a, codes_a.parent.index(-1)):
        kids = [(scores[x], key_a[x]) for x in kids_a[i]]
        row = scores[i]
        for j in nodes_b.get(key_a[i], ()):
            kids_j = kids_b[j]
            child_sum = 0.0
            for kid_scores, kid_key in kids:
                for y in kids_j.get(kid_key, ()):
                    child_sum += kid_scores[y]
            row[j] = alpha + nu * child_sum

    out = np.zeros((a.n, b.n), dtype=np.float64)
    for i, row in enumerate(scores):
        if row:
            out[i, list(row)] = list(row.values())
    return out


class _Codes(NamedTuple):
    """One sentence as integer codes, one entry per token in token order."""

    tail: list[int]    # id of the lowercased form
    head: list[int]    # id of the head token's lowercased form; ROOT_FORM's id for the root
    rel: list[int]     # id of the relation label
    parent: list[int]  # 0-based position of the head token, -1 for the root


def _encode(a: DepSentence, b: DepSentence) -> tuple[_Codes, _Codes]:
    """Code both sentences against one shared form table and one relation table.

    Two tokens get the same form id exactly when `word_match` says their
    forms match. The root's head slot holds the id of the lowercased
    ROOT_FORM sentinel, as in `DepSentence.trigrams`, so a token whose
    form is literally "<ROOT>" still matches it as it would there.
    """
    root = 0
    forms: dict[str, int] = {ROOT_FORM.lower(): root}
    rels: dict[str, int] = {}

    def encode(s: DepSentence) -> _Codes:
        tail = [forms.setdefault(tok.form.lower(), len(forms)) for tok in s.tokens]
        return _Codes(
            tail=tail,
            head=[tail[tok.head - 1] if tok.head else root for tok in s.tokens],
            rel=[rels.setdefault(tok.deprel, len(rels)) for tok in s.tokens],
            parent=[tok.head - 1 for tok in s.tokens],
        )

    return encode(a), encode(b)


def _children(parent: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parent]
    for node, p in enumerate(parent):
        if p >= 0:
            kids[p].append(node)
    return kids


def _deepest_first(kids: list[list[int]], root: int) -> list[int]:
    """Breadth-first order from the root, reversed: deepest nodes first, each after its children."""
    order = [root]
    for node in order:  # grows while it is walked
        order.extend(kids[node])
    return order[::-1]


def final_matrix(
    a: DepSentence,
    b: DepSentence,
    tfidf: TfIdfModel,
    config: DepMatrixConfig = DepMatrixConfig(),
) -> np.ndarray:
    """Combined agreement, reweighted by the tail tokens' tf-idf scores."""
    return combine_matrices(
        base_matrix(a, b, config), subgraph_matrix(a, b, config), tfidf.weights(a), tfidf.weights(b)
    )


def combine_matrices(m: np.ndarray, s: np.ndarray, w_a: np.ndarray, w_b: np.ndarray) -> np.ndarray:
    """MF = |M + S| * outer(w_a, w_b), from already computed M and S and per-token weights."""
    return np.abs(m + s) * np.outer(w_a, w_b)


def embed_calibration(mf: np.ndarray, layout: PairLayout) -> np.ndarray:
    """Place the pair matrix, shifted by +1, into the packed d_seq layout.

    Cross-sentence cells get mf + 1 (both orientations, so the result is
    symmetric); every other cell is the neutral 1.0, which leaves the
    corresponding attention logits untouched.
    """
    mf = np.asarray(mf, dtype=np.float64)
    n, m = mf.shape
    if len(layout.a_span) != n or len(layout.b_span) != m:
        raise ValueError(
            f"layout spans ({len(layout.a_span)}, {len(layout.b_span)}) do not fit matrix {mf.shape}"
        )
    c = np.ones((layout.d_seq, layout.d_seq), dtype=np.float64)
    a_idx, b_idx = list(layout.a_span), list(layout.b_span)
    c[np.ix_(a_idx, b_idx)] = mf + 1.0
    c[np.ix_(b_idx, a_idx)] = mf.T + 1.0
    return c

"""Shared test helpers: sentence builders, random trees, packed layouts of any length, the
per-cell scoring oracles, the per-head attention loop, all-zero fusion parameters, the
per-element heatmap CSV writer and the heatmap CSV reader."""

import csv
from dataclasses import dataclass

import numpy as np

from dafa.attention import dep_attention, sem_attention
from dafa.conllu import ROOT_FORM, DepSentence, Token
from dafa.fusion import FusionParams
from dafa.pipeline import CLS_TOKEN, SEP_TOKEN, PairLayout


def make_sentence(specs):
    """Build a DepSentence from (form, head, deprel) triples in token order."""
    tokens = tuple(
        Token(index=i, form=form, head=head, deprel=deprel)
        for i, (form, head, deprel) in enumerate(specs, start=1)
    )
    return DepSentence(tokens)


def conllu_block(specs):
    """Render (form, head, deprel) triples as a 10-column CoNLL-U block."""
    lines = [
        f"{i}\t{form}\t_\t_\t_\t_\t{head}\t{deprel}\t_\t_"
        for i, (form, head, deprel) in enumerate(specs, start=1)
    ]
    return "\n".join(lines) + "\n"


def packed_layout(n, m):
    """The layout `build_layout` gives an n-token and an m-token sentence, for any n, m >= 0;
    a sentence has at least one token, so n = 0 or m = 0 has no DepSentence."""
    return PairLayout(tokens=(CLS_TOKEN, *["a"] * n, SEP_TOKEN, *["b"] * m, SEP_TOKEN), n=n)


DEFAULT_LABELS = ("nsubj", "obj", "det", "amod", "advmod", "nmod")


def random_sentence(rng, n, vocab, labels=DEFAULT_LABELS):
    """Random rooted tree: each token attaches to an earlier node in a random order."""
    order = rng.permutation(n) + 1
    heads = {int(order[0]): 0}
    for pos in range(1, n):
        heads[int(order[pos])] = int(order[int(rng.integers(0, pos))])
    specs = []
    for i in range(1, n + 1):
        form = vocab[int(rng.integers(0, len(vocab)))]
        deprel = "root" if heads[i] == 0 else labels[int(rng.integers(0, len(labels)))]
        specs.append((form, heads[i], deprel))
    return make_sentence(specs)


def random_pair(rng, max_n=8, vocab=("alpha", "beta", "gamma", "delta", "epsilon")):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_n + 1))
    return random_sentence(rng, n, vocab), random_sentence(rng, m, vocab)


_GEN_LABELS = ("nsubj", "obj", "det", "amod", "advmod", "nmod", "case", "obl", "conj", "cc")
_LABEL_P = 1.0 / np.arange(1, len(_GEN_LABELS) + 1)  # skewed like a treebank
_LABEL_P /= _LABEL_P.sum()
_FORM_P = 1.0 / np.arange(1, 2001) ** 1.1  # Zipf over 2,000 forms
_FORM_P /= _FORM_P.sum()


def aligned_pair(rng, n, edits):
    """A random n-token tree a, a paraphrase b of it, and the ground-truth alignment.

    b copies a, redraws 15% of its forms and 10% of its relations, then deletes up to `edits`
    leaves and inserts up to `edits` new leaves, as the benchmark's generator derives its
    pairs. alignment[i] is the 0-based position in b of a-token i's copy, None if deleted.
    """
    def form():
        word = f"w{rng.choice(len(_FORM_P), p=_FORM_P):04d}"
        return word.capitalize() if rng.random() < 0.1 else word

    def rel():
        return _GEN_LABELS[rng.choice(len(_GEN_LABELS), p=_LABEL_P)]

    order = [int(x) for x in rng.permutation(n)]
    head = {order[0]: None} | {order[k]: order[int(rng.integers(k))] for k in range(1, n)}
    a = [{"id": i, "form": form(), "head": head[i], "rel": "root" if head[i] is None else rel()}
         for i in range(n)]
    b = [dict(node) for node in a]
    for node in b:
        node["form"] = form() if rng.random() < 0.15 else node["form"]
        node["rel"] = rel() if node["head"] is not None and rng.random() < 0.1 else node["rel"]
    for _ in range(int(rng.integers(edits + 1))):
        heads = {node["head"] for node in b}
        leaves = [k for k, node in enumerate(b)
                  if node["head"] is not None and node["id"] not in heads]
        del b[leaves[int(rng.integers(len(leaves)))]]
    for new_id in range(n, n + int(rng.integers(edits + 1))):
        where = int(rng.integers(len(b) + 1))
        parent = b[int(rng.integers(len(b)))]["id"]
        b.insert(where, {"id": new_id, "form": form(), "head": parent, "rel": rel()})

    def sentence(nodes):
        at = {node["id"]: k for k, node in enumerate(nodes, start=1)}
        return make_sentence([(node["form"], at.get(node["head"], 0), node["rel"])
                              for node in nodes])

    at_b = {node["id"]: k for k, node in enumerate(b)}
    return sentence(a), sentence(b), [at_b.get(i) for i in range(n)]


def word_match(a, b):
    """1.0 for case-insensitive form equality, else 0.0."""
    return 1.0 if a.lower() == b.lower() else 0.0


def rel_match(a, b, theta):
    """theta for equal relation labels, else 1.0."""
    return theta if a == b else 1.0


@dataclass(frozen=True)
class Trigram:
    """One dependency branch: governing form, relation label, dependent form."""

    head_form: str
    rel: str
    tail_form: str
    tail_index: int
    head_index: int


def trigrams(sentence):
    """One branch per token, with the token as tail.

    The root token has no governing word; its head slot carries the
    ROOT_FORM sentinel so root branches only match other root branches.
    """
    out = []
    for tok in sentence.tokens:
        head_form = ROOT_FORM if tok.head == 0 else sentence.tokens[tok.head - 1].form
        out.append(Trigram(head_form=head_form, rel=tok.deprel, tail_form=tok.form,
                           tail_index=tok.index, head_index=tok.head))
    return out


def children(sentence, i):
    """Indices of tokens headed by token i, in ascending order."""
    if not 1 <= i <= sentence.n:
        raise IndexError(f"token index {i} outside 1..{sentence.n}")
    return [tok.index for tok in sentence.tokens if tok.head == i]


def naive_subgraph(a, b, config):
    """Direct, memo-free recursion over all node pairs (oracle for `subgraph_matrix`)."""

    def score(i, j):
        ta, tb = a.tokens[i - 1], b.tokens[j - 1]
        if ta.form.lower() != tb.form.lower() or ta.deprel != tb.deprel:
            return 0.0
        total = config.alpha
        for x in children(a, i):
            for y in children(b, j):
                total += config.nu * score(x, y)
        return total

    return np.array([[score(i, j) for j in range(1, b.n + 1)] for i in range(1, a.n + 1)])


def per_head_attention(x, params, calibration):
    """The per-head loop that `multi_head_dafa` stacks (oracle).

    One (sem_weights, sem, dep_weights, dep) tuple per head, each head's
    q, k, v projected on its own.
    """
    heads = []
    for h in range(params.w_q.shape[0]):
        q, k, v = x @ params.w_q[h], x @ params.w_k[h], x @ params.w_v[h]
        heads.append((*sem_attention(q, k, v), *dep_attention(q, k, v, calibration)))
    return heads


def zero_fusion_params(d_seq, d_v, d_hid):
    """FusionParams of the given sizes with every weight 0."""
    shapes = FusionParams.init(d_seq, d_v, d_hid, seed=0).to_dict()
    return FusionParams(**{name: np.zeros_like(v) for name, v in shapes.items()})


def naive_write_heatmap_csv(path, row_labels, col_labels, matrix) -> None:
    """Every field, each value as its repr, through csv.writer (byte-level oracle for
    `write_heatmap_csv`)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["", *col_labels])
        for label, row in zip(row_labels, matrix):
            writer.writerow([label, *[repr(float(x)) for x in row]])


def first_difference(new, old):
    """None if two texts (or byte strings) are equal, else the offset at which they first differ
    and a few characters around it in each; pytest's own diff of texts this long takes minutes."""
    if new == old:
        return None
    at = next((i for i, (x, y) in enumerate(zip(new, old)) if x != y), min(len(new), len(old)))
    return at, new[max(at - 20, 0):at + 20], old[max(at - 20, 0):at + 20]


def read_heatmap_csv(path):
    """Inverse of `write_heatmap_csv`: (row_labels, col_labels, matrix)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty heatmap CSV")
    col_labels = rows[0][1:]
    row_labels = [row[0] for row in rows[1:]]
    matrix = np.array([[float(x) for x in row[1:]] for row in rows[1:]], dtype=np.float64)
    return row_labels, col_labels, matrix

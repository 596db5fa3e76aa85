"""Shared test helpers: sentence builders, random trees and the per-cell scoring oracles."""

from dataclasses import dataclass

import numpy as np

from dafa.conllu import ROOT_FORM, DepSentence, Token


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

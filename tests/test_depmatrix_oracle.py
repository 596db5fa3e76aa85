"""Property tests: the coded M and S scorers against the per-cell loops they replaced.

The oracles below are the earlier loop implementations of `base_matrix` and
`subgraph_matrix`, kept verbatim in arithmetic and summation order, so the
comparison is bitwise (`tobytes()`), not within a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import children, make_sentence, rel_match, trigrams, word_match
from dafa.conllu import ROOT_FORM
from dafa.depmatrix import DepMatrixConfig, base_matrix, subgraph_matrix


def loop_base_matrix(a, b, config):
    tri_a, tri_b = trigrams(a), trigrams(b)
    out = np.zeros((a.n, b.n), dtype=np.float64)
    for i, x in enumerate(tri_a):
        for j, y in enumerate(tri_b):
            if x.head_index == 0 and y.head_index == 0:
                head_score = word_match(x.tail_form, y.tail_form)
            else:
                head_score = word_match(x.head_form, y.head_form)
            node_score = head_score + word_match(x.tail_form, y.tail_form)
            out[i, j] = node_score * rel_match(x.rel, y.rel, config.theta)
    return out


def loop_subgraph_matrix(a, b, config):
    kids_a = [children(a, i) for i in range(1, a.n + 1)]
    kids_b = [children(b, j) for j in range(1, b.n + 1)]
    forms_a = [tok.form.lower() for tok in a.tokens]
    forms_b = [tok.form.lower() for tok in b.tokens]
    order_a = _by_depth_deepest_first(a)
    order_b = _by_depth_deepest_first(b)

    out = np.zeros((a.n, b.n), dtype=np.float64)
    for i in order_a:
        for j in order_b:
            if forms_a[i - 1] != forms_b[j - 1] or a.tokens[i - 1].deprel != b.tokens[j - 1].deprel:
                continue
            total = config.alpha * word_match(a.tokens[i - 1].form, b.tokens[j - 1].form)
            child_sum = 0.0
            for x in kids_a[i - 1]:
                for y in kids_b[j - 1]:
                    child_sum += out[x - 1, y - 1]
            out[i - 1, j - 1] = total + config.nu * child_sum
    return out


def _by_depth_deepest_first(s):
    depth = [0] * (s.n + 1)
    for tok in s.tokens:
        node, d = tok.index, 0
        while node != 0:
            node = s.tokens[node - 1].head
            d += 1
        depth[tok.index] = d
    return sorted(range(1, s.n + 1), key=lambda i: -depth[i])


# case variants of one word, the root sentinel spelled two ways, and a few others
FORMS = ("x", "X", "y", "Y", "z", ROOT_FORM, ROOT_FORM.lower())
LABELS = ("root", "dep", "obj")


@st.composite
def trees(draw, max_n=40):
    """A rooted tree of random, star or chain shape, with optionally one repeated form."""
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(["random", "star", "chain"]))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for pos in range(1, n):
        if shape == "star":
            parent = order[0]
        elif shape == "chain":
            parent = order[pos - 1]
        else:
            parent = order[draw(st.integers(0, pos - 1))]
        heads[order[pos]] = parent
    if draw(st.booleans()):
        forms = [draw(st.sampled_from(FORMS))] * n
    else:
        forms = draw(st.lists(st.sampled_from(FORMS), min_size=n, max_size=n))
    rels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    return make_sentence([(forms[i - 1], heads[i], rels[i - 1]) for i in range(1, n + 1)])


configs = st.builds(
    DepMatrixConfig,
    theta=st.sampled_from([1.0, 2.0]) | st.floats(1e-3, 10.0),
    alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0),
    nu=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999),
)


@settings(max_examples=300, deadline=None)
@given(a=trees(), b=trees(), config=configs)
def test_base_matrix_bitwise_equals_loop(a, b, config):
    assert base_matrix(a, b, config).tobytes() == loop_base_matrix(a, b, config).tobytes()


@settings(max_examples=300, deadline=None)
@given(a=trees(), b=trees(), config=configs)
def test_subgraph_matrix_bitwise_equals_loop(a, b, config):
    assert subgraph_matrix(a, b, config).tobytes() == loop_subgraph_matrix(a, b, config).tobytes()


def test_root_form_token_matches_root_sentinel():
    # a token literally named <ROOT> governs "kid" in a; in b "kid" hangs off
    # the real root, so the branch heads compare <ROOT> with the sentinel
    a = make_sentence([("<ROOT>", 0, "root"), ("kid", 1, "dep")])
    b = make_sentence([("kid", 0, "root")])
    config = DepMatrixConfig(theta=2.0)
    expected = loop_base_matrix(a, b, config)
    assert expected[1, 0] == 2.0
    assert base_matrix(a, b, config).tobytes() == expected.tobytes()

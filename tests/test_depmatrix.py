"""Dependency matrix tests, checked against naive re-implementations and hand arithmetic."""

import math

import numpy as np
import pytest

from conftest import make_sentence, random_pair
from dafa.depmatrix import (
    DepMatrixConfig,
    PairLayout,
    base_matrix,
    embed_calibration,
    final_matrix,
    rel_match,
    subgraph_matrix,
    word_match,
)
from dafa.tfidf import TfIdfModel


def naive_subgraph(a, b, config):
    """Direct, memo-free recursion over all node pairs (oracle)."""

    def score(i, j):
        ta, tb = a.tokens[i - 1], b.tokens[j - 1]
        if ta.form.lower() != tb.form.lower() or ta.deprel != tb.deprel:
            return 0.0
        total = config.alpha * word_match(ta.form, tb.form)
        for x in a.children(i):
            for y in b.children(j):
                total += config.nu * score(x, y)
        return total

    return np.array([[score(i, j) for j in range(1, b.n + 1)] for i in range(1, a.n + 1)])


class TestWordRelMatch:
    def test_case_insensitive_equality(self):
        assert word_match("apple", "Apple") == 1.0

    def test_mismatch(self):
        assert word_match("apple", "company") == 0.0

    def test_empty_strings_equal(self):
        assert word_match("", "") == 1.0

    def test_rel_match_factor(self):
        assert rel_match("nsubj", "nsubj", 2.0) == 2.0

    def test_rel_mismatch(self):
        assert rel_match("nsubj", "obj", 2.0) == 1.0

    def test_theta_one_neutralizes_types(self):
        assert rel_match("root", "root", 1.0) == 1.0


class TestBaseMatrix:
    def test_self_match_diagonal(self):
        s = make_sentence([("Apple", 2, "nsubj"), ("exceeded", 0, "root"), ("goals", 2, "obj")])
        m = base_matrix(s, s, DepMatrixConfig(theta=2.0))
        assert np.all(np.diag(m) == 4.0)

    def test_matching_words_different_relations(self):
        # same head and tail words, nsubj on one side vs obj on the other
        a = make_sentence([("Apple", 2, "nsubj"), ("exceeded", 0, "root")])
        b = make_sentence([("Apple", 2, "obj"), ("exceeded", 0, "root")])
        m = base_matrix(a, b, DepMatrixConfig(theta=2.0))
        assert m[0, 0] == 2.0  # (1 + 1) * 1

    def test_disjoint_vocabulary_is_zero(self):
        a = make_sentence([("one", 2, "nsubj"), ("two", 0, "root")])
        b = make_sentence([("three", 2, "nsubj"), ("four", 0, "root")])
        assert np.all(base_matrix(a, b) == 0.0)

    def test_value_set(self):
        rng = np.random.default_rng(17)
        theta = 2.0
        allowed = {0.0, 1.0, 2.0, theta, 2 * theta}
        for _ in range(50):
            a, b = random_pair(rng, max_n=7)
            m = base_matrix(a, b, DepMatrixConfig(theta=theta))
            assert set(np.unique(m)) <= allowed

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a, b = random_pair(rng, max_n=6)
            cfg = DepMatrixConfig(theta=1.7)
            assert np.array_equal(base_matrix(a, b, cfg), base_matrix(b, a, cfg).T)


class TestSubgraphMatrix:
    def test_matching_leaf_pair(self):
        a = make_sentence([("kid", 2, "nsubj"), ("runs", 0, "root")])
        m = subgraph_matrix(a, a, DepMatrixConfig(alpha=1.0, nu=0.5))
        assert m[0, 0] == 1.0

    def test_identical_chain_hand_recursion(self):
        # root -> a -> b with equal relations: score at the "a" pair is 1 + 0.5 * 1
        chain = make_sentence([("r", 0, "root"), ("a", 1, "dep"), ("b", 2, "dep")])
        m = subgraph_matrix(chain, chain, DepMatrixConfig(alpha=1.0, nu=0.5))
        assert m[1, 1] == pytest.approx(1.5, abs=0.0)
        assert m[2, 2] == 1.0
        assert m[0, 0] == pytest.approx(1.0 + 0.5 * 1.5, abs=0.0)

    def test_differing_relation_gates_to_zero(self):
        a = make_sentence([("kid", 2, "nsubj"), ("runs", 0, "root")])
        b = make_sentence([("kid", 2, "obj"), ("runs", 0, "root")])
        m = subgraph_matrix(a, b)
        assert m[0, 0] == 0.0

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            a, b = random_pair(rng, max_n=8, vocab=("x", "y", "z"))
            cfg = DepMatrixConfig(
                alpha=float(rng.choice([0.5, 1.0])), nu=float(rng.choice([0.0, 0.3, 0.5]))
            )
            assert np.array_equal(subgraph_matrix(a, b, cfg), naive_subgraph(a, b, cfg))

    def test_monotone_in_alpha_and_nu(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = random_pair(rng, max_n=6, vocab=("x", "y"))
            low = subgraph_matrix(a, b, DepMatrixConfig(alpha=0.5, nu=0.2))
            more_alpha = subgraph_matrix(a, b, DepMatrixConfig(alpha=1.0, nu=0.2))
            more_nu = subgraph_matrix(a, b, DepMatrixConfig(alpha=0.5, nu=0.6))
            assert np.all(more_alpha >= low)
            assert np.all(more_nu >= low)
            assert np.all(np.isfinite(more_nu))

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            a, b = random_pair(rng, max_n=6, vocab=("x", "y"))
            assert np.array_equal(subgraph_matrix(a, b), subgraph_matrix(b, a).T)


class ZeroWeights:
    def weights(self, sentence):
        return np.zeros(sentence.n)


class TestFinalMatrix:
    def test_zero_tf_weights_annihilate(self):
        a = make_sentence([("kid", 2, "nsubj"), ("runs", 0, "root")])
        mf = final_matrix(a, a, ZeroWeights())
        assert np.all(mf == 0.0)

    def test_zero_agreement_stays_zero(self):
        a = make_sentence([("one", 2, "nsubj"), ("two", 0, "root")])
        b = make_sentence([("three", 2, "obj"), ("four", 0, "root")])
        model = TfIdfModel(doc_count=3, df={"one": 1, "two": 2, "three": 1, "four": 3})
        mf = final_matrix(a, b, model)
        # heads/tails/relations all disagree except nothing: every cell 0
        assert np.all(mf == 0.0)

    def test_two_token_toy_against_hand_arithmetic(self):
        # A: "Apple rose", B: "Markets rose", df table set by hand (N = 3)
        a = make_sentence([("Apple", 2, "nsubj"), ("rose", 0, "root")])
        b = make_sentence([("Markets", 2, "nsubj"), ("rose", 0, "root")])
        model = TfIdfModel(doc_count=3, df={"apple": 3, "rose": 1, "markets": 2})
        mf = final_matrix(a, b, model, DepMatrixConfig(theta=2.0, alpha=1.0, nu=0.5))

        # weights: tf = count/2; idf = ln(4/(1+df)) + 1
        w_apple = 0.5 * (math.log(4 / 4) + 1.0)
        w_markets = 0.5 * (math.log(4 / 3) + 1.0)
        w_rose = 0.5 * (math.log(4 / 2) + 1.0)
        # branch scores: (Apple,Markets): heads match, tails differ, rels match -> 1*2
        # (rose,rose): root pair, tails match twice over, rels match -> 2*2
        # subtree: only (rose,rose) gates on; its child pair (Apple,Markets)
        # fails the gate, so the score is alpha alone -> 1
        expected = np.array([
            [2.0 * w_apple * w_markets, 0.0],
            [0.0, (4.0 + 1.0) * w_rose * w_rose],
        ])
        assert np.allclose(mf, expected, atol=1e-15)

    def test_transpose_symmetry_with_swapped_weights(self):
        rng = np.random.default_rng(41)
        vocab = ("x", "y", "z")
        for _ in range(15):
            a, b = random_pair(rng, max_n=5, vocab=vocab)
            model = TfIdfModel.fit([a, b])
            assert np.allclose(final_matrix(a, b, model), final_matrix(b, a, model).T, atol=1e-15)


class TestEmbedCalibration:
    def layout(self, n, m):
        return PairLayout(d_seq=n + m + 3, a_span=range(1, n + 1), b_span=range(n + 2, n + m + 2))

    def test_zero_matrix_gives_all_ones(self):
        c = embed_calibration(np.zeros((2, 3)), self.layout(2, 3))
        assert np.all(c == 1.0)

    def test_single_cell_placement(self):
        layout = PairLayout(d_seq=4, a_span=range(1, 2), b_span=range(2, 3))
        c = embed_calibration(np.array([[3.0]]), layout)
        assert c[1, 2] == 4.0 and c[2, 1] == 4.0
        mask = np.ones((4, 4), dtype=bool)
        mask[1, 2] = mask[2, 1] = False
        assert np.all(c[mask] == 1.0)

    def test_cross_blocks_recover_matrix(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            mf = rng.uniform(0, 5, (n, m))
            layout = self.layout(n, m)
            c = embed_calibration(mf, layout)
            a_idx, b_idx = list(layout.a_span), list(layout.b_span)
            assert np.allclose(c[np.ix_(a_idx, b_idx)] - 1.0, mf, atol=0.0)
            assert np.allclose(c[np.ix_(b_idx, a_idx)] - 1.0, mf.T, atol=0.0)
            off = np.ones((layout.d_seq, layout.d_seq), dtype=bool)
            off[np.ix_(a_idx, b_idx)] = False
            off[np.ix_(b_idx, a_idx)] = False
            assert np.all(c[off] == 1.0)

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(47)
        mf = rng.uniform(0, 2, (3, 4))
        c = embed_calibration(mf, self.layout(3, 4))
        assert np.array_equal(c, c.T)

    def test_at_least_one_everywhere(self):
        rng = np.random.default_rng(53)
        mf = rng.uniform(0, 9, (4, 2))
        c = embed_calibration(mf, self.layout(4, 2))
        assert np.all(c >= 1.0)

    def test_span_size_mismatch(self):
        with pytest.raises(ValueError, match="spans"):
            embed_calibration(np.zeros((2, 2)), self.layout(2, 3))


class TestConfigs:
    def test_theta_must_be_positive(self):
        with pytest.raises(ValueError):
            DepMatrixConfig(theta=0.0)

    def test_nu_below_one(self):
        with pytest.raises(ValueError):
            DepMatrixConfig(nu=1.0)

    def test_alpha_nonnegative(self):
        with pytest.raises(ValueError):
            DepMatrixConfig(alpha=-0.1)

    @pytest.mark.parametrize("name", ["theta", "alpha", "nu"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constants_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DepMatrixConfig(**{name: value})

    def test_overlapping_spans_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            PairLayout(d_seq=5, a_span=range(1, 3), b_span=range(2, 4))

    def test_span_outside_sequence_rejected(self):
        with pytest.raises(ValueError):
            PairLayout(d_seq=3, a_span=range(1, 5), b_span=range(5, 6))

"""Dependency matrix tests, checked against naive re-implementations and hand arithmetic."""

import importlib
import inspect
import math
import pkgutil
import sys
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dafa
from conftest import (
    make_sentence,
    naive_subgraph,
    packed_layout,
    random_pair,
    rel_match,
    word_match,
)
from dafa.depmatrix import (
    DepMatrixConfig,
    _combine_matrices,
    base_matrix,
    embed_calibration,
    final_matrix,
    subgraph_matrix,
)
from dafa.tfidf import TfIdfModel


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


def naive_embed_calibration(mf):
    """Fancy-indexed placement of both cross blocks at the packed offsets 1 and n + 2: the
    oracle for the sliced version."""
    n, m = mf.shape
    c = np.ones((n + m + 3, n + m + 3), dtype=np.float64)
    a_idx, b_idx = list(range(1, n + 1)), list(range(n + 2, n + m + 2))
    c[np.ix_(a_idx, b_idx)] = mf + 1.0
    c[np.ix_(b_idx, a_idx)] = mf.T + 1.0
    return c


class TestEmbedCalibration:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 12), m=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_fancy_indexing_oracle(self, n, m, seed):
        mf = np.random.default_rng(seed).uniform(0, 9, (n, m))
        expected = naive_embed_calibration(mf)
        assert embed_calibration(mf, packed_layout(n, m)).tobytes() == expected.tobytes()

    def test_zero_matrix_gives_all_ones(self):
        c = embed_calibration(np.zeros((2, 3)), packed_layout(2, 3))
        assert np.all(c == 1.0)

    def test_single_cell_placement(self):
        c = embed_calibration(np.array([[3.0]]), packed_layout(1, 1))
        assert c[1, 3] == 4.0 and c[3, 1] == 4.0
        mask = np.ones((5, 5), dtype=bool)
        mask[1, 3] = mask[3, 1] = False
        assert np.all(c[mask] == 1.0)

    def test_cross_blocks_recover_matrix(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            mf = rng.uniform(0, 5, (n, m))
            layout = packed_layout(n, m)
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
        c = embed_calibration(mf, packed_layout(3, 4))
        assert np.array_equal(c, c.T)

    def test_at_least_one_everywhere(self):
        rng = np.random.default_rng(53)
        mf = rng.uniform(0, 9, (4, 2))
        c = embed_calibration(mf, packed_layout(4, 2))
        assert np.all(c >= 1.0)

    def test_span_size_mismatch(self):
        # a matrix of the wrong shape or of another number of axes
        for mf in (np.zeros((2, 2)), np.zeros(6), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match="spans"):
                embed_calibration(mf, packed_layout(2, 3))


def test_every_annotation_in_dafa_resolves():
    # get_type_hints evaluates each annotation, so a name its module never imports fails here
    for info in pkgutil.iter_modules(dafa.__path__):
        module = importlib.import_module(f"dafa.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                typing.get_type_hints(obj)
            elif inspect.isclass(obj):
                typing.get_type_hints(obj)
                for attr in vars(obj).values():
                    func = getattr(attr, "__func__", getattr(attr, "fget", attr))
                    if inspect.isfunction(func):
                        typing.get_type_hints(func)


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

    def test_theta_bounded_so_m_stays_finite(self):
        # 2 * theta is the largest entry of M
        largest = sys.float_info.max / 2
        assert np.max(base_matrix(STAR, STAR, DepMatrixConfig(theta=largest))) == 2 * largest
        with pytest.raises(ValueError, match=r"> 0 with 2 \* theta finite, got 1e\+308"):
            DepMatrixConfig(theta=1e308)


# a root with three same-form dependents: every dependent pair matches, so S grows with alpha
STAR = make_sentence([("root", 0, "root"), ("x", 1, "dep"), ("x", 1, "dep"), ("x", 1, "dep")])


class TestNonFiniteMF:
    def test_overflowing_subtree_scores_raise(self):
        # S overflows to inf in Python floats; numpy would turn inf * weight into inf or NaN
        config = DepMatrixConfig(alpha=1e308)
        assert np.isinf(subgraph_matrix(STAR, STAR, config)[0, 0])
        with pytest.raises(ValueError, match="MF is not finite"):
            final_matrix(STAR, STAR, TfIdfModel.fit([STAR]), config)

    @pytest.mark.parametrize("s, w", [(1e308, 1.0), (1.0, 1e308), (math.inf, 0.0)])
    def test_sum_or_weighting_overflow_raises_without_warning(self, s, w):
        # warnings are errors in this suite, so a numpy overflow warning would fail here too
        m = np.full((1, 1), 1e308)
        with pytest.raises(ValueError, match="MF is not finite"):
            _combine_matrices(m, np.full((1, 1), s), np.array([w]), np.array([1.0]))

"""Attention tests against naive loop evaluations and exact-neutrality checks."""

import math

import numpy as np
import pytest

from dafa.attention import (
    AttnConfig,
    AttnParams,
    dep_attention,
    multi_head_dafa,
    sem_attention,
)
from dafa.nnops import softmax


def naive_attention(q, k, v, calibration=None):
    """Independent per-row evaluation with scalar math (oracle)."""
    n_q, d_k = q.shape
    n_k = k.shape[0]
    weights = np.zeros((n_q, n_k))
    for i in range(n_q):
        logits = []
        for j in range(n_k):
            raw = sum(q[i, t] * k[j, t] for t in range(d_k))
            if calibration is not None:
                raw *= calibration[i, j]
            logits.append(raw / math.sqrt(d_k))
        peak = max(logits)
        exps = [math.exp(z - peak) for z in logits]
        total = sum(exps)
        weights[i] = [e / total for e in exps]
    out = np.zeros((n_q, v.shape[1]))
    for i in range(n_q):
        for c in range(v.shape[1]):
            out[i, c] = sum(weights[i, j] * v[j, c] for j in range(n_k))
    return weights, out


class TestSemAttention:
    def test_single_position(self):
        q = np.array([[0.3, -0.7]])
        k = np.array([[1.0, 2.0]])
        v = np.array([[5.0, -1.0, 2.0]])
        w, out = sem_attention(q, k, v)
        assert np.array_equal(w, [[1.0]])
        assert np.allclose(out, v, atol=0.0)

    def test_identical_keys_give_uniform_weights(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(4, 3))
        k = np.tile(rng.normal(size=(1, 3)), (5, 1))
        v = rng.normal(size=(5, 2))
        w, _ = sem_attention(q, k, v)
        assert np.allclose(w, 1.0 / 5.0, atol=1e-15)

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(1)
        q, k = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        v = rng.normal(size=(3, 2))
        w, out = sem_attention(q, k, v)
        nw, nout = naive_attention(q, k, v)
        assert np.allclose(w, nw, atol=1e-12)
        assert np.allclose(out, nout, atol=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            w, _ = sem_attention(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)),
                                 rng.normal(size=(n, 2)))
            assert np.all(w >= 0)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sem_attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            sem_attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((2, 2)))


class TestDepAttention:
    def test_neutral_calibration_is_bitwise_identical(self):
        rng = np.random.default_rng(3)
        q, k = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 4))
        ones = np.ones((5, 5))
        sw, sout = sem_attention(q, k, v)
        dw, dout = dep_attention(q, k, v, ones)
        assert np.array_equal(sw, dw)
        assert np.array_equal(sout, dout)

    def test_raised_cell_gains_weight(self):
        # one positive logit in row 0 calibrated up; its weight must strictly rise
        q = np.array([[1.0], [0.5]])
        k = np.array([[1.0], [-0.4]])
        v = np.eye(2)
        c = np.ones((2, 2))
        c[0, 0] = 2.5
        sw, _ = sem_attention(q, k, v)
        dw, _ = dep_attention(q, k, v, c)
        assert dw[0, 0] > sw[0, 0]
        assert np.array_equal(dw[1], sw[1])

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(4)
        q, k = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 2))
        c = 1.0 + rng.uniform(0, 2, (4, 4))
        w, out = dep_attention(q, k, v, c)
        nw, nout = naive_attention(q, k, v, c)
        assert np.allclose(w, nw, atol=1e-12)
        assert np.allclose(out, nout, atol=1e-12)

    def test_calibration_shape_checked(self):
        with pytest.raises(ValueError, match="calibration"):
            dep_attention(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.ones((3, 3)))


class TestLeadingAxes:
    """Stacks (B, rows, features) give, slice by slice, the bits of the 2-D calls."""

    @pytest.mark.parametrize("n_q, n_k, d_k, d_v", [(1, 1, 1, 1), (3, 5, 2, 4), (6, 6, 8, 1)])
    def test_stack_equals_slices(self, n_q, n_k, d_k, d_v):
        rng = np.random.default_rng(10 * n_q + n_k)
        b = 5
        q, k = rng.normal(size=(b, n_q, d_k)), rng.normal(size=(b, n_k, d_k))
        v = rng.normal(size=(b, n_k, d_v))
        c = 1.0 + rng.uniform(0, 1, (b, n_q, n_k))
        sem = sem_attention(q, k, v)
        dep = dep_attention(q, k, v, c)
        shared_c = dep_attention(q, k, v, c[0])
        for i in range(b):
            for stacked, single in ((sem, sem_attention(q[i], k[i], v[i])),
                                    (dep, dep_attention(q[i], k[i], v[i], c[i])),
                                    (shared_c, dep_attention(q[i], k[i], v[i], c[0]))):
                assert stacked[0][i].tobytes() == single[0].tobytes()
                assert stacked[1][i].tobytes() == single[1].tobytes()

    def test_shared_operands_broadcast(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(2, 3, 4, 3))
        k, v = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        c = 1.0 + rng.uniform(0, 1, (3, 4, 5))
        weights, out = dep_attention(q, k, v, c)
        assert weights.shape == (2, 3, 4, 5) and out.shape == (2, 3, 4, 2)
        for i, j in np.ndindex(2, 3):
            single = dep_attention(q[i, j], k, v, c[j])
            assert weights[i, j].tobytes() == single[0].tobytes()
            assert out[i, j].tobytes() == single[1].tobytes()

    def test_shape_messages_name_the_last_axes(self):
        q = np.zeros((2, 4, 3))
        with pytest.raises(ValueError, match=r"feature sizes \(last axis\) differ: 3 vs 5"):
            sem_attention(q, np.zeros((2, 4, 5)), np.zeros((2, 4, 2)))
        with pytest.raises(ValueError, match=r"row counts \(second-to-last axis\) differ: 4 vs 6"):
            sem_attention(q, np.zeros((2, 4, 3)), np.zeros((2, 6, 2)))
        with pytest.raises(ValueError, match=r"shape \(2, 4, 4\) does not end in .* \(4, 6\)"):
            dep_attention(q, np.zeros((2, 6, 3)), np.zeros((2, 6, 2)), np.ones((2, 4, 4)))
        with pytest.raises(ValueError, match="at least 2 axes"):
            sem_attention(np.zeros(3), np.zeros((1, 3)), np.zeros((1, 2)))


class TestSoftmaxProperties:
    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=(1, 8))
        assert np.allclose(softmax(row), softmax(row + 123.0), atol=1e-12)

    def test_key_permutation_invariance(self):
        rng = np.random.default_rng(6)
        q, k = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        v = rng.normal(size=(5, 2))
        c = 1.0 + rng.uniform(0, 1, (5, 5))
        perm = rng.permutation(5)
        sw, sout = sem_attention(q, k, v)
        dw, dout = dep_attention(q, k, v, c)
        sw_p, sout_p = sem_attention(q, k[perm], v[perm])
        dw_p, dout_p = dep_attention(q, k[perm], v[perm], c[:, perm])
        assert np.allclose(sout_p, sout, atol=1e-12)
        assert np.allclose(dout_p, dout, atol=1e-12)
        assert np.allclose(sw_p, sw[:, perm], atol=1e-12)
        assert np.allclose(dw_p, dw[:, perm], atol=1e-12)


class TestMultiHead:
    def config(self, heads, d_seq=4):
        return AttnConfig(d_model=6, heads=heads, d_k=3, d_v=2, d_seq=d_seq)

    def test_single_head_equals_direct_ops(self):
        cfg = self.config(heads=1)
        params = AttnParams.init(cfg, seed=9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 6))
        c = 1.0 + rng.uniform(0, 1, (4, 4))
        [sig] = multi_head_dafa(x, params, c)
        q, k, v = x @ params.w_q[0], x @ params.w_k[0], x @ params.w_v[0]
        sw, sem = sem_attention(q, k, v)
        dw, dep = dep_attention(q, k, v, c)
        assert np.array_equal(sig.sem, sem)
        assert np.array_equal(sig.dep, dep)
        assert np.array_equal(sig.sem_weights, sw)
        assert np.array_equal(sig.dep_weights, dw)

    def test_identical_heads_produce_identical_signals(self):
        cfg = self.config(heads=2)
        single = AttnParams.init(self.config(heads=1), seed=11)
        params = AttnParams(
            w_q=np.repeat(single.w_q, 2, axis=0),
            w_k=np.repeat(single.w_k, 2, axis=0),
            w_v=np.repeat(single.w_v, 2, axis=0),
            w_o=np.zeros((2 * cfg.d_v, cfg.d_model)),
        )
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 6))
        c = 1.0 + rng.uniform(0, 1, (4, 4))
        first, second = multi_head_dafa(x, params, c)
        assert np.array_equal(first.sem, second.sem)
        assert np.array_equal(first.dep, second.dep)

    def test_heads_match_naive_per_head(self):
        cfg = self.config(heads=2)
        params = AttnParams.init(cfg, seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 6))
        c = 1.0 + rng.uniform(0, 1, (4, 4))
        signals = multi_head_dafa(x, params, c)
        per_head_dep = []
        for h in range(2):
            q, k, v = x @ params.w_q[h], x @ params.w_k[h], x @ params.w_v[h]
            _, dep = naive_attention(q, k, v, c)
            per_head_dep.append(dep)
        stacked = np.concatenate([sig.dep for sig in signals], axis=1)
        assert np.allclose(stacked, np.concatenate(per_head_dep, axis=1), atol=1e-12)

    def test_input_shape_checked(self):
        cfg = self.config(heads=1)
        params = AttnParams.init(cfg, seed=15)
        with pytest.raises(ValueError):
            multi_head_dafa(np.zeros((4, 5)), params, np.ones((4, 4)))

    def test_params_shape_validation(self):
        cfg = self.config(heads=2)
        params = AttnParams.init(cfg, seed=16)
        params.check_config(cfg)
        with pytest.raises(ValueError):
            params.check_config(self.config(heads=1))

    def test_init_deterministic(self):
        cfg = self.config(heads=2)
        first = AttnParams.init(cfg, seed=21)
        second = AttnParams.init(cfg, seed=21)
        assert np.array_equal(first.w_q, second.w_q)
        assert np.array_equal(first.w_o, second.w_o)

    def test_signals_are_weights_times_values(self):
        cfg = self.config(heads=2)
        params = AttnParams.init(cfg, seed=22)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 6))
        c = 1.0 + rng.uniform(0, 1, (4, 4))
        for h, sig in enumerate(multi_head_dafa(x, params, c)):
            v = x @ params.w_v[h]
            assert np.array_equal(sig.sem, sig.sem_weights @ v)
            assert np.array_equal(sig.dep, sig.dep_weights @ v)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttnConfig(d_model=0, heads=1, d_k=1, d_v=1, d_seq=1)

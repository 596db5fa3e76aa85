"""Attention tests against naive loop evaluations and exact-neutrality checks."""

import math
import re
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import per_head_attention
from dafa import attention
from dafa.attention import (
    TWO_LANE_MIN_LEN,
    AttnConfig,
    AttnParams,
    dep_attention,
    multi_head_dafa,
    sem_attention,
)
from dafa.nnops import softmax_backward, softmax_in_place


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


def three_allocation_attention(q, k, v, calibration=None):
    """The forward as a chain of fresh arrays: softmax(((q @ k^T) * C) / sqrt(d_k)) @ v."""
    raw = q @ k.swapaxes(-1, -2)
    if calibration is not None:
        raw = raw * calibration
    shifted = raw / math.sqrt(q.shape[-1])
    shifted = shifted - np.max(shifted, axis=-1, keepdims=True)
    weights = np.exp(shifted) / np.sum(np.exp(shifted), axis=-1, keepdims=True)
    return weights, weights @ v


class TestInPlaceSteps:
    """The logits are scaled and softmaxed over the array `q @ k^T` returns: the ops write no
    argument, and their bits are those of the formula's chain of fresh arrays."""

    @pytest.mark.parametrize("qk_lead, c_lead", [
        ((), ()),            # 2-D: the multiply runs in place
        ((3,), (3,)),        # stacked calibration as wide as the logits: in place
        ((3,), ()),          # a 2-D calibration shared by every slice: in place
        ((2, 3), (3,)),      # a stack shared along the logits' outer axis: in place
        ((3,), (1,)),        # a length-1 calibration axis against a wider one: in place
    ])
    def test_arguments_unchanged_and_bits_of_the_formula(self, qk_lead, c_lead):
        rng = np.random.default_rng(17)
        q, k = rng.normal(size=(*qk_lead, 4, 3)), rng.normal(size=(*qk_lead, 6, 3))
        v = rng.normal(size=(*qk_lead, 6, 2))
        c = 1.0 + rng.uniform(0, 2, (*c_lead, 4, 6))
        before = [x.copy() for x in (q, k, v, c)]
        for got, expected in ((sem_attention(q, k, v), three_allocation_attention(q, k, v)),
                              (dep_attention(q, k, v, c),
                               three_allocation_attention(q, k, v, c))):
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()
        for x, copy in zip((q, k, v, c), before):
            assert x.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("qk_lead, c_lead", [((), (3,)), ((1,), (3,)), ((3,), (2, 3))])
    def test_calibration_that_widens_the_logits_rejected(self, qk_lead, c_lead):
        # the multiply runs in place on the logits, so a calibration stack wider than them
        # has no array to land in
        q, k, v = np.ones((*qk_lead, 4, 3)), np.ones((*qk_lead, 6, 3)), np.ones((*qk_lead, 6, 2))
        with pytest.raises(ValueError, match=rf"calibration shape {re.escape(str((*c_lead, 4, 6)))}"
                                             " widens the logits'"):
            dep_attention(q, k, v, np.ones((*c_lead, 4, 6)))


def formula_softmax(x):
    """The softmax with `np.max` and `np.sum` reductions, on a copy of `x` in its layout
    (reference)."""
    x = x.copy(order="K")
    x -= np.max(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=-1, keepdims=True)
    return x


def formula_softmax_backward(weights, g_weights):
    """The softmax backward with an `np.sum` reduction (reference)."""
    return weights * (g_weights - np.sum(g_weights * weights, axis=-1, keepdims=True))


@st.composite
def logit_stacks(draw):
    """Logits and an upstream gradient of one shape, with up to two leading axes."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=6))
    x = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e300, 1e300)))
    g = draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e150, 1e150)))
    return x, g


SIGNED_ZEROS = (np.array([[[-0.0, 0.0, -0.0]], [[0.0, -0.0, -0.0]]]),
                np.array([[[-0.0, 1.0, 0.0]], [[-0.0, -0.0, 2.0]]]))
HUGE_ROWS = (np.array([[[1e300, -1e300, 5e299], [-1e300, -1e300, -1e300]]]),
             np.array([[[1e150, -1e150, -0.0], [3e149, 0.0, -1e150]]]))


class TestSoftmaxProperties:
    @settings(max_examples=200, deadline=None)
    @given(stack=logit_stacks(), strided=st.booleans())
    @example(stack=SIGNED_ZEROS, strided=False)
    @example(stack=HUGE_ROWS, strided=True)
    def test_ufunc_method_reductions_keep_the_formula_bits(self, stack, strided):
        # softmax_in_place and softmax_backward reduce through the arrays' own methods; each
        # result has the bits of the np.max / np.sum form, on C-ordered and strided stacks
        x, g = stack
        if strided:
            x, g = (np.ascontiguousarray(a.swapaxes(0, -2)).swapaxes(0, -2) for a in (x, g))
        expected = formula_softmax(x)
        assert softmax_in_place(x).tobytes() == expected.tobytes()
        assert (softmax_backward(expected, g).tobytes()
                == formula_softmax_backward(expected, g).tobytes())

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=(1, 8))
        assert np.allclose(softmax_in_place(row.copy()), softmax_in_place(row + 123.0), atol=1e-12)

    def test_in_place_steps_keep_the_formula_bits(self):
        # the shift, exp and divide all write the array given, which is returned, and the
        # result has the bits of the three-allocation last-axis formula
        x = np.random.default_rng(7).normal(scale=30.0, size=(3, 5, 7))
        shifted = x - np.max(x, axis=-1, keepdims=True)
        expected = np.exp(shifted) / np.sum(np.exp(shifted), axis=-1, keepdims=True)
        assert softmax_in_place(x) is x
        assert x.tobytes() == expected.tobytes()

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
        stacks = multi_head_dafa(x, params, c)
        q, k, v = x @ params.w_q[0], x @ params.w_k[0], x @ params.w_v[0]
        direct = (*sem_attention(q, k, v), *dep_attention(q, k, v, c))
        for stack, single in zip(stacks, direct, strict=True):
            assert stack.shape == (1,) + single.shape
            assert stack[0].tobytes() == single.tobytes()

    def test_identical_heads_produce_identical_signals(self):
        single = AttnParams.init(self.config(heads=1), seed=11)
        params = AttnParams(
            w_q=np.repeat(single.w_q, 2, axis=0),
            w_k=np.repeat(single.w_k, 2, axis=0),
            w_v=np.repeat(single.w_v, 2, axis=0),
        )
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 6))
        c = 1.0 + rng.uniform(0, 1, (4, 4))
        for stack in multi_head_dafa(x, params, c):
            assert stack[0].tobytes() == stack[1].tobytes()

    def test_heads_match_naive_per_head(self):
        cfg = self.config(heads=2)
        params = AttnParams.init(cfg, seed=13)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 6))
        c = 1.0 + rng.uniform(0, 1, (4, 4))
        stacks = multi_head_dafa(x, params, c)
        # the stacks hold, bit for bit, what the per-head loop computes head by head
        for h, head in enumerate(per_head_attention(x, params, c)):
            for stack, single in zip(stacks, head, strict=True):
                assert stack[h].tobytes() == single.tobytes()
        dep = stacks[3]
        for h in range(2):
            q, k, v = x @ params.w_q[h], x @ params.w_k[h], x @ params.w_v[h]
            _, naive_dep = naive_attention(q, k, v, c)
            assert np.allclose(dep[h], naive_dep, atol=1e-12)

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
        assert np.array_equal(first.w_v, second.w_v)

    def test_init_keeps_the_paper_draw(self):
        # unequal sizes, so a swapped shape or a fan-in other than d_model changes the bits
        cfg = AttnConfig(d_model=6, heads=3, d_k=4, d_v=5, d_seq=7)
        params = AttnParams.init(cfg, seed=24)
        rng = np.random.default_rng(24)
        bound = 1.0 / math.sqrt(6)
        for name, width in (("w_q", 4), ("w_k", 4), ("w_v", 5)):
            expected = rng.uniform(-bound, bound, (3, 6, width))
            assert getattr(params, name).tobytes() == expected.tobytes(), name

    def test_signals_are_weights_times_values(self):
        cfg = self.config(heads=2)
        params = AttnParams.init(cfg, seed=22)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 6))
        c = 1.0 + rng.uniform(0, 1, (4, 4))
        sem_w, sem, dep_w, dep = multi_head_dafa(x, params, c)
        assert sem_w.shape == dep_w.shape == (2, 4, 4)
        assert sem.shape == dep.shape == (2, 4, 2)
        for h in range(2):
            v = x @ params.w_v[h]
            assert np.array_equal(sem[h], sem_w[h] @ v)
            assert np.array_equal(dep[h], dep_w[h] @ v)

    @pytest.mark.parametrize("heads", [1, 3])
    def test_each_op_called_once_per_head_on_2d_slices(self, monkeypatch, heads):
        # bench/workloads.py::_count_logits adds len(q) * len(k) per op call, which counts the
        # logits only if every call gets one head's 2-D q and k: 2·heads·L² cells in all
        calls, cells, lanes = [], [], []
        for name in ("sem_attention", "dep_attention"):
            def counted(q, k, *rest, op=getattr(attention, name), name=name):
                calls.append((name, np.shape(q), np.shape(k)))
                cells.append(len(q) * len(k))
                lanes.append((name, threading.current_thread() is threading.main_thread()))
                return op(q, k, *rest)
            monkeypatch.setattr(attention, name, counted)
        d_seq = 5
        params = AttnParams.init(self.config(heads, d_seq), seed=25)
        x = np.random.default_rng(26).normal(size=(d_seq, 6))
        multi_head_dafa(x, params, np.ones((d_seq, d_seq)))
        slices = [(d_seq, 3), (d_seq, 3)]
        assert calls == ([("sem_attention", *slices)] * heads
                         + [("dep_attention", *slices)] * heads)
        assert sum(cells) == 2 * heads * d_seq ** 2
        # a long pair runs the sem path on the helper lane, so the calls interleave
        for log in (calls, cells, lanes):
            log.clear()
        d_seq = TWO_LANE_MIN_LEN
        x = np.random.default_rng(26).normal(size=(d_seq, 6))
        multi_head_dafa(x, params, np.ones((d_seq, d_seq)))
        slices = [(d_seq, 3), (d_seq, 3)]
        assert Counter(calls) == {("sem_attention", *slices): heads,
                                  ("dep_attention", *slices): heads}
        assert sum(cells) == 2 * heads * d_seq ** 2
        assert Counter(lanes) == {("sem_attention", False): heads, ("dep_attention", True): heads}

    @pytest.mark.parametrize("heads", [1, 3])
    def test_both_paths_are_views_of_one_block(self, heads):
        # one freed block per pair is what lets glibc keep its pages for the next pair
        # (tests/test_pipeline.py counts the faults); two blocks would pass every other test
        d_seq = 6
        params = AttnParams.init(self.config(heads, d_seq), seed=27)
        rng = np.random.default_rng(28)
        x = rng.normal(size=(d_seq, 6))
        c = 1.0 + rng.uniform(0, 1, (d_seq, d_seq))
        sem_w, sem, dep_w, dep = multi_head_dafa(x, params, c)
        for first, second in ((sem_w, dep_w), (sem, dep)):
            assert first.base is not None and first.base is second.base
            assert first.flags.c_contiguous and second.flags.c_contiguous
        assert sem_w.base.shape == (2, heads, d_seq, d_seq)
        for h in range(heads):
            q, k, v = x @ params.w_q[h], x @ params.w_k[h], x @ params.w_v[h]
            direct = (*sem_attention(q, k, v), *dep_attention(q, k, v, c))
            for stack, single in zip((sem_w, sem, dep_w, dep), direct, strict=True):
                assert stack[h].tobytes() == single.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttnConfig(d_model=0, heads=1, d_k=1, d_v=1, d_seq=1)

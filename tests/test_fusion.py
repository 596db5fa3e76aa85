"""Fusion network tests: `fuse` against naive scalar-loop evaluations of each stage."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from conftest import zero_fusion_params
from dafa.fusion import PARAM_FIELDS, FusionOutput, FusionParams, forward_trace, fuse
from dafa.nnops import sigmoid, softmax_in_place

# max |fuse - naive_forward_trace| allowed per output. The two differ only in rounding: the
# oracle adds to each score row a constant that its row softmax cancels. The filtration gate
# and the fused output carry that rounding on through w_value and w_filter_gate, and with
# weights at 20x the oracle's own error on them reaches 1.2e-12 against an 80-bit evaluation
# (the last @example below), so they get 1e-11; 1e-12 holds everywhere else.
ORACLE_TOL = {"fused": 1e-11, "filter_gate": 1e-11, "fusion_gate": 1e-12,
              "dep_refined": 1e-12, "sem_refined": 1e-12, "hidden_blend": 1e-12,
              "dep_pool_weights": 1e-12, "sem_pool_weights": 1e-12}
# the fields `fuse` returns once, without the position axis that the oracle gives them
SHARED_FIELDS = ("fusion_gate", "dep_refined", "sem_refined", "hidden_blend",
                 "dep_pool_weights", "sem_pool_weights")

# The paper's fusion weights as (field, shape, fan_in) over the (d_seq, d_v, d_hid) triple, in
# the seeded-draw order that FusionParams.init keeps. The row softmax cancels the query weights
# and biases, the score biases and the second (query) half of each score vector, so
# FusionParams holds only the rest; the oracles below read them all.
PAPER_SPECS = [
    ("w_dep_proj", ("d_seq", "d_v"), "d_v"),
    ("w_sem_proj", ("d_seq", "d_v"), "d_v"),
    ("w_sem_query", ("d_seq", "d_v"), "d_v"),
    ("b_sem_query", ("d_seq",), "d_v"),
    ("w_dep_query", ("d_seq", "d_v"), "d_v"),
    ("b_dep_query", ("d_seq",), "d_v"),
    ("w_dep_score", ("two_seq",), "two_seq"),
    ("b_dep_score", (), "two_seq"),
    ("w_sem_score", ("two_seq",), "two_seq"),
    ("b_sem_score", (), "two_seq"),
    ("w_dep_hidden", ("d_hid", "d_v"), "d_v"),
    ("b_dep_hidden", ("d_hid",), "d_v"),
    ("w_sem_hidden", ("d_hid", "d_v"), "d_v"),
    ("b_sem_hidden", ("d_hid",), "d_v"),
    ("w_fusion_gate", ("two_hid",), "two_hid"),
    ("w_value", ("d_v", "d_hid"), "d_hid"),
    ("b_value", ("d_v",), "d_hid"),
    ("w_output", ("d_v", "d_hid"), "d_hid"),
    ("b_output", ("d_v",), "d_hid"),
    ("w_filter_gate", ("two_v",), "two_v"),
]


def paper_init(d_seq, d_v, d_hid, seed, scale=1.0) -> dict:
    """All the paper's fusion weights, uniform in scale * [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    rng = np.random.default_rng(seed)
    dims = {"d_seq": d_seq, "d_v": d_v, "d_hid": d_hid,
            "two_seq": 2 * d_seq, "two_hid": 2 * d_hid, "two_v": 2 * d_v}
    values = {}
    for name, shape_spec, fan_spec in PAPER_SPECS:
        bound = 1.0 / math.sqrt(dims[fan_spec])
        values[name] = scale * rng.uniform(-bound, bound, tuple(dims[s] for s in shape_spec))
    return values


def read_params(w) -> FusionParams:
    """The weights of a paper set that the forward reads."""
    d_seq = w["w_dep_proj"].shape[0]
    return FusionParams(
        **{name: w[name][:d_seq] if name.endswith("_score") else w[name] for name in PARAM_FIELDS})


def naive_forward_trace(sem, dep, w) -> dict:
    """The full-matrix forward that builds every L x L score row (oracle).

    Row i of each pool is softmax(w_*_score @ [tanh(W_proj X^T); tanh(W_query f_i + b)
    tiled] + b_*_score), so every per-position result is computed d_seq times.
    """
    def mv(matrix, vector):
        return (matrix @ vector[..., None])[..., 0]

    d_seq = w["w_dep_proj"].shape[-2]
    wd_top, wd_bot = w["w_dep_score"][..., :d_seq], w["w_dep_score"][..., d_seq:]
    ws_top, ws_bot = w["w_sem_score"][..., :d_seq], w["w_sem_score"][..., d_seq:]

    t_dep = np.tanh(w["w_dep_proj"] @ dep.swapaxes(-1, -2))   # (..., d_seq, d_seq)
    t_sem = np.tanh(w["w_sem_proj"] @ sem.swapaxes(-1, -2))

    # row i = query(s_i); (..., d_seq, d_seq)
    u_sem = sem @ w["w_sem_query"].swapaxes(-1, -2) + w["b_sem_query"][..., None, :]
    tu_sem = np.tanh(u_sem)
    dep_scores = (wd_top[..., None, :] @ t_dep + tu_sem @ wd_bot[..., None]
                  + w["b_dep_score"][..., None, None])
    dep_pool = softmax_in_place(dep_scores)
    dep_refined = dep_pool @ dep                                  # (..., d_seq, d_v)

    u_dep = dep_refined @ w["w_dep_query"].swapaxes(-1, -2) + w["b_dep_query"][..., None, :]
    tu_dep = np.tanh(u_dep)
    sem_scores = (ws_top[..., None, :] @ t_sem + tu_dep @ ws_bot[..., None]
                  + w["b_sem_score"][..., None, None])
    sem_pool = softmax_in_place(sem_scores)
    sem_refined = sem_pool @ sem

    hd = np.tanh(dep_refined @ w["w_dep_hidden"].swapaxes(-1, -2)
                 + w["b_dep_hidden"][..., None, :])              # (..., d_seq, d_hid)
    hs = np.tanh(sem_refined @ w["w_sem_hidden"].swapaxes(-1, -2)
                 + w["b_sem_hidden"][..., None, :])
    fusion_gate = sigmoid(mv(np.concatenate([hd, hs], axis=-1), w["w_fusion_gate"]))
    blend = fusion_gate[..., None] * hs + (1.0 - fusion_gate)[..., None] * hd

    projected = blend @ w["w_value"].swapaxes(-1, -2) + w["b_value"][..., None, :]
    sem_wide = np.broadcast_to(sem, projected.shape)
    filter_gate = sigmoid(mv(np.concatenate([sem_wide, projected], axis=-1),
                             w["w_filter_gate"]))
    squashed = np.tanh(blend @ w["w_output"].swapaxes(-1, -2) + w["b_output"][..., None, :])
    fused = filter_gate[..., None] * squashed

    # keyed by the FusionOutput field each entry is compared with
    return {
        "dep_pool_weights": dep_pool, "sem_pool_weights": sem_pool,
        "dep_refined": dep_refined, "sem_refined": sem_refined,
        "fusion_gate": fusion_gate, "filter_gate": filter_gate,
        "hidden_blend": blend, "fused": fused,
    }


def oracle_excess(sem, dep, w) -> dict:
    """Max |fuse - naive_forward_trace| on each output of 2-D signals under the paper weights
    `w`, as a fraction of its ORACLE_TOL.

    The oracle builds each shared field as L rows: "<field> rows" is how far those rows are
    from the oracle's first row, and "<field>" how far they are from the one value `fuse`
    returns.
    """
    out = fuse(sem, dep, read_params(w))
    naive = naive_forward_trace(sem, dep, w)
    excess = {}
    for field, tol in ORACLE_TOL.items():
        value, rows = getattr(out, field), naive[field]
        if field in SHARED_FIELDS:
            excess[f"{field} rows"] = float(np.max(np.abs(rows - rows[0]))) / tol
            value = value[None]
        excess[field] = float(np.max(np.abs(value - rows))) / tol
    return excess


def naive_guided(signal, feature, w_proj, w_query, b_query, w_score, b_score):
    """Scalar-loop re-implementation of one guided pooling (oracle)."""
    d_seq, d_v = signal.shape
    block = np.zeros((2 * d_seq, d_seq))
    for p in range(d_seq):
        for q in range(d_seq):
            block[p, q] = math.tanh(sum(w_proj[p, c] * signal[q, c] for c in range(d_v)))
    query = [
        math.tanh(sum(w_query[p, c] * feature[c] for c in range(d_v)) + b_query[p])
        for p in range(d_seq)
    ]
    for p in range(d_seq):
        for q in range(d_seq):
            block[d_seq + p, q] = query[p]
    scores = [
        sum(w_score[p] * block[p, q] for p in range(2 * d_seq)) + b_score
        for q in range(d_seq)
    ]
    peak = max(scores)
    exps = [math.exp(s - peak) for s in scores]
    total = sum(exps)
    weights = [e / total for e in exps]
    return np.array(
        [sum(weights[q] * signal[q, c] for q in range(d_seq)) for c in range(d_v)]
    )


def naive_dense_tanh(w, b, x):
    """tanh(w @ x + b) as scalar loops."""
    return [math.tanh(sum(w[r][c] * x[c] for c in range(len(x))) + b[r]) for r in range(len(b))]


def naive_sigmoid_dot(w, x):
    return 1.0 / (1.0 + math.exp(-sum(wi * xi for wi, xi in zip(w, x))))


def naive_gate_and_filter(s_i, dstar, sstar, params):
    """Scalar gate/filter composition for one position (oracle).

    Returns (fused row, fusion gate, filter gate, hidden blend).
    """
    hd = naive_dense_tanh(params.w_dep_hidden, params.b_dep_hidden, dstar)
    hs = naive_dense_tanh(params.w_sem_hidden, params.b_sem_hidden, sstar)
    gate = naive_sigmoid_dot(params.w_fusion_gate, hd + hs)
    blend = [gate * s + (1.0 - gate) * d for d, s in zip(hd, hs)]
    projected = [
        sum(params.w_value[r][c] * blend[c] for c in range(len(blend))) + params.b_value[r]
        for r in range(len(params.b_value))
    ]
    filt = naive_sigmoid_dot(params.w_filter_gate, list(s_i) + projected)
    squashed = naive_dense_tanh(params.w_output, params.b_output, blend)
    return np.array([filt * x for x in squashed]), gate, filt, np.array(blend)


def naive_dep_guided(sem, dep, w, i):
    """dep pooled under scores conditioned on sem[i] (oracle)."""
    return naive_guided(dep, sem[i], w["w_dep_proj"], w["w_sem_query"], w["b_sem_query"],
                        w["w_dep_score"], w["b_dep_score"])


def naive_fuse_position(sem, dep, w, i):
    """Whole network for position i from the scalar oracles, under the paper weights `w`."""
    dstar = naive_dep_guided(sem, dep, w, i)
    sstar = naive_guided(sem, dstar, w["w_sem_proj"], w["w_dep_query"], w["b_dep_query"],
                         w["w_sem_score"], w["b_sem_score"])
    out, gate, filt, blend = naive_gate_and_filter(sem[i], dstar, sstar, read_params(w))
    return out, gate, filt, dstar, sstar, blend


def random_signals(seed, d_seq, d_v, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, (d_seq, d_v)), rng.uniform(-scale, scale, (d_seq, d_v))


def with_values(params, **values):
    return FusionParams(**{**params.to_dict(), **values})


class TestSemanticGuided:
    """`dep_refined`: the dependency signal pooled under scores conditioned on sem[i]."""

    def test_single_position_returns_dep_row(self):
        params = FusionParams.init(d_seq=1, d_v=3, d_hid=2, seed=0)
        dep = np.array([[0.4, -0.2, 0.9]])
        out = fuse(np.array([[0.1, 0.2, 0.3]]), dep, params)
        assert np.array_equal(out.dep_refined, dep[0])

    def test_zero_params_give_column_mean(self):
        params = zero_fusion_params(d_seq=3, d_v=2, d_hid=2)
        sem, dep = random_signals(1, 3, 2)
        out = fuse(sem, dep, params)
        assert np.allclose(out.dep_refined, dep.mean(axis=0), atol=1e-15)

    def test_matches_naive_loop(self):
        w = paper_init(d_seq=3, d_v=2, d_hid=2, seed=2)
        sem, dep = random_signals(3, 3, 2)
        out = fuse(sem, dep, read_params(w))
        for i in range(3):
            assert np.allclose(out.dep_refined, naive_dep_guided(sem, dep, w, i), atol=1e-12)

    def test_shape_mismatch(self):
        params = FusionParams.init(d_seq=3, d_v=2, d_hid=2, seed=4)
        with pytest.raises(ValueError, match="dep"):
            fuse(np.zeros((3, 2)), np.zeros((2, 2)), params)


class TestDependencyGuided:
    """`sem_refined`: the semantic signal pooled under scores conditioned on dep_refined[i]."""

    def test_single_position_returns_sem_row(self):
        params = FusionParams.init(d_seq=1, d_v=2, d_hid=2, seed=5)
        sem = np.array([[1.5, -0.5]])
        out = fuse(sem, np.zeros((1, 2)), params)
        assert np.array_equal(out.sem_refined, sem[0])

    def test_zero_params_give_column_mean(self):
        params = zero_fusion_params(d_seq=4, d_v=3, d_hid=2)
        sem, dep = random_signals(6, 4, 3)
        out = fuse(sem, dep, params)
        assert np.allclose(out.sem_refined, sem.mean(axis=0), atol=1e-15)

    def test_matches_naive_loop(self):
        w = paper_init(d_seq=3, d_v=2, d_hid=2, seed=7)
        sem, dep = random_signals(8, 3, 2)
        out = fuse(sem, dep, read_params(w))
        for i in range(3):
            expected = naive_guided(
                sem, naive_dep_guided(sem, dep, w, i), w["w_sem_proj"], w["w_dep_query"],
                w["b_dep_query"], w["w_sem_score"], w["b_sem_score"],
            )
            assert np.allclose(out.sem_refined, expected, atol=1e-12)


class TestGatedFuse:
    """`hidden_blend` and `fusion_gate`: the gated mix of the two refined features."""

    def test_zero_params(self):
        params = zero_fusion_params(d_seq=2, d_v=2, d_hid=3)
        out = fuse(np.ones((2, 2)), np.ones((2, 2)), params)
        assert np.all(out.fusion_gate == 0.5)
        assert np.all(out.hidden_blend == 0.0)

    def test_identical_branches_make_gate_irrelevant(self):
        # uniform pooling over identical signals makes d* = s*; identical hidden
        # layers then give hd = hs, and any gate mixes them to that same value
        params = FusionParams.init(d_seq=3, d_v=2, d_hid=3, seed=9)
        params = with_values(
            params, w_sem_hidden=params.w_dep_hidden, b_sem_hidden=params.b_dep_hidden,
            w_dep_score=np.zeros(3), w_sem_score=np.zeros(3),
        )
        x = np.array([[0.3, -0.8], [0.1, 0.5], [-0.6, 0.2]])
        out = fuse(x, x, params)
        assert np.array_equal(out.dep_refined, out.sem_refined)
        expected = np.tanh(out.dep_refined @ params.w_dep_hidden.T + params.b_dep_hidden)
        assert np.allclose(out.hidden_blend, expected, atol=1e-15)
        assert np.all(out.fusion_gate != 0.5)

    def test_blend_between_branches(self):
        for seed in range(10):
            params = FusionParams.init(d_seq=2, d_v=3, d_hid=4, seed=seed)
            sem, dep = random_signals(10 + seed, 2, 3, scale=2.0)
            out = fuse(sem, dep, params)
            hd = np.tanh(out.dep_refined @ params.w_dep_hidden.T + params.b_dep_hidden)
            hs = np.tanh(out.sem_refined @ params.w_sem_hidden.T + params.b_sem_hidden)
            assert np.all((out.fusion_gate > 0.0) & (out.fusion_gate < 1.0))
            assert np.all(out.hidden_blend >= np.minimum(hd, hs) - 1e-12)
            assert np.all(out.hidden_blend <= np.maximum(hd, hs) + 1e-12)


class TestFiltration:
    """`filter_gate` and `fused`: the projected blend scaled by a gate driven by sem[i]."""

    def test_zero_params(self):
        params = zero_fusion_params(d_seq=2, d_v=2, d_hid=3)
        out = fuse(np.ones((2, 2)), np.ones((2, 2)), params)
        assert np.all(out.filter_gate == 0.5)
        assert np.all(out.fused == 0.0)

    def test_very_negative_gate_filters_out(self):
        params = with_values(
            zero_fusion_params(d_seq=2, d_v=2, d_hid=2),
            b_dep_hidden=np.ones(2), b_sem_hidden=np.ones(2), w_output=np.ones((2, 2)),
        )
        sem = np.ones((2, 2))
        open_gate = fuse(sem, sem, params)
        assert np.all(np.abs(open_gate.fused) > 0.1)
        closed = fuse(sem, sem, with_values(params, w_filter_gate=np.full(4, -50.0)))
        assert np.all(closed.filter_gate < 1e-15)
        assert np.all(np.abs(closed.fused) < 1e-12)

    def test_output_bounded_by_gate(self):
        for seed in range(10):
            params = FusionParams.init(d_seq=2, d_v=3, d_hid=2, seed=seed)
            sem, dep = random_signals(11 + seed, 2, 3, scale=2.0)
            out = fuse(sem, dep, params)
            assert np.all((out.filter_gate > 0.0) & (out.filter_gate < 1.0))
            assert np.all(np.abs(out.fused) < out.filter_gate[:, None])


class TestFuse:
    def test_single_position_zero_params(self):
        params = zero_fusion_params(d_seq=1, d_v=2, d_hid=2)
        out = fuse(np.array([[0.3, 0.4]]), np.array([[0.1, -0.2]]), params)
        assert np.all(out.fused == 0.0)
        assert out.fusion_gate.shape == () and out.fusion_gate == 0.5
        assert np.array_equal(out.filter_gate, [0.5])

    def test_matches_per_position_composition(self):
        w = paper_init(d_seq=4, d_v=3, d_hid=3, seed=12)
        rng = np.random.default_rng(13)
        sem = rng.uniform(-1, 1, (4, 3))
        dep = rng.uniform(-1, 1, (4, 3))
        out = fuse(sem, dep, read_params(w))
        for i in range(4):
            l_i, g_i, f_i, dstar, sstar, blend = naive_fuse_position(sem, dep, w, i)
            assert np.allclose(out.fused[i], l_i, atol=1e-12)
            assert out.fusion_gate == pytest.approx(g_i, abs=1e-12)
            assert out.filter_gate[i] == pytest.approx(f_i, abs=1e-12)
            assert np.allclose(out.dep_refined, dstar, atol=1e-12)
            assert np.allclose(out.sem_refined, sstar, atol=1e-12)
            assert np.allclose(out.hidden_blend, blend, atol=1e-12)

    def test_editing_other_rows_only_moves_the_pooling(self):
        # the gate chain for position 0 reads other rows only through the
        # pooled vectors; reproducing those vectors reproduces the outputs
        params = FusionParams.init(d_seq=3, d_v=2, d_hid=2, seed=14)
        sem, dep = random_signals(15, 3, 2)
        out = fuse(sem, dep, params)
        final, gate, filt, blend = naive_gate_and_filter(
            sem[0], out.dep_refined, out.sem_refined, params
        )
        assert np.allclose(out.fused[0], final, atol=1e-12)
        assert np.allclose(out.hidden_blend, blend, atol=1e-12)
        assert out.fusion_gate == pytest.approx(gate, abs=1e-12)
        assert out.filter_gate[0] == pytest.approx(filt, abs=1e-12)

    def test_bitwise_deterministic(self):
        params = FusionParams.init(d_seq=5, d_v=4, d_hid=3, seed=16)
        rng = np.random.default_rng(17)
        sem = rng.uniform(-1, 1, (5, 4))
        dep = rng.uniform(-1, 1, (5, 4))
        first = fuse(sem, dep, params)
        second = fuse(sem, dep, params)
        assert np.array_equal(first.fused, second.fused)
        assert np.array_equal(first.fusion_gate, second.fusion_gate)
        assert np.array_equal(first.dep_pool_weights, second.dep_pool_weights)

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(18)
        for seed in range(20):
            d_seq, d_v, d_hid = (int(rng.integers(1, 7)) for _ in range(3))
            params = FusionParams.init(d_seq, d_v, d_hid, seed=seed)
            sem = rng.uniform(-2, 2, (d_seq, d_v))
            dep = rng.uniform(-2, 2, (d_seq, d_v))
            out = fuse(sem, dep, params)
            assert np.all(out.fusion_gate > 0) and np.all(out.fusion_gate < 1)
            assert np.all(out.filter_gate > 0) and np.all(out.filter_gate < 1)
            assert np.all(np.abs(out.fused) < 1)
            assert np.allclose(out.dep_pool_weights.sum(axis=-1), 1.0, atol=1e-9)
            assert np.allclose(out.sem_pool_weights.sum(axis=-1), 1.0, atol=1e-9)

    def test_shape_mismatch(self):
        params = FusionParams.init(d_seq=2, d_v=2, d_hid=2, seed=19)
        with pytest.raises(ValueError, match="sem"):
            fuse(np.zeros((2, 3)), np.zeros((2, 2)), params)

    def test_stacked_signals_must_share_one_shape(self):
        params = FusionParams.init(d_seq=2, d_v=2, d_hid=2, seed=19)
        with pytest.raises(ValueError, match=r"sem shape \(3, 2, 2\) and dep shape \(2, 2\)"):
            fuse(np.zeros((3, 2, 2)), np.zeros((2, 2)), params)
        with pytest.raises(ValueError, match=r"dep has shape \(3, 2, 1\), expected \(\.\.\., 2, 2\)"):
            fuse(np.zeros((3, 2, 2)), np.zeros((3, 2, 1)), params)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the pooling query adds one constant per row, which the row "
                              "softmax cancels, so the dep pooling ignores sem (difference 0)")
    def test_dep_pooling_depends_on_sem(self):
        params = FusionParams.init(d_seq=5, d_v=3, d_hid=3, seed=16)
        sem, dep = random_signals(17, 5, 3)
        other_sem, _ = random_signals(18, 5, 3)
        before = fuse(sem, dep, params).dep_pool_weights
        after = fuse(other_sem, dep, params).dep_pool_weights
        assert np.max(np.abs(after - before)) > 1e-12

    def test_dep_pooling_ignores_sem_exactly(self):
        # what the xfail above pins: the forward never reads the pooling query, so the
        # difference is exactly 0, not merely below the tolerance
        params = FusionParams.init(d_seq=5, d_v=3, d_hid=3, seed=16)
        sem, dep = random_signals(17, 5, 3)
        other_sem, _ = random_signals(18, 5, 3)
        before = fuse(sem, dep, params).dep_pool_weights
        after = fuse(other_sem, dep, params).dep_pool_weights
        assert np.array_equal(after, before)

    def test_shared_fields_have_no_position_axis(self):
        params = FusionParams.init(d_seq=5, d_v=3, d_hid=2, seed=26)
        rng = np.random.default_rng(27)
        shapes = {"fused": (5, 3), "filter_gate": (5,), "fusion_gate": (),
                  "dep_refined": (3,), "sem_refined": (3,), "hidden_blend": (2,),
                  "dep_pool_weights": (5,), "sem_pool_weights": (5,)}
        assert set(shapes) == {field.name for field in dataclasses.fields(FusionOutput)}
        for lead in ((), (4,), (2, 3)):
            sem, dep = rng.uniform(-1, 1, (2,) + lead + (5, 3))
            out = fuse(sem, dep, params)
            for name, shape in shapes.items():
                assert getattr(out, name).shape == lead + shape, (lead, name)


class TestFullMatrixOracle:
    """`fuse` computes each pooling once; the trace that built all L rows from the paper's
    full weight set, cancelled weights drawn here too, is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        d_seq=st.integers(1, 64), d_v=st.integers(1, 8), d_hid=st.integers(1, 5),
        signal_scale=st.floats(0.0, 30.0), weight_scale=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d_seq=64, d_v=8, d_hid=5, signal_scale=30.0, weight_scale=20.0, seed=0)
    # fused differs by 7.9e-13 here: 3.7e-13 from an 80-bit evaluation for fuse, 1.2e-12 for
    # the oracle
    @example(d_seq=28, d_v=4, d_hid=4, signal_scale=29.15163267200947,
             weight_scale=15.741992587707912, seed=2134001144)
    def test_matches_oracle(self, d_seq, d_v, d_hid, signal_scale, weight_scale, seed):
        rng = np.random.default_rng(seed)
        w = paper_init(d_seq, d_v, d_hid, rng, scale=weight_scale)
        sem = rng.uniform(-signal_scale, signal_scale, (d_seq, d_v))
        dep = rng.uniform(-signal_scale, signal_scale, (d_seq, d_v))
        excess = oracle_excess(sem, dep, w)
        target(max(excess.values()), label="max |fuse - full-matrix oracle| / ORACLE_TOL")
        assert max(excess.values()) <= 1.0, excess

    def test_matches_oracle_at_layer_length(self):
        # L = 450 is inside the long-pair benchmark's range, with its d_v = d_hid = 8
        w = paper_init(450, 8, 8, seed=42)
        sem, dep = random_signals(43, 450, 8)
        excess = oracle_excess(sem, dep, w)
        assert max(excess.values()) <= 1.0, excess


class TestFusionParams:
    @pytest.mark.parametrize("d_seq, d_v, d_hid", [(1, 1, 1), (4, 3, 5), (9, 8, 8)])
    def test_init_keeps_the_paper_draw(self, d_seq, d_v, d_hid):
        # the stream skips the cancelled weights' cells, so on every bit generator each kept
        # value has the paper draw's bits and the generator ends where the paper draw leaves it
        for bit_generator in (np.random.PCG64, np.random.MT19937, np.random.Philox,
                              np.random.SFC64):
            rng, paper_rng = (np.random.Generator(bit_generator(d_seq)) for _ in range(2))
            params = FusionParams.init(d_seq, d_v, d_hid, seed=rng)
            expected = read_params(paper_init(d_seq, d_v, d_hid, seed=paper_rng))
            for name in PARAM_FIELDS:
                assert (getattr(params, name).tobytes()
                        == getattr(expected, name).tobytes()), (bit_generator.__name__, name)
            assert rng.random(4).tobytes() == paper_rng.random(4).tobytes(), bit_generator

    def test_init_deterministic(self):
        first = FusionParams.init(3, 2, 4, seed=20)
        second = FusionParams.init(3, 2, 4, seed=20)
        for name in PARAM_FIELDS:
            assert np.array_equal(np.asarray(getattr(first, name)),
                                  np.asarray(getattr(second, name)))

    def test_init_bounds_scale_with_fan_in(self):
        params = FusionParams.init(4, 3, 5, seed=21)
        assert np.max(np.abs(params.w_dep_proj)) <= 1 / math.sqrt(3)
        assert np.max(np.abs(params.w_dep_score)) <= 1 / math.sqrt(8)
        assert np.max(np.abs(params.w_value)) <= 1 / math.sqrt(5)

    def test_json_roundtrip(self):
        params = FusionParams.init(3, 2, 2, seed=22)
        again = FusionParams.from_json(params.to_json())
        for name in PARAM_FIELDS:
            assert np.allclose(np.asarray(getattr(params, name)),
                               np.asarray(getattr(again, name)), atol=0.0)

    def test_missing_field_rejected(self):
        params = FusionParams.init(2, 2, 2, seed=23)
        import json

        data = json.loads(params.to_json())
        del data["w_output"]
        with pytest.raises(ValueError, match="w_output"):
            FusionParams.from_json(json.dumps(data))

    def test_bad_shape_rejected(self):
        values = zero_fusion_params(2, 2, 2).to_dict()
        values["w_dep_score"] = np.zeros(3)
        with pytest.raises(ValueError, match="w_dep_score"):
            FusionParams(**values)

    @pytest.mark.parametrize("name, value", [("b_output", math.nan), ("w_dep_score", math.inf),
                                             ("b_sem_hidden", -math.inf)])
    def test_non_finite_values_rejected_on_load(self, name, value):
        data = json.loads(FusionParams.init(2, 2, 2, seed=25).to_json())
        data[name] = np.full(np.shape(data[name]), value).tolist()
        with pytest.raises(ValueError, match=name):
            FusionParams.from_json(json.dumps(data))

    def test_non_finite_json_rejected(self):
        # no FusionParams holds a non-finite weight, so none can reach fuse or to_json
        values = FusionParams.init(2, 2, 2, seed=24).to_dict()
        with pytest.raises(ValueError, match="fusion params 'b_output' must be finite"):
            FusionParams(**{**values, "b_output": np.array([np.nan, 0.0])})
        with pytest.raises(ValueError, match="fusion params 'w_value' must be finite"):
            FusionParams(**{**values, "w_value": np.full((2, 2), np.inf)})
        # the first bad field is named: here a non-finite one before one of the wrong shape
        with pytest.raises(ValueError, match="fusion params 'w_dep_score' must be finite"):
            FusionParams(**{**values, "w_dep_score": np.array([np.nan, 0.0]),
                            "b_output": np.zeros(3)})


class TestForwardTraceLeadingAxes:
    """A (B, ...) stack through the forward gives, slice by slice, the bits of the 2-D calls."""

    @pytest.mark.parametrize("d_seq, d_v, d_hid", [(1, 1, 1), (4, 3, 2), (6, 8, 5)])
    def test_stack_equals_slices(self, d_seq, d_v, d_hid):
        b = 4
        rng = np.random.default_rng(d_seq * 100 + d_v * 10 + d_hid)
        params = [FusionParams.init(d_seq, d_v, d_hid, seed=s).to_dict() for s in range(b)]
        stacked = {name: np.stack([p[name] for p in params]) for name in PARAM_FIELDS}
        sem = rng.uniform(-1, 1, (b, d_seq, d_v))
        dep = rng.uniform(-1, 1, (b, d_seq, d_v))
        trace = forward_trace(sem, dep, stacked)
        for i in range(b):
            single = forward_trace(sem[i], dep[i], params[i])
            assert trace.keys() == single.keys()
            for key, value in single.items():
                assert trace[key][i].tobytes() == value.tobytes(), (i, key)

    def test_shared_signals_or_weights_broadcast(self):
        b, d_seq, d_v, d_hid = 3, 5, 4, 3
        rng = np.random.default_rng(12)
        params = [FusionParams.init(d_seq, d_v, d_hid, seed=s).to_dict() for s in range(b)]
        stacked = {name: np.stack([p[name] for p in params]) for name in PARAM_FIELDS}
        sem = rng.uniform(-1, 1, (b, d_seq, d_v))
        dep = rng.uniform(-1, 1, (b, d_seq, d_v))
        shared_signals = forward_trace(sem[0], dep[0], stacked)     # 2-D signals, stacked weights
        shared_weights = forward_trace(sem, dep, params[0])         # stacked signals, 2-D weights
        # one stacked weight against 2-D others: h_dep gains the axis, h_sem does not
        one_stacked = {**params[0], "w_dep_hidden": stacked["w_dep_hidden"]}
        one_weight = forward_trace(sem[0], dep[0], one_stacked)
        for i in range(b):
            one_slice = {**params[0], "w_dep_hidden": params[i]["w_dep_hidden"]}
            for trace, single in (
                (shared_signals, forward_trace(sem[0], dep[0], params[i])),
                (shared_weights, forward_trace(sem[i], dep[i], params[0])),
                (one_weight, forward_trace(sem[0], dep[0], one_slice)),
            ):
                for key, value in single.items():
                    # an entry the stacked input does not reach has no leading axis
                    value_i = np.broadcast_to(trace[key], (b, *value.shape))[i]
                    assert value_i.tobytes() == value.tobytes(), (i, key)
        # `fuse` on the stack (as dafa_layer calls it, one slice per head) equals the 2-D calls
        fusion_params = FusionParams(**params[0])
        stacked_out = fuse(sem, dep, fusion_params)
        slices = [fuse(sem[i], dep[i], fusion_params) for i in range(b)]
        for field in dataclasses.fields(FusionOutput):
            value = getattr(stacked_out, field.name)
            single = [getattr(out, field.name) for out in slices]
            assert value.shape == (b,) + single[0].shape, field.name
            for i in range(b):
                assert value[i].tobytes() == single[i].tobytes(), (i, field.name)

    @pytest.mark.parametrize("stack_weights", [False, True])
    def test_arguments_unchanged_and_bits_of_the_formula(self, stack_weights):
        # tanh and the pooling softmax run in place over fresh products: the forward writes
        # neither signal nor any weight, gives the bits of the fresh-array formulas, and keeps
        # no (d_seq, d_seq) tanh block in its trace
        b, d_seq, d_v, d_hid = 3, 6, 4, 3
        rng = np.random.default_rng(13)
        params = [FusionParams.init(d_seq, d_v, d_hid, seed=s).to_dict() for s in range(b)]
        w = ({name: np.stack([p[name] for p in params]) for name in PARAM_FIELDS}
             if stack_weights else {name: params[0][name].copy() for name in PARAM_FIELDS})
        sem, dep = rng.uniform(-2, 2, (b, d_seq, d_v)), rng.uniform(-2, 2, (b, d_seq, d_v))
        before = {"sem": sem.copy(), "dep": dep.copy(),
                  **{name: value.copy() for name, value in w.items()}}
        trace = forward_trace(sem, dep, w)
        assert [key for key, value in trace.items() if value.shape[-2:] == (d_seq, d_seq)] == []
        for name, signal in (("dep", dep), ("sem", sem)):
            t = np.tanh(w[f"w_{name}_proj"] @ signal.swapaxes(-1, -2))
            scores = w[f"w_{name}_score"][..., None, :] @ t
            shifted = scores - np.max(scores, axis=-1, keepdims=True)
            pool = np.exp(shifted) / np.sum(np.exp(shifted), axis=-1, keepdims=True)
            assert trace[f"{name}_pool"].tobytes() == pool.tobytes()
        for name, value in {"sem": sem, "dep": dep, **w}.items():
            assert value.tobytes() == before[name].tobytes(), name


def three_exp_sigmoid(x):
    """Oracle: the per-sign formula with all three exps taken over the whole array."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def test_sigmoid_has_the_bits_of_the_three_exp_formula():
    # under filterwarnings = error, an overflow warning from sigmoid would fail this test
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300,
                      709.8, -709.8, 745.2, -745.2, 1e308, -1e308])
    draws = np.random.default_rng(25).normal(scale=300.0, size=100_000)
    for x in (edges, draws):
        got = sigmoid(x)
        assert got.tobytes() == three_exp_sigmoid(x).tobytes()
        numbers = got[~np.isnan(x)]
        assert np.all((numbers >= 0.0) & (numbers <= 1.0))

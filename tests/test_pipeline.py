"""Pipeline tests: layout arithmetic, embeddings, the full layer, CSV/JSON round-trips."""

import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    make_sentence,
    naive_write_heatmap_csv,
    per_head_attention,
    random_sentence,
    read_heatmap_csv,
)
from dafa import cli, pipeline
from dafa.attention import AttnConfig, AttnParams, multi_head_dafa
from dafa.conllu import SentencePair
from dafa.depmatrix import DepMatrixConfig
from dafa.fusion import FusionParams, fuse
from dafa.pipeline import (
    CLS_TOKEN,
    SEP_TOKEN,
    EmbeddingTable,
    _check_budget,
    _layer_estimate,
    build_layout,
    dafa_layer,
    write_heatmap_csv,
)
from dafa.tfidf import TfIdfModel


def star(forms, labels):
    """Root plus children all attached to it."""
    specs = [(forms[0], 0, "root")]
    specs += [(form, 1, label) for form, label in zip(forms[1:], labels)]
    return make_sentence(specs)


class TestBuildLayout:
    def test_spans_and_length(self):
        a = make_sentence([("x", 2, "dep"), ("y", 0, "root")])
        b = star(["p", "q", "r"], ["nsubj", "obj"])
        layout = build_layout(a, b)
        assert layout.d_seq == 8
        assert list(layout.a_span) == [1, 2]
        assert list(layout.b_span) == [4, 5, 6]

    def test_single_tokens(self):
        a = make_sentence([("x", 0, "root")])
        layout = build_layout(a, a)
        assert layout.d_seq == 5
        assert list(layout.a_span) == [1]
        assert list(layout.b_span) == [3]

    def test_spans_never_overlap(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = star([f"a{i}" for i in range(n)], ["dep"] * (n - 1))
            b = star([f"b{i}" for i in range(m)], ["dep"] * (m - 1))
            layout = build_layout(a, b)
            assert not set(layout.a_span) & set(layout.b_span)
            assert layout.d_seq == n + m + 3

    def test_tokens_match_spans(self):
        a = make_sentence([("x", 2, "dep"), ("y", 0, "root")])
        b = make_sentence([("z", 0, "root")])
        assert build_layout(a, b).tokens == (CLS_TOKEN, "x", "y", SEP_TOKEN, "z", SEP_TOKEN)
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = star([f"a{i}" for i in range(n)], ["dep"] * (n - 1))
            b = star([f"b{i}" for i in range(m)], ["dep"] * (m - 1))
            layout = build_layout(a, b)
            tokens = layout.tokens
            assert len(tokens) == layout.d_seq
            assert [tokens[i] for i in layout.a_span] == a.forms()
            assert [tokens[i] for i in layout.b_span] == b.forms()
            separators = set(range(layout.d_seq)) - set(layout.a_span) - set(layout.b_span)
            assert [tokens[i] for i in sorted(separators)] == [CLS_TOKEN, SEP_TOKEN, SEP_TOKEN]


def layer_estimate(d_seq, heads):
    """The layer budget's rule: 2 (L, L) float64 arrays per head plus 2.5 (the calibration, one
    fresh array beside the weight stacks and what does not scale with heads),
    (2·heads + 2.5)·8·L² bytes."""
    return 4 * (4 * heads + 5) * d_seq ** 2


class TestLayerBudget:
    def test_pair_over_the_budget_rejected_before_the_layer_runs(self, monkeypatch):
        a = star(["r", "x", "y", "z"], ["dep"] * 3)
        layout = build_layout(a, a)
        assert layout.d_seq == 11
        # the budget admits the pair at 2 heads, to the byte, and not at 4
        monkeypatch.setattr(pipeline, "MAX_LAYER_BYTES", layer_estimate(11, 2))
        assert pipeline.MAX_LAYER_BYTES == 6_292
        _check_budget(*_layer_estimate(layout, 2))
        monkeypatch.setattr(pipeline, "final_matrix", lambda *args: pytest.fail("scored"))
        config = AttnConfig(d_model=16, heads=4, d_k=6, d_v=5, d_seq=11)
        # dafa_layer checks the pair before it reads any argument but the config
        for call in (lambda: _check_budget(*_layer_estimate(layout, 4)),
                     lambda: dafa_layer(a, a, *[None] * 4, config)):
            with pytest.raises(ValueError, match=r"^packed length L = 11 \(n = 4, m = 4\) with "
                                                 r"heads = 4 needs about 10,164 bytes, over the "
                                                 r"budget of 6,292 bytes$"):
                call()
        monkeypatch.setattr(pipeline, "MAX_LAYER_BYTES", layer_estimate(11, 2) - 1)
        with pytest.raises(ValueError, match=r"with heads = 2 needs about 6,292 bytes"):
            _check_budget(*_layer_estimate(layout, 2))

    def test_estimate_matches_a_measured_layer(self):
        # numpy reports its array memory to tracemalloc
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(40)]
        a, b = random_sentence(rng, 100, vocab), random_sentence(rng, 100, vocab)
        for heads in (1, 2, 4, 8):
            tracemalloc.start()
            try:
                layer_fixture(a, b, heads=heads)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0.9 < peak / layer_estimate(203, heads) < 1.1, heads

    def test_estimate_with_flag_sized_draws_matches_measured_draws_and_layer(self, monkeypatch):
        # at L = 11 the (L, L) arrays are a few KB: the draws the size flags set dominate
        a = star(["r", "x", "y", "z"], ["dep"] * 3)
        layout = build_layout(a, a)
        flags = SimpleNamespace(d_model=2000, heads=2, d_k=2000, d_v=8)
        estimates = []
        monkeypatch.setattr(cli, "_check_budget", lambda source, needs: estimates.append(needs))
        config = cli._attn_config(flags, SentencePair("star", a, a), layout, d_hid=8)
        tracemalloc.start()
        try:
            embeddings = EmbeddingTable.build(a.forms() * 2, config.d_model, seed=1)
            attn_params = AttnParams.init(config, seed=1)
            fusion_params = FusionParams.init(layout.d_seq, config.d_v, 8, seed=1)
            dafa_layer(a, a, TfIdfModel.fit([a]), embeddings, attn_params, fusion_params, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (estimate,) = estimates
        assert estimate > 100 * layer_estimate(11, 2)
        assert 0.9 < peak / estimate < 1.1

    @pytest.mark.parametrize("shape", [(1, 300, 8), (2, 300, 8), (4, 150, 5), (8, 100, 3)])
    def test_fuse_estimate_matches_a_measured_fuse(self, shape):
        # the fuse budget's rule: 1 (L, L) float64 array per (L, d_v) slice
        slices, d_seq, d_v = shape
        rng = np.random.default_rng(9)
        sem, dep = rng.normal(size=shape), rng.normal(size=shape)
        params = FusionParams.init(d_seq, d_v, 4, seed=3)
        tracemalloc.start()
        try:
            fuse(sem, dep, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.9 < peak / (slices * 8 * d_seq ** 2) < 1.1, shape


class TestEmbeddingTable:
    def test_same_seed_identical(self):
        first = EmbeddingTable.build(["cat", "dog"], d_model=8, seed=3)
        second = EmbeddingTable.build(["dog", "cat"], d_model=8, seed=3)
        assert np.array_equal(first.matrix, second.matrix)
        assert first.vocab == second.vocab

    def test_different_seeds_differ(self):
        first = EmbeddingTable.build(["cat"], d_model=8, seed=3)
        second = EmbeddingTable.build(["cat"], d_model=8, seed=4)
        assert not np.array_equal(first.matrix, second.matrix)

    def test_unknown_form_maps_to_unk_row(self):
        table = EmbeddingTable.build(["cat"], d_model=4, seed=5)
        unk = table.encode(["never-seen"])
        assert np.array_equal(unk, table.encode(["also-unseen"]))
        assert not np.array_equal(unk, table.encode(["cat"]))

    def test_lookup_case_insensitive(self):
        table = EmbeddingTable.build(["Cat"], d_model=4, seed=6)
        assert np.array_equal(table.encode(["cat"]), table.encode(["CAT"]))

    def test_rows_within_init_range(self):
        table = EmbeddingTable.build([f"w{i}" for i in range(20)], d_model=16, seed=7)
        assert np.max(np.abs(table.matrix)) <= 0.1

    def test_bad_d_model(self):
        with pytest.raises(ValueError):
            EmbeddingTable.build(["x"], d_model=0, seed=0)


class TestSeededDraws:
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="EmbeddingTable.build, AttnParams.init and FusionParams.init each "
                              "call default_rng(seed) with the one seed, so the embeddings, w_q "
                              "and w_dep_proj start as affine images of one uniform stream "
                              "(correlation 1.0)")
    def test_one_seed_gives_uncorrelated_parameter_draws(self):
        seed, draws = 42, 160
        table = EmbeddingTable.build([f"w{i}" for i in range(17)], d_model=16, seed=seed)
        config = AttnConfig(d_model=16, heads=2, d_k=8, d_v=8, d_seq=20)
        w_q = AttnParams.init(config, seed).w_q
        w_dep_proj = FusionParams.init(20, 8, 8, seed).w_dep_proj
        corr = np.corrcoef([x.ravel()[:draws] for x in (table.matrix, w_q, w_dep_proj)])
        assert np.max(np.abs(corr[np.triu_indices(3, 1)])) < 0.5


def layer_fixture(a, b, seed=42, heads=2, theta=2.0):
    layout = build_layout(a, b)
    config = AttnConfig(d_model=16, heads=heads, d_k=6, d_v=5, d_seq=layout.d_seq)
    tfidf = TfIdfModel.fit([a, b])
    embeddings = EmbeddingTable.build(a.forms() + b.forms(), config.d_model, seed)
    attn_params = AttnParams.init(config, seed)
    fusion_params = FusionParams.init(layout.d_seq, config.d_v, 4, seed)
    dep_config = DepMatrixConfig(theta=theta)
    output = dafa_layer(
        a, b, tfidf, embeddings, attn_params, fusion_params, config, dep_config, pair_id="fx"
    )
    return output, config, embeddings, attn_params, fusion_params, layout


def uniform_tree(n, fanout):
    """n tokens, one form and one relation; node i hangs under node (i - 2) // fanout + 1.

    fanout 1 is a chain and fanout n - 1 a star. Every token pair across two such
    trees matches in form and relation, so the subtree score, and C with it, grows
    with the tree sizes (max C is about 7.1e3 for two stars of 120 tokens).
    """
    return make_sentence([("w", 0, "root")] +
                         [("w", (i - 2) // fanout + 1, "dep") for i in range(2, n + 1)])


uniform_trees = st.builds(
    lambda n, shape: uniform_tree(n, max(n - 1, 1) if shape == "star" else shape),
    st.integers(1, 150), st.sampled_from(["star", 1, 2, 3, 4]),
)


class TestDafaLayer:
    @settings(max_examples=25, deadline=None)
    @example(a=uniform_tree(120, 119), b=uniform_tree(120, 119))
    @given(a=uniform_trees, b=uniform_trees)
    def test_uniform_trees_stay_finite_and_stochastic(self, a, b):
        out = layer_fixture(a, b)[0]
        assert np.all(np.isfinite(out.fused)) and np.all(np.isfinite(out.calibration))
        assert np.all(out.calibration >= 1.0)
        for weights in (out.sem_weights, out.dep_weights):
            assert np.all(np.isfinite(weights))
            assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) <= 1e-12
        for gates in (out.fusion_gates, out.filter_gates):
            assert np.all((gates > 0.0) & (gates < 1.0))

    def test_identical_pair_concentrates_aligned_cells(self):
        # same sentence both sides, theta = 1, every tf weight equal
        s = star(["exceeded", "apple", "goals", "easily"], ["nsubj", "obj", "advmod"])
        tfidf = TfIdfModel.fit([s])
        assert np.allclose(tfidf.weights(s), 0.25, atol=0.0)
        layout = build_layout(s, s)
        config = AttnConfig(d_model=16, heads=1, d_k=6, d_v=5, d_seq=layout.d_seq)
        embeddings = EmbeddingTable.build(s.forms(), config.d_model, seed=9)
        attn_params = AttnParams.init(config, seed=9)
        fusion_params = FusionParams.init(layout.d_seq, config.d_v, 4, seed=9)
        out = dafa_layer(
            s, s, tfidf, embeddings, attn_params, fusion_params,
            config, DepMatrixConfig(theta=1.0), pair_id="self",
        )
        a_idx, b_idx = list(layout.a_span), list(layout.b_span)
        for i in range(s.n):
            assert out.calibration[a_idx[i], b_idx[i]] > 1.0

        x = embeddings.encode(build_layout(s, s).tokens)
        q, k = x @ attn_params.w_q[0], x @ attn_params.w_k[0]
        logits = (q @ k.T) / math.sqrt(config.d_k)
        checked = 0
        for i in range(s.n):
            p, c = a_idx[i], b_idx[i]
            if logits[p, c] > 0:
                assert out.dep_weights[0, p, c] > out.sem_weights[0, p, c]
                checked += 1
        assert checked > 0

    def test_disjoint_vocabulary_neutrality_cascade(self):
        a = star(["alpha", "beta", "gamma"], ["nsubj", "obj"])
        b = star(["delta", "epsilon"], ["nsubj"])
        out, config, embeddings, attn_params, fusion_params, _ = layer_fixture(a, b)
        assert np.all(out.calibration == 1.0)
        x = embeddings.encode(build_layout(a, b).tokens)
        sem_w, sem, dep_w, dep = multi_head_dafa(x, attn_params, out.calibration)
        assert np.array_equal(sem, dep)
        assert np.array_equal(sem_w, dep_w)
        assert np.array_equal(out.sem_weights, out.dep_weights)

    def test_seed_fixed_run_is_bitwise_reproducible(self):
        a = star(["one", "two", "three"], ["nsubj", "obj"])
        b = star(["one", "four"], ["nsubj"])
        first, *_ = layer_fixture(a, b, seed=77)
        second, *_ = layer_fixture(a, b, seed=77)
        for name in ("fused", "sem_weights", "dep_weights", "fusion_gates",
                     "filter_gates", "calibration"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_fused_is_mean_over_heads(self):
        a = star(["red", "fox"], ["amod"])
        b = star(["red", "dog"], ["amod"])
        out, config, embeddings, attn_params, fusion_params, _ = layer_fixture(a, b, heads=3)
        x = embeddings.encode(build_layout(a, b).tokens)
        # oracle: a per-head loop that attends, fuses and collects one head at a time
        heads = per_head_attention(x, attn_params, out.calibration)
        fused = [fuse(sem, dep, fusion_params) for _, sem, _, dep in heads]
        expected = {
            "fused": np.mean([f.fused for f in fused], axis=0),
            "sem_weights": np.stack([sem_w for sem_w, _, _, _ in heads]),
            "dep_weights": np.stack([dep_w for _, _, dep_w, _ in heads]),
            "fusion_gates": np.stack([f.fusion_gate for f in fused]),
            "filter_gates": np.stack([f.filter_gate for f in fused]),
        }
        for name, value in expected.items():
            assert getattr(out, name).shape == value.shape, name
            assert getattr(out, name).tobytes() == value.tobytes(), name

    def test_head_mean_commutes_with_position_permutation(self):
        rng = np.random.default_rng(13)
        d_seq, d_model, d_v = 6, 8, 4
        config = AttnConfig(d_model=d_model, heads=2, d_k=3, d_v=d_v, d_seq=d_seq)
        attn_params = AttnParams.init(config, seed=14)
        fusion_params = FusionParams.init(d_seq, d_v, 3, seed=14)
        x = rng.normal(size=(d_seq, d_model))
        c = 1.0 + rng.uniform(0, 1, (d_seq, d_seq))
        perm = rng.permutation(d_seq)

        def head_mean(x_in, c_in):
            _, sem, _, dep = multi_head_dafa(x_in, attn_params, c_in)
            return fuse(sem, dep, fusion_params).fused.mean(axis=0)

        base = head_mean(x, c)
        permuted = head_mean(x[perm], c[np.ix_(perm, perm)])
        # pooled vectors are sums over positions, so permuting inputs and the
        # calibration together just permutes the per-position outputs
        assert np.allclose(permuted, base[perm], atol=1e-12)
        _, sem_perm, _, dep_perm = multi_head_dafa(x[perm], attn_params, c[np.ix_(perm, perm)])
        _, sem_base, _, dep_base = multi_head_dafa(x, attn_params, c)
        assert np.allclose(sem_perm, sem_base[:, perm], atol=1e-12)
        assert np.allclose(dep_perm, dep_base[:, perm], atol=1e-12)

    def test_config_mismatch_rejected(self):
        a = star(["x", "y"], ["dep"])
        b = star(["z"], [])
        config = AttnConfig(d_model=8, heads=1, d_k=3, d_v=3, d_seq=99)
        tfidf = TfIdfModel.fit([a, b])
        embeddings = EmbeddingTable.build(a.forms() + b.forms(), 8, 0)
        attn_params = AttnParams.init(config, 0)
        fusion_params = FusionParams.init(99, 3, 3, 0)
        with pytest.raises(ValueError, match="d_seq"):
            dafa_layer(a, b, tfidf, embeddings, attn_params, fusion_params, config)


class TestLayerOutputJson:
    def test_roundtrip(self):
        a = star(["sun", "rises"], ["nsubj"])
        b = star(["sun", "sets"], ["nsubj"])
        out, *_ = layer_fixture(a, b)
        data = json.loads(out.to_json())
        # the attention weights are written only as heatmap CSVs
        assert set(data) == {"pair_id", "tokens", "fused", "fusion_gates", "filter_gates",
                             "calibration"}
        assert data["pair_id"] == out.pair_id
        assert data["tokens"] == out.tokens
        for name in ("fused", "fusion_gates", "filter_gates", "calibration"):
            again = np.asarray(data[name], dtype=np.float64)
            assert again.shape == getattr(out, name).shape, name
            assert again.tobytes() == getattr(out, name).tobytes(), name

    def test_json_is_deterministic(self):
        a = star(["sun", "rises"], ["nsubj"])
        b = star(["sun", "sets"], ["nsubj"])
        first, *_ = layer_fixture(a, b)
        second, *_ = layer_fixture(a, b)
        assert first.to_json() == second.to_json()


labels = st.text(st.sampled_from('ab,"\' \n<>|'), max_size=6) | st.text(
    st.characters(exclude_categories=("Cs",)), max_size=4)
heat_values = (st.sampled_from([0.1, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0])
               | st.floats(0.0, 1.0) | st.floats())


@st.composite
def heatmaps(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    matrix = draw(st.lists(st.lists(heat_values, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    return (draw(st.lists(labels, min_size=rows, max_size=rows)),
            draw(st.lists(labels, min_size=cols, max_size=cols)),
            np.array(matrix, dtype=np.float64).reshape(rows, cols))


class TestHeatmapCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        matrix = rng.uniform(0, 1, (3, 3))
        labels = ["<CLS>", "a", "b"]
        path = tmp_path / "heat.csv"
        write_heatmap_csv(path, labels, labels, matrix)
        row_labels, col_labels, again = read_heatmap_csv(path)
        assert row_labels == labels and col_labels == labels
        assert np.array_equal(again, matrix)

    @settings(max_examples=300, deadline=None)
    @given(case=heatmaps())
    @example(case=(["a,b", 'say "hi"'], ["<CLS>", "x,y", '"', "", "z"],
                   np.array([[0.1, -0.0, 5e-324, 1e300, 1.0], [-0.1, 0.0, -5e-324, -1e300, 2.0]])))
    @example(case=(["<CLS>", "a", "b", "<SEP>"], ["<CLS>", "a", "b", "<SEP>"],
                   np.random.default_rng(5).dirichlet(np.ones(4), size=4)))
    def test_bytes_match_per_element_writer(self, tmp_path_factory, case):
        row_labels, col_labels, matrix = case
        out_dir = tmp_path_factory.mktemp("heat")
        write_heatmap_csv(out_dir / "new.csv", row_labels, col_labels, matrix)
        naive_write_heatmap_csv(out_dir / "old.csv", row_labels, col_labels, matrix)
        assert (out_dir / "new.csv").read_bytes() == (out_dir / "old.csv").read_bytes()

    @pytest.mark.parametrize("rows, cols, shape", [(["a"], ["x", "y", "z"], (2, 2)),
                                                   (["a", "b"], ["x", "y"], (2, 3)),
                                                   (["a", "b"], ["x", "y"], (4,))])
    def test_matrix_that_does_not_fit_the_labels_rejected(self, tmp_path, rows, cols, shape):
        path = tmp_path / "heat.csv"
        with pytest.raises(ValueError, match=re.escape(f"matrix of shape {shape} does not "
                                                       f"match the labels' ({len(rows)}, "
                                                       f"{len(cols)})")):
            write_heatmap_csv(path, rows, cols, np.ones(shape))
        assert not path.exists()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_heatmap_csv(path)

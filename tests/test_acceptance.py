"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np

from conftest import conllu_block, make_sentence, naive_subgraph, random_sentence
from dafa.attention import dep_attention, sem_attention
from dafa.cli import run
from dafa.depmatrix import (
    DepMatrixConfig,
    PairLayout,
    base_matrix,
    embed_calibration,
    final_matrix,
    subgraph_matrix,
)
from dafa.fusion import FusionParams, fuse
from dafa.gradcheck import GradCheckConfig, check
from dafa.pipeline import build_layout, read_heatmap_csv
from dafa.tfidf import TfIdfModel

PAIR_A = [("Apple", 2, "nsubj"), ("exceeded", 0, "root"), ("the", 4, "det"), ("company", 2, "obj")]
PAIR_B = [("The", 2, "det"), ("company", 3, "nsubj"), ("exceeded", 0, "root"), ("Apple", 3, "obj")]


@contextmanager
def criterion(number, label, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s (limit {limit_seconds}s)"
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_neutrality_on_disjoint_vocabularies():
    rng = np.random.default_rng(1001)
    vocab_a = tuple(f"a{i}" for i in range(6))
    vocab_b = tuple(f"b{i}" for i in range(6))
    with criterion(1, "neutrality: disjoint vocab => dep == sem exactly", 5.0):
        for _ in range(100):
            a = random_sentence(rng, int(rng.integers(1, 9)), vocab_a)
            b = random_sentence(rng, int(rng.integers(1, 9)), vocab_b)
            tfidf = TfIdfModel.fit([a, b])
            mf = final_matrix(a, b, tfidf)
            assert np.all(mf == 0.0)
            layout = build_layout(a, b)
            calibration = embed_calibration(mf, layout)
            assert np.all(calibration == 1.0)
            d_seq = layout.d_seq
            q = rng.normal(size=(d_seq, 4))
            k = rng.normal(size=(d_seq, 4))
            v = rng.normal(size=(d_seq, 3))
            sem_w, sem_out = sem_attention(q, k, v)
            dep_w, dep_out = dep_attention(q, k, v, calibration)
            assert np.array_equal(sem_out, dep_out)
            assert np.array_equal(sem_w, dep_w)


def test_criterion_2_subgraph_matches_naive_recursion():
    rng = np.random.default_rng(1002)
    vocab = ("x", "y", "z")
    with criterion(2, "subtree scores equal naive recursion exactly", 10.0):
        for trial in range(200):
            a = random_sentence(rng, int(rng.integers(1, 9)), vocab)
            b = random_sentence(rng, int(rng.integers(1, 9)), vocab)
            config = DepMatrixConfig(
                alpha=float(rng.choice([0.5, 1.0])),
                nu=float(rng.choice([0.0, 0.3, 0.5])),
            )
            fast = subgraph_matrix(a, b, config)
            slow = naive_subgraph(a, b, config)
            assert np.array_equal(fast, slow), f"trial {trial}"


def test_criterion_3_base_matrix_value_set():
    rng = np.random.default_rng(1003)
    theta = 2.0
    config = DepMatrixConfig(theta=theta)
    allowed = {0.0, 1.0, 2.0, theta, 2 * theta}
    vocab = ("red", "fox", "ran", "far")
    with criterion(3, "branch scores take only {0, 1, 2, theta, 2*theta}", 5.0):
        for _ in range(1000):
            a = random_sentence(rng, int(rng.integers(1, 8)), vocab)
            b = random_sentence(rng, int(rng.integers(1, 8)), vocab)
            m = base_matrix(a, b, config)
            assert set(np.unique(m)) <= allowed
        for _ in range(50):
            s = random_sentence(rng, int(rng.integers(1, 8)), vocab)
            self_m = base_matrix(s, s, config)
            assert np.all(np.diag(self_m) == 2 * theta)


def test_criterion_4_calibration_strictly_raises_target_weight():
    rng = np.random.default_rng(1004)
    with criterion(4, "calibrated positive logit gains softmax weight", 5.0):
        for _ in range(100):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            layout = PairLayout(
                d_seq=n + m + 3, a_span=range(1, n + 1), b_span=range(n + 2, n + m + 2)
            )
            i0, j0 = int(rng.integers(0, n)), int(rng.integers(0, m))
            p, c = layout.a_span[i0], layout.b_span[j0]
            d_seq = layout.d_seq
            # one positive logit at (p, c): zero rows elsewhere, negatives in row p
            q = np.zeros((d_seq, 1))
            q[p, 0] = rng.uniform(0.5, 2.0)
            k = rng.uniform(-2.0, -0.1, (d_seq, 1))
            k[c, 0] = rng.uniform(0.5, 2.0)
            v = rng.normal(size=(d_seq, 2))
            mf = np.zeros((n, m))
            mf[i0, j0] = rng.uniform(0.1, 2.0)
            calibration = embed_calibration(mf, layout)
            assert calibration[p, c] > 1.0
            sem_w, _ = sem_attention(q, k, v)
            dep_w, _ = dep_attention(q, k, v, calibration)
            assert dep_w[p, c] > sem_w[p, c]


def test_criterion_5_gradient_checks_50_configurations():
    rng = np.random.default_rng(1005)
    with criterion(5, "analytic gradients match fd oracle at 1e-5", 60.0):
        for seed in range(50):
            config = GradCheckConfig(
                d_seq=int(rng.integers(1, 7)),
                d_k=int(rng.integers(1, 9)),
                d_v=int(rng.integers(1, 9)),
                d_hid=int(rng.integers(1, 6)),
            )
            for op in ("fuse", "dep_attention", "sem_attention"):
                report = check(op, config, seed=seed, tol=1e-5, eps=1e-5)
                assert report.passed, (op, seed, config, report.rel_errors, report.abs_errors)


def test_criterion_6_gate_ranges_over_500_evaluations():
    rng = np.random.default_rng(1006)
    with criterion(6, "gates in (0,1), outputs in (-1,1), pools stochastic", 10.0):
        for trial in range(500):
            d_seq = int(rng.integers(1, 7))
            d_v = int(rng.integers(1, 7))
            d_hid = int(rng.integers(1, 6))
            params = FusionParams.init(d_seq, d_v, d_hid, seed=trial)
            sem = rng.uniform(-3.0, 3.0, (d_seq, d_v))
            dep = rng.uniform(-3.0, 3.0, (d_seq, d_v))
            out = fuse(sem, dep, params)
            assert np.all(out.fusion_gate > 0.0) and np.all(out.fusion_gate < 1.0)
            assert np.all(out.filter_gate > 0.0) and np.all(out.filter_gate < 1.0)
            assert np.all(out.fused > -1.0) and np.all(out.fused < 1.0)
            assert np.all(out.dep_pool_weights >= 0.0)
            assert np.all(out.sem_pool_weights >= 0.0)
            assert np.allclose(out.dep_pool_weights.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(out.sem_pool_weights.sum(axis=1), 1.0, atol=1e-9)


def test_criterion_7_opposite_structure_pair(tmp_path):
    with criterion(7, "structure pair: branch scores and differing heatmaps", 5.0):
        a = make_sentence(PAIR_A)
        b = make_sentence(PAIR_B)
        m = base_matrix(a, b, DepMatrixConfig(theta=2.0))
        # Apple_A vs company_B: shared head "exceeded", shared relation nsubj
        assert m[0, 1] == 2.0
        # Apple_A vs Apple_B: words match twice, relations nsubj vs obj differ
        assert m[0, 3] == 2.0

        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(
            json.dumps({"id": "fig", "a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)}) + "\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "demo"
        assert run(["demo", "--pairs", str(pairs), "--theta", "2.0",
                    "--seed", "42", "--out", str(out_dir)]) == 0
        _, _, sem = read_heatmap_csv(out_dir / "fig.sem.h0.csv")
        _, _, dep = read_heatmap_csv(out_dir / "fig.dep.h0.csv")
        layout = build_layout(a, b)
        cross = np.ix_(list(layout.a_span), list(layout.b_span))
        assert np.max(np.abs(dep[cross] - sem[cross])) > 0.0


def test_criterion_8_demo_outputs_byte_identical(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"id": "det", "a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)}) + "\n",
        encoding="utf-8",
    )
    with criterion(8, "demo with fixed seed is byte-identical", 30.0):
        digests = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            assert run(["demo", "--pairs", str(pairs), "--seed", "42",
                        "--out", str(out_dir)]) == 0
            digests.append({
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out_dir.iterdir())
            })
        assert digests[0] == digests[1]
        assert len(digests[0]) >= 3

"""Ground truth for the central claim: does dependency structure point at the aligned token?

Each pair is a tree and a paraphrase of it (`conftest.aligned_pair`), so every a-token that
survives the edits has a known aligned b-token. The rows scored are the a-rows with an aligned
token and a non-zero MF row, under the library defaults and tf-idf fitted on the pool.
"""

import numpy as np
import pytest

from conftest import aligned_pair
from dafa.attention import AttnConfig, AttnParams
from dafa.depmatrix import DepMatrixConfig, final_matrix
from dafa.pipeline import EmbeddingTable, build_layout, pair_attention
from dafa.tfidf import TfIdfModel


@pytest.fixture(scope="module")
def scored_rows():
    """Per scored a-row: (MF argmax hits, first same-form b-token hits, dep mass > sem mass)."""
    rng = np.random.default_rng(0)
    pool = [aligned_pair(rng, int(rng.integers(6, 41)), edits=2) for _ in range(100)]
    model = TfIdfModel.fit([s for a, b, _ in pool for s in (a, b)])
    # the attention weights do not depend on d_seq, so one seeded set serves every pair
    params = AttnParams.init(AttnConfig(d_model=16, heads=2, d_k=8, d_v=8, d_seq=1), seed=42)
    rows = []
    for a, b, alignment in pool:
        mf = final_matrix(a, b, model)
        layout = build_layout(a, b)
        embeddings = EmbeddingTable.build(a.forms() + b.forms(), 16, seed=42)
        _, sem_w, _, dep_w, _ = pair_attention(a, b, layout, model, embeddings, params,
                                               DepMatrixConfig())
        forms_b = [form.lower() for form in b.forms()]
        for i, j in enumerate(alignment):
            if j is None or not mf[i].any():
                continue
            form = a.tokens[i].form.lower()
            r, c = layout.a_span[i], layout.b_span[j]
            rows.append((int(np.argmax(mf[i])) == j,
                         form in forms_b and forms_b.index(form) == j,
                         dep_w[:, r, c].mean() > sem_w[:, r, c].mean()))
    assert len(rows) > 1000
    return np.array(rows)


def test_mf_finds_the_aligned_token_more_often_than_word_match(scored_rows):
    # 88.3% against 64.5% on this pool
    mf_rate, baseline_rate, _ = scored_rows.mean(axis=0)
    assert mf_rate >= baseline_rate + 0.10, (mf_rate, baseline_rate)


@pytest.mark.xfail(strict=True, reason="the dep path raises the aligned token's mass in about "
                                       "half of the rows: its calibration barely moves attention "
                                       "at today's scale (ROADMAP item 10)")
def test_dep_path_raises_the_aligned_tokens_mass(scored_rows):
    rise_rate = scored_rows[:, 2].mean()
    assert rise_rate >= 0.90, rise_rate

"""The names `dafa` exports: exactly what the model and its CLI run."""

import dataclasses

import dafa
from dafa.attention import AttnParams

EXPECTED_NAMES = [
    "AttnConfig", "AttnParams", "CalibratedSignals", "ConlluError", "DepMatrixConfig",
    "DepSentence", "EmbeddingTable", "FusionOutput", "FusionParams", "GradCheckConfig",
    "GradReport", "LayerOutput", "PairLayout", "SentencePair", "TfIdfModel", "Token",
    "analytic_gradient", "base_matrix", "build_layout", "check", "dafa_layer", "dep_attention",
    "embed_calibration", "fd_gradient", "final_matrix", "fuse", "multi_head_dafa",
    "parse_conllu", "parse_single", "probe_loss", "read_heatmap_csv", "read_pairs",
    "sem_attention", "sequence_tokens", "subgraph_matrix", "write_heatmap_csv",
]


def test_public_surface_is_pinned():
    assert len(EXPECTED_NAMES) == 36
    assert sorted(dafa.__all__) == EXPECTED_NAMES
    for name in dafa.__all__:
        assert getattr(dafa, name) is not None, name
    # the forward reads only these projections; heads are averaged, not projected
    assert tuple(f.name for f in dataclasses.fields(AttnParams)) == ("w_q", "w_k", "w_v")

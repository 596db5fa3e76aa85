"""The names `dafa` exports: exactly what the model and its CLI run."""

import dataclasses

import dafa
from dafa.attention import AttnParams
from dafa.fusion import PARAM_FIELDS, FusionParams

EXPECTED_NAMES = [
    "AttnConfig", "AttnParams", "ConlluError", "DepMatrixConfig", "DepSentence",
    "EmbeddingTable", "FusionOutput", "FusionParams", "GradCheckConfig", "GradReport",
    "LayerOutput", "SentencePair", "TfIdfModel", "Token", "base_matrix", "build_layout",
    "check", "dafa_layer", "dep_attention", "embed_calibration", "final_matrix", "fuse",
    "multi_head_dafa", "parse_conllu", "parse_single", "read_pairs",
    "sem_attention", "subgraph_matrix", "write_heatmap_csv",
]


def test_public_surface_is_pinned():
    assert len(EXPECTED_NAMES) == 29
    assert sorted(dafa.__all__) == EXPECTED_NAMES
    for name in dafa.__all__:
        assert getattr(dafa, name) is not None, name
    # the forward reads only these projections; heads are averaged, not projected
    assert tuple(f.name for f in dataclasses.fields(AttnParams)) == ("w_q", "w_k", "w_v")
    # the fusion weights the forward reads; the pooling query weights and the score biases,
    # which the row softmax cancels, are not parameters
    assert tuple(f.name for f in dataclasses.fields(FusionParams)) == tuple(PARAM_FIELDS) == (
        "w_dep_proj", "w_sem_proj", "w_dep_score", "w_sem_score", "w_dep_hidden", "b_dep_hidden",
        "w_sem_hidden", "b_sem_hidden", "w_fusion_gate", "w_value", "b_value", "w_output",
        "b_output", "w_filter_gate",
    )

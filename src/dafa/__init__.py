"""Dependency-calibrated attention with adaptive semantic fusion for sentence pairs."""

from .attention import (
    AttnConfig,
    AttnParams,
    CalibratedSignals,
    dep_attention,
    multi_head_dafa,
    sem_attention,
)
from .conllu import (
    ConlluError,
    DepSentence,
    SentencePair,
    Token,
    parse_conllu,
    parse_single,
    read_pairs,
)
from .depmatrix import (
    DepMatrixConfig,
    PairLayout,
    base_matrix,
    embed_calibration,
    final_matrix,
    subgraph_matrix,
)
from .fusion import (
    FusionOutput,
    FusionParams,
    fuse,
)
from .gradcheck import (
    GradCheckConfig,
    GradReport,
    analytic_gradient,
    check,
    fd_gradient,
    probe_loss,
)
from .pipeline import (
    EmbeddingTable,
    LayerOutput,
    build_layout,
    dafa_layer,
    read_heatmap_csv,
    sequence_tokens,
    write_heatmap_csv,
)
from .tfidf import TfIdfModel

__version__ = "0.1.0"

__all__ = [
    "AttnConfig",
    "AttnParams",
    "CalibratedSignals",
    "ConlluError",
    "DepMatrixConfig",
    "DepSentence",
    "EmbeddingTable",
    "FusionOutput",
    "FusionParams",
    "GradCheckConfig",
    "GradReport",
    "LayerOutput",
    "PairLayout",
    "SentencePair",
    "TfIdfModel",
    "Token",
    "analytic_gradient",
    "base_matrix",
    "build_layout",
    "check",
    "dafa_layer",
    "dep_attention",
    "embed_calibration",
    "fd_gradient",
    "final_matrix",
    "fuse",
    "multi_head_dafa",
    "parse_conllu",
    "parse_single",
    "probe_loss",
    "read_heatmap_csv",
    "read_pairs",
    "sem_attention",
    "sequence_tokens",
    "subgraph_matrix",
    "write_heatmap_csv",
]

"""Dependency-calibrated attention with adaptive semantic fusion for sentence pairs."""

from .attention import (
    AttnConfig,
    AttnParams,
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
    check,
)
from .pipeline import (
    EmbeddingTable,
    LayerOutput,
    build_layout,
    dafa_layer,
    write_heatmap_csv,
)
from .tfidf import TfIdfModel

__version__ = "0.1.0"

__all__ = [
    "AttnConfig",
    "AttnParams",
    "ConlluError",
    "DepMatrixConfig",
    "DepSentence",
    "EmbeddingTable",
    "FusionOutput",
    "FusionParams",
    "GradCheckConfig",
    "GradReport",
    "LayerOutput",
    "SentencePair",
    "TfIdfModel",
    "Token",
    "base_matrix",
    "build_layout",
    "check",
    "dafa_layer",
    "dep_attention",
    "embed_calibration",
    "final_matrix",
    "fuse",
    "multi_head_dafa",
    "parse_conllu",
    "parse_single",
    "read_pairs",
    "sem_attention",
    "subgraph_matrix",
    "write_heatmap_csv",
]

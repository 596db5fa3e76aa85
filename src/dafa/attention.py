"""Scaled dot-product attention with an elementwise logit-calibration path.

Everything is positions-major: row i of a signal matrix is the feature
vector of sequence position i. `sem_attention` and `dep_attention` also
take optional leading axes: q, k, v (and the calibration) may be stacks
(..., rows, features) whose leading axes broadcast, and each slice gives
the same bits as a 2-D call on it. The semantic path is plain scaled
dot-product attention; the dependency path multiplies the raw logits
elementwise by a calibration matrix (>= 1 cross-sentence, exactly 1
elsewhere) before scaling and softmax, so calibrated cells gain or keep
attention mass while neutral cells are untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nnops import softmax


@dataclass(frozen=True)
class AttnConfig:
    d_model: int
    heads: int
    d_k: int
    d_v: int
    d_seq: int

    def __post_init__(self):
        for name in ("d_model", "heads", "d_k", "d_v", "d_seq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class AttnParams:
    """Per-head query/key/value projections."""

    w_q: np.ndarray  # (heads, d_model, d_k)
    w_k: np.ndarray  # (heads, d_model, d_k)
    w_v: np.ndarray  # (heads, d_model, d_v)

    @property
    def heads(self) -> int:
        return self.w_q.shape[0]

    @classmethod
    def init(cls, config: AttnConfig, seed) -> "AttnParams":
        """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per matrix."""
        rng = np.random.default_rng(seed)
        proj = 1.0 / math.sqrt(config.d_model)
        return cls(
            w_q=rng.uniform(-proj, proj, (config.heads, config.d_model, config.d_k)),
            w_k=rng.uniform(-proj, proj, (config.heads, config.d_model, config.d_k)),
            w_v=rng.uniform(-proj, proj, (config.heads, config.d_model, config.d_v)),
        )

    def check_config(self, config: AttnConfig) -> None:
        expected = {
            "w_q": (config.heads, config.d_model, config.d_k),
            "w_k": (config.heads, config.d_model, config.d_k),
            "w_v": (config.heads, config.d_model, config.d_v),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")


@dataclass(frozen=True, eq=False)
class CalibratedSignals:
    """Semantic and dependency-calibrated outputs of one attention head."""

    sem: np.ndarray          # (d_seq, d_v)
    dep: np.ndarray          # (d_seq, d_v)
    sem_weights: np.ndarray  # (d_seq, d_seq), row-stochastic
    dep_weights: np.ndarray  # (d_seq, d_seq), row-stochastic


def _as_qkv(q, k, v):
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ValueError("q, k, v must have at least 2 axes (..., rows, features)")
    if q.shape[-1] != k.shape[-1]:
        raise ValueError(
            f"q and k feature sizes (last axis) differ: {q.shape[-1]} vs {k.shape[-1]}"
        )
    if k.shape[-2] != v.shape[-2]:
        raise ValueError(
            f"k and v row counts (second-to-last axis) differ: {k.shape[-2]} vs {v.shape[-2]}"
        )
    return q, k, v


def sem_attention(q, k, v) -> tuple[np.ndarray, np.ndarray]:
    """Standard scaled dot-product attention over the last two axes; returns (weights, output)."""
    q, k, v = _as_qkv(q, k, v)
    logits = (q @ k.swapaxes(-1, -2)) / math.sqrt(q.shape[-1])
    weights = softmax(logits, axis=-1)
    return weights, weights @ v


def dep_attention(q, k, v, calibration) -> tuple[np.ndarray, np.ndarray]:
    """Attention whose raw logits are multiplied elementwise by the calibration matrix.

    With an all-ones calibration this reproduces sem_attention bit for bit.
    Negative logits are amplified negatively by calibration > 1; that
    asymmetry is intentional and not clamped. The calibration's last two
    axes are (q rows, k rows); its leading axes broadcast with the logits'.
    """
    q, k, v = _as_qkv(q, k, v)
    calibration = np.asarray(calibration, dtype=np.float64)
    logit_shape = (q.shape[-2], k.shape[-2])
    if calibration.shape[-2:] != logit_shape:
        raise ValueError(
            f"calibration shape {calibration.shape} does not end in the logits' "
            f"(q rows, k rows) {logit_shape}"
        )
    logits = ((q @ k.swapaxes(-1, -2)) * calibration) / math.sqrt(q.shape[-1])
    weights = softmax(logits, axis=-1)
    return weights, weights @ v


def multi_head_dafa(x, params: AttnParams, calibration) -> list[CalibratedSignals]:
    """Run both attention paths for every head, sharing one calibration matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.w_q.shape[1]:
        raise ValueError(f"input shape {x.shape} does not match d_model {params.w_q.shape[1]}")
    signals = []
    for h in range(params.heads):
        q, k, v = x @ params.w_q[h], x @ params.w_k[h], x @ params.w_v[h]
        sem_w, sem = sem_attention(q, k, v)
        dep_w, dep = dep_attention(q, k, v, calibration)
        signals.append(CalibratedSignals(sem=sem, dep=dep, sem_weights=sem_w, dep_weights=dep_w))
    return signals

"""Scaled dot-product attention with an elementwise logit-calibration path.

Everything is positions-major: row i of a signal matrix is the feature
vector of sequence position i. `sem_attention` and `dep_attention` also
take optional leading axes: q, k, v (and the calibration) may be stacks
(..., rows, features) whose leading axes broadcast, and each slice gives
the same bits as a 2-D call on it. The semantic path is plain scaled
dot-product attention; the dependency path multiplies the raw logits
elementwise by a calibration matrix (>= 1 cross-sentence, exactly 1
elsewhere) before scaling and softmax, so calibrated cells gain or keep
attention mass while neutral cells are untouched; `attention_backward`
differentiates either path. `multi_head_dafa` runs both paths for every
head and returns their weights and signals as stacks, head first.
Each op allocates its logits once, as `q @ k^T`; the calibration multiply
(unless the calibration's broadcast widens the logits), the 1/sqrt(d_k)
scale and the softmax run in place on them, with the formula's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nnops import softmax_backward, softmax_in_place


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


def _shapes(config: AttnConfig) -> dict[str, tuple[int, int, int]]:
    """Each AttnParams field's shape under `config`, in seeded-draw order."""
    return {
        "w_q": (config.heads, config.d_model, config.d_k),
        "w_k": (config.heads, config.d_model, config.d_k),
        "w_v": (config.heads, config.d_model, config.d_v),
    }


@dataclass(frozen=True, eq=False)
class AttnParams:
    """Per-head query/key/value projections, shaped as `_shapes` lists."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    @classmethod
    def init(cls, config: AttnConfig, seed) -> "AttnParams":
        """Seeded uniform init in [-1/sqrt(d_model), 1/sqrt(d_model)], drawn in w_q, w_k, w_v order."""
        rng = np.random.default_rng(seed)
        bound = 1.0 / math.sqrt(config.d_model)
        return cls(**{name: rng.uniform(-bound, bound, shape)
                      for name, shape in _shapes(config).items()})

    def check_config(self, config: AttnConfig) -> None:
        for name, shape in _shapes(config).items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")


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
    logits = q @ k.swapaxes(-1, -2)
    logits /= math.sqrt(q.shape[-1])
    weights = softmax_in_place(logits)
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
    logits = q @ k.swapaxes(-1, -2)
    if np.broadcast_shapes(logits.shape, calibration.shape) == logits.shape:
        logits *= calibration
    else:  # the calibration's leading axes widen the logits: the product is a new array
        logits = logits * calibration
    logits /= math.sqrt(q.shape[-1])
    weights = softmax_in_place(logits)
    return weights, weights @ v


def attention_backward(q, k, v, weights, g_out, calibration=None) -> dict:
    """Gradients for q, k and v of either path from its forward `weights` and the output gradient
    `g_out` (pass the dep path's calibration); each keeps the call's broadcast leading axes."""
    q, k, v = _as_qkv(q, k, v)
    g_logits = softmax_backward(weights, g_out @ v.swapaxes(-1, -2))
    if calibration is not None:
        g_logits = g_logits * np.asarray(calibration, dtype=np.float64)
    g_raw = g_logits * (1.0 / np.sqrt(q.shape[-1]))
    return {"q": g_raw @ k, "k": g_raw.swapaxes(-1, -2) @ q, "v": weights.swapaxes(-1, -2) @ g_out}


def multi_head_dafa(x, params: AttnParams, calibration) -> tuple[np.ndarray, ...]:
    """Run both attention paths for every head, sharing one calibration matrix.

    Returns (sem_weights, sem, dep_weights, dep), each stacked over heads:
    the weights are (heads, d_seq, d_seq) and row-stochastic, the signals
    (heads, d_seq, d_v).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.w_q.shape[1]:
        raise ValueError(f"input shape {x.shape} does not match d_model {params.w_q.shape[1]}")
    q, k, v = x @ params.w_q, x @ params.w_k, x @ params.w_v   # (heads, d_seq, .)
    # one call per head slice, although both ops take the stack: the benchmark's logit
    # counter (bench/workloads.py::_count_logits) reads len(q) * len(k), right for 2-D only
    sem_w, sem = zip(*map(sem_attention, q, k, v))
    dep_w, dep = zip(*(dep_attention(*qkv, calibration) for qkv in zip(q, k, v)))
    return np.stack(sem_w), np.stack(sem), np.stack(dep_w), np.stack(dep)

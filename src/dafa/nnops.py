"""Small numerically-careful primitives shared by the attention and fusion code. The one softmax,
`softmax_in_place`, runs over the attention logits and the fusion pooling scores its callers own."""

from __future__ import annotations

import numpy as np


def softmax_in_place(x: np.ndarray) -> np.ndarray:
    """Last-axis softmax with per-row max subtraction, written over the float64 `x`; returns `x`."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def softmax_backward(weights: np.ndarray, g_weights: np.ndarray) -> np.ndarray:
    """Gradient through a last-axis softmax, from its output `weights` and their gradient."""
    return weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))


def sigmoid(x):
    """Logistic function from one exp of -|x|, which never overflows; NaN keeps its sign bit."""
    x = np.asarray(x, dtype=np.float64)
    nonneg = x >= 0
    e = np.exp(np.where(nonneg, -x, x))
    return np.where(nonneg, 1.0 / (1.0 + e), e / (1.0 + e))

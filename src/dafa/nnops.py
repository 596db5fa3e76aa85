"""Small numerically-careful primitives shared by the attention and fusion code. The attention
logits and the fusion pooling scores, which their callers own, go through `softmax_in_place`."""

from __future__ import annotations

import numpy as np


def softmax_in_place(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with per-slice max subtraction, written over the float64 array `x`; returns `x`."""
    x -= np.max(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


def softmax(x, axis: int = -1) -> np.ndarray:
    """Softmax with per-slice max subtraction, on a float64 copy of `x`."""
    return softmax_in_place(np.array(x, dtype=np.float64), axis)


def softmax_backward(weights: np.ndarray, g_weights: np.ndarray) -> np.ndarray:
    """Gradient through a last-axis softmax, from its output `weights` and their gradient."""
    return weights * (g_weights - np.sum(g_weights * weights, axis=-1, keepdims=True))


def sigmoid(x):
    """Logistic function, evaluated on the overflow-free branch per sign."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))

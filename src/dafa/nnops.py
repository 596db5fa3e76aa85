"""Small numerically-careful primitives shared by the attention and fusion code."""

from __future__ import annotations

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with per-slice max subtraction; exp and divide run in place on that fresh copy."""
    x = np.asarray(x, dtype=np.float64)
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


def softmax_backward(weights: np.ndarray, g_weights: np.ndarray) -> np.ndarray:
    """Gradient through a last-axis softmax, from its output `weights` and their gradient."""
    return weights * (g_weights - np.sum(g_weights * weights, axis=-1, keepdims=True))


def sigmoid(x):
    """Logistic function, evaluated on the overflow-free branch per sign."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))

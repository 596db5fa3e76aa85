"""Gradient verification: hand-derived reverse-mode passes against central differences.

Every differentiable operation is scalarized through a fixed probe loss
(half the squared sum of its output matrix). The analytic gradients walk
the same forward trace the operations use; the oracle re-estimates each
scalar parameter's gradient with central finite differences. The oracle
is batched: it stacks the +eps and -eps copies of a block of scalars
along one leading axis and evaluates the loss once per block, through
the same forward, which takes leading axes. A parameter
passes when its relative error is below the tolerance or its absolute
error is below a small floor (which absorbs parameters whose true
gradient is zero, where relative error is meaningless).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .attention import dep_attention, sem_attention
from .fusion import FusionParams, _check_signal, _forward_trace

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-5
ABS_FLOOR = 1e-8
_REL_DENOM_FLOOR = 1e-12

OP_NAMES = ("fuse", "sem_attention", "dep_attention")

# scalars perturbed per batched loss call (each gives a +eps and a -eps row); bounds the
# stacked arrays' memory
_FD_BLOCK = 32


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def probe_loss(output):
    """Half the squared sum of an operation's output matrix (its last two axes).

    A stack (..., rows, cols) gives one loss per leading index.
    """
    matrix = np.asarray(output, dtype=np.float64)
    return 0.5 * np.sum(matrix * matrix, axis=(-2, -1))


def fd_gradient(f, params: dict, eps: float = DEFAULT_EPS) -> dict:
    """Central-difference gradient of a loss over a dict of arrays, evaluated in batches.

    `f` takes a dict holding every array of `params` with one extra leading
    axis of R rows, and returns R finite losses, one per row (shape (R,)).
    The scalars of all arrays, in dict order and then in C order, are
    perturbed in blocks of up to 32: in a block's call, row 2j holds block
    scalar j raised by eps and row 2j+1 holds it lowered by eps, and every
    other entry of each row is unperturbed.
    """
    _require_positive("eps", eps)
    base = {name: np.array(value, dtype=np.float64) for name, value in params.items()}
    offsets = np.cumsum([value.size for value in base.values()])[:-1]

    def unflatten(flat: np.ndarray) -> dict:
        """Split the last axis of `flat` back into the named arrays' shapes."""
        parts = np.split(flat, offsets, axis=-1)
        return {name: part.reshape(flat.shape[:-1] + value.shape)
                for (name, value), part in zip(base.items(), parts)}

    point = np.concatenate([value.ravel() for value in base.values()])
    grad = np.empty(point.size)
    for lo in range(0, point.size, _FD_BLOCK):
        count = min(_FD_BLOCK, point.size - lo)
        rows = np.repeat(point[None], 2 * count, axis=0)
        j = np.arange(count)
        rows[2 * j, lo + j] += eps
        rows[2 * j + 1, lo + j] -= eps
        losses = np.asarray(f(unflatten(rows)), dtype=np.float64)
        if not np.all(np.isfinite(losses)):
            raise ValueError("function under test returned a non-finite value")
        if losses.shape != (2 * count,):
            raise ValueError(
                f"function under test must return one loss per perturbation row: "
                f"expected shape {(2 * count,)}, got {losses.shape}"
            )
        grad[lo:lo + count] = (losses[0::2] - losses[1::2]) / (2.0 * eps)
    return unflatten(grad)


def _softmax_rows_backward(weights: np.ndarray, g_weights: np.ndarray) -> np.ndarray:
    return weights * (g_weights - np.sum(g_weights * weights, axis=-1, keepdims=True))


def _attention_gradients(q, k, v, calibration=None) -> dict:
    """Probe-loss gradients of one attention path with respect to q, k, v."""
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    operands = {"q": q, "k": k, "v": v}
    if calibration is not None:
        operands["calibration"] = calibration
    if any(x.ndim != 2 for x in operands.values()):
        shapes = ", ".join(f"{name} {x.shape}" for name, x in operands.items())
        raise ValueError(f"attention gradients take 2-D operands only, got {shapes}")
    if calibration is None:
        weights, out = sem_attention(q, k, v)
    else:
        weights, out = dep_attention(q, k, v, calibration)
    scale = 1.0 / np.sqrt(q.shape[1])

    g_out = out
    g_weights = g_out @ v.T
    g_v = weights.T @ g_out
    g_logits = _softmax_rows_backward(weights, g_weights)
    g_raw = g_logits * calibration * scale if calibration is not None else g_logits * scale
    return {"q": g_raw @ k, "k": g_raw.T @ q, "v": g_v}


def sem_attention_gradients(q, k, v) -> dict:
    return _attention_gradients(q, k, v)


def dep_attention_gradients(q, k, v, calibration) -> dict:
    return _attention_gradients(q, k, v, np.asarray(calibration, dtype=np.float64))


def fuse_gradients(sem, dep, params: FusionParams) -> dict:
    """Probe-loss gradients for every fusion parameter and both input signals.

    Mirrors the forward trace step by step in reverse. Every row that the
    trace shares across positions collects the gradient summed over
    positions. The softmax cancels the pooling query half and the score
    bias, so `w_*_query`, `b_*_query`, `w_*_score[d_seq:]` and `b_*_score`
    get exact zeros.
    """
    sem = _check_signal("sem", sem, params)
    dep = _check_signal("dep", dep, params)
    t = _forward_trace(sem, dep, params.to_dict())
    d_seq, d_v, d_hid = params.d_seq, params.d_v, params.d_hid
    g: dict = {name: np.zeros_like(getattr(params, name))
               for name in ("w_sem_query", "b_sem_query", "w_dep_query", "b_dep_query",
                            "b_dep_score", "b_sem_score")}

    g_fused = t["fused"]                                          # (d_seq, d_v)
    g_filter = g_fused @ t["squashed"][0]                         # (d_seq,)
    g_squashed = t["filter_gate"][None, :] @ g_fused              # shared rows are (1, ·)
    g_out_pre = g_squashed * (1.0 - t["squashed"] ** 2)
    g["w_output"] = g_out_pre.T @ t["blend"]
    g["b_output"] = g_out_pre[0]
    g_blend = g_out_pre @ params.w_output

    g_zf = g_filter * t["filter_gate"] * (1.0 - t["filter_gate"])
    g_zf_total = g_zf.sum()
    g["w_filter_gate"] = np.concatenate([sem.T @ g_zf, g_zf_total * t["projected"][0]])
    g_sem_filter = np.outer(g_zf, params.w_filter_gate[:d_v])
    g_projected = g_zf_total * params.w_filter_gate[None, d_v:]
    g["w_value"] = g_projected.T @ t["blend"]
    g["b_value"] = g_projected[0]
    g_blend += g_projected @ params.w_value

    g_gate = np.sum(g_blend * (t["hs"] - t["hd"]), axis=1)
    g_hs = t["fusion_gate"][:, None] * g_blend
    g_hd = (1.0 - t["fusion_gate"])[:, None] * g_blend
    g_zg = g_gate * t["fusion_gate"] * (1.0 - t["fusion_gate"])
    g["w_fusion_gate"] = np.concatenate([t["hd"], t["hs"]], axis=1).T @ g_zg
    g_hd += g_zg[:, None] * params.w_fusion_gate[None, :d_hid]
    g_hs += g_zg[:, None] * params.w_fusion_gate[None, d_hid:]

    g_hd_pre = g_hd * (1.0 - t["hd"] ** 2)
    g["w_dep_hidden"] = g_hd_pre.T @ t["dep_refined"]
    g["b_dep_hidden"] = g_hd_pre[0]
    g_dep_refined = g_hd_pre @ params.w_dep_hidden

    g_hs_pre = g_hs * (1.0 - t["hs"] ** 2)
    g["w_sem_hidden"] = g_hs_pre.T @ t["sem_refined"]
    g["b_sem_hidden"] = g_hs_pre[0]
    g_sem_refined = g_hs_pre @ params.w_sem_hidden

    # the two guided poolings and their shared signal projections
    for name, signal, g_refined in (("sem", sem, g_sem_refined), ("dep", dep, g_dep_refined)):
        pool, tanh_proj = t[f"{name}_pool"], t[f"t_{name}"]
        g_signal = pool.T @ g_refined
        g_scores = _softmax_rows_backward(pool, g_refined @ signal.T)[0]   # (d_seq,)
        g[f"w_{name}_score"] = np.concatenate([tanh_proj @ g_scores, np.zeros(d_seq)])
        w_top = getattr(params, f"w_{name}_score")[:d_seq]
        g_proj = np.outer(w_top, g_scores) * (1.0 - tanh_proj ** 2)
        g[f"w_{name}_proj"] = g_proj @ signal
        g_signal += g_proj.T @ getattr(params, f"w_{name}_proj")
        g[name] = g_signal

    g["sem"] += g_sem_filter
    return g


def analytic_gradient(op_name: str, inputs: dict, params: FusionParams | None = None) -> dict:
    """Dispatch to the reverse-mode pass for one operation."""
    if op_name == "fuse":
        if params is None:
            raise ValueError("fuse gradients need FusionParams")
        return fuse_gradients(inputs["sem"], inputs["dep"], params)
    if op_name == "sem_attention":
        return sem_attention_gradients(inputs["q"], inputs["k"], inputs["v"])
    if op_name == "dep_attention":
        return dep_attention_gradients(inputs["q"], inputs["k"], inputs["v"], inputs["calibration"])
    raise ValueError(f"unknown op {op_name!r}; expected one of {OP_NAMES}")


@dataclass(frozen=True)
class GradCheckConfig:
    d_seq: int = 4
    d_k: int = 3
    d_v: int = 3
    d_hid: int = 3

    def __post_init__(self):
        for name in ("d_seq", "d_k", "d_v", "d_hid"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class GradReport:
    """Comparison of analytic and finite-difference gradients for one operation."""

    op_name: str
    seed: int
    tol: float
    eps: float
    rel_errors: dict = field(default_factory=dict)
    abs_errors: dict = field(default_factory=dict)
    passed: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, allow_nan=False)


def compare_gradients(analytic: dict, fd: dict, tol: float, abs_floor: float = ABS_FLOOR):
    """Per-parameter max errors plus the overall pass flag.

    A scalar entry passes when |analytic - fd| / max(|analytic|, |fd|, 1e-12)
    is below tol, or when the absolute difference is below abs_floor.
    """
    rel_errors, abs_errors, passed = {}, {}, True
    for name in analytic:
        a = np.atleast_1d(np.asarray(analytic[name], dtype=np.float64))
        f = np.atleast_1d(np.asarray(fd[name], dtype=np.float64))
        diff = np.abs(a - f)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), _REL_DENOM_FLOOR)
        rel = diff / denom
        ok = np.all((rel < tol) | (diff < abs_floor))
        passed = passed and bool(ok)
        rel_errors[name] = float(rel.max())
        abs_errors[name] = float(diff.max())
    return rel_errors, abs_errors, passed


def check(
    op_name: str,
    config: GradCheckConfig | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    eps: float = DEFAULT_EPS,
) -> GradReport:
    """Run one seeded analytic-vs-finite-difference comparison."""
    _require_positive("tol", tol)
    _require_positive("eps", eps)
    cfg = config or GradCheckConfig()
    rng = np.random.default_rng(seed)
    params = None
    if op_name == "fuse":
        params = FusionParams.init(cfg.d_seq, cfg.d_v, cfg.d_hid, rng)
        inputs = {name: rng.uniform(-1.0, 1.0, (cfg.d_seq, cfg.d_v)) for name in ("sem", "dep")}
        flat = {**params.to_dict(), **inputs}

        def loss(values: dict) -> np.ndarray:
            return probe_loss(_forward_trace(values["sem"], values["dep"], values)["fused"])
    else:  # an unknown op_name draws q, k, v, then analytic_gradient rejects it
        dims = {"q": cfg.d_k, "k": cfg.d_k, "v": cfg.d_v}
        inputs = {name: rng.uniform(-1.0, 1.0, (cfg.d_seq, d)) for name, d in dims.items()}
        flat = dict(inputs)
        calibration = None
        if op_name == "dep_attention":
            calibration = 1.0 + rng.uniform(0.0, 1.0, (cfg.d_seq, cfg.d_seq))
            inputs["calibration"] = calibration

        def loss(w: dict) -> np.ndarray:
            if calibration is None:
                return probe_loss(sem_attention(w["q"], w["k"], w["v"])[1])
            return probe_loss(dep_attention(w["q"], w["k"], w["v"], calibration)[1])

    analytic = analytic_gradient(op_name, inputs, params)
    fd = fd_gradient(loss, flat, eps)
    rel_errors, abs_errors, passed = compare_gradients(analytic, fd, tol)
    return GradReport(
        op_name=op_name, seed=seed, tol=tol, eps=eps,
        rel_errors=rel_errors, abs_errors=abs_errors, passed=passed,
    )

"""Gradient verification: hand-derived reverse-mode passes against central differences.

Every differentiable operation is scalarized through a fixed probe loss
(half the squared sum of its output matrix). The analytic gradients walk
the same forward trace the operations use; the oracle re-estimates each
scalar parameter's gradient with central finite differences. The oracle
is batched: it stacks the +eps and -eps copies of a block of scalars
along one leading axis and evaluates the loss once per block, through
the same forward, which takes leading axes. A block holds as many
scalars as keep the call's stacked working set within a fixed cell
budget, so a small check is one loss call. A parameter
passes when its relative error is below the tolerance or its absolute
error is below a small floor (which absorbs parameters whose true
gradient is zero, where relative error is meaningless).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .attention import dep_attention, sem_attention
from .fusion import FusionParams, _check_signal, _forward_trace

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-5
ABS_FLOOR = 1e-8
_REL_DENOM_FLOOR = 1e-12

# cells one batched loss call may stack (16 MiB of float64): 2 rows per perturbed scalar times
# the loss's per-row working set. Counting the forward's per-row blocks as well as the point
# bounds the largest arrays the forward builds, not only the perturbed rows.
_FD_CELLS = 2 ** 21


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def probe_loss(output):
    """Half the squared sum of an operation's output matrix (its last two axes).

    A stack (..., rows, cols) gives one loss per leading index.
    """
    matrix = np.asarray(output, dtype=np.float64)
    return 0.5 * np.sum(matrix * matrix, axis=(-2, -1))


def fd_gradient(f, params: dict, eps: float = DEFAULT_EPS, row_cells: int = 0) -> dict:
    """Central-difference gradient of a loss over a dict of arrays, evaluated in batches.

    `f` takes a dict holding every array of `params` with one extra leading
    axis of R rows, and returns R finite losses, one per row (shape (R,)).
    The scalars of all arrays, in dict order and then in C order, are
    perturbed in blocks: in a block's call, row 2j holds block scalar j
    raised by eps and row 2j+1 holds it lowered by eps, and every other
    entry of each row is unperturbed. A row's working set is the point's
    scalars plus `row_cells`, the cells `f` builds per row beyond them; a
    block holds as many scalars as keep 2 rows each times that working set
    within `_FD_CELLS`, and at least one.
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
    block = max(1, _FD_CELLS // (2 * (point.size + row_cells)))
    for lo in range(0, point.size, block):
        count = min(block, point.size - lo)
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
    positions. Unlike `fuse`, it takes 2-D (d_seq, d_v) signals only.
    """
    if np.ndim(sem) != 2 or np.ndim(dep) != 2:
        raise ValueError(f"fuse gradients take 2-D signals only: sem has shape "
                         f"{np.shape(sem)}, dep has shape {np.shape(dep)}")
    sem = _check_signal("sem", sem, params)
    dep = _check_signal("dep", dep, params)
    w = params.to_dict()
    t = _forward_trace(sem, dep, w)
    d_v, d_hid = params.d_v, params.d_hid
    g = {}

    g_fused = t["fused"]                                          # (d_seq, d_v)
    g_filter = g_fused @ t["squashed"][0]                         # (d_seq,)
    g_squashed = t["filter_gate"][None, :] @ g_fused              # shared rows are (1, ·)
    g_out_pre = g_squashed * (1.0 - t["squashed"] ** 2)
    g["w_output"] = g_out_pre.T @ t["blend"]
    g["b_output"] = g_out_pre[0]
    g_blend = g_out_pre @ w["w_output"]

    g_zf = g_filter * t["filter_gate"] * (1.0 - t["filter_gate"])
    g_zf_total = g_zf.sum()
    g["w_filter_gate"] = np.concatenate([sem.T @ g_zf, g_zf_total * t["projected"][0]])
    g_sem_filter = np.outer(g_zf, w["w_filter_gate"][:d_v])
    g_projected = g_zf_total * w["w_filter_gate"][None, d_v:]
    g["w_value"] = g_projected.T @ t["blend"]
    g["b_value"] = g_projected[0]
    g_blend += g_projected @ w["w_value"]

    g_gate = np.sum(g_blend * (t["h_sem"] - t["h_dep"]), axis=1)
    g_hidden = {"sem": t["fusion_gate"][:, None] * g_blend,
                "dep": (1.0 - t["fusion_gate"])[:, None] * g_blend}
    g_zg = g_gate * t["fusion_gate"] * (1.0 - t["fusion_gate"])
    g["w_fusion_gate"] = np.concatenate([t["h_dep"], t["h_sem"]], axis=1).T @ g_zg
    g_hidden["dep"] += g_zg[:, None] * w["w_fusion_gate"][None, :d_hid]
    g_hidden["sem"] += g_zg[:, None] * w["w_fusion_gate"][None, d_hid:]

    # each guided branch: its hidden layer, its pooling and its signal projection
    for name, signal in (("sem", sem), ("dep", dep)):
        pool, tanh_proj = t[f"{name}_pool"], t[f"t_{name}"]
        g_hidden_pre = g_hidden[name] * (1.0 - t[f"h_{name}"] ** 2)
        g[f"w_{name}_hidden"] = g_hidden_pre.T @ t[f"{name}_refined"]
        g[f"b_{name}_hidden"] = g_hidden_pre[0]
        g_refined = g_hidden_pre @ w[f"w_{name}_hidden"]
        g_signal = pool.T @ g_refined
        g_scores = _softmax_rows_backward(pool, g_refined @ signal.T)[0]   # (d_seq,)
        g[f"w_{name}_score"] = tanh_proj @ g_scores
        g_proj = np.outer(w[f"w_{name}_score"], g_scores) * (1.0 - tanh_proj ** 2)
        g[f"w_{name}_proj"] = g_proj @ signal
        g_signal += g_proj.T @ w[f"w_{name}_proj"]
        g[name] = g_signal

    g["sem"] += g_sem_filter
    return g


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
    rel_errors: dict
    abs_errors: dict
    passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, allow_nan=False)


def compare_gradients(analytic: dict, fd: dict, tol: float):
    """Per-parameter max errors plus the overall pass flag.

    A scalar entry passes when |analytic - fd| / max(|analytic|, |fd|, 1e-12)
    is below tol, or when the absolute difference is below ABS_FLOOR. Both
    dicts must hold the same names, each a non-empty array of one shape in
    both; the entries are compared in one pass over their concatenation.
    """
    a = {name: np.asarray(value, dtype=np.float64) for name, value in analytic.items()}
    f = {name: np.asarray(value, dtype=np.float64) for name, value in fd.items()}
    for name in {**a, **f}:
        if name not in a or name not in f:
            only = "an analytic" if name in a else "a finite-difference"
            raise ValueError(f"parameter {name!r} has only {only} gradient")
        if a[name].shape != f[name].shape or a[name].size == 0:
            raise ValueError(f"parameter {name!r}: analytic gradient has shape "
                             f"{a[name].shape}, finite-difference gradient {f[name].shape}; "
                             "expected one non-empty shape")
    sizes = [value.size for value in a.values()]
    flat_a = np.concatenate([value.ravel() for value in a.values()])
    flat_f = np.concatenate([f[name].ravel() for name in a])
    diff = np.abs(flat_a - flat_f)
    rel = diff / np.maximum(np.maximum(np.abs(flat_a), np.abs(flat_f)), _REL_DENOM_FLOOR)
    starts = np.cumsum([0] + sizes[:-1])
    rel_errors = dict(zip(a, np.maximum.reduceat(rel, starts).tolist()))
    abs_errors = dict(zip(a, np.maximum.reduceat(diff, starts).tolist()))
    return rel_errors, abs_errors, bool(np.all((rel < tol) | (diff < ABS_FLOOR)))


def _fuse_case(cfg: GradCheckConfig, rng):
    params = FusionParams.init(cfg.d_seq, cfg.d_v, cfg.d_hid, rng)
    sem = rng.uniform(-1.0, 1.0, (cfg.d_seq, cfg.d_v))
    dep = rng.uniform(-1.0, 1.0, (cfg.d_seq, cfg.d_v))
    return (fuse_gradients(sem, dep, params),
            lambda w: probe_loss(_forward_trace(w["sem"], w["dep"], w)["fused"]),
            {**params.to_dict(), "sem": sem, "dep": dep})


def _attention_case(cfg: GradCheckConfig, rng, calibrated: bool):
    q, k, v = (rng.uniform(-1.0, 1.0, (cfg.d_seq, d)) for d in (cfg.d_k, cfg.d_k, cfg.d_v))
    point = {"q": q, "k": k, "v": v}
    if not calibrated:
        return (sem_attention_gradients(q, k, v),
                lambda w: probe_loss(sem_attention(w["q"], w["k"], w["v"])[1]), point)
    calibration = 1.0 + rng.uniform(0.0, 1.0, (cfg.d_seq, cfg.d_seq))
    return (dep_attention_gradients(q, k, v, calibration),
            lambda w: probe_loss(dep_attention(w["q"], w["k"], w["v"], calibration)[1]), point)


# The checked ops. Each case draws its inputs from the seeded rng and returns the analytic
# gradients, the batched loss over perturbation rows and the point to differentiate at. It
# calls the passes by their module-level names, so rebinding a name (to time it) sees each call.
_CASES = {
    "fuse": _fuse_case,
    "sem_attention": lambda cfg, rng: _attention_case(cfg, rng, calibrated=False),
    "dep_attention": lambda cfg, rng: _attention_case(cfg, rng, calibrated=True),
}
OP_NAMES = tuple(_CASES)


def check(
    op_name: str,
    config: GradCheckConfig | None = None,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    eps: float = DEFAULT_EPS,
) -> GradReport:
    """Run one seeded analytic-vs-finite-difference comparison of an op in OP_NAMES."""
    _require_positive("tol", tol)
    _require_positive("eps", eps)
    if op_name not in _CASES:
        raise ValueError(f"unknown op {op_name!r}; expected one of {OP_NAMES}")
    config = config or GradCheckConfig()
    analytic, loss, point = _CASES[op_name](config, np.random.default_rng(seed))
    # each op's forward builds two (d_seq, d_seq) blocks per row: t_dep and t_sem in fuse,
    # the logits and the weights in attention
    fd = fd_gradient(loss, point, eps, row_cells=2 * config.d_seq ** 2)
    return GradReport(op_name, seed, tol, eps, *compare_gradients(analytic, fd, tol))

"""Gradient verification: hand-derived reverse-mode passes against central differences.

Every differentiable operation is scalarized through a fixed probe loss
(half the squared sum of its output matrix). The analytic gradients are
the backward passes beside each forward, fed the probe loss's upstream
gradient, which is the output itself; the oracle re-estimates each scalar
parameter's gradient with central finite differences. The oracle
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

from .attention import attention_backward, dep_attention, sem_attention
from .fusion import FusionParams, _draws, forward_trace, fuse_backward

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
    return 0.5 * (matrix * matrix).sum(axis=(-2, -1))


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
    spans, end = [], 0
    for name, value in base.items():
        spans.append((name, end, end + value.size, value.shape))
        end += value.size

    def unflatten(flat: np.ndarray) -> dict:
        """Slice the last axis of `flat` back into the named arrays' shapes (views where the
        reshape allows)."""
        lead = flat.shape[:-1]
        return {name: flat[..., start:stop].reshape(lead + shape)
                for name, start, stop, shape in spans}

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
        if not np.isfinite(losses).all():
            raise ValueError("function under test returned a non-finite value")
        if losses.shape != (2 * count,):
            raise ValueError(
                f"function under test must return one loss per perturbation row: "
                f"expected shape {(2 * count,)}, got {losses.shape}"
            )
        grad[lo:lo + count] = (losses[0::2] - losses[1::2]) / (2.0 * eps)
    return unflatten(grad)


def sem_attention_gradients(q, k, v) -> dict:
    weights, out = sem_attention(q, k, v)
    return attention_backward(q, k, v, weights, out)


def dep_attention_gradients(q, k, v, calibration) -> dict:
    weights, out = dep_attention(q, k, v, calibration)
    return attention_backward(q, k, v, weights, out, calibration)


def fuse_gradients(sem, dep, params: FusionParams) -> dict:
    """Probe-loss gradients for every fusion parameter and both input signals."""
    w = params.to_dict()
    trace = forward_trace(sem, dep, w)
    return fuse_backward(sem, dep, w, trace, trace["fused"])


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
    return rel_errors, abs_errors, bool(((rel < tol) | (diff < ABS_FLOOR)).all())


def _fuse_case(cfg: GradCheckConfig, rng):
    params = FusionParams.init(cfg.d_seq, cfg.d_v, cfg.d_hid, rng)
    sem = rng.uniform(-1.0, 1.0, (cfg.d_seq, cfg.d_v))
    dep = rng.uniform(-1.0, 1.0, (cfg.d_seq, cfg.d_v))
    return (fuse_gradients(sem, dep, params),
            lambda w: probe_loss(forward_trace(w["sem"], w["dep"], w)["fused"]),
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


def _fd_cells(op_name: str, cfg: GradCheckConfig) -> int:
    """The cells `fd_gradient` stacks when `check` runs `op_name`, without drawing anything:
    2 rows per perturbed scalar, each row the N scalars plus the d_seq² block of `row_cells`,
    2·N·(N + d_seq²) in all. fuse perturbs its params, as `_draws` shapes them, and both
    signals; attention perturbs q, k and v."""
    if op_name == "fuse":
        n = (sum(math.prod(shape) for name, shape, _ in _draws(cfg.d_seq, cfg.d_v, cfg.d_hid)
                 if name) + 2 * cfg.d_seq * cfg.d_v)
    else:
        n = cfg.d_seq * (2 * cfg.d_k + cfg.d_v)
    return 2 * n * (n + cfg.d_seq ** 2)


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
    # each op's forward builds one (d_seq, d_seq) block per row: a guided branch's tanh
    # projection in fuse, freed before the next, and the logits, softmaxed in place, in attention
    fd = fd_gradient(loss, point, eps, row_cells=config.d_seq ** 2)
    return GradReport(op_name, seed, tol, eps, *compare_gradients(analytic, fd, tol))

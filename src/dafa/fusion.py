"""Adaptive fusion of semantic and dependency attention signals.

Signal matrices are positions-major (d_seq, d_v). For each position i the
network (1) pools the dependency signal into a refined vector using
scores conditioned on the semantic feature s_i, (2) pools the semantic
signal the same way conditioned on that refined vector, (3) blends tanh
transforms of the two refined vectors through a sigmoid fusion gate, and
(4) scales the projected blend by a filtration gate driven by s_i, so
unreliable dependency evidence can be suppressed.

One parameter set is shared across positions. Each guided pooling is
the structured self-attentive pooling of Lin et al. (ICLR 2017):
`softmax(w_*_score . tanh(w_*_proj X^T))`, one row shared by every
position. The paper's score also stacks a tanh of the query feature,
tiled across columns, under that block and adds a bias; both add one
constant to each score row, which the row softmax cancels, so
`FusionParams` holds neither. Steps (1)-(3) thus give one value each,
and only step (4), which reads s_i, is per position. `FusionOutput`
returns each shared value once, without a position axis.

The forward (`forward_trace`) also takes optional leading axes: the
signals and every weight may carry extra axes in front of their own
shape, which broadcast, and each slice gives the same bits as the 2-D
call on it. `fuse` (which `dafa_layer` calls once per head, so one
head's tanh block is alive at a time) and the finite-difference oracle
(which stacks perturbed copies along one leading axis) run it;
`fuse_backward` differentiates its trace.
Each branch allocates its (d_seq, d_seq) projection once: the tanh, and
the softmax of the pooling scores, run in place on the fresh products.
The forward pools that tanh block at once and keeps it out of the trace,
so one (d_seq, d_seq) block per slice is alive at a time; the backward
rebuilds it with the same operations, for the same bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .nnops import sigmoid, softmax_backward, softmax_in_place


def _draws(d_seq: int, d_v: int, d_hid: int) -> list[tuple[str | None, tuple, int]]:
    """(field, shape, fan_in) of every seeded draw, in draw order.

    A None field is a run of cancelled parameters, which the row softmax cancels, shaped as the
    cells they had: the pooling query weights and biases, and the query half and bias of each
    score vector. `FusionParams.init` builds no array for a run, but advances the generator past
    its cells, so every kept value, and any later draw from the same generator, has the bits it
    had when they were parameters. The fan_in of a run is unused.
    """
    return [
        ("w_dep_proj", (d_seq, d_v), d_v),
        ("w_sem_proj", (d_seq, d_v), d_v),
        (None, (2 * d_seq * (d_v + 1),), 0),   # sem, then dep, query weights and bias
        ("w_dep_score", (d_seq,), 2 * d_seq),
        (None, (d_seq + 1,), 0),               # query half of the dep score, and its bias
        ("w_sem_score", (d_seq,), 2 * d_seq),
        (None, (d_seq + 1,), 0),               # query half of the sem score, and its bias
        ("w_dep_hidden", (d_hid, d_v), d_v),
        ("b_dep_hidden", (d_hid,), d_v),
        ("w_sem_hidden", (d_hid, d_v), d_v),
        ("b_sem_hidden", (d_hid,), d_v),
        ("w_fusion_gate", (2 * d_hid,), 2 * d_hid),
        ("w_value", (d_v, d_hid), d_hid),
        ("b_value", (d_v,), d_hid),
        ("w_output", (d_v, d_hid), d_hid),
        ("b_output", (d_v,), d_hid),
        ("w_filter_gate", (2 * d_v,), 2 * d_v),
    ]


PARAM_FIELDS = [name for name, _, _ in _draws(1, 1, 1) if name is not None]


def _float_array(name: str, value) -> np.ndarray:
    """A parsed JSON array as float64, in which every cell must be a JSON number.

    numpy alone would read the string "1e3" as 1000.0 and true as 1.0. A string, boolean,
    null or (in a ragged array) nested list raises a ValueError that names `name`.
    """
    cells = np.asarray(value, dtype=object)
    for cell in cells.flat:
        if type(cell) not in (int, float):
            raise ValueError(f"{name!r} must be an array of numbers of one shape, "
                             f"found {cell!r:.40}")
    return cells.astype(np.float64)


@dataclass(frozen=True, eq=False)
class FusionParams:
    """All fusion weights, shared across sequence positions.

    Guided pooling: w_dep_proj / w_sem_proj project a signal matrix to
    (d_seq, d_seq), and w_dep_score / w_sem_score contract its tanh into
    one score row. Gates: *_hidden transform the refined vectors to
    d_hid, w_fusion_gate blends them, w_value / w_output map the blend
    back to d_v, and w_filter_gate scales the final feature. `_draws`
    lists each weight's shape and init fan-in.
    """

    w_dep_proj: np.ndarray
    w_sem_proj: np.ndarray
    w_dep_score: np.ndarray
    w_sem_score: np.ndarray
    w_dep_hidden: np.ndarray
    b_dep_hidden: np.ndarray
    w_sem_hidden: np.ndarray
    b_sem_hidden: np.ndarray
    w_fusion_gate: np.ndarray
    w_value: np.ndarray
    b_value: np.ndarray
    w_output: np.ndarray
    b_output: np.ndarray
    w_filter_gate: np.ndarray

    def __post_init__(self):
        # convert every field first: callers may pass lists, and the sizes below read shapes
        for name in PARAM_FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.w_dep_proj.ndim != 2 or self.w_dep_hidden.ndim != 2:
            raise ValueError("w_dep_proj and w_dep_hidden, which fix d_seq, d_v and d_hid, "
                             "must be 2-D")
        sizes = (*self.w_dep_proj.shape, self.w_dep_hidden.shape[0])  # d_seq, d_v, d_hid
        shapes = [shape for name, shape, _ in _draws(*sizes) if name]  # PARAM_FIELDS order
        values = [getattr(self, name) for name in PARAM_FIELDS]
        if ([value.shape for value in values] == shapes
                and np.isfinite(np.concatenate([value.ravel() for value in values])).all()):
            return
        # name the first bad field, its shape checked before its values
        for name, value, shape in zip(PARAM_FIELDS, values, shapes):
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"fusion params {name!r} must be finite")

    @classmethod
    def init(cls, d_seq: int, d_v: int, d_hid: int, seed) -> "FusionParams":
        """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)], drawn in _draws order."""
        for name, size in (("d_seq", d_seq), ("d_v", d_v), ("d_hid", d_hid)):
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size}")
        rng = np.random.default_rng(seed)
        values = {}
        for name, shape, fan_in in _draws(d_seq, d_v, d_hid):
            if name is None:  # one draw per run of cancelled cells moves the stream as theirs did
                rng.random(shape[0])
                continue
            bound = 1.0 / math.sqrt(fan_in)
            values[name] = rng.uniform(-bound, bound, shape)
        return cls(**values)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def to_json(self) -> str:
        payload = {name: v.tolist() for name, v in self.to_dict().items()}
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "FusionParams":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fusion params JSON must be an object")
        for name in PARAM_FIELDS:
            if name not in data:
                raise ValueError(f"fusion params JSON missing {name!r}")
        unknown = sorted(set(data) - set(PARAM_FIELDS))
        if unknown:
            raise ValueError(f"fusion params JSON has unknown keys {unknown}")
        return cls(**{name: _float_array(name, value) for name, value in data.items()})


@dataclass(frozen=True, eq=False)
class FusionOutput:
    """Final features plus gate values and intermediates kept for diagnostics.

    Every field has the signals' leading axes in front of the shape below.
    Only `fused` and `filter_gate`, which read sem[i], have a position axis.
    The pooling softmax cancels the query half and the bias of each score,
    so every position shares one pool row and what follows from it.
    """

    fused: np.ndarray             # (d_seq, d_v), rows strictly inside (-1, 1)
    fusion_gate: np.ndarray       # (), strictly inside (0, 1)
    filter_gate: np.ndarray       # (d_seq,), strictly inside (0, 1)
    dep_refined: np.ndarray       # (d_v,)
    sem_refined: np.ndarray       # (d_v,)
    hidden_blend: np.ndarray      # (d_hid,)
    dep_pool_weights: np.ndarray  # (d_seq,), pools the dep signal for every position
    sem_pool_weights: np.ndarray  # (d_seq,)


def _mv(matrix, vector):
    """Matrix-vector product over leading axes: (..., m, n) x (..., n) -> (..., m)."""
    return (matrix @ vector[..., None])[..., 0]


def _tanh_proj(w_proj, signal):
    """A guided branch's projection tanh(w_proj @ signal^T), (..., d_seq, d_seq), the tanh
    written over the fresh product. The forward pools it at once and lets it go;
    `fuse_backward` calls this again for the same bits."""
    t = w_proj @ signal.swapaxes(-1, -2)
    return np.tanh(t, out=t)


def forward_trace(sem, dep, w) -> dict:
    """Run the whole network at once, keeping intermediates.

    `w` maps each name in PARAM_FIELDS to its weight array. The signals
    (..., d_seq, d_v), of one shape, and each weight may have leading axes
    in front of their own shape; they broadcast, and every output gains them.

    One loop runs both guided branches, dep then sem: the pool `*_pool` of
    the branch's tanh projection (`_tanh_proj`, not kept), the refined vector
    and the hidden layer `h_*`.
    Each pooling is one row shared by every position, so the pools have
    shape (..., 1, d_seq), and the refined vectors, hidden layers, fusion
    gate, blend, projection and squashed output are one row each; only the
    filtration gate and the fused output, which read sem[i], are per
    position. `fuse` returns the results from this trace, `fuse_backward`
    differentiates it and the finite differences evaluate it, so all run
    the same forward code.
    """
    d_seq, d_v = w["w_dep_proj"].shape[-2:]
    sem, dep = np.asarray(sem, dtype=np.float64), np.asarray(dep, dtype=np.float64)
    for name, signal in (("sem", sem), ("dep", dep)):
        if signal.shape[-2:] != (d_seq, d_v):
            raise ValueError(f"{name} has shape {signal.shape}, expected (..., {d_seq}, {d_v})")
    if sem.shape != dep.shape:
        raise ValueError(f"sem shape {sem.shape} and dep shape {dep.shape} differ")
    trace = {}
    for name, signal in (("dep", dep), ("sem", sem)):  # the two guided branches
        pool = softmax_in_place(w[f"w_{name}_score"][..., None, :]
                                @ _tanh_proj(w[f"w_{name}_proj"], signal))  # (..., 1, d_seq)
        refined = pool @ signal                                             # (..., 1, d_v)
        hidden = np.tanh(refined @ w[f"w_{name}_hidden"].swapaxes(-1, -2)
                         + w[f"b_{name}_hidden"][..., None, :])             # (..., 1, d_hid)
        trace.update({f"{name}_pool": pool, f"{name}_refined": refined, f"h_{name}": hidden})
    h_dep, h_sem = trace["h_dep"], trace["h_sem"]
    hidden = np.concatenate(np.broadcast_arrays(h_dep, h_sem), axis=-1)
    fusion_gate = sigmoid(_mv(hidden, w["w_fusion_gate"]))
    blend = fusion_gate[..., None] * h_sem + (1.0 - fusion_gate)[..., None] * h_dep

    projected = blend @ w["w_value"].swapaxes(-1, -2) + w["b_value"][..., None, :]
    w_filter = w["w_filter_gate"]
    filter_gate = sigmoid(_mv(sem, w_filter[..., :d_v]) + _mv(projected, w_filter[..., d_v:]))
    squashed = np.tanh(blend @ w["w_output"].swapaxes(-1, -2) + w["b_output"][..., None, :])
    fused = filter_gate[..., None] * squashed                     # (..., d_seq, d_v)
    trace.update(fusion_gate=fusion_gate, blend=blend, projected=projected,
                 filter_gate=filter_gate, squashed=squashed, fused=fused)
    return trace


def fuse_backward(sem, dep, w, trace, g_fused) -> dict:
    """Gradients for every weight in `w` and both signals, from the `forward_trace(sem, dep, w)`
    result `trace` and the gradient `g_fused` of its fused output, walking the trace in reverse
    and rebuilding each branch's tanh block, which the trace does not keep.
    A row shared across positions collects its gradient summed over them. Every gradient keeps
    the call's broadcast leading axes; summing them is left to the caller."""
    sem, dep, t = np.asarray(sem, dtype=np.float64), np.asarray(dep, dtype=np.float64), trace
    d_v, d_hid = w["w_dep_proj"].shape[-1], w["w_dep_hidden"].shape[-2]
    g = {}

    g_filter = _mv(g_fused, t["squashed"][..., 0, :])              # (..., d_seq)
    g_squashed = t["filter_gate"][..., None, :] @ g_fused           # shared rows are (..., 1, ·)
    g_out_pre = g_squashed * (1.0 - t["squashed"] ** 2)
    g["w_output"] = g_out_pre.swapaxes(-1, -2) @ t["blend"]
    g["b_output"] = g_out_pre[..., 0, :]
    g_blend = g_out_pre @ w["w_output"]

    g_zf = g_filter * t["filter_gate"] * (1.0 - t["filter_gate"])
    g_zf_total = g_zf.sum(axis=-1, keepdims=True)                  # (..., 1)
    g["w_filter_gate"] = np.concatenate([_mv(sem.swapaxes(-1, -2), g_zf),
                                         g_zf_total * t["projected"][..., 0, :]], axis=-1)
    g_sem_filter = g_zf[..., :, None] * w["w_filter_gate"][..., None, :d_v]
    g_projected = g_zf_total[..., None] * w["w_filter_gate"][..., None, d_v:]
    g["w_value"] = g_projected.swapaxes(-1, -2) @ t["blend"]
    g["b_value"] = g_projected[..., 0, :]
    g_blend += g_projected @ w["w_value"]

    g_gate = (g_blend * (t["h_sem"] - t["h_dep"])).sum(axis=-1)  # (..., 1)
    g_hidden = {"sem": t["fusion_gate"][..., None] * g_blend,
                "dep": (1.0 - t["fusion_gate"])[..., None] * g_blend}
    g_zg = g_gate * t["fusion_gate"] * (1.0 - t["fusion_gate"])
    hidden = np.concatenate(np.broadcast_arrays(t["h_dep"], t["h_sem"]), axis=-1)
    g["w_fusion_gate"] = _mv(hidden.swapaxes(-1, -2), g_zg)
    g_hidden["dep"] += g_zg[..., None] * w["w_fusion_gate"][..., None, :d_hid]
    g_hidden["sem"] += g_zg[..., None] * w["w_fusion_gate"][..., None, d_hid:]

    # each guided branch: its hidden layer, its pooling and its signal projection
    for name, signal in (("sem", sem), ("dep", dep)):
        pool, tanh_proj = t[f"{name}_pool"], _tanh_proj(w[f"w_{name}_proj"], signal)
        g_hidden_pre = g_hidden[name] * (1.0 - t[f"h_{name}"] ** 2)
        g[f"w_{name}_hidden"] = g_hidden_pre.swapaxes(-1, -2) @ t[f"{name}_refined"]
        g[f"b_{name}_hidden"] = g_hidden_pre[..., 0, :]
        g_refined = g_hidden_pre @ w[f"w_{name}_hidden"]
        g_signal = pool.swapaxes(-1, -2) @ g_refined
        g_scores = softmax_backward(pool, g_refined @ signal.swapaxes(-1, -2))[..., 0, :]
        g[f"w_{name}_score"] = _mv(tanh_proj, g_scores)
        g_proj = (w[f"w_{name}_score"][..., :, None] * g_scores[..., None, :]
                  * (1.0 - tanh_proj ** 2))
        g[f"w_{name}_proj"] = g_proj @ signal
        g_signal += g_proj.swapaxes(-1, -2) @ w[f"w_{name}_proj"]
        g[name] = g_signal

    g["sem"] += g_sem_filter
    return g


def fuse(sem, dep, params: FusionParams) -> FusionOutput:
    """Fuse signal stacks of one shape (..., d_seq, d_v), each (d_seq, d_v) slice on its own."""
    trace = forward_trace(sem, dep, params.to_dict())
    return FusionOutput(
        fused=trace["fused"],
        fusion_gate=trace["fusion_gate"][..., 0],
        filter_gate=trace["filter_gate"],
        dep_refined=trace["dep_refined"][..., 0, :],
        sem_refined=trace["sem_refined"][..., 0, :],
        hidden_blend=trace["blend"][..., 0, :],
        dep_pool_weights=trace["dep_pool"][..., 0, :],
        sem_pool_weights=trace["sem_pool"][..., 0, :],
    )

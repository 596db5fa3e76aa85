"""Adaptive fusion of semantic and dependency attention signals.

Signal matrices are positions-major (d_seq, d_v). For each position i the
network (1) pools the dependency signal into a refined vector using
scores conditioned on the semantic feature s_i, (2) pools the semantic
signal the same way conditioned on that refined vector, (3) blends tanh
transforms of the two refined vectors through a sigmoid fusion gate, and
(4) scales the projected blend by a filtration gate driven by s_i, so
unreliable dependency evidence can be suppressed.

One parameter set is shared across positions. The "stack" inside the
guided attentions places a tanh of the projected signal matrix
(d_seq, d_seq) on top of the query feature tiled across columns, giving
the 2*d_seq rows the score vectors contract against. The tiled half adds
one constant to each score row, and so does the score bias; the row
softmax cancels both. So each pooling is one row shared by every
position, and the forward computes it once: steps (1)-(3) give one row,
and only step (4), which reads s_i, is per position. `FusionOutput`
keeps its per-position shapes; its shared fields are read-only
broadcast views of the one row.

The forward (`_forward_trace`) also takes optional leading axes: the
signals and every weight may carry extra axes in front of their own
shape, which broadcast, and each slice gives the same bits as the 2-D
call on it. `fuse`, the analytic backward and the finite-difference
oracle (which stacks perturbed copies along one leading axis) all run it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .nnops import sigmoid, softmax

# (field, shape spec, fan_in spec) in seeded-draw order; shapes reference
# the (d_seq, d_v, d_hid) triple.
_PARAM_SPECS = [
    ("w_dep_proj", ("d_seq", "d_v"), "d_v"),
    ("w_sem_proj", ("d_seq", "d_v"), "d_v"),
    ("w_sem_query", ("d_seq", "d_v"), "d_v"),
    ("b_sem_query", ("d_seq",), "d_v"),
    ("w_dep_query", ("d_seq", "d_v"), "d_v"),
    ("b_dep_query", ("d_seq",), "d_v"),
    ("w_dep_score", ("two_seq",), "two_seq"),
    ("b_dep_score", (), "two_seq"),
    ("w_sem_score", ("two_seq",), "two_seq"),
    ("b_sem_score", (), "two_seq"),
    ("w_dep_hidden", ("d_hid", "d_v"), "d_v"),
    ("b_dep_hidden", ("d_hid",), "d_v"),
    ("w_sem_hidden", ("d_hid", "d_v"), "d_v"),
    ("b_sem_hidden", ("d_hid",), "d_v"),
    ("w_fusion_gate", ("two_hid",), "two_hid"),
    ("w_value", ("d_v", "d_hid"), "d_hid"),
    ("b_value", ("d_v",), "d_hid"),
    ("w_output", ("d_v", "d_hid"), "d_hid"),
    ("b_output", ("d_v",), "d_hid"),
    ("w_filter_gate", ("two_v",), "two_v"),
]

PARAM_FIELDS = [name for name, _, _ in _PARAM_SPECS]


def _dims_map(d_seq: int, d_v: int, d_hid: int) -> dict[str, int]:
    return {
        "d_seq": d_seq,
        "d_v": d_v,
        "d_hid": d_hid,
        "two_seq": 2 * d_seq,
        "two_hid": 2 * d_hid,
        "two_v": 2 * d_v,
    }


@dataclass(frozen=True, eq=False)
class FusionParams:
    """All fusion weights, shared across sequence positions.

    Guided attention: w_dep_proj / w_sem_proj project a signal matrix to
    (d_seq, d_seq); w_sem_query / w_dep_query project the conditioning
    feature; w_dep_score / w_sem_score contract the stacked tanh block
    into per-position scores. Gates: *_hidden transform the refined
    vectors to d_hid, w_fusion_gate blends them, w_value / w_output map
    the blend back to d_v, and w_filter_gate scales the final feature.
    The row softmax cancels the query half of each score and the score
    bias, so the forward never reads w_*_query, b_*_query,
    w_*_score[d_seq:] or b_*_score; they stay for the JSON format and
    the seeded draw order.
    """

    w_dep_proj: np.ndarray    # (d_seq, d_v)
    w_sem_proj: np.ndarray    # (d_seq, d_v)
    w_sem_query: np.ndarray   # (d_seq, d_v)
    b_sem_query: np.ndarray   # (d_seq,)
    w_dep_query: np.ndarray   # (d_seq, d_v)
    b_dep_query: np.ndarray   # (d_seq,)
    w_dep_score: np.ndarray   # (2 * d_seq,)
    b_dep_score: np.ndarray   # ()
    w_sem_score: np.ndarray   # (2 * d_seq,)
    b_sem_score: np.ndarray   # ()
    w_dep_hidden: np.ndarray  # (d_hid, d_v)
    b_dep_hidden: np.ndarray  # (d_hid,)
    w_sem_hidden: np.ndarray  # (d_hid, d_v)
    b_sem_hidden: np.ndarray  # (d_hid,)
    w_fusion_gate: np.ndarray # (2 * d_hid,)
    w_value: np.ndarray       # (d_v, d_hid)
    b_value: np.ndarray       # (d_v,)
    w_output: np.ndarray      # (d_v, d_hid)
    b_output: np.ndarray      # (d_v,)
    w_filter_gate: np.ndarray # (2 * d_v,)

    @property
    def d_seq(self) -> int:
        return self.w_dep_proj.shape[0]

    @property
    def d_v(self) -> int:
        return self.w_dep_proj.shape[1]

    @property
    def d_hid(self) -> int:
        return self.w_dep_hidden.shape[0]

    def __post_init__(self):
        # convert every field first: from_dict hands over plain lists, and d_seq etc. read shapes
        for name in PARAM_FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        dims = _dims_map(self.d_seq, self.d_v, self.d_hid)
        for name, shape_spec, _ in _PARAM_SPECS:
            shape = getattr(self, name).shape
            expected = tuple(dims[s] for s in shape_spec)
            if shape != expected:
                raise ValueError(f"{name} has shape {shape}, expected {expected}")

    @classmethod
    def init(cls, d_seq: int, d_v: int, d_hid: int, seed) -> "FusionParams":
        """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)], drawn in field order."""
        if min(d_seq, d_v, d_hid) < 1:
            raise ValueError("d_seq, d_v, d_hid must all be >= 1")
        rng = np.random.default_rng(seed)
        dims = _dims_map(d_seq, d_v, d_hid)
        values = {}
        for name, shape_spec, fan_spec in _PARAM_SPECS:
            bound = 1.0 / math.sqrt(dims[fan_spec])
            values[name] = rng.uniform(-bound, bound, tuple(dims[s] for s in shape_spec))
        return cls(**values)

    @classmethod
    def zeros(cls, d_seq: int, d_v: int, d_hid: int) -> "FusionParams":
        dims = _dims_map(d_seq, d_v, d_hid)
        return cls(**{name: np.zeros(tuple(dims[s] for s in shape_spec))
                      for name, shape_spec, _ in _PARAM_SPECS})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    @classmethod
    def from_dict(cls, values: dict) -> "FusionParams":
        return cls(**{name: values[name] for name in PARAM_FIELDS})

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
        params = cls.from_dict(data)
        # checked here, not in __post_init__: gradcheck builds params per loss evaluation
        for name in PARAM_FIELDS:
            if not np.all(np.isfinite(getattr(params, name))):
                raise ValueError(f"fusion params {name!r} must be finite")
        return params


@dataclass(frozen=True, eq=False)
class FusionOutput:
    """Final features plus gate values and intermediates kept for diagnostics.

    Only `fused` and `filter_gate` vary by position. The pooling softmax
    cancels the query half and the bias of each score, so every position
    shares one pool row; the other fields are read-only `np.broadcast_to`
    views of that one row (and of what follows from it) at the shapes below.
    """

    fused: np.ndarray             # (d_seq, d_v), rows strictly inside (-1, 1)
    fusion_gate: np.ndarray       # (d_seq,), strictly inside (0, 1)
    filter_gate: np.ndarray       # (d_seq,), strictly inside (0, 1)
    dep_refined: np.ndarray       # (d_seq, d_v)
    sem_refined: np.ndarray       # (d_seq, d_v)
    hidden_blend: np.ndarray      # (d_seq, d_hid)
    dep_pool_weights: np.ndarray  # (d_seq, d_seq), row i pools the dep signal for position i
    sem_pool_weights: np.ndarray  # (d_seq, d_seq)


def _check_signal(name: str, signal, params: FusionParams) -> np.ndarray:
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (params.d_seq, params.d_v):
        raise ValueError(
            f"{name} has shape {signal.shape}, expected {(params.d_seq, params.d_v)}"
        )
    return signal


def _mv(matrix, vector):
    """Matrix-vector product over leading axes: (..., m, n) x (..., n) -> (..., m)."""
    return (matrix @ vector[..., None])[..., 0]


def _forward_trace(sem, dep, w) -> dict:
    """Run the whole network at once, keeping intermediates.

    `w` maps each name in PARAM_FIELDS to its weight array. The signals
    (..., d_seq, d_v) and each weight may have leading axes in front of
    their own shape; they broadcast, and every output gains them.

    Each guided pooling is computed once, as one row shared by every
    position: the query half of its score, `tanh(w_*_query @ f_i + b) @
    w_*_score[d_seq:]`, and the score bias add one constant to all of
    row i, which the row softmax cancels. So `dep_pool` / `sem_pool`
    have shape (..., 1, d_seq), and the refined vectors, hidden layers,
    fusion gate, blend, projection and squashed output are one row each;
    only the filtration gate and the fused output, which read sem[i], are
    per position. The query weights, `w_*_score[d_seq:]` and `b_*_score`
    are not read. `fuse` returns the results from this trace, the
    analytic backward pass differentiates it and the finite differences
    evaluate it, so all run the same forward code.
    """
    d_seq, d_v = w["w_dep_proj"].shape[-2:]
    t_dep = np.tanh(w["w_dep_proj"] @ dep.swapaxes(-1, -2))   # (..., d_seq, d_seq)
    t_sem = np.tanh(w["w_sem_proj"] @ sem.swapaxes(-1, -2))

    dep_pool = softmax(w["w_dep_score"][..., None, :d_seq] @ t_dep, axis=-1)  # (..., 1, d_seq)
    dep_refined = dep_pool @ dep                                  # (..., 1, d_v)
    sem_pool = softmax(w["w_sem_score"][..., None, :d_seq] @ t_sem, axis=-1)
    sem_refined = sem_pool @ sem

    hd = np.tanh(dep_refined @ w["w_dep_hidden"].swapaxes(-1, -2)
                 + w["b_dep_hidden"][..., None, :])              # (..., 1, d_hid)
    hs = np.tanh(sem_refined @ w["w_sem_hidden"].swapaxes(-1, -2)
                 + w["b_sem_hidden"][..., None, :])
    fusion_gate = sigmoid(_mv(np.concatenate([hd, hs], axis=-1), w["w_fusion_gate"]))
    blend = fusion_gate[..., None] * hs + (1.0 - fusion_gate)[..., None] * hd

    projected = blend @ w["w_value"].swapaxes(-1, -2) + w["b_value"][..., None, :]
    w_filter = w["w_filter_gate"]
    filter_gate = sigmoid(_mv(sem, w_filter[..., :d_v]) + _mv(projected, w_filter[..., d_v:]))
    squashed = np.tanh(blend @ w["w_output"].swapaxes(-1, -2) + w["b_output"][..., None, :])
    fused = filter_gate[..., None] * squashed                     # (..., d_seq, d_v)

    return {
        "t_dep": t_dep, "t_sem": t_sem,
        "dep_pool": dep_pool, "sem_pool": sem_pool,
        "dep_refined": dep_refined, "sem_refined": sem_refined,
        "hd": hd, "hs": hs,
        "fusion_gate": fusion_gate, "blend": blend,
        "projected": projected, "filter_gate": filter_gate,
        "squashed": squashed, "fused": fused,
    }


def fuse(sem, dep, params: FusionParams) -> FusionOutput:
    """Fuse the two signal matrices position by position into final features."""
    sem = _check_signal("sem", sem, params)
    dep = _check_signal("dep", dep, params)
    trace = _forward_trace(sem, dep, params.to_dict())
    d_seq = params.d_seq

    def per_position(row):
        return np.broadcast_to(row, (d_seq,) + row.shape[1:])

    return FusionOutput(
        fused=trace["fused"],
        fusion_gate=per_position(trace["fusion_gate"]),
        filter_gate=trace["filter_gate"],
        dep_refined=per_position(trace["dep_refined"]),
        sem_refined=per_position(trace["sem_refined"]),
        hidden_blend=per_position(trace["blend"]),
        dep_pool_weights=per_position(trace["dep_pool"]),
        sem_pool_weights=per_position(trace["sem_pool"]),
    )

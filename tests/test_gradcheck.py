"""Gradient machinery tests: probe loss, fd oracle, analytic-vs-fd agreement."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from dafa import gradcheck
from dafa.attention import dep_attention, sem_attention
from dafa.fusion import FusionParams, _forward_trace, fuse
from dafa.gradcheck import (
    OP_NAMES,
    GradCheckConfig,
    analytic_gradient,
    check,
    compare_gradients,
    dep_attention_gradients,
    fd_gradient,
    fuse_gradients,
    probe_loss,
    sem_attention_gradients,
)


def naive_fd_gradient(f, params: dict, eps: float) -> dict:
    """Per-scalar central differences: two scalar evaluations of `f` per entry (oracle)."""
    work = {name: np.array(value, dtype=np.float64) for name, value in params.items()}
    grads: dict = {}
    for name, value in work.items():
        grad = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            orig = value[idx]
            value[idx] = orig + eps
            hi = float(f(work))
            value[idx] = orig - eps
            lo = float(f(work))
            value[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * eps)
        grads[name] = grad
    return grads


def fuse_loss(values):
    """Probe loss of the fusion forward over one leading axis of perturbation rows."""
    return probe_loss(_forward_trace(values["sem"], values["dep"], values)["fused"])


class TestProbeLoss:
    def test_zero_output(self):
        assert probe_loss(np.zeros((3, 2))) == 0.0

    def test_single_entry(self):
        assert probe_loss(np.array([[2.0]])) == 2.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5))
        assert probe_loss(x) == pytest.approx(0.5 * float((x ** 2).sum()), rel=1e-15)

    def test_stack_gives_each_slice_its_own_loss(self):
        rng = np.random.default_rng(1)
        stack = rng.normal(size=(3, 4, 5))
        losses = probe_loss(stack)
        assert losses.shape == (3,)
        for i in range(3):
            assert losses[i] == 0.5 * float(np.sum(stack[i] * stack[i]))

    def test_fusion_output_uses_final_features(self):
        params = FusionParams.init(2, 2, 2, seed=1)
        rng = np.random.default_rng(2)
        out = fuse(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), params)
        expected = 0.5 * float((out.fused ** 2).sum())
        assert probe_loss(out.fused) == pytest.approx(expected, rel=1e-15)


class TestFdGradient:
    def test_identity_scalar(self):
        g = fd_gradient(lambda p: p["x"], {"x": 0.7}, eps=1e-5)
        assert g["x"] == pytest.approx(1.0, abs=1e-9)

    def test_quadratic_at_three(self):
        g = fd_gradient(lambda p: 0.5 * p["x"] ** 2, {"x": 3.0}, eps=1e-5)
        assert g["x"] == pytest.approx(3.0, abs=1e-9)

    def test_array_entries_probed_independently(self):
        coeff = np.array([2.0, -1.0, 0.5])
        g = fd_gradient(lambda p: p["w"] @ coeff, {"w": np.zeros(3)}, eps=1e-5)
        assert np.allclose(g["w"], coeff, atol=1e-9)

    def test_fuse_probe_is_finite(self):
        params = FusionParams.init(3, 2, 2, seed=7)
        rng = np.random.default_rng(7)
        sem = rng.uniform(-1, 1, (3, 2))
        dep = rng.uniform(-1, 1, (3, 2))
        flat = {**params.to_dict(), "sem": sem, "dep": dep}
        g = fd_gradient(fuse_loss, flat, eps=1e-5)
        for value in g.values():
            assert np.all(np.isfinite(value))

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda p: p["x"], {"x": 1.0}, eps=0.0)

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_gradient(lambda p: float("nan"), {"x": 1.0}, eps=1e-5)

    @pytest.mark.parametrize("loss", [
        lambda p: float(np.sum(p["w"])),       # one scalar for the whole stack
        lambda p: np.sum(p["w"], axis=0),      # one value per entry, not per row
        lambda p: p["w"][:, :1],               # one per row, with a trailing axis
    ])
    def test_loss_must_return_one_value_per_row(self, loss):
        with pytest.raises(ValueError, match=r"expected shape \(6,\), got"):
            fd_gradient(loss, {"w": np.zeros(3)}, eps=1e-5)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-5])
    def test_nonfinite_or_negative_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            fd_gradient(lambda p: p["x"], {"x": 1.0}, eps=eps)

    @settings(max_examples=150, deadline=None)
    @given(
        op=st.sampled_from(OP_NAMES),
        d_seq=st.integers(1, 6), d_k=st.integers(1, 8),
        d_v=st.integers(1, 8), d_hid=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    # attention scalar counts d_seq * (2 d_k + d_v): 3, 31, 32 (one full block), 33, 34
    @example(op="sem_attention", d_seq=1, d_k=1, d_v=1, d_hid=1, seed=0)
    @example(op="dep_attention", d_seq=1, d_k=8, d_v=15, d_hid=1, seed=1)
    @example(op="sem_attention", d_seq=4, d_k=3, d_v=2, d_hid=1, seed=2)
    @example(op="dep_attention", d_seq=3, d_k=5, d_v=1, d_hid=1, seed=3)
    @example(op="dep_attention", d_seq=2, d_k=8, d_v=1, d_hid=1, seed=4)
    # fuse: 26 scalars at all sizes 1; 538 scalars, 17 blocks, several arrays per block
    @example(op="fuse", d_seq=1, d_k=1, d_v=1, d_hid=1, seed=5)
    @example(op="fuse", d_seq=6, d_k=1, d_v=8, d_hid=5, seed=6)
    def test_check_matches_per_scalar_oracle(self, op, d_seq, d_k, d_v, d_hid, seed):
        """`check`'s batched gradients equal the per-scalar loop on the same loss."""
        calls = []

        def recording_fd_gradient(f, params, eps):
            grads = fd_gradient(f, params, eps)
            calls.append((f, params, eps, grads))
            return grads

        config = GradCheckConfig(d_seq=d_seq, d_k=d_k, d_v=d_v, d_hid=d_hid)
        with mock.patch.object(gradcheck, "fd_gradient", recording_fd_gradient):
            assert check(op, config, seed=seed).passed
        (f, params, eps, batched), = calls

        def one_row(values):
            losses = f({name: np.asarray(value)[None] for name, value in values.items()})
            return losses[0]

        oracle = naive_fd_gradient(one_row, params, eps)
        assert list(batched) == list(oracle)
        worst = max(float(np.max(np.abs(batched[name] - oracle[name]))) for name in oracle)
        target(worst, label="max |batched - per-scalar| gradient")
        assert worst <= 1e-9


class TestAnalyticGradients:
    def test_zero_param_fuse_matches_fd(self):
        params = FusionParams.zeros(3, 2, 2)
        rng = np.random.default_rng(3)
        sem = rng.uniform(-1, 1, (3, 2))
        dep = rng.uniform(-1, 1, (3, 2))
        analytic = fuse_gradients(sem, dep, params)
        flat = {**params.to_dict(), "sem": sem, "dep": dep}
        fd = fd_gradient(fuse_loss, flat, eps=1e-5)
        rel, _, _ = compare_gradients(analytic, fd, tol=1e-7)
        assert max(rel.values()) < 1e-7

    def test_neutral_calibration_matches_sem_gradients(self):
        rng = np.random.default_rng(4)
        q, k = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 2))
        dep_grads = dep_attention_gradients(q, k, v, np.ones((4, 4)))
        sem_grads = sem_attention_gradients(q, k, v)
        for name in ("q", "k", "v"):
            assert np.array_equal(dep_grads[name], sem_grads[name])

    def test_dispatcher_routes_ops(self):
        rng = np.random.default_rng(5)
        q, k = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        v = rng.normal(size=(3, 2))
        direct = sem_attention_gradients(q, k, v)
        routed = analytic_gradient("sem_attention", {"q": q, "k": k, "v": v})
        for name in direct:
            assert np.array_equal(direct[name], routed[name])
        with pytest.raises(ValueError, match="unknown op"):
            analytic_gradient("nope", {})

    def test_attention_gradients_match_fd(self):
        rng = np.random.default_rng(6)
        q, k = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3))
        v = rng.uniform(-1, 1, (4, 2))
        c = 1.0 + rng.uniform(0, 1, (4, 4))
        analytic = dep_attention_gradients(q, k, v, c)
        fd = fd_gradient(
            lambda w: probe_loss(dep_attention(w["q"], w["k"], w["v"], c)[1]),
            {"q": q, "k": k, "v": v},
            eps=1e-5,
        )
        _, _, passed = compare_gradients(analytic, fd, tol=1e-6)
        assert passed

    @pytest.mark.parametrize("shape", [(5, 3), (1, 3), (4, 1), (2, 4, 3)])
    @pytest.mark.parametrize("bad", ["sem", "dep"])
    def test_fuse_signal_shapes_checked(self, shape, bad):
        params = FusionParams.init(4, 3, 2, seed=10)
        inputs = {"sem": np.zeros((4, 3)), "dep": np.zeros((4, 3)), bad: np.zeros(shape)}
        with pytest.raises(ValueError, match=rf"{bad} has shape"):
            fuse_gradients(inputs["sem"], inputs["dep"], params)
        with pytest.raises(ValueError, match=rf"{bad} has shape"):
            analytic_gradient("fuse", inputs, params)

    @pytest.mark.parametrize("calibration", [None, np.ones((3, 3)), np.ones((2, 3, 3))])
    def test_attention_gradients_take_2d_operands_only(self, calibration):
        rng = np.random.default_rng(11)
        q, k, v = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 2))
        if calibration is not None and calibration.ndim == 3:
            q, k, v = q[0], k[0], v[0]
        with pytest.raises(ValueError, match=r"2-D operands only, got q \(.*\), k \(.*\), v "):
            if calibration is None:
                sem_attention_gradients(q, k, v)
            else:
                dep_attention_gradients(q, k, v, calibration)


# the softmax over each pooling row cancels these: the forward never reads them
CANCELLED = ("w_sem_query", "b_sem_query", "w_dep_query", "b_dep_query",
             "b_dep_score", "b_sem_score")


class TestCancelledParameters:
    @pytest.mark.parametrize("d_seq, d_v, d_hid, seed", [(1, 1, 1, 0), (4, 3, 3, 1), (6, 8, 5, 2)])
    def test_exact_zero_gradients_and_the_rest_pass(self, d_seq, d_v, d_hid, seed):
        rng = np.random.default_rng(seed)
        params = FusionParams.init(d_seq, d_v, d_hid, rng)
        sem, dep = rng.uniform(-1, 1, (2, d_seq, d_v))
        analytic = fuse_gradients(sem, dep, params)
        fd = fd_gradient(fuse_loss, {**params.to_dict(), "sem": sem, "dep": dep})
        for grads in (analytic, fd):
            for name in CANCELLED:
                assert np.all(grads[name] == 0.0), name
            for name in ("w_dep_score", "w_sem_score"):
                assert np.all(grads[name][d_seq:] == 0.0), name
        rest = [name for name in analytic if name not in CANCELLED]
        _, _, passed = compare_gradients({name: analytic[name] for name in rest},
                                         {name: fd[name] for name in rest}, tol=1e-5)
        assert passed
        assert check("fuse", GradCheckConfig(d_seq=d_seq, d_v=d_v, d_hid=d_hid), seed=seed).passed


class TestCheck:
    def test_healthy_ops_pass(self):
        for op in ("fuse", "sem_attention", "dep_attention"):
            report = check(op, seed=7, tol=1e-5)
            assert report.passed, (op, report.rel_errors)

    def test_random_configurations_pass(self):
        rng = np.random.default_rng(8)
        for trial in range(8):
            cfg = GradCheckConfig(
                d_seq=int(rng.integers(1, 7)),
                d_k=int(rng.integers(1, 9)),
                d_v=int(rng.integers(1, 9)),
                d_hid=int(rng.integers(1, 6)),
            )
            for op in ("fuse", "dep_attention"):
                assert check(op, cfg, seed=trial).passed

    def test_injected_fault_fails(self):
        rng = np.random.default_rng(9)
        q, k = rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2))
        v = rng.uniform(-1, 1, (3, 2))
        analytic = sem_attention_gradients(q, k, v)
        fd = fd_gradient(
            lambda w: probe_loss(sem_attention(w["q"], w["k"], w["v"])[1]),
            {"q": q, "k": k, "v": v},
            eps=1e-5,
        )
        analytic["q"] = analytic["q"].copy()
        analytic["q"][0, 0] += 1e-2
        _, _, passed = compare_gradients(analytic, fd, tol=1e-5)
        assert not passed

    def test_same_seed_reproduces_report(self):
        first = check("fuse", seed=11)
        second = check("fuse", seed=11)
        assert first == second

    def test_report_json_roundtrip(self):
        import json

        report = check("sem_attention", seed=12)
        data = json.loads(report.to_json())
        assert data["op_name"] == "sem_attention"
        assert data["passed"] is True
        assert set(data["rel_errors"]) == {"q", "k", "v"}

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            check("mystery", seed=0)

    @pytest.mark.parametrize("field", ["tol", "eps"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_nonpositive_or_nonfinite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            check("sem_attention", seed=0, **{field: value})

    @pytest.mark.parametrize("field", ["d_seq", "d_k", "d_v", "d_hid"])
    def test_config_sizes_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            GradCheckConfig(**{field: 0})

"""Gradient machinery tests: probe loss, fd oracle, analytic-vs-fd agreement."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from conftest import zero_fusion_params
from dafa import gradcheck
from dafa.attention import attention_backward, dep_attention, sem_attention
from dafa.fusion import PARAM_FIELDS, FusionParams, forward_trace, fuse, fuse_backward
from dafa.gradcheck import (
    ABS_FLOOR,
    OP_NAMES,
    GradCheckConfig,
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
    return probe_loss(forward_trace(values["sem"], values["dep"], values)["fused"])


def op_inputs(op, rng, lead=()):
    """Inputs of an op in OP_NAMES, with 2-D weights and signals (or q, k, v) of leading axes
    `lead`, and the calibration (None but for dep_attention); every output is (*lead, 5, 3)."""
    calibration = 1.0 + rng.uniform(0, 1, (5, 5)) if op == "dep_attention" else None
    if op == "fuse":
        signals = {name: rng.uniform(-1, 1, lead + (5, 3)) for name in ("sem", "dep")}
        return {**FusionParams.init(5, 3, 2, seed=14).to_dict(), **signals}, calibration
    shapes = {"q": (5, 4), "k": (5, 4), "v": (5, 3)}
    return {name: rng.uniform(-1, 1, lead + shape) for name, shape in shapes.items()}, calibration


def output_and_backward(op, x, calibration):
    """The op's output at the inputs `x`, and its backward pass there as a function of g."""
    if op == "fuse":
        trace = forward_trace(x["sem"], x["dep"], x)
        return trace["fused"], lambda g: fuse_backward(x["sem"], x["dep"], x, trace, g)
    weights, out = (sem_attention(x["q"], x["k"], x["v"]) if calibration is None
                    else dep_attention(x["q"], x["k"], x["v"], calibration))
    return out, lambda g: attention_backward(x["q"], x["k"], x["v"], weights, g, calibration)


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

    def test_mixed_shapes_come_back_in_their_input_shapes(self):
        # a 0-d value, an empty array and a (2, 3) array share one perturbation row; each
        # gradient is sliced back out in its input's shape
        coeff = np.arange(6.0).reshape(2, 3) - 2.5

        def loss(p):
            return (0.5 * p["s"] ** 2 + p["e"].sum(axis=(-2, -1))
                    + (p["w"] * coeff).sum(axis=(-2, -1)))

        g = fd_gradient(loss, {"s": 0.75, "e": np.empty((0, 4)), "w": np.ones((2, 3))}, eps=1e-5)
        assert list(g) == ["s", "e", "w"]
        assert (g["s"].shape, g["e"].shape, g["w"].shape) == ((), (0, 4), (2, 3))
        assert g["s"] == pytest.approx(0.75, abs=1e-9)
        assert np.allclose(g["w"], coeff, rtol=0.0, atol=1e-9)

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
    # attention scalar counts d_seq * (2 d_k + d_v): 3, 31, 32, 33 and 34, each one block (one
    # loss call), as is every check the strategy draws
    @example(op="sem_attention", d_seq=1, d_k=1, d_v=1, d_hid=1, seed=0)
    @example(op="dep_attention", d_seq=1, d_k=8, d_v=15, d_hid=1, seed=1)
    @example(op="sem_attention", d_seq=4, d_k=3, d_v=2, d_hid=1, seed=2)
    @example(op="dep_attention", d_seq=3, d_k=5, d_v=1, d_hid=1, seed=3)
    @example(op="dep_attention", d_seq=2, d_k=8, d_v=1, d_hid=1, seed=4)
    # fuse: 26 scalars at all sizes 1; 538 scalars, the largest drawn check, still one block
    # with every array in it (2 * 538 rows of 538 + 6**2 cells fit the budget)
    @example(op="fuse", d_seq=1, d_k=1, d_v=1, d_hid=1, seed=5)
    @example(op="fuse", d_seq=6, d_k=1, d_v=8, d_hid=5, seed=6)
    # 270 scalars whose rows each hold 270 + 90**2 cells: blocks of 125, the third holds 20
    @example(op="sem_attention", d_seq=90, d_k=1, d_v=1, d_hid=1, seed=7)
    def test_check_matches_per_scalar_oracle(self, op, d_seq, d_k, d_v, d_hid, seed):
        """`check`'s batched gradients equal the per-scalar loop on the same loss."""
        calls = []

        def recording_fd_gradient(f, params, eps, row_cells):
            grads = fd_gradient(f, params, eps, row_cells)
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

    @pytest.mark.parametrize("op", OP_NAMES)
    def test_block_size_does_not_change_gradients(self, op):
        """One scalar per loss call gives the bits of the default single call."""
        cases = []

        def recording_fd_gradient(f, params, eps, row_cells):
            cases.append((f, params, eps, row_cells))
            return fd_gradient(f, params, eps, row_cells)

        config = GradCheckConfig(d_seq=5, d_k=4, d_v=3, d_hid=2)
        with mock.patch.object(gradcheck, "fd_gradient", recording_fd_gradient):
            check(op, config, seed=13)
        (f, params, eps, row_cells), = cases
        rows = []

        def counting(values):
            rows.append(len(next(iter(values.values()))))
            return f(values)

        size = sum(np.size(value) for value in params.values())
        one_call = fd_gradient(counting, params, eps, row_cells)
        assert rows == [2 * size]
        rows.clear()
        with mock.patch.object(gradcheck, "_FD_CELLS", 1):
            per_scalar = fd_gradient(counting, params, eps, row_cells)
        assert rows == [2] * size
        assert list(per_scalar) == list(one_call)
        for name in one_call:
            assert per_scalar[name].tobytes() == one_call[name].tobytes(), name

    # the default sizes and CI's attention check are one block; CI's fuse check (1,680 scalars
    # in blocks of 319) and the attention check at d_seq = 90 (270 in blocks of 125) take several
    @pytest.mark.parametrize("op, sizes, blocks", [
        ("fuse", {}, 1), ("sem_attention", {}, 1), ("dep_attention", {}, 1),
        ("dep_attention", dict(d_seq=24, d_k=8, d_v=8), 1),
        ("fuse", dict(d_seq=40, d_v=8, d_hid=8), 6),
        ("sem_attention", dict(d_seq=90, d_k=1, d_v=1), 3),
    ])
    def test_work_estimate_is_the_cells_fd_gradient_stacks(self, op, sizes, blocks):
        """`_fd_cells` is exactly the sum of rows times (scalars + row_cells) over `check`'s
        loss calls."""
        calls = []

        def counting_fd_gradient(f, params, eps, row_cells):
            def counting(values):
                rows = len(next(iter(values.values())))
                scalars = sum(np.size(value) for value in values.values()) // rows
                calls.append(rows * (scalars + row_cells))
                return f(values)
            return fd_gradient(counting, params, eps, row_cells)

        config = GradCheckConfig(**sizes)
        with mock.patch.object(gradcheck, "fd_gradient", counting_fd_gradient):
            check(op, config, seed=3)
        assert len(calls) == blocks
        assert sum(calls) == gradcheck._fd_cells(op, config)


def naive_compare_gradients(analytic: dict, fd: dict, tol: float):
    """Per-name errors and pass flag, one numpy pass per name (reference)."""
    rel_errors, abs_errors, passed = {}, {}, True
    for name in analytic:
        a = np.atleast_1d(np.asarray(analytic[name], dtype=np.float64))
        f = np.atleast_1d(np.asarray(fd[name], dtype=np.float64))
        diff = np.abs(a - f)
        rel = diff / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-12)
        passed = passed and bool(np.all((rel < tol) | (diff < ABS_FLOOR)))
        rel_errors[name] = float(rel.max())
        abs_errors[name] = float(diff.max())
    return rel_errors, abs_errors, passed


class TestCompareGradients:
    def test_fixed_entries_match_reference(self):
        analytic = {
            "w": np.array([[1.0, -2.0], [0.5, 0.25]]),
            "b": np.float64(3.0),          # 0-d
            "z": np.zeros(3),              # true gradient zero
        }
        fd = {
            "w": analytic["w"] + np.array([[1e-7, 0.0], [-3e-8, 0.0]]),
            "b": np.float64(3.0 + 3e-6),
            "z": np.array([0.0, 5e-9, -2e-9]),
        }
        result = compare_gradients(analytic, fd, tol=1e-5)
        assert result == naive_compare_gradients(analytic, fd, tol=1e-5)
        rel_errors, abs_errors, passed = result
        assert list(rel_errors) == list(abs_errors) == ["w", "b", "z"]
        # "z" passes only through ABS_FLOOR: its relative error is 1
        assert rel_errors["z"] == 1.0 and abs_errors["z"] == 5e-9 < ABS_FLOOR
        assert passed
        fd["z"] = np.array([0.0, 2e-8, 0.0])
        assert compare_gradients(analytic, fd, tol=1e-5)[2] is False

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_entries_match_reference(self, data):
        count = data.draw(st.integers(1, 5))
        analytic, fd = {}, {}
        for k in range(count):
            shape = tuple(data.draw(st.lists(st.integers(1, 4), max_size=3)))
            size = int(np.prod(shape))
            values = data.draw(st.lists(st.floats(-10, 10), min_size=size, max_size=size))
            scale = data.draw(st.sampled_from([0.0, 1e-10, 1e-8, 1e-6, 1e-3]))
            noise = data.draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
            analytic[f"p{k}"] = np.reshape(values, shape)
            fd[f"p{k}"] = analytic[f"p{k}"] + scale * np.reshape(noise, shape)
        tol = data.draw(st.sampled_from([1e-7, 1e-5, 1e-2]))
        assert compare_gradients(analytic, fd, tol) == naive_compare_gradients(analytic, fd, tol)

    @pytest.mark.parametrize("analytic, fd, side", [
        ({"q": np.ones(2)}, {"q": np.ones(2), "k": np.ones(2)}, "a finite-difference"),
        ({"q": np.ones(2), "k": np.ones(2)}, {"q": np.ones(2)}, "an analytic"),
    ])
    def test_a_name_on_one_side_only_is_rejected(self, analytic, fd, side):
        with pytest.raises(ValueError, match=f"parameter 'k' has only {side} gradient"):
            compare_gradients(analytic, fd, tol=1e-5)

    @pytest.mark.parametrize("a_shape, f_shape", [((1,), (3,)), ((3,), (1,)), ((), (1,)),
                                                  ((2, 3), (3, 2)), ((0,), (0,))])
    def test_shapes_must_match_and_be_non_empty(self, a_shape, f_shape):
        with pytest.raises(ValueError, match=r"parameter 'w': analytic gradient has shape "):
            compare_gradients({"v": np.ones(2), "w": np.ones(a_shape)},
                              {"v": np.ones(2), "w": np.ones(f_shape)}, tol=1e-5)


class TestAnalyticGradients:
    def test_zero_param_fuse_matches_fd(self):
        params = zero_fusion_params(3, 2, 2)
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
        # a stack ends in (d_seq, d_v), so against a 2-D signal only the equal-shape check fails
        message = (r"sem shape \(.*\) and dep shape \(.*\) differ" if len(shape) == 3
                   else rf"{bad} has shape")
        with pytest.raises(ValueError, match=message):
            fuse_gradients(inputs["sem"], inputs["dep"], params)

    @pytest.mark.parametrize("op", OP_NAMES)
    def test_stacked_backward_equals_slices(self, op):
        # one call on (heads, ...) stacks, with 2-D weights and a shared calibration (or none),
        # gives slice by slice the bits of the 2-D calls; every gradient keeps the heads axis
        heads, rng = 3, np.random.default_rng(13)
        x, calibration = op_inputs(op, rng, (heads,))
        g = rng.normal(size=(heads, 5, 3))
        stacked = output_and_backward(op, x, calibration)[1](g)
        for i in range(heads):
            x_i = {name: value[i] if value.ndim == 3 else value for name, value in x.items()}
            single = output_and_backward(op, x_i, calibration)[1](g[i])
            assert stacked.keys() == single.keys()
            for name, value in single.items():
                assert stacked[name].shape == (heads,) + value.shape, name
                assert stacked[name][i].tobytes() == value.tobytes(), (i, name)

    @pytest.mark.parametrize("op", OP_NAMES)
    def test_backward_takes_the_upstream_gradient(self, op):
        # with an upstream gradient g unlike the output, each backward gives sum(g * output)'s
        rng = np.random.default_rng(15)
        x, calibration = op_inputs(op, rng)
        g = rng.normal(size=(5, 3))
        analytic = output_and_backward(op, x, calibration)[1](g)
        fd = fd_gradient(
            lambda y: np.sum(g * output_and_backward(op, y, calibration)[0], axis=(-2, -1)), x)
        assert compare_gradients(analytic, fd, tol=1e-6)[2]


class TestFuseReport:
    @pytest.mark.parametrize("d_seq, d_v, d_hid, seed", [(1, 1, 1, 0), (4, 3, 3, 1), (6, 8, 5, 2)])
    def test_keys_are_the_read_weights_and_every_entry_passes(self, d_seq, d_v, d_hid, seed):
        # the report holds only weights the forward reads: none is there to pass as an exact
        # zero through ABS_FLOOR
        report = check("fuse", GradCheckConfig(d_seq=d_seq, d_v=d_v, d_hid=d_hid), seed=seed,
                       tol=1e-5)
        assert set(report.rel_errors) == set(PARAM_FIELDS) | {"sem", "dep"}
        assert len(PARAM_FIELDS) == 14
        assert report.passed, report.rel_errors


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
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
            with pytest.raises(ValueError, match=r"unknown op 'mystery'; expected one of "
                                                 r"\('fuse', 'sem_attention', 'dep_attention'\)"):
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

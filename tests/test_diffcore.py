"""Unit tests for the autodiff substrate and Adam."""

import numpy as np
import pytest

from hoitg import diffcore as dc
from hoitg import losses, model, scenegen
from hoitg.errors import DimensionError, GraphError

F32 = np.float32


def scalar(t):
    return float(t.data.reshape(()))


class TestMatmul:
    def test_identity(self):
        a = dc.tensor(np.eye(2, dtype=F32))
        b = dc.tensor(np.array([[1, 2], [3, 4]], dtype=F32))
        assert np.array_equal(dc.matmul(a, b).data, b.data)

    def test_hand_product(self):
        a = dc.tensor(np.array([[1, 0], [0, 0]], dtype=F32))
        b = dc.tensor(np.array([[0, 1], [1, 0]], dtype=F32))
        assert np.array_equal(dc.matmul(a, b).data, np.array([[0, 1], [0, 0]], dtype=F32))

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            dc.matmul(dc.tensor(np.zeros((2, 3))), dc.tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        rep = dc.gradcheck(lambda ts: dc.sum_all(dc.matmul(ts[0], ts[1])), [a, b])
        assert rep.ok, rep.worst


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias_shape", [(6,), (1, 6)])
    def test_matches_matmul_then_add_bias_bitwise(self, rng, dtype, bias_shape):
        x, w, proj = (rng.normal(size=s).astype(dtype) for s in ((7, 5), (5, 6), (7, 6)))
        b = rng.normal(size=bias_shape).astype(dtype)

        def run(op):
            leaves = [dc.tensor(a.copy()) for a in (x, w, b)]
            out = op(*leaves)
            dc.backward(dc.sum_all(dc.mul(out, dc.tensor(proj))))
            return [out.data] + [leaf.grad for leaf in leaves]

        fused = run(dc.linear)
        pair = run(lambda xt, wt, bt: dc.add_bias(dc.matmul(xt, wt), bt))
        for got, want in zip(fused, pair):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("xs, ws, bs", [
        ((3, 4), (5, 2), (2,)),   # inner dimensions disagree
        ((3, 4), (4, 2), (3,)),   # bias width is not the output width
        ((4,), (4, 2), (2,)),     # x is not 2-d
    ])
    def test_shape_mismatch(self, xs, ws, bs):
        with pytest.raises(DimensionError):
            dc.linear(*(dc.tensor(np.zeros(s)) for s in (xs, ws, bs)))


class TestGelu:
    def test_zero(self):
        assert scalar(dc.gelu(dc.tensor(np.array([0.0])))) == 0.0

    def test_saturates_to_identity(self):
        assert abs(scalar(dc.gelu(dc.tensor(np.array([10.0])))) - 10.0) < 1e-6

    def test_reference_value_at_one(self):
        # frozen from x * Phi(x) with Phi via erf in 64-bit: 0.8413447460685429
        out = scalar(dc.gelu(dc.tensor(np.array([1.0], dtype=np.float64))))
        assert abs(out - 0.8413447460685429) < 1e-6


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = dc.softmax(dc.tensor(np.array([0.0, 0.0]))).data
        assert np.allclose(out, [0.5, 0.5], atol=1e-7)

    def test_no_overflow_at_large_logits(self):
        out = dc.softmax(dc.tensor(np.array([1000.0, 1000.0]))).data
        assert np.isfinite(out).all()
        assert np.allclose(out, [0.5, 0.5], atol=1e-7)

    def test_hand_value(self):
        out = dc.softmax(dc.tensor(np.log(np.array([1.0, 3.0])))).data
        assert np.allclose(out, [0.25, 0.75], atol=1e-6)

    def test_rows_sum_to_one_large_magnitudes(self, rng):
        x = dc.tensor(rng.uniform(-1e3, 1e3, size=(20, 9)))
        out = dc.softmax(x, axis=1).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert (out >= 0).all()

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            dc.softmax(dc.tensor(np.zeros((2, 2))), axis=5)


def attention_reference(q, k, v, g, heads):
    """Per-head attention forward and backward, every intermediate float32."""
    n, d = q.shape
    dh = d // heads
    alpha = F32(1.0 / np.sqrt(dh))
    out, dq, dk, dv = (np.zeros((n, d), dtype=F32) for _ in range(4))
    attn = np.zeros((heads, n, n), dtype=F32)
    for h in range(heads):
        s = slice(h * dh, (h + 1) * dh)
        scores = (q[:, s] @ k[:, s].T) * alpha
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        a = e / e.sum(axis=1, keepdims=True)
        assert a.dtype == F32
        attn[h] = a
        out[:, s] = a @ v[:, s]
        da = g[:, s] @ v[:, s].T
        dv[:, s] = a.T @ g[:, s]
        ds = a * (da - (da * a).sum(axis=1, keepdims=True))
        assert ds.dtype == F32
        dq[:, s] = (ds @ k[:, s]) * alpha
        dk[:, s] = (ds.T @ q[:, s]) * alpha
    return out, attn, dq, dk, dv


class TestAttention:
    @pytest.mark.parametrize("n, d, heads", [(7, 8, 2), (40, 32, 4), (172, 128, 4)])
    def test_float32_matches_float32_reference(self, rng, n, d, heads):
        q, k, v, g = (rng.normal(size=(n, d)).astype(F32) for _ in range(4))
        qt, kt, vt = dc.tensor(q), dc.tensor(k), dc.tensor(v)
        out, attn = dc.multi_head_attention(qt, kt, vt, heads, retain=True)
        dc.backward(dc.sum_all(dc.mul(out, dc.tensor(g))))
        want = attention_reference(q, k, v, g, heads)
        got = (out.data, attn, qt.grad, kt.grad, vt.grad)
        for name, x, y in zip(("out", "attn", "dq", "dk", "dv"), got, want):
            assert x.dtype == F32, name
            assert np.array_equal(x, y), name


class TestLayerNorm:
    def test_constant_row_zero_output(self):
        x = dc.tensor(np.full((1, 4), 3.7, dtype=F32))
        out = dc.layer_norm(x, dc.tensor(np.ones(4, dtype=F32)), dc.tensor(np.zeros(4, dtype=F32)))
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_two_values(self):
        x = dc.tensor(np.array([[1.0, 3.0]], dtype=F32))
        out = dc.layer_norm(x, dc.tensor(np.ones(2, dtype=F32)), dc.tensor(np.zeros(2, dtype=F32)))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-3)

    def test_bias_sets_row_mean(self, rng):
        # rows of xhat have zero mean, so any uniform gain leaves the row
        # mean equal to the bias mean
        x = dc.tensor(rng.normal(size=(3, 8)))
        gain = dc.tensor(np.full(8, -2.3))
        bias = dc.tensor(rng.normal(size=8))
        out = dc.layer_norm(x, gain, bias)
        assert np.allclose(out.data.mean(axis=1), float(bias.data.mean()), atol=1e-5)

    def test_gain_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dc.layer_norm(dc.tensor(np.zeros((2, 4))), dc.tensor(np.ones(3)), dc.tensor(np.zeros(4)))


class TestBackward:
    def test_sum_gives_ones(self, rng):
        p = dc.tensor(rng.normal(size=(3, 5)))
        dc.backward(dc.sum_all(p))
        assert np.array_equal(p.grad, np.ones((3, 5)))

    def test_sum_of_squares(self):
        p = dc.tensor(np.array([1.0, 2.0]))
        dc.backward(dc.sum_all(dc.mul(p, p)))
        assert np.allclose(p.grad, [2.0, 4.0])

    def test_composite_matches_finite_differences(self, rng):
        def fn(ts):
            h = dc.gelu(dc.matmul(ts[0], ts[1]))
            return dc.sum_all(dc.mul(dc.softmax(h, axis=1), ts[2]))

        rep = dc.gradcheck(fn, [rng.normal(size=(3, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3, 3))])
        assert rep.ok, rep.worst

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(GraphError):
            dc.backward(dc.tensor(np.zeros(3)))

    def test_accumulation_without_reset(self):
        p = dc.tensor(np.array([2.0]))
        dc.backward(dc.sum_all(p))
        dc.backward(dc.sum_all(p))
        assert np.allclose(p.grad, [2.0])
        dc.zero_grads([p])
        dc.backward(dc.sum_all(p))
        assert np.allclose(p.grad, [1.0])

    def test_tape_is_released_and_leaves_keep_gradients(self, rng):
        a, b = dc.tensor(rng.normal(size=(3, 4))), dc.tensor(rng.normal(size=(4, 2)))
        prod = dc.matmul(a, b)
        act = dc.gelu(prod)
        loss = dc.sum_all(act)
        dc.backward(loss)
        for node in (prod, act, loss):
            assert node.grad is None and node._bwd is None
            assert node._parents  # the graph's structure stays for tape walks
        assert a.grad.shape == (3, 4) and b.grad.shape == (4, 2)

    def test_second_backward_on_a_released_graph_raises(self):
        p = dc.tensor(np.array([2.0]))
        sq = dc.mul(p, p)
        loss = dc.sum_all(sq)
        dc.backward(loss)
        with pytest.raises(GraphError, match="released"):
            dc.backward(loss)
        with pytest.raises(GraphError, match="released"):
            dc.backward(dc.sum_all(sq))  # a new graph over a released node
        assert np.array_equal(p.grad, [4.0])

    def test_first_gradient_write_turns_negative_zero_positive(self):
        p = dc.tensor(np.array([1.0, 2.0], dtype=F32))
        dc.backward(dc.scale(dc.sum_all(p), -0.0))
        assert p.grad.dtype == F32 and np.array_equal(p.grad, [0.0, 0.0])
        assert not np.signbit(p.grad).any()

    def test_deterministic_within_process(self, rng):
        a = rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6))

        def run():
            ta, tb = dc.tensor(a.copy()), dc.tensor(b.copy())
            out = dc.mean_all(dc.gelu(dc.matmul(dc.softmax(ta, axis=0), tb)))
            dc.backward(out)
            return ta.grad.copy(), tb.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)


class TestNoGrad:
    @pytest.fixture()
    def sample(self, mini_assets):
        return scenegen.sample_scene(scenegen.mix_seed(100, 0), "box", mini_assets)

    def test_forward_matches_recorded_and_keeps_no_tape(self, mini_assets, mini_encoder, sample,
                                                        reconstruction_tensors):
        net = model.HoiReconstructor(mini_assets, mini_encoder, seed=5)
        recorded = net.forward(sample.channels, "box")
        with dc.no_grad():
            bare = net.forward(sample.channels, "box")
        want, got = reconstruction_tensors(recorded), reconstruction_tensors(bare)
        assert set(got) == set(want) and len(got) == 15
        for name, t in got.items():
            assert t.data.dtype == want[name].data.dtype, name
            assert np.array_equal(t.data, want[name].data), name
            assert t._parents == () and t._bwd is None, name
        assert want["human_full"]._parents and want["human_full"]._bwd is not None
        assert np.array_equal(bare.pose.rotation, recorded.pose.rotation)
        assert np.array_equal(bare.pose.translation, recorded.pose.translation)

    def test_mode_is_restored_after_nesting_and_exceptions(self):
        x = dc.tensor(np.array([1.0, 2.0]))

        def records():
            t = dc.mul(x, x)
            return t._bwd is not None and t._parents == (x, x)

        assert records()
        with dc.no_grad():
            with dc.no_grad():
                assert not records()
            assert not records()
        assert records()
        with pytest.raises(RuntimeError, match="inside"):
            with dc.no_grad():
                raise RuntimeError("inside")
        assert records()

    def test_backward_does_not_reach_through_an_unrecorded_result(self):
        p = dc.tensor(np.array([3.0]))
        with dc.no_grad():
            sq = dc.mul(p, p)
        q = dc.tensor(np.array([2.0]))
        dc.backward(dc.sum_all(dc.mul(sq, q)))
        assert p.grad is None and np.array_equal(q.grad, [9.0])

    def test_gradients_after_a_no_grad_block_are_unchanged(self, mini_assets, mini_encoder, sample):
        def grads(forward_first):
            net = model.HoiReconstructor(mini_assets, mini_encoder, seed=5)
            if forward_first:
                with dc.no_grad():
                    net.forward(sample.channels, "box")
            total, _ = losses.scene_loss(net.forward(sample.channels, "box"), sample, mini_assets,
                                         losses.LossWeights())
            dc.backward(total)
            return {name: p.grad for name, p in net.params.items()}

        plain, after = grads(False), grads(True)
        assert set(after) == set(plain)
        for name, g in plain.items():
            assert (g is None) == (after[name] is None), name
            assert g is None or np.array_equal(g, after[name]), name

    def test_gradcheck_records_only_the_analytic_pass(self, rng):
        taped = []

        def fn(ts):
            out = dc.sum_all(dc.gelu(dc.matmul(ts[0], ts[1])))
            taped.append(out._bwd is not None)
            return out

        rep = dc.gradcheck(fn, [rng.normal(size=(2, 3)), rng.normal(size=(3, 2))])
        assert rep.ok, rep.worst
        assert taped == [True] + [False] * (2 * 12)


class TestAdam:
    def test_zero_gradient_is_identity_on_fresh_state(self):
        p = dc.tensor(np.array([1.0, -2.0], dtype=F32))
        before = p.data.copy()
        dc.adam_step({"p": p}, dc.AdamState(lr=0.1))
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude(self):
        # closed form at t=1: bias-corrected update is lr * g / (|g| + eps)
        p = dc.tensor(np.array([0.0, 0.0], dtype=F32))
        p.grad = np.array([0.5, -3.0], dtype=F32)
        dc.adam_step({"p": p}, dc.AdamState(lr=1e-2))
        assert np.allclose(p.data, [-1e-2, 1e-2], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = dc.tensor(np.array([1.0], dtype=F32))
        state = dc.AdamState(lr=0.1)
        for _ in range(100):
            dc.zero_grads([p])
            dc.backward(dc.sum_all(dc.mul(p, p)))
            dc.adam_step({"p": p}, state)
        assert abs(float(p.data[0])) < 0.05

    def test_step_count_increments(self):
        p = dc.tensor(np.array([1.0], dtype=F32))
        state = dc.AdamState()
        dc.adam_step({"p": p}, state)
        dc.adam_step({"p": p}, state)
        assert state.step == 2

    def test_shape_mismatch(self):
        p = dc.tensor(np.zeros(3, dtype=F32))
        p.grad = np.zeros(4, dtype=F32)
        with pytest.raises(DimensionError):
            dc.adam_step({"p": p}, dc.AdamState())


class TestParamFile:
    def test_roundtrip(self, tmp_path, rng):
        params = {
            "layer.w": dc.tensor(rng.normal(size=(4, 3)).astype(F32)),
            "layer.b": dc.tensor(rng.normal(size=3).astype(F32)),
        }
        path = tmp_path / "params.bin"
        dc.save_params(path, params, extra={"note": {"step": 7}})
        arrays, manifest = dc.load_params(path)
        assert manifest["note"] == {"step": 7}
        for name, p in params.items():
            assert np.array_equal(arrays[name], p.data)

    def test_manifest_offsets(self, tmp_path):
        params = {
            "a": dc.tensor(np.zeros((2, 2), dtype=F32)),
            "b": dc.tensor(np.ones(5, dtype=F32)),
        }
        path = tmp_path / "p.bin"
        dc.save_params(path, params)
        _, manifest = dc.load_params(path)
        entries = {e["name"]: e for e in manifest["params"]}
        assert entries["a"]["byte_offset"] == 0
        assert entries["b"]["byte_offset"] == 16


class TestBroadcastBoundaries:
    def test_add_requires_exact_shapes(self):
        with pytest.raises(DimensionError):
            dc.add(dc.tensor(np.zeros((2, 3))), dc.tensor(np.zeros(3)))

    def test_add_bias_broadcasts_leading_dim(self, rng):
        x = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        out = dc.add_bias(dc.tensor(x), dc.tensor(b))
        assert np.allclose(out.data, x + b)
        rep = dc.gradcheck(lambda ts: dc.sum_all(dc.mul(dc.add_bias(ts[0], ts[1]), ts[2])),
                           [x, b, rng.normal(size=(4, 3))])
        assert rep.ok, rep.worst

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import rirkit.gan.layers as layers
from rirkit.gan.checkpoint import load_checkpoint, save_checkpoint
from rirkit.gan.layers import (
    Conv1d,
    ConvTranspose1d,
    Dense,
    LeakyReLU,
    PhaseShuffle,
    ReLU,
    Tanh,
)
from rirkit.gan.nets import Critic, GanModel, Generator
from rirkit.gan.training import RMSProp, TrainConfig, clip_weights, train

from _gradcheck import numeric_gradient, relative_error

RNG = np.random.default_rng(20240521)

# h=1e-4 per the gradient-check contract; entries whose FD interval straddles a
# ReLU/leaky-ReLU kink are re-measured at the refined step (the central
# difference is only valid between kinks of a piecewise-linear net, and the
# kink error vanishes linearly in h).
H_PRIMARY = 1e-4
H_REFINED = 1e-6
TOL = 1e-4


def fd_check_layer(layer, x, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(layer.forward(x).shape)

    def loss():
        return float((layer.forward(x) * w).sum())

    loss()
    layer.backward(w)
    worst = 0.0
    for name, arr in layer.params.items():
        num = numeric_gradient(loss, arr, h=H_PRIMARY)
        worst = max(worst, relative_error(layer.grads[name], num))
    return worst


class TestLayerGradients:
    def test_dense(self):
        layer = Dense(11, 7, RNG, dtype=np.float64)
        x = RNG.standard_normal((3, 11))
        assert fd_check_layer(layer, x) < TOL

    def test_conv1d(self):
        layer = Conv1d(3, 5, kernel=25, stride=4, rng=RNG, dtype=np.float64)
        x = RNG.standard_normal((2, 64, 3))
        assert fd_check_layer(layer, x) < TOL

    def test_conv_transpose1d(self):
        layer = ConvTranspose1d(3, 5, kernel=25, stride=4, rng=RNG, dtype=np.float64)
        x = RNG.standard_normal((2, 16, 3))
        assert fd_check_layer(layer, x) < TOL

    @pytest.mark.parametrize("act", [ReLU(), LeakyReLU(0.2), Tanh()])
    def test_activation_input_gradients(self, act):
        # inputs bounded away from the kink so the FD interval stays one-sided
        x = RNG.standard_normal((4, 50))
        x = np.where(np.abs(x) < 0.01, 0.5, x)
        w = RNG.standard_normal(x.shape)

        def loss():
            return float((act.forward(x) * w).sum())

        loss()
        gx = act.backward(w)
        num = numeric_gradient(loss, x, h=H_PRIMARY)
        assert relative_error(gx, num) < TOL

    def test_phase_shuffle_input_gradients(self):
        ps = PhaseShuffle(2)
        x = RNG.standard_normal((2, 30, 3))
        w = RNG.standard_normal((2, 30, 3))
        for shift in (-2, -1, 0, 1, 2):
            def loss():
                return float((ps.forward(x, shift) * w).sum())

            loss()
            gx = ps.backward(w)
            num = numeric_gradient(loss, x, h=H_PRIMARY)
            assert relative_error(gx, num) < TOL


class TestNumericGradient:
    """numeric_gradient perturbs the live array whatever its strides, and
    `indices` are C-order flat positions."""

    @pytest.mark.parametrize("layout", [
        np.asfortranarray,
        lambda a: np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2),
    ])
    def test_strided_array(self, layout):
        rng = np.random.default_rng(4)
        arr = layout(rng.standard_normal((4, 3, 5)))
        coef = rng.standard_normal(arr.shape)
        assert not arr.flags.c_contiguous
        snap = arr.copy()

        def loss():
            return float((coef * arr * arr).sum())

        want = 2.0 * coef * snap
        np.testing.assert_allclose(numeric_gradient(loss, arr), want, rtol=1e-6)
        idx = [0, 7, 31, arr.size - 1]
        got = numeric_gradient(loss, arr, indices=idx).ravel()
        np.testing.assert_allclose(got[idx], want.ravel()[idx], rtol=1e-6)
        assert np.count_nonzero(np.delete(got, idx)) == 0
        assert np.array_equal(arr, snap)


def _conv_weights(net):
    return [arr for _, pname, arr in net.named_params() if pname == "W" and arr.ndim == 3]


def _in_gemm_layout(w, net):
    """(kernel, c_in, c_out) weights stored so that every GEMM reads them as a
    free view: C-contiguous for a critic's Conv1d, and for a generator's
    ConvTranspose1d a C-contiguous (kernel, c_out, c_in) buffer."""
    return (w if isinstance(net, Critic) else w.transpose(0, 2, 1)).flags.c_contiguous


class TestWeightLayout:
    def test_built_and_loaded_models(self, tmp_path):
        rng = np.random.default_rng(6)
        model = GanModel(Generator(2, rng=rng), Critic(2, rng=rng), d=2, step=1, seed=6)
        save_checkpoint(model, tmp_path / "a.gan")
        loaded = load_checkpoint(tmp_path / "a.gan")
        save_checkpoint(loaded, tmp_path / "b.gan")
        assert (tmp_path / "a.gan").read_bytes() == (tmp_path / "b.gan").read_bytes()
        for net in (model.generator, model.critic, loaded.generator, loaded.critic):
            weights = _conv_weights(net)
            assert len(weights) == 5
            assert all(_in_gemm_layout(w, net) for w in weights)

    def test_set_param_and_updates_keep_layout_and_arrays(self):
        rng = np.random.default_rng(7)
        for net in (Generator(2, rng=rng), Critic(2, shuffle_radius=0, rng=rng)):
            arrays = net.param_arrays()
            opt = RMSProp(arrays, 1e-3)

            def unchanged():
                weights = _conv_weights(net)
                return (len(weights) == 5 and all(_in_gemm_layout(w, net) for w in weights)
                        and all(a is b for a, b in zip(net.param_arrays(), arrays)))

            for _, _, arr in net.named_params():
                arr[...] = 0.005
            assert all(np.all(a == np.float32(0.005)) for a in arrays)  # RMSProp's arrays
            assert unchanged()
            net.forward(rng.uniform(-1, 1, (2, net.n_in)))
            net.backward(np.ones((2, *net.out_shape), dtype=np.float32))
            opt.step(net.grad_arrays())
            assert not all(np.all(a == np.float32(0.005)) for a in arrays)
            assert unchanged()
            if isinstance(net, Critic):
                clip_weights(net, 0.01)
                assert all(np.max(np.abs(a)) <= 0.01 for a in arrays)
                assert unchanged()

    def test_conv1d_backward_reads_weights_without_a_copy(self, monkeypatch):
        """The input gradient's (c_out, kernel * c_in) weight matrix is a view
        of the stored weights, not a copy (52 MB at d=64 conv5)."""
        rng = np.random.default_rng(8)
        layer = Conv1d(4, 8, kernel=25, stride=4, rng=rng)
        seen, real = [], layers._overlap_add

        def overlap_add(a, wm, k, s):
            seen.append(wm)
            return real(a, wm, k, s)

        monkeypatch.setattr(layers, "_overlap_add", overlap_add)
        layer.forward(rng.standard_normal((2, 64, 4)).astype(np.float32))
        layer.backward(rng.standard_normal((2, 16, 8)).astype(np.float32))
        assert len(seen) == 1 and np.shares_memory(seen[0], layer.params["W"])
        assert layer.grads["W"].flags.c_contiguous  # walked in the weights' order


class TestShapes:
    def test_conv_same_padding_lengths(self):
        layer = Conv1d(1, 2, kernel=25, stride=4, rng=RNG)
        y = layer.forward(np.zeros((1, 16384, 1), dtype=np.float32))
        assert y.shape == (1, 4096, 2)

    def test_conv_transpose_lengths(self):
        layer = ConvTranspose1d(2, 1, kernel=25, stride=4, rng=RNG)
        y = layer.forward(np.zeros((1, 16, 2), dtype=np.float32))
        assert y.shape == (1, 64, 1)

    def test_conv_rejects_unaligned_length(self):
        layer = Conv1d(1, 1, kernel=25, stride=4, rng=RNG)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 10, 1), dtype=np.float32))

    def test_dense_one_row_is_row_zero_of_two(self):
        layer = Dense(100, 64, RNG)
        x = RNG.uniform(-1, 1, (2, 100)).astype(np.float32)
        assert layer.forward(x[:1]).tobytes() == layer.forward(x)[:1].tobytes()
        assert layer.forward(x[:1]).shape == (1, 64)

    def test_backward_before_forward_raises(self):
        layer = Dense(4, 4, RNG)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 4)))

    def test_phase_shuffle_reflects(self):
        ps = PhaseShuffle(2)
        x = np.arange(6, dtype=np.float64)[None, :, None]
        y = ps.forward(x, 2)[0, :, 0]
        np.testing.assert_array_equal(y, [2, 1, 0, 1, 2, 3])
        y = ps.forward(x, -2)[0, :, 0]
        np.testing.assert_array_equal(y, [2, 3, 4, 5, 4, 3])

    @pytest.mark.parametrize("t, shift", [(2, 3), (2, 2), (2, -2), (3, 3), (1, 1)])
    def test_phase_shuffle_rejects_shift_beyond_length(self, t, shift):
        ps = PhaseShuffle(2)
        with pytest.raises(ValueError, match="does not fit a length"):
            ps.forward(np.zeros((1, t, 1)), shift)


class TestKernelReferences:
    """Forward values of the gather and overlap-add kernels against their
    definitions (float64, so any reordering of the sums stays within 1e-12)."""

    def test_conv1d_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        k, s = 25, 4
        layer = Conv1d(3, 5, kernel=k, stride=s, rng=rng, dtype=np.float64)
        layer.params["b"] = rng.standard_normal(5)
        x = rng.standard_normal((2, 64, 3))
        pl = (k - s) // 2
        xp = np.pad(x, ((0, 0), (pl, k - s - pl), (0, 0)))
        w, b = layer.params["W"], layer.params["b"]
        ref = np.stack([sum(xp[:, i * s + j] @ w[j] for j in range(k)) + b
                        for i in range(64 // s)], axis=1)
        np.testing.assert_allclose(layer.forward(x), ref, rtol=1e-12, atol=1e-12)

    def test_conv_transpose_is_adjoint_of_conv(self):
        rng = np.random.default_rng(8)
        conv = Conv1d(3, 5, kernel=25, stride=4, rng=rng, dtype=np.float64)
        tconv = ConvTranspose1d(5, 3, kernel=25, stride=4, rng=rng, dtype=np.float64)
        tconv.params["W"] = conv.params["W"].transpose(0, 2, 1).copy()
        x = rng.standard_normal((2, 64, 3))
        g = rng.standard_normal((2, 16, 5))
        y = conv.forward(x) - conv.params["b"]
        gx = conv.backward(g)
        # the input gradient is the true adjoint: <conv(x), g> == <x, conv^T g>
        assert np.sum(x * gx) == pytest.approx(np.sum(y * g), rel=1e-12)
        # overlap-add pair: transposed forward == convolution input gradient
        np.testing.assert_allclose(tconv.forward(g), gx, rtol=1e-12, atol=1e-12)
        # gather pair: transposed input gradient == bias-free convolution
        np.testing.assert_allclose(tconv.backward(x), conv.forward(x) - conv.params["b"],
                                   rtol=1e-12, atol=1e-12)

    def test_phase_shuffle_zero_shift_is_identity(self):
        ps = PhaseShuffle(2)
        x = RNG.standard_normal((2, 30, 3))
        g = RNG.standard_normal((2, 30, 3))
        np.testing.assert_array_equal(ps.forward(x, 0), x)
        np.testing.assert_array_equal(ps.backward(g), g)


# Reference kernels: the np.pad + sliding-window gather, the tap-by-tap
# overlap-add, Conv1d.backward with its input gradient always computed, the
# plain broadcast bias add, the index-map gather and np.add.at scatter of
# PhaseShuffle, the np.where activations and RMSProp on fresh temporaries. The
# layers must give the same bits, because each output sums the same terms in
# the same order.

def _ref_gather(x, k, s, out=None):
    """SAME pad along time, then one (k, c) window per stride-s step, always
    in a new array."""
    b, t, c = x.shape
    pl = (k - s) // 2
    xp = np.pad(x, ((0, 0), (pl, k - s - pl), (0, 0)))
    v = sliding_window_view(xp, k, axis=1)[:, ::s]  # (b, t/s, c, k)
    return np.ascontiguousarray(v.transpose(0, 1, 3, 2)).reshape(b * (t // s), k * c)


def _ref_add_bias(y, bias):
    y += bias
    return y


def _ref_overlap_add(contrib, s, dtype):
    """Tap-by-tap: k strided adds in ascending tap order, then the crop."""
    b, t, k, c = contrib.shape
    full = np.zeros((b, (t - 1) * s + k, c), dtype=dtype)
    for j in range(k):
        full[:, j : j + t * s : s, :] += contrib[:, :, j, :]
    crop = (k - s) // 2
    return full[:, crop : crop + t * s, :]


def _block_products(a, wm, k, s):
    """(b, t, k, c) window contributions as _overlap_add forms them: one GEMM
    per s-tap block, a @ wm[:, m*s*c : (m*s + w)*c], joined along the taps."""
    b, t, n = a.shape
    c = wm.shape[1] // k
    a2 = a.reshape(b * t, n)
    blocks = [a2 @ wm[:, j * c : min(j + s, k) * c] for j in range(0, k, s)]
    return np.concatenate(blocks, axis=1).reshape(b, t, k, c)


def _ref_overlap_add_gemm(a, wm, k, s):
    """_overlap_add's contract: the block products, added tap by tap."""
    return _ref_overlap_add(_block_products(a, wm, k, s), s, a.dtype)


def _ref_conv1d_backward(self, gy, param_grads=True, input_grad=True):
    """Conv1d.backward with the block products added tap by tap and the bias
    gradient summed over the batch, then over time; it computes the input
    gradient whatever input_grad says."""
    v = self._require_ctx()
    b, t_out, _ = gy.shape
    k = self.kernel
    if param_grads:
        gw = v.T @ gy.reshape(b * t_out, self.c_out)
        self.grads["W"] = gw.reshape(k, self.c_in, self.c_out)
        self.grads["b"] = gy.sum(axis=0).sum(axis=0)
    wk = np.ascontiguousarray(self.params["W"]).reshape(k * self.c_in, self.c_out)
    return _ref_overlap_add_gemm(gy, wk.T, k, self.stride)


def _ref_index_map(t, shift):
    """Where each output sample of a phase shuffle by shift reads its input:
    |i - shift|, reflected at the far edge."""
    if abs(shift) > t - 1:
        raise ValueError(f"shift {shift} does not fit a length of {t}")
    idx = np.abs(np.arange(t) - shift)
    over = idx > t - 1
    idx[over] = 2 * (t - 1) - idx[over]
    return idx


def _ref_phase_shuffle_forward(self, x, shift=0):
    """Gather through the index map."""
    idx = _ref_index_map(x.shape[1], shift)
    self._ctx = shift
    return x[:, idx, :]


def _ref_phase_shuffle_backward(self, gy, param_grads=True):
    """Scatter-add through the index map."""
    idx = _ref_index_map(gy.shape[1], self._require_ctx())
    gx = np.zeros(gy.shape, dtype=gy.dtype)
    np.add.at(gx, (slice(None), idx), gy)
    return gx


def _ref_relu_forward(self, x):
    self._ctx = x > 0
    return np.where(self._ctx, x, 0)


def _ref_relu_backward(self, gy, param_grads=True):
    return np.where(self._require_ctx(), gy, 0)


def _ref_leaky_relu_forward(self, x):
    self._ctx = x > 0
    return np.where(self._ctx, x, x * x.dtype.type(self.slope))


def _ref_leaky_relu_backward(self, gy, param_grads=True):
    return np.where(self._require_ctx(), gy, gy * gy.dtype.type(self.slope))


def _ref_rmsprop_step(self, grads):
    for p, g, v in zip(self.params, grads, self.cache):
        g64 = g.astype(np.float64)
        v *= 0.9
        v += (1.0 - 0.9) * g64 * g64
        p -= (self.lr * g64 / (np.sqrt(v) + 1e-8)).astype(p.dtype)


def _bits(a):
    return a.view(np.dtype(f"u{a.itemsize}"))


def _special_pairs(dtype):
    """(x, g): every pairing of +-0, +-NaN (quiet, and one with a payload),
    +-inf, the smallest denormals and normals, +-max and +-1, then random
    values; long enough that each pair also lands in a vector loop's body."""
    fi = np.finfo(dtype)
    payload_nan = np.array(0x7FC00001 if fi.bits == 32 else 0x7FF8000000000001,
                           np.dtype(f"u{fi.bits // 8}")).view(dtype)
    table = np.array([0.0, -0.0, np.nan, -np.nan, payload_nan, -payload_nan,
                      np.inf, -np.inf, fi.smallest_subnormal, -fi.smallest_subnormal,
                      2 * fi.smallest_subnormal, -2 * fi.smallest_subnormal,
                      fi.smallest_normal, -fi.smallest_normal, fi.max, -fi.max,
                      1.0, -1.0], dtype=dtype)
    rand = np.random.default_rng(fi.bits).standard_normal((2, 1000)).astype(dtype)
    return (np.concatenate([np.repeat(table, table.size), rand[0]]),
            np.concatenate([np.tile(table, table.size), rand[1]]))


# (b, t, k, c) contribution shape -> (stride, inner width n of the GEMM)
OVERLAP_ADD_CASES = {
    (16, 4096, 25, 1): (4, 4),      # train-d4: critic conv1 input gradient
    (16, 1024, 25, 4): (4, 8),      # train-d4: critic conv2 / generator tconv4
    (8, 256, 25, 8): (4, 16),       # train-d4: generator tconv3
    (1, 16, 25, 512): (4, 1024),    # d=64: generator tconv1
    (1, 1024, 25, 64): (4, 128),    # d=64: generator tconv4
    (3, 40, 11, 5): (3, 6),         # stride that does not divide the kernel
    (2, 30, 8, 3): (4, 2),          # stride that divides the kernel
    (1, 64, 25, 256): (4, 512),     # d=64: generator tconv2
}
OVERLAP_ADD_SHAPES = [(shape, s) for shape, (s, _) in OVERLAP_ADD_CASES.items()]
# weights passed as the layers pass them: the transpose of a C-contiguous
# (k * c, n) matrix, a Conv1d weight buffer
ADJOINT_LAYOUT = {(1, 64, 25, 256)}


def _gemm_operands(shape, dtype):
    b, t, k, c = shape
    n = OVERLAP_ADD_CASES[shape][1]
    rng = np.random.default_rng(sum(shape) + n)
    a = rng.standard_normal((b, t, n)).astype(dtype)
    if shape in ADJOINT_LAYOUT:
        return a, rng.standard_normal((k * c, n)).astype(dtype).T
    return a, rng.standard_normal((n, k * c)).astype(dtype)


class TestKernelEquivalence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, s", OVERLAP_ADD_SHAPES)
    def test_overlap_add_matches_tap_loop(self, shape, s, dtype):
        a, wm = _gemm_operands(shape, dtype)
        got = layers._overlap_add(a, wm, shape[2], s)
        ref = _ref_overlap_add_gemm(a, wm, shape[2], s)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("shape, s", OVERLAP_ADD_SHAPES)
    def test_block_products_match_one_gemm(self, shape, s):
        """Splitting the GEMM by tap block keeps its full inner width, so in
        float64 it moves each product by rounding only."""
        a, wm = _gemm_operands(shape, np.float64)
        b, t, k, c = shape
        one = (a.reshape(b * t, -1) @ wm).reshape(shape)
        blocks = _block_products(a, wm, k, s)
        assert np.max(np.abs(blocks - one)) <= 1e-12 * np.max(np.abs(one))

    @pytest.mark.parametrize("x_shape, s", [
        ((8, 16384, 1), 4),   # train-d4: critic conv1
        ((8, 4096, 4), 4),    # train-d4: critic conv2
        ((8, 1024, 8), 4),    # train-d4: critic conv3
        ((8, 256, 16), 4),    # train-d4: critic conv4
        ((8, 64, 32), 4),     # train-d4: critic conv5
        ((1, 64, 512), 4),    # d=64: generator tconv1 backward
        ((3, 42, 5), 3),      # stride that does not divide the kernel
    ])
    def test_gather_matches_sliding_window(self, x_shape, s):
        k = 25 if s == 4 else 11
        x = np.random.default_rng(sum(x_shape)).standard_normal(x_shape).astype(np.float32)
        got = layers._gather(x, k, s)
        ref = _ref_gather(x, k, s)
        assert got.flags.c_contiguous and got.dtype == ref.dtype
        assert np.array_equal(_bits(got), _bits(ref))

    def test_tconv_forward_peak_below_contribution_tensor(self):
        """d=64 tconv4 at batch 1 peaks below the (1, 1024, 25, 64) float32
        tensor of every window's contribution (6.55 MB), which one GEMM over
        all taps would allocate."""
        rng = np.random.default_rng(11)
        layer = ConvTranspose1d(128, 64, kernel=25, stride=4, rng=rng)
        x = rng.standard_normal((1, 1024, 128)).astype(np.float32)
        tracemalloc.start()
        try:
            layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 * 1024 * 25 * 64 * 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv1d_backward_matches_reference(self, dtype):
        rng = np.random.default_rng(9)
        layer = Conv1d(4, 8, kernel=25, stride=4, rng=rng, dtype=dtype)
        x = rng.standard_normal((8, 1024, 4)).astype(dtype)
        g = rng.standard_normal((8, 256, 8)).astype(dtype)
        layer.forward(x)
        gx = layer.backward(g)
        grads = dict(layer.grads)
        ref = _ref_conv1d_backward(layer, g)
        assert np.array_equal(gx, ref)
        assert all(np.array_equal(grads[n], layer.grads[n]) for n in grads)

    def test_conv1d_rewrites_its_windows_in_place(self):
        """A second forward of the same shape writes its windows into the
        first one's buffer, and backward then sees only the second input."""
        rng = np.random.default_rng(12)
        layer, fresh = (Conv1d(4, 8, kernel=25, stride=4, rng=np.random.default_rng(3))
                        for _ in range(2))
        x1, x2 = (rng.standard_normal((2, 64, 4)).astype(np.float32) for _ in range(2))
        g = rng.standard_normal((2, 16, 8)).astype(np.float32)
        layer.forward(x1)
        first = layer._ctx
        assert np.array_equal(layer.forward(x2), fresh.forward(x2))
        assert layer._ctx is first
        assert np.array_equal(layer.backward(g), fresh.backward(g))
        assert all(np.array_equal(layer.grads[n], fresh.grads[n]) for n in ("W", "b"))
        layer.forward(x2[:1])  # another shape: a new buffer
        assert layer._ctx is not first and layer._ctx.shape == (16, 100)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cropped", [False, True], ids=["contiguous", "cropped"])
    def test_add_bias_bits_match_plain_add(self, dtype, cropped):
        """Every special value of y meets every special bias value (and the
        random tail of y meets them too); the add lands in the array given."""
        x, g = _special_pairs(dtype)
        c = 18
        bias = g[:c]  # the special values, in the order x repeats them
        y = x[: x.size // (2 * c) * 2 * c].reshape(2, -1, c)
        if cropped:  # ConvTranspose1d's output: the SAME crop of the full overlap-add
            t = y.shape[1] // 4
            out = layers._overlap_add(np.zeros((2, t, 3), dtype), np.zeros((3, 25 * c), dtype),
                                      25, 4)
            assert not out.flags.c_contiguous and out.shape == y.shape
            out[...] = y
        else:
            out = y.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # max + max, inf - inf
            want = y + bias
            assert layers._add_bias(out, bias) is out
        assert np.array_equal(_bits(out), _bits(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 7, 30])
    def test_phase_shuffle_backward_matches_scatter(self, t, dtype):
        ps = PhaseShuffle(2)
        rng = np.random.default_rng(t)
        x = rng.standard_normal((2, t, 3)).astype(dtype)
        g = rng.standard_normal((2, t, 3)).astype(dtype)
        for shift in range(-(t - 1), t):
            ps.forward(x, shift)
            got = ps.backward(g)
            assert got.dtype == g.dtype
            assert np.array_equal(got, _ref_phase_shuffle_backward(ps, g)), shift

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 7, 30])
    def test_phase_shuffle_forward_matches_gather(self, t, dtype):
        ps = PhaseShuffle(2)
        x = np.random.default_rng(t).standard_normal((2, t, 3)).astype(dtype)
        for shift in range(-(t - 1), t):
            got = ps.forward(x, shift)
            assert ps._ctx == shift
            ref = _ref_phase_shuffle_forward(ps, x, shift)
            assert got.dtype == x.dtype and got.shape == x.shape
            assert np.array_equal(_bits(got), _bits(ref)), shift

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("make, ref_fwd, ref_bwd", [
        (ReLU, _ref_relu_forward, _ref_relu_backward),
        (lambda: LeakyReLU(0.2), _ref_leaky_relu_forward, _ref_leaky_relu_backward),
    ], ids=["relu", "leaky_relu"])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    def test_activation_bits_match_where(self, make, ref_fwd, ref_bwd, dtype, strided):
        x, g = _special_pairs(dtype)
        if strided:  # as ConvTranspose1d's cropped output reaches the ReLU
            x = np.repeat(x, 2)[::2]
            g = np.repeat(g, 2)[::2]
        x, g = x.reshape(2, -1, 1), g.reshape(2, -1, 1)
        act, ref_layer = make(), make()
        y, y_ref = act.forward(x), ref_fwd(ref_layer, x)
        assert y.dtype == y_ref.dtype
        assert np.array_equal(_bits(y), _bits(y_ref))
        gx, gx_ref = act.backward(g), ref_bwd(ref_layer, g)
        assert gx.dtype == gx_ref.dtype
        assert np.array_equal(_bits(gx), _bits(gx_ref))

    def test_rmsprop_matches_fresh_temporaries(self):
        rng = np.random.default_rng(10)
        shapes = [(25, 3, 4), (4,), (300,)]
        params = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        params[0] = np.ascontiguousarray(params[0].transpose(1, 0, 2)).transpose(1, 0, 2)
        ref_params = [p.copy() for p in params]
        opt, ref = RMSProp(params, 1e-3), RMSProp(ref_params, 1e-3)
        for _ in range(3):
            grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
            grads[1][:] = 0  # sqrt(v) + eps with v = 0
            opt.step(grads)
            _ref_rmsprop_step(ref, grads)
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(params, ref_params))
        assert all(np.array_equal(a, b) for a, b in zip(opt.cache, ref.cache))

    def test_training_checkpoint_bytes_match_reference_kernels(self, monkeypatch,
                                                              tmp_path, toy_rirs):
        config = TrainConfig(steps=2, batch_size=4, d=1, rng_seed=3, shuffle_radius=2,
                             checkpoint_every=0)
        for owner, attr, ref in [
            (layers, "_gather", _ref_gather),
            (layers, "_overlap_add", _ref_overlap_add_gemm),
            (layers, "_add_bias", _ref_add_bias),
            (layers.Conv1d, "backward", _ref_conv1d_backward),
            (layers.PhaseShuffle, "forward", _ref_phase_shuffle_forward),
            (layers.PhaseShuffle, "backward", _ref_phase_shuffle_backward),
            (layers.ReLU, "forward", _ref_relu_forward),
            (layers.ReLU, "backward", _ref_relu_backward),
            (layers.LeakyReLU, "forward", _ref_leaky_relu_forward),
            (layers.LeakyReLU, "backward", _ref_leaky_relu_backward),
            (RMSProp, "step", _ref_rmsprop_step),
        ]:
            monkeypatch.setattr(owner, attr, ref)
        save_checkpoint(train(toy_rirs[:16], config).model, tmp_path / "ref.gan")
        monkeypatch.undo()
        save_checkpoint(train(toy_rirs[:16], config).model, tmp_path / "new.gan")
        assert (tmp_path / "ref.gan").read_bytes() == (tmp_path / "new.gan").read_bytes()


class TestNetBackward:
    @pytest.mark.parametrize("make", [
        lambda rng: Critic(1, shuffle_radius=2, rng=rng),
        lambda rng: Generator(1, rng=rng),
    ], ids=["critic", "generator"])
    def test_skipped_input_grad_keeps_parameter_grads(self, make):
        rng = np.random.default_rng(11)
        net = make(rng)
        x = rng.uniform(-1, 1, (3, net.n_in))
        g = rng.standard_normal((3, *net.out_shape)).astype(np.float32)
        net.forward(x, rng=np.random.default_rng(5))
        full = net.backward(g)
        want = [a.copy() for a in net.grad_arrays()]
        skipped = net.backward(g, input_grad=False)
        assert skipped.shape == full.shape == (3, net.n_in)
        assert not np.any(skipped)
        assert all(np.array_equal(_bits(a), _bits(b))
                   for a, b in zip(net.grad_arrays(), want))

    def test_forward_input_and_backward_seed_are_never_written(self):
        # train() reuses one critic seed for every critic update
        rng = np.random.default_rng(12)
        gen, critic = Generator(1, rng=rng), Critic(1, shuffle_radius=2, rng=rng)
        z = rng.uniform(-1, 1, (4, 100)).astype(np.float32)
        g_gen = rng.standard_normal((4, 16384)).astype(np.float32)
        g_critic = np.repeat(np.float32([-0.25, 0.25]), 2)
        saved = [a.copy() for a in (z, g_gen, g_critic)]
        for _ in range(2):
            fake = gen.forward(z)
            fake_saved = fake.copy()
            critic.forward(fake, rng=rng)
            for kwargs in ({}, {"input_grad": False}, {"param_grads": False}):
                critic.backward(g_critic, **kwargs)
                gen.backward(g_gen, **kwargs)
            assert np.array_equal(_bits(fake), _bits(fake_saved))
        assert all(np.array_equal(_bits(a), _bits(b))
                   for a, b in zip((z, g_gen, g_critic), saved))


def _net_fd_check(loss_fn, pairs, max_per_tensor, rng):
    """Primary h, refine kink-suspect entries at the smaller step."""
    worst_refined = 0.0
    for arr, grad in pairs:
        if arr.size > max_per_tensor:
            idx = np.sort(rng.choice(arr.size, size=max_per_tensor, replace=False))
        else:
            idx = np.arange(arr.size)
        num = numeric_gradient(loss_fn, arr, h=H_PRIMARY, indices=idx)
        a = np.asarray(grad).ravel()[idx]
        n = num.ravel()[idx]
        rel = np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        bad = idx[rel > TOL]
        if bad.size:
            num2 = numeric_gradient(loss_fn, arr, h=H_REFINED, indices=bad)
            worst_refined = max(
                worst_refined,
                relative_error(np.asarray(grad).ravel()[bad], num2.ravel()[bad]),
            )
    return worst_refined


class TestEndToEndGradients:
    def test_critic_every_parameter(self):
        rng = np.random.default_rng(42)
        crit = Critic(d=1, shuffle_radius=0, rng=rng, dtype=np.float64)
        x = rng.uniform(-1, 1, (2, 16384))

        def loss():
            return float(crit.forward(x).sum())

        loss()
        crit.backward(np.ones(2, dtype=np.float64))
        pairs = list(zip(crit.param_arrays(), crit.grad_arrays()))
        assert sum(p.size for p, _ in pairs) == 4563  # every parameter covered
        err = _net_fd_check(loss, pairs, max_per_tensor=10**9,
                            rng=np.random.default_rng(0))
        assert err < TOL

    def test_generator_through_tanh(self):
        rng = np.random.default_rng(43)
        gen = Generator(d=1, rng=rng, dtype=np.float64)
        z = rng.uniform(-1, 1, (2, 100))
        w = rng.standard_normal((2, 16384)) / 128.0

        def loss():
            return float((gen.forward(z) * w).sum())

        loss()
        gen.backward(w)
        pairs = list(zip(gen.param_arrays(), gen.grad_arrays()))
        # dense kernel is sampled; conv stack and all biases checked in full
        err = _net_fd_check(loss, pairs, max_per_tensor=600,
                            rng=np.random.default_rng(1))
        assert err < TOL

    def test_zero_upstream_gradient_zeroes_parameters(self):
        rng = np.random.default_rng(44)
        crit = Critic(d=1, shuffle_radius=0, rng=rng, dtype=np.float64)
        crit.forward(rng.uniform(-1, 1, (2, 16384)))
        crit.backward(np.zeros(2))
        assert all(np.all(g == 0) for g in crit.grad_arrays())

    def test_critic_with_phase_shuffle_gradients(self):
        # fixed shuffle draws: run forward with a seeded rng, then FD with the
        # same draws replayed so the permutation is constant
        rng = np.random.default_rng(45)
        crit = Critic(d=1, shuffle_radius=2, rng=rng, dtype=np.float64)
        x = rng.uniform(-1, 1, (1, 16384))

        def loss():
            return float(crit.forward(x, rng=np.random.default_rng(99)).sum())

        loss()
        crit.backward(np.ones(1, dtype=np.float64))
        pairs = [(crit.param_arrays()[i], crit.grad_arrays()[i]) for i in (0, 1, 10, 11)]
        err = _net_fd_check(loss, pairs, max_per_tensor=64,
                            rng=np.random.default_rng(2))
        assert err < TOL

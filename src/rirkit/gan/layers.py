"""Neural-net layers with explicit forward and backward passes.

1-D convolutions use (batch, time, channels) layout. Strided convolutions pad
SAME-style (left pad = floor((kernel - stride)/2)); transposed convolutions
produce exactly stride * input_length samples by cropping the full output with
the same offset, so analysis and synthesis stacks mirror each other.

All four convolution passes run on two kernels, which are each other's
adjoint: ``_gather`` (SAME pad, then one row per stride-s window) serves
``Conv1d.forward`` and ``ConvTranspose1d.backward``; ``_overlap_add`` (add
each window back at stride s, then crop the padding) serves
``ConvTranspose1d.forward`` and ``Conv1d.backward``. The overlap-add works in
s-wide phase blocks (Odena et al., "Deconvolution and Checkerboard
Artifacts", 2016): the output is viewed as rows of s samples, and block m adds
taps m*s .. m*s+s-1 of every window into rows m .. m+t-1 at once, so k taps
take ceil(k/s) contiguous adds instead of k strided ones, while every output
sample still sums its taps in ascending order (bit-identical to a tap-by-tap
loop).

Conv weights keep their public (kernel, c_in, c_out) shape, but each is stored
as a C-contiguous (c_in, kernel, c_out) buffer and ``params["W"]`` is its
transposed view. Both forward GEMMs read the weights as (c_in, kernel * c_out)
or (c_in * kernel, c_out) matrices, which are then free views of that buffer
instead of a copy per call (52 MB for the d=64 generator's tconv1). Only the
storage moved: every GEMM sees the same values in the same C-contiguous
order, so results are bit-identical; and checkpoints still hold each weight
in (kernel, c_in, c_out) C order, so files from before load unchanged.
Weights are updated in place (optimizer, clipping, checkpoint loads, and
writes through the arrays ``named_params`` returns), which keeps that layout
for the life of the layer.

Gradients are assigned (not accumulated) on each backward call; every layer
keeps the forward activations it needs, so backward without a prior forward
raises RuntimeError. ``Dense`` and ``Conv1d``, the first parameter layers of
the two nets, take ``input_grad=False`` to compute only their parameter
gradients. Layers never write to their input or to the incoming gradient:
bias adds and other in-place steps touch only buffers the layer just made.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def glorot_uniform(rng: np.random.Generator | None, shape, fan_in, fan_out, dtype):
    """Uniform(-l, l) weights, l = sqrt(6 / (fan_in + fan_out)). With rng=None,
    zero weights, to be filled (a checkpoint load): nothing is drawn, and
    np.zeros maps its pages lazily, so untouched weights cost no memory."""
    if rng is None:
        return np.zeros(shape, dtype=dtype)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _gather(x: np.ndarray, k: int, s: int) -> np.ndarray:
    """(b, t, c) -> contiguous (b * t/s, c * k): the k-sample window of every
    output step of a SAME-padded stride-s convolution, channel-major."""
    b, t, c = x.shape
    if t % s != 0:
        raise ValueError(f"input length {t} not divisible by stride {s}")
    pl = (k - s) // 2
    xp = np.pad(x, ((0, 0), (pl, k - s - pl), (0, 0)))
    v = sliding_window_view(xp, k, axis=1)[:, ::s]  # (b, t/s, c, k)
    return np.ascontiguousarray(v).reshape(b * (t // s), c * k)


def _overlap_add(contrib: np.ndarray, s: int, dtype) -> np.ndarray:
    """(b, t, k, c) window contributions -> (b, t*s, c): add window i at
    offset i*s, one s-tap phase block at a time, then crop the SAME padding."""
    b, t, k, c = contrib.shape
    nb = -(-k // s)
    full = np.zeros((b, t + nb - 1, s, c), dtype=dtype)
    for m in range(nb):
        w = min(s, k - m * s)
        full[:, m : m + t, :w, :] += contrib[:, :, m * s : m * s + w, :]
    crop = (k - s) // 2
    return full.reshape(b, (t + nb - 1) * s, c)[:, crop : crop + t * s, :]


def _skipped_input_grad(shape, dtype) -> np.ndarray:
    """The input gradient a caller said it will not read (``input_grad=False``):
    zeros of the input's shape as a read-only broadcast view, so nothing is
    computed or allocated and the result still has the shape."""
    return np.broadcast_to(np.zeros((), dtype=dtype), shape)


class Layer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._ctx = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gy: np.ndarray, param_grads: bool = True) -> np.ndarray:
        raise NotImplementedError

    def _require_ctx(self):
        if self._ctx is None:
            raise RuntimeError(f"{type(self).__name__}.backward called before forward")
        return self._ctx


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator | None,
                 dtype=np.float32):
        super().__init__()
        self.params["W"] = glorot_uniform(rng, (n_in, n_out), n_in, n_out, dtype)
        self.params["b"] = np.zeros(n_out, dtype=dtype)

    def forward(self, x):
        self._ctx = x
        y = x @ self.params["W"]
        y += self.params["b"]
        return y

    def backward(self, gy, param_grads=True, input_grad=True):
        x = self._require_ctx()
        if param_grads:
            self.grads["W"] = x.T @ gy
            self.grads["b"] = gy.sum(axis=0)
        if not input_grad:
            return _skipped_input_grad(x.shape, gy.dtype)
        return gy @ self.params["W"].T


class _Conv(Layer):
    """Weights (kernel, c_in, c_out), a view of their (c_in, kernel, c_out)
    storage (see the module docstring), and bias (c_out) of a strided
    convolution."""

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 rng: np.random.Generator | None, dtype=np.float32):
        super().__init__()
        self.c_in, self.c_out, self.kernel, self.stride = c_in, c_out, kernel, stride
        fan = kernel * c_in, kernel * c_out
        self.params["W"] = w = np.zeros((c_in, kernel, c_out), dtype).transpose(1, 0, 2)
        if rng is not None:  # drawn in (kernel, c_in, c_out) order
            w[...] = glorot_uniform(rng, w.shape, *fan, dtype)
        self.params["b"] = np.zeros(c_out, dtype=dtype)


class Conv1d(_Conv):
    """Strided 1-D convolution, SAME padding; input length must divide the stride."""

    def _wm(self):
        return self.params["W"].transpose(1, 0, 2).reshape(self.c_in * self.kernel, self.c_out)

    def forward(self, x):
        b, t, _ = x.shape
        v = _gather(x, self.kernel, self.stride)  # (b * t_out, c_in * k)
        self._ctx = v
        y = v @ self._wm()
        y += self.params["b"]
        return y.reshape(b, t // self.stride, self.c_out)

    def backward(self, gy, param_grads=True, input_grad=True):
        v = self._require_ctx()
        b, t_out, _ = gy.shape
        k = self.kernel
        g2 = gy.reshape(b * t_out, self.c_out)
        if param_grads:
            gw = v.T @ g2
            self.grads["W"] = gw.reshape(self.c_in, k, self.c_out).transpose(1, 0, 2)
            self.grads["b"] = g2.sum(axis=0)
        if not input_grad:
            return _skipped_input_grad((b, t_out * self.stride, self.c_in), gy.dtype)
        wk = self.params["W"].reshape(k * self.c_in, self.c_out)
        contrib = (g2 @ wk.T).reshape(b, t_out, k, self.c_in)
        return _overlap_add(contrib, self.stride, gy.dtype)


class ConvTranspose1d(_Conv):
    """Strided 1-D transposed convolution producing stride * input_length samples."""

    def forward(self, x):
        b, t, _ = x.shape
        k = self.kernel
        wm = self.params["W"].transpose(1, 0, 2).reshape(self.c_in, k * self.c_out)
        contrib = (x.reshape(b * t, self.c_in) @ wm).reshape(b, t, k, self.c_out)
        self._ctx = x
        y = _overlap_add(contrib, self.stride, x.dtype)
        y += self.params["b"]
        return y

    def backward(self, gy, param_grads=True):
        x = self._require_ctx()
        b, t, _ = x.shape
        k = self.kernel
        v = _gather(gy, k, self.stride)  # (b * t, c_out * k)
        gx = v @ self.params["W"].transpose(2, 0, 1).reshape(self.c_out * k, self.c_in)
        if param_grads:
            gw = x.reshape(b * t, self.c_in).T @ v
            self.grads["W"] = gw.reshape(self.c_in, self.c_out, k).transpose(2, 0, 1)
            self.grads["b"] = gy.sum(axis=(0, 1))
        return gx.reshape(b, t, self.c_in)


class ReLU(Layer):
    """max(x, 0) as ``np.fmax(x, 0)``, which gives the bits of
    ``np.where(x > 0, x, 0)``: +0 for -0 and NaN (``np.maximum`` passes NaN
    through, ``np.fmax(0, x)`` keeps -0). Backward keeps the gradient where
    the output is positive, exactly where x > 0, by multiplying its
    same-width integer view by that mask: dropped entries become +0 bits and
    kept ones, NaN included, pass unchanged, as ``np.where(x > 0, gy, 0)``
    would. The output, not a mask, is kept for backward: it is alive anyway
    as the next layer's input, and a forward-only pass makes no mask."""

    def forward(self, x):
        y = np.fmax(x, 0)
        self._ctx = y
        return y

    def backward(self, gy, param_grads=True):
        y = self._require_ctx()
        bits = gy.view(np.dtype(f"i{gy.itemsize}"))
        return (bits * (y > 0)).view(gy.dtype)


class LeakyReLU(Layer):
    """x where x > 0, else slope * x, as ``np.maximum(x, slope * x)``: for
    0 < slope < 1 that picks the same operand as ``np.where`` for every x,
    -0, NaN and the infinities included. Backward multiplies the gradient by
    1 or slope, formed as mask * (1 - slope) + slope in the gradient's dtype,
    which is exactly 1.0 or slope, so the product has the bits of
    ``np.where(mask, gy, slope * gy)``."""

    def __init__(self, slope: float = 0.2):
        super().__init__()
        self.slope = slope

    def forward(self, x):
        self._ctx = x > 0
        y = x * x.dtype.type(self.slope)
        return np.maximum(x, y, out=y)

    def backward(self, gy, param_grads=True):
        mask = self._require_ctx()
        t = gy.dtype.type
        factor = mask * t(1 - self.slope)
        factor += t(self.slope)
        factor *= gy
        return factor


class Tanh(Layer):
    def forward(self, x):
        y = np.tanh(x)
        self._ctx = y
        return y

    def backward(self, gy, param_grads=True):
        y = self._require_ctx()
        return gy * (1.0 - y * y)


class Reshape(Layer):
    """(batch, ...) -> (batch, *shape); backward restores the input shape."""

    def __init__(self, *shape: int):
        super().__init__()
        self.shape = shape

    def forward(self, x):
        self._ctx = x.shape
        return x.reshape(x.shape[0], *self.shape)

    def backward(self, gy, param_grads=True):
        return gy.reshape(self._require_ctx())


class PhaseShuffle(Layer):
    """Shift feature maps in time by a small integer, reflecting at the edges.

    The shift is drawn by the caller (one draw per application, shared across
    the batch); shift 0 is the identity and |shift| must be below the length.
    Forward is two slice copies: the shifted body and the |shift| reflected
    edge samples, reversed. Linear, so backward copies the gradient back by
    the shift and then adds those edge samples' gradients, reversed, onto the
    samples they were read from.
    """

    def __init__(self, radius: int):
        super().__init__()
        self.radius = radius

    def forward(self, x, shift: int = 0):
        t, a = x.shape[1], abs(shift)
        if a > t - 1:
            raise ValueError(f"shift {shift} does not fit a length of {t}")
        self._ctx = shift
        y = np.empty(x.shape, dtype=x.dtype)
        if shift >= 0:  # y[a + i] = x[i]; y[a - 1 - i] = x[1 + i] for i < a
            y[:, a:] = x[:, : t - a]
            y[:, :a] = x[:, 1 : a + 1][:, ::-1]
        else:  # y[i] = x[a + i]; y[t - 1 - i] = x[t - 1 - a + i] for i < a
            y[:, : t - a] = x[:, a:]
            y[:, t - a :] = x[:, t - 1 - a : t - 1][:, ::-1]
        return y

    def backward(self, gy, param_grads=True):
        shift = self._require_ctx()
        t, a = gy.shape[1], abs(shift)
        gx = np.empty(gy.shape, dtype=gy.dtype)
        if shift >= 0:  # y[a + i] = x[i]; y[a - 1 - i] = x[1 + i] for i < a
            gx[:, : t - a] = gy[:, a:]
            gx[:, t - a :] = 0
            gx[:, 1 : a + 1] += gy[:, :a][:, ::-1]
        else:  # y[i] = x[a + i]; y[t - 1 - i] = x[t - 1 - a + i] for i < a
            gx[:, a:] = gy[:, : t - a]
            gx[:, :a] = 0
            gx[:, t - 1 - a : t - 1] += gy[:, t - a :][:, ::-1]
        return gx

"""Neural-net layers with explicit forward and backward passes.

1-D convolutions use (batch, time, channels) layout. Strided convolutions pad
SAME-style (left pad = floor((kernel - stride)/2)); transposed convolutions
produce exactly stride * input_length samples by cropping the full output with
the same offset, so analysis and synthesis stacks mirror each other.

All four convolution passes run on two kernels, which are each other's
adjoint, and whose numpy loops walk long contiguous runs, not one window's
s * c floats (4 to 16 on the thin layers). ``_gather`` (SAME pad, then one
row per stride-s window) serves ``Conv1d.forward`` and
``ConvTranspose1d.backward``. It is a pure copy, done tap-major: the
time-major input is written once into zero-padded flat (b, time * c) rows,
where every window is one contiguous run of k * c floats, its columns in
(tap, channel) order, starting every s * c floats. ``_overlap_add`` (add
each window back at stride s, then crop the padding) serves
``ConvTranspose1d.forward`` and ``Conv1d.backward`` and owns their GEMM: it
takes the inputs and the tap-major (n, k * c) weight matrix, never the
(b, t, k, c) tensor of every window's contribution. It works in s-wide phase
blocks (Odena et al., "Deconvolution and Checkerboard Artifacts", 2016): the
output is viewed as rows of s samples, and block m is the product of the
inputs and weight columns m*s*c .. (m*s+s)*c, added into rows m .. m+t-1 at
once, one contiguous run per batch row. Every output sample sums its taps in
ascending order, so the result is that of a tap-by-tap loop over the block
products. Each block product keeps the full inner width n, but a narrower GEMM
may take another BLAS kernel than one over all taps, so a block product can
differ from the same columns of that one product in the last bit. A block
is multiplied in one of two ways, chosen by its size alone, so that a layer
takes the same path at every batch size:
- a block of ``_LEFT_OPERAND_SIZE`` (2**18) elements or more, as the left
  operand of one GEMM over all b * t input rows, (block.T @ inputs.T).T. Both
  callers pass the transpose of a C-contiguous weight buffer, so the block's
  rows are C-contiguous, and OpenBLAS packs such a left operand about twice as
  fast as a right operand. At d=64 this covers the generator's tconv1 and
  tconv2, which hold 65 of its 70 MB of weights, and the input gradients of
  the critic's conv4 and conv5. The product comes out transposed, so its add
  into the output reads it strided: at batch 16 that costs tconv2 more than
  the packing saves, at batches 1 to 8 no more;
- any other block, copied C-contiguous, by one GEMM per batch row (numpy's
  matmul over the (b, t, n) stack). One GEMM over all b * t rows can change
  BLAS kernel as b grows, and with it a row's bits: with OpenBLAS 0.3.31 it
  did at 42 of the widths d=1..64, at batches 2 to 4. Per batch row, none
  did.

Bias passes work on long rows too. ``_add_bias`` adds the bias tiled to a
(time, channel) block, in place, so each batch row is one long add, with the
bits of ``y + b``. ``_bias_grad`` sums the gradient over the batch
rows first and then over the (time, channel) remainder; it is numpy only, so
no BLAS thread count can change its bits.

Conv weights keep their public (kernel, c_in, c_out) shape, and each layer
type stores them so that its GEMMs read free views, never a copy per call
(but of ``_overlap_add``'s blocks under 2**18 elements):
- ``Conv1d``: a plain C-contiguous (kernel, c_in, c_out) array. Its forward
  matrix (kernel * c_in, c_out), its weight gradient and the transpose of
  that matrix, which ``_overlap_add`` takes for the input gradient, are all
  views (the copy this saves is 52 MB at the d=64 critic's conv5).
- ``ConvTranspose1d``: a C-contiguous (kernel, c_out, c_in) buffer, the
  weight of the ``Conv1d(c_out -> c_in)`` it is the adjoint of, and
  ``params["W"]`` is its transposed view. Its forward passes
  ``_overlap_add`` the transpose of the (kernel * c_out, c_in) buffer, the
  form ``Conv1d.backward`` passes, and its backward GEMM reads the buffer
  itself; its weight gradient is the same transposed view of a GEMM result.
Checkpoints hold each weight in (kernel, c_in, c_out) C order, so files from
before load unchanged. Weights are updated in place (optimizer, clipping,
checkpoint loads, and writes through the arrays ``named_params`` returns),
which keeps each layout for the life of the layer.

Gradients are assigned (not accumulated) on each backward call; every layer
keeps the forward activations it needs, so backward without a prior forward
raises RuntimeError. ``Conv1d`` keeps its window matrix, and its next
forward of the same shape rewrites that buffer in place. ``Dense`` and
``Conv1d``, the first parameter layers of the two nets, take
``input_grad=False`` to compute only their parameter gradients. Layers never
write to their input or to the incoming gradient: bias adds and other
in-place steps touch only buffers the layer made.

Up to four rows, a generator row's forward output does not depend on the
other rows of its batch: ``Dense`` multiplies a one-row batch as two equal
rows, so that it runs a larger batch's GEMM kernel, and the later layers
give each row the same bits at batches 1 to 4 (tested at d=1, 2, 4, 12, 32
and 64).
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


def _gather(x: np.ndarray, k: int, s: int, out: np.ndarray | None = None) -> np.ndarray:
    """(b, t, c) -> contiguous (b * t/s, k * c): the k-sample window of every
    output step of a SAME-padded stride-s convolution, tap-major. x is padded
    along time into flat (b, (t + k - s) * c) rows, where each window is one
    contiguous run of k * c floats starting every s * c. The windows are
    written into out when it is an array of that shape and x's dtype."""
    b, t, c = x.shape
    if t % s != 0:
        raise ValueError(f"input length {t} not divisible by stride {s}")
    pl = (k - s) // 2
    xp = np.zeros((b, (t + k - s) * c), dtype=x.dtype)
    xp.reshape(b, t + k - s, c)[:, pl : pl + t] = x
    v = sliding_window_view(xp, k * c, axis=1)[:, :: s * c]  # (b, t/s, k * c)
    if out is None or out.shape != (b * (t // s), k * c) or out.dtype != x.dtype:
        return np.ascontiguousarray(v).reshape(b * (t // s), k * c)
    np.copyto(out.reshape(v.shape), v)
    return out


_LEFT_OPERAND_SIZE = 1 << 18  # weight blocks this large are the left GEMM operand


def _overlap_add(a: np.ndarray, wm: np.ndarray, k: int, s: int) -> np.ndarray:
    """(b, t, n) inputs and (n, k * c) tap-major weights -> (b, t*s, c): window
    i = a[:, i] @ wm added at offset i*s, then the SAME padding cropped. Each
    s-tap phase block m is one product, a @ wm[:, m*s*c : (m*s + w)*c], added
    into output rows m .. m+t-1, where each batch row is one contiguous run.
    A block of _LEFT_OPERAND_SIZE elements or more is multiplied as the left
    operand of one GEMM over all b * t rows, any other block by one GEMM per
    batch row (see the module docstring)."""
    b, t, n = a.shape
    c = wm.shape[1] // k
    nb = -(-k // s)
    a = np.ascontiguousarray(a)  # a strided stack would leave BLAS for numpy's own loop
    a2t = a.reshape(b * t, n).T
    full = np.zeros((b, t + nb - 1, s * c), dtype=a.dtype)
    for m in range(nb):
        w = min(s, k - m * s)
        wb = wm[:, m * s * c : (m * s + w) * c]
        if wb.size >= _LEFT_OPERAND_SIZE:
            block = (wb.T @ a2t).T
        else:
            block = np.matmul(a, np.ascontiguousarray(wb))
        full[:, m : m + t, : w * c] += block.reshape(b, t, w * c)
    crop = (k - s) // 2
    return full.reshape(b, (t + nb - 1) * s, c)[:, crop : crop + t * s, :]


def _add_bias(y: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(b, t, c) y += bias, in place, returning y, with the bits of y + bias:
    the bias tiled to a (t, c) block, so that each batch row is one long add
    wherever y's (t, c) block is one strided run (as in the cropped
    ``_overlap_add`` output), not t adds of c floats."""
    y += np.tile(bias, (y.shape[1], 1))
    return y


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """(b, ..., c) -> (c,): g summed over every axis but the last, the batch
    rows first as long rows, then the (t, c) remainder."""
    return g.reshape(g.shape[0], -1).sum(axis=0).reshape(-1, g.shape[-1]).sum(axis=0)


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
        if len(x) == 1:  # numpy sends one row to gemv, whose sums round unlike a gemm row's
            y = (np.repeat(x, 2, axis=0) @ self.params["W"])[:1]
        else:
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
    """Weights (kernel, c_in, c_out), stored with their axes in ``_storage``
    order (see the module docstring), and bias (c_out) of a strided
    convolution."""

    _storage = (0, 1, 2)

    def __init__(self, c_in: int, c_out: int, kernel: int, stride: int,
                 rng: np.random.Generator | None, dtype=np.float32):
        super().__init__()
        self.c_in, self.c_out, self.kernel, self.stride = c_in, c_out, kernel, stride
        shape = (kernel, c_in, c_out)
        order = self._storage
        w = np.zeros([shape[a] for a in order], dtype).transpose(np.argsort(order))
        if rng is not None:  # drawn in (kernel, c_in, c_out) order
            w[...] = glorot_uniform(rng, shape, kernel * c_in, kernel * c_out, dtype)
        self.params["W"] = w
        self.params["b"] = np.zeros(c_out, dtype=dtype)


class Conv1d(_Conv):
    """Strided 1-D convolution, SAME padding; input length must divide the stride."""

    def forward(self, x):
        b, t, _ = x.shape
        # backward reads only the last forward's windows, so the previous
        # ones are rewritten in place: a fresh buffer (6.5 MB at conv1, batch
        # 16) faults its pages in anew, which made that copy 1.5x slower
        # inside training
        v = _gather(x, self.kernel, self.stride, out=self._ctx)  # (b * t_out, k * c_in)
        self._ctx = v
        y = v @ self.params["W"].reshape(-1, self.c_out)
        return _add_bias(y.reshape(b, t // self.stride, self.c_out), self.params["b"])

    def backward(self, gy, param_grads=True, input_grad=True):
        v = self._require_ctx()
        b, t_out, _ = gy.shape
        w = self.params["W"]
        if param_grads:
            gw = v.T @ gy.reshape(b * t_out, self.c_out)
            self.grads["W"] = gw.reshape(w.shape)
            self.grads["b"] = _bias_grad(gy)
        if not input_grad:
            return _skipped_input_grad((b, t_out * self.stride, self.c_in), gy.dtype)
        return _overlap_add(gy, w.reshape(-1, self.c_out).T, self.kernel, self.stride)


class ConvTranspose1d(_Conv):
    """Strided 1-D transposed convolution producing stride * input_length samples."""

    _storage = (0, 2, 1)

    def _wt(self) -> np.ndarray:
        """The (kernel * c_out, c_in) weight buffer: a ``Conv1d(c_out -> c_in)``'s."""
        return self.params["W"].transpose(0, 2, 1).reshape(-1, self.c_in)

    def forward(self, x):
        self._ctx = x
        return _add_bias(_overlap_add(x, self._wt().T, self.kernel, self.stride),
                         self.params["b"])

    def backward(self, gy, param_grads=True):
        x = self._require_ctx()
        b, t, _ = x.shape
        k = self.kernel
        v = _gather(gy, k, self.stride)  # (b * t, k * c_out)
        gx = v @ self._wt()
        if param_grads:
            gw = v.T @ x.reshape(b * t, self.c_in)
            self.grads["W"] = gw.reshape(k, self.c_out, self.c_in).transpose(0, 2, 1)
            self.grads["b"] = _bias_grad(gy)
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
    samples they were read from. A negative shift is a positive shift of the
    time-reversed signal, so both directions run the same copies, on reversed
    views when the shift is negative.
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
        src, dst = (x, y) if shift >= 0 else (x[:, ::-1], y[:, ::-1])
        # dst[a + i] = src[i]; dst[a - 1 - i] = src[1 + i] for i < a
        dst[:, a:] = src[:, : t - a]
        dst[:, :a] = src[:, 1 : a + 1][:, ::-1]
        return y

    def backward(self, gy, param_grads=True):
        shift = self._require_ctx()
        t, a = gy.shape[1], abs(shift)
        gx = np.empty(gy.shape, dtype=gy.dtype)
        src, dst = (gy, gx) if shift >= 0 else (gy[:, ::-1], gx[:, ::-1])
        dst[:, : t - a] = src[:, a:]
        dst[:, t - a :] = 0
        dst[:, 1 : a + 1] += src[:, :a][:, ::-1]
        return gx

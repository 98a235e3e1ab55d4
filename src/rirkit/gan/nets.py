"""Generator and critic networks for 1-D waveform synthesis.

The generator maps a 100-dim latent vector through a dense stage and five
stride-4 transposed convolutions (kernel 25) to a 16384-sample waveform in
(-1, 1). The critic mirrors it with five stride-4 convolutions, leaky ReLU,
optional phase shuffle between layers, and a dense head producing one
unbounded realness score per input. Both take batches only, one input per
row. The width multiplier d scales channel counts (d=4 desk-scale, d=64
full-scale). The nets hold the model's shape rules (d >= 1, MAX_SHUFFLE_RADIUS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..audio import RIR_LENGTH
from .layers import (
    Conv1d,
    ConvTranspose1d,
    Dense,
    Layer,
    LeakyReLU,
    PhaseShuffle,
    ReLU,
    Reshape,
    Tanh,
)

LATENT_DIM = 100
KERNEL = 25
STRIDE = 4
# a shift must be shorter than the critic's last shuffled map, RIR_LENGTH // STRIDE**4
MAX_SHUFFLE_RADIUS = RIR_LENGTH // STRIDE**4 - 1


def sample_latent(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw an (n, LATENT_DIM) batch of i.i.d. Uniform[-1, 1] latent vectors."""
    return rng.uniform(-1.0, 1.0, size=(n, LATENT_DIM))


class _Net:
    """An ordered layer stack, its named parameter layers, and the one batch-only
    forward/backward loop both networks share. Subclasses set ``n_in`` (values
    per input row) and ``out_shape`` (per-row output shape)."""

    n_in: int
    out_shape: tuple[int, ...]

    def __init__(self, d: int, dtype):
        if d < 1:
            raise ValueError("model-size multiplier d must be >= 1")
        self.dtype = np.dtype(dtype)
        self._stack: list[Layer] = []
        self._layers: dict[str, Layer] = {}  # parameter layers in stack order

    def _add(self, layer: Layer, name: str = "") -> None:
        self._stack.append(layer)
        if name:
            self._layers[name] = layer

    def forward(self, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """(n, n_in) batch -> (n, *out_shape); any other shape is a ValueError.

        Each phase-shuffle layer draws its shift from rng, in stack order.
        With rng=None (evaluation, gradient checks) or radius 0 every shift
        is 0, an exactly reproducible, shuffle-free pass.
        """
        h = np.asarray(x, dtype=self.dtype)
        if h.ndim != 2 or h.shape[1] != self.n_in:
            raise ValueError(f"{type(self).__name__} input must have {self.n_in} "
                             f"values per row, got {h.shape}")
        for layer in self._stack:
            if isinstance(layer, PhaseShuffle):
                r = layer.radius
                shift = 0 if rng is None or r == 0 else int(rng.integers(-r, r + 1))
                h = layer.forward(h, shift)
            else:
                h = layer.forward(h)
        return h

    def backward(self, g: np.ndarray, param_grads: bool = True,
                 input_grad: bool = True) -> np.ndarray:
        """(n, *out_shape) gradient wrt the last forward's output -> (n, n_in)
        gradient wrt its input; parameter gradients land in each layer's ``grads``.

        With input_grad=False the caller will not read the input gradient:
        the first parameter layer skips it, and zeros of its shape (a
        read-only broadcast view) come back. Parameter gradients are the same.
        """
        g = np.asarray(g, dtype=self.dtype)
        first = next(iter(self._layers.values()))
        for layer in reversed(self._stack):
            if layer is first:
                g = layer.backward(g, param_grads=param_grads, input_grad=input_grad)
            else:
                g = layer.backward(g, param_grads=param_grads)
        return g

    def named_params(self) -> list[tuple[str, str, np.ndarray]]:
        return [(name, pname, arr) for name, layer in self._layers.items()
                for pname, arr in layer.params.items()]

    def param_arrays(self) -> list[np.ndarray]:
        return [arr for _, _, arr in self.named_params()]

    def grad_arrays(self) -> list[np.ndarray]:
        return [layer.grads[p] for layer in self._layers.values() for p in layer.params]


class Generator(_Net):
    """(n, 100) latent batch -> (n, 16384) waveforms in (-1, 1).

    Weights are Glorot-uniform draws from rng; with rng=None they are zero,
    to be filled in place (as a checkpoint load does)."""

    n_in = LATENT_DIM
    out_shape = (RIR_LENGTH,)

    def __init__(self, d: int, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__(d, dtype)
        widths = [16 * d, 8 * d, 4 * d, 2 * d, d, 1]
        self._add(Dense(LATENT_DIM, 16 * 16 * d, rng, dtype), "dense")
        self._add(Reshape(16, 16 * d))
        self._add(ReLU())
        for i in range(5):
            self._add(
                ConvTranspose1d(widths[i], widths[i + 1], KERNEL, STRIDE, rng, dtype),
                f"tconv{i + 1}",
            )
            self._add(Tanh() if i == 4 else ReLU())
        self._add(Reshape(RIR_LENGTH))


class Critic(_Net):
    """(n, 16384) waveforms -> (n,) scores.

    Weights are Glorot-uniform draws from rng; with rng=None they are zero,
    to be filled in place (as a checkpoint load does)."""

    n_in = RIR_LENGTH
    out_shape = ()

    def __init__(self, d: int, shuffle_radius: int = 2,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        super().__init__(d, dtype)
        if not 0 <= shuffle_radius <= MAX_SHUFFLE_RADIUS:
            raise ValueError(f"shuffle_radius must be in [0, {MAX_SHUFFLE_RADIUS}], "
                             f"got {shuffle_radius}")
        self.shuffle_radius = shuffle_radius
        widths = [1, d, 2 * d, 4 * d, 8 * d, 16 * d]
        self._add(Reshape(RIR_LENGTH, 1))
        for i in range(5):
            self._add(Conv1d(widths[i], widths[i + 1], KERNEL, STRIDE, rng, dtype),
                      f"conv{i + 1}")
            self._add(LeakyReLU())
            if i < 4:
                self._add(PhaseShuffle(shuffle_radius))
        self._add(Reshape(16 * 16 * d))
        self._add(Dense(16 * 16 * d, 1, rng, dtype), "dense")
        self._add(Reshape())


@dataclass
class GanModel:
    """A checkpointable generator/critic pair plus the settings that built it.
    critic is None after a generator-only load (load_checkpoint(path,
    critic=False)); such a model generates but cannot be saved."""

    generator: Generator
    critic: Critic | None
    d: int
    step: int
    seed: int


"""Wasserstein GAN training: RMSProp updates, critic weight clipping, and an
alternating loop of n_critic critic steps per generator step.

The critic minimizes mean(fake_scores) - mean(real_scores); the generator
minimizes -mean(fake_scores). The per-step Wasserstein estimate
mean(real_scores) - mean(fake_scores) is logged so progress can be audited.
Given a seed (and thread count), training is bit-reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .._fields import check_fields
from ..audio import Rir
from .checkpoint import save_checkpoint
from .nets import LATENT_DISTS, Critic, GanModel, Generator, sample_latent


class TrainingDivergedError(RuntimeError):
    """Raised when a loss goes non-finite; carries the step for diagnosis."""

    def __init__(self, step: int, what: str, value: float):
        super().__init__(f"non-finite {what} ({value}) at generator step {step}")
        self.step = step
        self.what = what
        self.value = value


@dataclass
class TrainConfig:
    steps: int
    batch_size: int = 16
    learning_rate: float = 5e-5
    clip_c: float = 0.01
    n_critic: int = 5
    rng_seed: int = 0
    d: int = 4
    shuffle_radius: int = 2
    latent_dist: str = "uniform"
    checkpoint_every: int = 100

    def __post_init__(self):
        check_fields(self)
        if self.steps < 1 or self.batch_size < 1 or self.n_critic < 1 or self.d < 1:
            raise ValueError("steps, batch_size, n_critic and d must all be >= 1")
        if self.shuffle_radius < 0:
            raise ValueError("shuffle_radius must be >= 0")
        if not self.clip_c > 0:
            raise ValueError("clip_c must be > 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.latent_dist not in LATENT_DISTS:
            raise ValueError(f"latent_dist must be one of {LATENT_DISTS}, "
                             f"got {self.latent_dist!r}")


@dataclass
class LogRow:
    step: int
    critic_loss: float
    generator_loss: float
    wasserstein_estimate: float


@dataclass
class TrainResult:
    model: GanModel
    log: list[LogRow] = field(default_factory=list)


def critic_loss(real_scores: np.ndarray, fake_scores: np.ndarray) -> float:
    """mean(fake) - mean(real); the critic drives this down, widening the gap."""
    real = np.asarray(real_scores, dtype=np.float64)
    fake = np.asarray(fake_scores, dtype=np.float64)
    if real.size == 0 or fake.size == 0:
        raise ValueError("score batches must be non-empty")
    return float(fake.mean() - real.mean())


def generator_loss(fake_scores: np.ndarray) -> float:
    fake = np.asarray(fake_scores, dtype=np.float64)
    if fake.size == 0:
        raise ValueError("score batch must be non-empty")
    return float(-fake.mean())


def clip_weights(net: Critic, c: float) -> None:
    """Clamp every critic parameter into [-c, c] in place."""
    if c <= 0:
        raise ValueError("clip bound must be > 0")
    for arr in net.param_arrays():
        np.clip(arr, -c, c, out=arr)


_RMSPROP_DECAY = 0.9
_RMSPROP_EPS = 1e-8


class RMSProp:
    """Per-parameter squared-gradient running average (decay 0.9, eps 1e-8),
    kept in float64.

    A step works in two float64 scratch rows that all parameters share, sized
    to the largest one, with ``out=`` ufuncs in the order
    v = 0.9 v + (0.1 g) g, then p -= float32((lr g) / (sqrt(v) + eps)). The
    rows are made per step, not kept: held between steps they would add to
    the peak memory of training, which falls during the nets' passes.
    """

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.cache = [np.zeros_like(p, dtype=np.float64) for p in params]
        self._scratch_size = max((p.size for p in params), default=0)

    def step(self, grads: list[np.ndarray]) -> None:
        scratch = np.empty((2, self._scratch_size), dtype=np.float64)
        for p, g, v in zip(self.params, grads, self.cache):
            # scratch views in v's memory order, so that every ufunc below
            # walks v, p and both views in one contiguous order
            g64, tmp = (np.ndarray(v.shape, np.float64, row, strides=v.strides)
                        for row in scratch)
            np.copyto(g64, g)
            v *= _RMSPROP_DECAY
            np.multiply(1.0 - _RMSPROP_DECAY, g64, out=tmp)
            tmp *= g64
            v += tmp
            np.sqrt(v, out=tmp)
            tmp += _RMSPROP_EPS
            g64 *= self.lr
            g64 /= tmp
            # the step is rounded to p's dtype before the subtraction
            np.subtract(p, g64, out=p, dtype=p.dtype)


def _as_matrix(dataset: Sequence[Rir] | np.ndarray) -> np.ndarray:
    if isinstance(dataset, np.ndarray):
        data = dataset
    else:
        data = np.stack([r.samples for r in dataset])
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("dataset must be a non-empty collection of RIR vectors")
    return data.astype(np.float32)


def write_log_csv(log: Sequence[LogRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "critic_loss", "generator_loss", "wasserstein_estimate"])
        for row in log:
            writer.writerow(
                [row.step, f"{row.critic_loss:.8g}", f"{row.generator_loss:.8g}",
                 f"{row.wasserstein_estimate:.8g}"]
            )


def train(dataset: Sequence[Rir] | np.ndarray, config: TrainConfig,
          out_dir: str | Path | None = None) -> TrainResult:
    """Run the alternating WGAN loop in float32; return the trained model and log.

    With out_dir set, checkpoints land there every checkpoint_every generator
    steps (plus a final one) along with training_log.csv.
    """
    data = _as_matrix(dataset)
    n_data = data.shape[0]
    b = config.batch_size
    rng = np.random.default_rng(config.rng_seed)

    gen = Generator(config.d, rng=rng)
    critic = Critic(config.d, shuffle_radius=config.shuffle_radius, rng=rng)
    g_opt = RMSProp(gen.param_arrays(), config.learning_rate)
    c_opt = RMSProp(critic.param_arrays(), config.learning_rate)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    result = TrainResult(model=GanModel(gen, critic, config.d, 0, config.rng_seed,
                                        config.latent_dist))
    # gradient of the critic loss wrt scores of the combined [real | fake] batch
    gs_critic = np.repeat(np.float32([-1.0 / b, 1.0 / b]), b)
    gs_gen = np.full(b, -1.0 / b, dtype=np.float32)

    # a diverging run overflows before its loss turns non-finite; the
    # TrainingDivergedError below reports it, so numpy need not warn as well
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, config.steps + 1):
            c_loss = w_est = 0.0
            for _ in range(config.n_critic):
                idx = rng.integers(0, n_data, size=b)
                real = data[idx]
                z = sample_latent(rng, b, config.latent_dist)
                fake = gen.forward(z)
                scores = critic.forward(np.concatenate([real, fake]), rng=rng)
                c_loss = critic_loss(scores[:b], scores[b:])
                if not np.isfinite(c_loss):
                    raise TrainingDivergedError(step, "critic loss", c_loss)
                w_est = -c_loss
                critic.backward(gs_critic, input_grad=False)
                c_opt.step(critic.grad_arrays())
                clip_weights(critic, config.clip_c)

            z = sample_latent(rng, b, config.latent_dist)
            fake = gen.forward(z)
            scores = critic.forward(fake, rng=rng)
            g_loss = generator_loss(scores)
            if not np.isfinite(g_loss):
                raise TrainingDivergedError(step, "generator loss", g_loss)
            gx = critic.backward(gs_gen, param_grads=False)
            gen.backward(gx, input_grad=False)
            g_opt.step(gen.grad_arrays())

            result.log.append(LogRow(step, c_loss, g_loss, w_est))
            result.model.step = step
            if (out_path is not None and config.checkpoint_every > 0
                    and step % config.checkpoint_every == 0):
                save_checkpoint(result.model, out_path / f"checkpoint_{step:06d}.gan")

    if out_path is not None:
        save_checkpoint(result.model, out_path / "checkpoint_final.gan")
        write_log_csv(result.log, out_path / "training_log.csv")
    return result

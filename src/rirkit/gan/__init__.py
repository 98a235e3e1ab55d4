from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nets import LATENT_DIM, Critic, GanModel, Generator, sample_latent
from .training import (
    LogRow,
    RMSProp,
    TrainConfig,
    TrainResult,
    TrainingDivergedError,
    clip_weights,
    critic_loss,
    generator_loss,
    train,
    write_log_csv,
)

__all__ = [
    "LATENT_DIM",
    "CheckpointError",
    "Critic",
    "GanModel",
    "Generator",
    "LogRow",
    "RMSProp",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "clip_weights",
    "critic_loss",
    "generator_loss",
    "load_checkpoint",
    "sample_latent",
    "save_checkpoint",
    "train",
    "write_log_csv",
]

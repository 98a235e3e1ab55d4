"""rirkit: room impulse response analysis, GAN-based RIR synthesis, and
far-field speech augmentation."""

__version__ = "0.1.0"

"""rirkit: room impulse response analysis, GAN-based RIR synthesis, and
far-field speech augmentation."""

from .acoustics import (
    AcousticParams,
    DecayCurve,
    EstimationError,
    analyze,
    energy_decay_curve,
    estimate_cte,
    estimate_drr,
    estimate_edt,
    estimate_t60,
)
from .audio import (
    RIR_LENGTH,
    RIR_RATE,
    AudioBuffer,
    Rir,
    UnsupportedEncodingError,
    WavFormatError,
    convolve,
    load_rir,
    load_wav,
    resample,
    save_wav,
    to_rir,
)
from .augment import AugmentSpec, MixRecord, augment_corpus, compute_alpha, looped_noise, mix
from .corpus import PoolEntry, RirPool, SplitSpec, compose_pool, split, validate_pool
from .sampler import (
    AcceptDecision,
    GenerationReport,
    GenerationStalledError,
    Histogram,
    ParamHistograms,
    SamplerConfig,
    accept,
    build_histograms,
    generate_constrained,
)

__version__ = "0.1.0"

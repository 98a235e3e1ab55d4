"""The estimators as they were before `analyze` shared one decay curve: each
converts, squares and scans the response itself. Kept as the reference that
the single-pass estimators must match bit for bit, errors included."""

from __future__ import annotations

import numpy as np

from rirkit.acoustics import (
    DB_CLAMP,
    EDC_FLOOR_DB,
    AcousticParams,
    EstimationError,
    _CTE_SPLIT,
    _DRR_WINDOW,
    _EPS,
)
from rirkit.audio import RIR_RATE, Rir


def _samples(rir) -> np.ndarray:
    if isinstance(rir, Rir):
        return rir.samples.astype(np.float64)
    s = np.asarray(rir, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("impulse response must be a non-empty 1-D vector")
    return s


def energy_decay_curve(rir) -> np.ndarray:
    s = _samples(rir)
    energy = s * s
    tail = np.cumsum(energy[::-1])[::-1]
    total = tail[0]
    if total <= 0.0:
        raise ValueError("zero-energy impulse response")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(tail / total)
    return np.maximum(db, EDC_FLOOR_DB)


def _fit_slope(v: np.ndarray) -> float:
    """Least-squares slope in dB/s of v, one value per sample, in closed form
    (test_acoustics checks it against np.linalg.lstsq)."""
    n = v.size
    centred = np.arange(n) - (n - 1) / 2.0
    return float(12.0 * np.sum(centred * v) / (n * (n * n - 1.0)) * RIR_RATE)


def _first_at_or_below(v: np.ndarray, level: float, parameter: str) -> int:
    idx = np.nonzero(v <= level)[0]
    if idx.size == 0:
        raise EstimationError(
            f"decay curve never reaches {level:g} dB within the window", parameter
        )
    return int(idx[0])


def estimate_t60(rir) -> float:
    v = energy_decay_curve(rir)
    i5 = _first_at_or_below(v, -5.0, "t60")
    i25 = _first_at_or_below(v, -25.0, "t60")
    if i25 - i5 < 1:
        raise EstimationError("decay from -5 to -25 dB is instantaneous", "t60")
    slope = _fit_slope(v[i5 : i25 + 1])
    if slope >= 0.0:
        raise EstimationError("non-decaying energy curve", "t60")
    return -60.0 / slope


def estimate_edt(rir) -> float:
    v = energy_decay_curve(rir)
    i10 = _first_at_or_below(v, -10.0, "edt")
    start_candidates = np.nonzero(v[: i10 + 1] >= -1e-9)[0]
    start = int(start_candidates[-1]) if start_candidates.size else 0
    if i10 - start < 2:
        raise EstimationError("no resolvable decay region above -10 dB", "edt")
    slope = _fit_slope(v[start : i10 + 1])
    if slope >= 0.0:
        raise EstimationError("non-decaying energy curve", "edt")
    return 6.0 * (-10.0 / slope)


def _clamped_ratio_db(numerator: float, denominator: float) -> float:
    val = 10.0 * np.log10(numerator / (denominator + _EPS)) if numerator > 0 else -np.inf
    return float(np.clip(val, -DB_CLAMP, DB_CLAMP))


def estimate_drr(rir) -> float:
    s = _samples(rir)
    energy = s * s
    total = float(energy.sum())
    if total <= 0.0:
        raise ValueError("zero-energy impulse response")
    peak = int(np.argmax(np.abs(s)))
    lo, hi = max(0, peak - _DRR_WINDOW), min(s.size, peak + _DRR_WINDOW + 1)
    direct = float(energy[lo:hi].sum())
    return _clamped_ratio_db(direct, total - direct)


def estimate_cte(rir) -> float:
    s = _samples(rir)
    energy = s * s
    total = float(energy.sum())
    if total <= 0.0:
        raise ValueError("zero-energy impulse response")
    peak = int(np.argmax(np.abs(s)))
    split = min(s.size, peak + _CTE_SPLIT)
    early = float(energy[:split].sum())
    return _clamped_ratio_db(early, total - early)


def analyze(rir) -> AcousticParams:
    return AcousticParams(
        t60=estimate_t60(rir), drr=estimate_drr(rir),
        edt=estimate_edt(rir), cte=estimate_cte(rir),
    )

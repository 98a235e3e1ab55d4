"""Acoustic parameter estimation from impulse responses.

Four scalar descriptors are estimated from the Schroeder energy decay curve
and windowed energy ratios: reverberation time (T60), early decay time (EDT),
direct-to-reverberant ratio (DRR), and the early-to-late index (CTE).
All four are scale-invariant, so they are unaffected by peak normalization.
Every input, a raw array included, is read at RIR_RATE (16 kHz).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .audio import RIR_RATE, Rir

# floor applied where the backward integral runs out of energy (log of zero)
EDC_FLOOR_DB = -150.0

# energy-ratio outputs are clamped so delta-like inputs stay finite
DB_CLAMP = 120.0
_EPS = 1e-12
_DRR_WINDOW = 40  # samples either side of the peak: 2.5 ms at RIR_RATE
_CTE_SPLIT = 800  # samples past the peak: 50 ms at RIR_RATE

RirLike = Union[Rir, np.ndarray]


class EstimationError(ValueError):
    """A decay-based estimate could not be formed (e.g. the decay curve never
    reaches the fit range within the analysis window)."""

    def __init__(self, message: str, parameter: str = ""):
        super().__init__(message)
        self.parameter = parameter


@dataclass(frozen=True)
class AcousticParams:
    """The (T60, DRR, EDT, CTE) quadruple for one impulse response."""

    t60: float
    drr: float
    edt: float
    cte: float

    def __post_init__(self):
        if not (self.t60 > 0 and self.edt > 0):
            raise ValueError("t60 and edt must be positive")
        if not (np.isfinite(self.drr) and np.isfinite(self.cte)):
            raise ValueError("drr and cte must be finite")


@dataclass(frozen=True)
class DecayCurve:
    """Schroeder decay curve in dB, one value per sample at RIR_RATE, 0 dB at
    index 0, monotonically non-increasing."""

    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) / RIR_RATE


def _samples(rir: RirLike) -> np.ndarray:
    if isinstance(rir, Rir):
        return rir.samples.astype(np.float64)
    s = np.asarray(rir, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("impulse response must be a non-empty 1-D vector")
    return s


def energy_decay_curve(rir: RirLike) -> DecayCurve:
    """Backward-integrated squared response, as dB relative to total energy:

        EDC(t) = 10 log10( sum_{tau>=t} h^2(tau) / sum_{tau>=0} h^2(tau) )

    Values where the remaining energy is zero are clamped to EDC_FLOOR_DB.
    """
    s = _samples(rir)
    energy = s * s
    tail = np.cumsum(energy[::-1])[::-1]
    total = tail[0]
    if total <= 0.0:
        raise ValueError("zero-energy impulse response")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(tail / total)
    return DecayCurve(np.maximum(db, EDC_FLOOR_DB))


def _fit_line(t: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Least-squares line v ~ slope*t + intercept."""
    a = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a, v, rcond=None)
    return float(slope), float(intercept)


def _first_at_or_below(v: np.ndarray, level: float, parameter: str) -> int:
    idx = np.nonzero(v <= level)[0]
    if idx.size == 0:
        raise EstimationError(
            f"decay curve never reaches {level:g} dB within the window", parameter
        )
    return int(idx[0])


def estimate_t60(rir: RirLike) -> float:
    """Reverberation time from the T20 span: least-squares line over the
    [-5 dB, -25 dB] stretch of the decay curve, extrapolated to 60 dB
    (T60 = -60 / slope)."""
    edc = energy_decay_curve(rir)
    v = edc.values
    i5 = _first_at_or_below(v, -5.0, "t60")
    i25 = _first_at_or_below(v, -25.0, "t60")
    if i25 - i5 < 1:
        raise EstimationError("decay from -5 to -25 dB is instantaneous", "t60")
    t = edc.times
    slope, _ = _fit_line(t[i5 : i25 + 1], v[i5 : i25 + 1])
    if slope >= 0.0:
        raise EstimationError("non-decaying energy curve", "t60")
    return -60.0 / slope


def estimate_edt(rir: RirLike) -> float:
    """Early decay time: 6x the time to fall 10 dB, from a least-squares fit
    over the [0 dB, -10 dB] stretch.

    The fit starts at the last sample still at 0 dB, so pre-delay silence
    (which holds the curve at 0) does not flatten the fitted slope.
    """
    edc = energy_decay_curve(rir)
    v = edc.values
    i10 = _first_at_or_below(v, -10.0, "edt")
    start_candidates = np.nonzero(v[: i10 + 1] >= -1e-9)[0]
    start = int(start_candidates[-1]) if start_candidates.size else 0
    if i10 - start < 2:
        raise EstimationError("no resolvable decay region above -10 dB", "edt")
    t = edc.times
    slope, _ = _fit_line(t[start : i10 + 1], v[start : i10 + 1])
    if slope >= 0.0:
        raise EstimationError("non-decaying energy curve", "edt")
    return 6.0 * (-10.0 / slope)


def _clamped_ratio_db(numerator: float, denominator: float) -> float:
    val = 10.0 * np.log10(numerator / (denominator + _EPS)) if numerator > 0 else -np.inf
    return float(np.clip(val, -DB_CLAMP, DB_CLAMP))


def estimate_drr(rir: RirLike) -> float:
    """Direct-to-reverberant ratio in dB: energy within +-2.5 ms (_DRR_WINDOW
    samples) of the absolute peak versus everything else, clamped to +-120 dB."""
    s = _samples(rir)
    energy = s * s
    total = float(energy.sum())
    if total <= 0.0:
        raise ValueError("zero-energy impulse response")
    peak = int(np.argmax(np.abs(s)))
    lo, hi = max(0, peak - _DRR_WINDOW), min(s.size, peak + _DRR_WINDOW + 1)
    direct = float(energy[lo:hi].sum())
    return _clamped_ratio_db(direct, total - direct)


def estimate_cte(rir: RirLike) -> float:
    """Early-to-late index in dB: energy up to 50 ms (_CTE_SPLIT samples) past
    the direct-sound peak versus the remainder, clamped to +-120 dB."""
    s = _samples(rir)
    energy = s * s
    total = float(energy.sum())
    if total <= 0.0:
        raise ValueError("zero-energy impulse response")
    peak = int(np.argmax(np.abs(s)))
    split = min(s.size, peak + _CTE_SPLIT)
    early = float(energy[:split].sum())
    return _clamped_ratio_db(early, total - early)


def analyze(rir: RirLike) -> AcousticParams:
    """All four parameter estimates for one impulse response at RIR_RATE.
    Deterministic; propagates EstimationError from the decay-based estimators."""
    return AcousticParams(
        t60=estimate_t60(rir), drr=estimate_drr(rir),
        edt=estimate_edt(rir), cte=estimate_cte(rir),
    )


def write_params_csv(path: str | Path, rows: Iterable[tuple[str, AcousticParams]]) -> None:
    """Emit `id,t60_s,drr_db,edt_s,cte_db` rows with 6 decimal places."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "t60_s", "drr_db", "edt_s", "cte_db"])
        for rid, p in rows:
            writer.writerow(
                [rid, f"{p.t60:.6f}", f"{p.drr:.6f}", f"{p.edt:.6f}", f"{p.cte:.6f}"]
            )

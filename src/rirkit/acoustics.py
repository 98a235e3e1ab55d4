"""Acoustic parameter estimation from impulse responses.

Four scalar descriptors are estimated from the Schroeder energy decay curve
and windowed energy ratios: reverberation time (T60), early decay time (EDT),
direct-to-reverberant ratio (DRR), and the early-to-late index (CTE).
All four are scale-invariant, so they are unaffected by peak normalization.
Every input, a raw array included, is read at RIR_RATE (16 kHz).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from ._fields import write_csv
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
    """The one pass the four estimators share: the Schroeder decay curve in dB
    (`values`, one per sample at RIR_RATE, 0 dB at index 0, non-increasing),
    the float64 squared response, its sum and the index of the absolute peak."""

    values: np.ndarray
    energy: np.ndarray
    total: float
    peak: int


def energy_decay_curve(rir: RirLike) -> DecayCurve:
    """Backward-integrated squared response, as dB relative to total energy:

        EDC(t) = 10 log10( sum_{tau>=t} h^2(tau) / sum_{tau>=0} h^2(tau) )

    Values where the remaining energy is zero are clamped to EDC_FLOOR_DB.
    """
    s = np.asarray(rir.samples if isinstance(rir, Rir) else rir, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("impulse response must be a non-empty 1-D vector")
    energy = s * s
    tail = np.cumsum(energy[::-1])[::-1]
    if tail[0] <= 0.0:
        raise ValueError("zero-energy impulse response")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(tail / tail[0])
    # the peak of |s|, not of energy: squares of float64 samples can tie
    # where the magnitudes do not
    return DecayCurve(np.maximum(db, EDC_FLOOR_DB), energy, float(energy.sum()),
                      int(np.argmax(np.abs(s))))


def _curve(x: RirLike | DecayCurve) -> DecayCurve:
    return x if isinstance(x, DecayCurve) else energy_decay_curve(x)


def _first_at_or_below(v: np.ndarray, level: float, parameter: str) -> int:
    idx = np.nonzero(v <= level)[0]
    if idx.size == 0:
        raise EstimationError(
            f"decay curve never reaches {level:g} dB within the window", parameter
        )
    return int(idx[0])


def _decay_slope(v: np.ndarray, lo: int, hi: int, parameter: str) -> float:
    """Least-squares slope, in dB/s, of the decay curve over samples lo..hi,
    in closed form: 12 * sum((i - mean i) * v_i) / (n (n^2 - 1)) per sample.
    The sum is numpy's pairwise one, not a BLAS dot, so it does not depend on
    the thread count."""
    n = hi - lo + 1
    centred = np.arange(n) - (n - 1) / 2.0
    slope = 12.0 * np.sum(centred * v[lo : hi + 1]) / (n * (n * n - 1.0)) * RIR_RATE
    if slope >= 0.0:
        raise EstimationError("non-decaying energy curve", parameter)
    return float(slope)


def estimate_t60(rir: RirLike | DecayCurve) -> float:
    """Reverberation time from the T20 span: least-squares line over the
    [-5 dB, -25 dB] stretch of the decay curve, extrapolated to 60 dB
    (T60 = -60 / slope)."""
    v = _curve(rir).values
    i5 = _first_at_or_below(v, -5.0, "t60")
    i25 = _first_at_or_below(v, -25.0, "t60")
    if i25 - i5 < 1:
        raise EstimationError("decay from -5 to -25 dB is instantaneous", "t60")
    return -60.0 / _decay_slope(v, i5, i25, "t60")


def estimate_edt(rir: RirLike | DecayCurve) -> float:
    """Early decay time: 6x the time to fall 10 dB, from a least-squares fit
    over the [0 dB, -10 dB] stretch.

    The fit starts at the last sample still at 0 dB, so pre-delay silence
    (which holds the curve at 0) does not flatten the fitted slope.
    """
    v = _curve(rir).values
    i10 = _first_at_or_below(v, -10.0, "edt")
    start_candidates = np.nonzero(v[: i10 + 1] >= -1e-9)[0]
    start = int(start_candidates[-1]) if start_candidates.size else 0
    if i10 - start < 2:
        raise EstimationError("no resolvable decay region above -10 dB", "edt")
    return 6.0 * (-10.0 / _decay_slope(v, start, i10, "edt"))


def _ratio_db(curve: DecayCurve, lo: int, hi: int) -> float:
    """Energy of samples lo..hi-1 against the rest, in dB, clamped to
    +-DB_CLAMP."""
    part = float(curve.energy[lo:hi].sum())
    rest = curve.total - part
    val = 10.0 * np.log10(part / (rest + _EPS)) if part > 0 else -np.inf
    return float(np.clip(val, -DB_CLAMP, DB_CLAMP))


def estimate_drr(rir: RirLike | DecayCurve) -> float:
    """Direct-to-reverberant ratio in dB: energy within +-2.5 ms (_DRR_WINDOW
    samples) of the absolute peak versus everything else, clamped to +-120 dB."""
    c = _curve(rir)
    return _ratio_db(c, max(0, c.peak - _DRR_WINDOW), c.peak + _DRR_WINDOW + 1)


def estimate_cte(rir: RirLike | DecayCurve) -> float:
    """Early-to-late index in dB: energy up to 50 ms (_CTE_SPLIT samples) past
    the direct-sound peak versus the remainder, clamped to +-120 dB."""
    c = _curve(rir)
    return _ratio_db(c, 0, c.peak + _CTE_SPLIT)


def analyze(rir: RirLike) -> AcousticParams:
    """All four parameter estimates for one impulse response at RIR_RATE,
    from one decay curve. Deterministic; propagates EstimationError from the
    decay-based estimators."""
    c = energy_decay_curve(rir)
    return AcousticParams(
        t60=estimate_t60(c), drr=estimate_drr(c),
        edt=estimate_edt(c), cte=estimate_cte(c),
    )


def write_params_csv(path: str | Path, rows: Iterable[tuple[str, AcousticParams]]) -> None:
    """Emit `id,t60_s,drr_db,edt_s,cte_db` rows with 6 decimal places."""
    write_csv(path, ["id", "t60_s", "drr_db", "edt_s", "cte_db"],
              ([rid, f"{p.t60:.6f}", f"{p.drr:.6f}", f"{p.edt:.6f}", f"{p.cte:.6f}"]
               for rid, p in rows))

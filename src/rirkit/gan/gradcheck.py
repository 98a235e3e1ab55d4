"""Central finite-difference verification of analytic gradients.

The relative-error convention: |analytic - numeric| / max(|analytic|,
|numeric|, floor). Checks should run on float64 networks; float32 rounding
swamps the h^2 truncation error of the central difference.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def numeric_gradient(loss_fn: Callable[[], float], arr: np.ndarray,
                     h: float = 1e-4, indices: Sequence[int] | None = None) -> np.ndarray:
    """Central-difference gradient of loss_fn with respect to arr, computed
    in place by perturbing one element of the live array at a time, whatever
    its strides. `indices` are C-order flat positions. Returns the full-shape
    gradient (entries outside `indices` are zero when a subset is given)."""
    out = np.zeros(arr.size)
    idxs = range(arr.size) if indices is None else indices
    for i in idxs:
        at = np.unravel_index(i, arr.shape)
        orig = arr[at]
        arr[at] = orig + h
        lp = loss_fn()
        arr[at] = orig - h
        lm = loss_fn()
        arr[at] = orig
        out[i] = (lp - lm) / (2.0 * h)
    return out.reshape(arr.shape)


def relative_error(analytic: np.ndarray, numeric: np.ndarray,
                   floor: float = 1e-6) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


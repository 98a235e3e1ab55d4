"""Histogram-constrained RIR generation.

Acoustic-parameter histograms built from the training corpus define the
admissible region: a candidate is accepted outright when all four of its
parameters land in occupied bins. Near misses (within one bin-width of an
occupied bin) are accepted with a small relaxation probability; anything
further out is rejected. Candidates whose decay never supports an estimate
count as rejections too, which is exactly how noisy generator outputs with
runaway reverberation get filtered.

Generation runs the generator on batches of candidates, at most as many as
the accepts still needed, and draws latents and relaxation coins from two
separate seeded streams, so no output depends on how the tries were batched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._fields import check_count, check_fields, parse_json, read_text, write_csv
from .acoustics import AcousticParams, analyze
from .audio import Rir

PARAM_NAMES = ("t60", "drr", "edt", "cte")
# most rows per generator forward in generate_constrained: up to 4, a row has
# the bits of its one-row forward (a d=2 row does not at 5 and more)
_CHUNK = 4


class GenerationStalledError(RuntimeError):
    """max_tries consecutive rejections while drawing one sample; the model
    and the constraints disagree too much to continue."""

    def __init__(self, message: str, report: "GenerationReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SamplerConfig:
    """generate_constrained ignores bins_per_param: the histograms fix the bins."""

    bins_per_param: int = 30
    relax_prob: float = 0.05
    max_tries_per_sample: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.relax_prob <= 1.0:  # NaN included
            raise ValueError("relax_prob must be in [0, 1]")
        check_count("bins_per_param", self.bins_per_param, 2)
        if self.max_tries_per_sample < 1:
            raise ValueError("max_tries_per_sample must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(frozen=True)
class Histogram:
    """Equal-width bins: len(counts) == len(edges) - 1."""

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        edges, counts = np.asarray(self.edges), np.asarray(self.counts)
        if edges.dtype.kind not in "iuf":
            raise ValueError("bin edges must be numbers")
        if counts.dtype.kind != "i":
            raise ValueError("counts must be int64 integers")
        edges, counts = edges.astype(np.float64), counts.astype(np.int64)
        if (edges.ndim != 1 or counts.ndim != 1 or counts.size != edges.size - 1
                or counts.size == 0):
            raise ValueError("need len(counts) == len(edges) - 1 >= 1")
        if not np.all(np.isfinite(edges)):
            raise ValueError("bin edges must be finite")
        span = float(edges.max()) - float(edges.min())  # Python floats: inf without a warning
        if np.isinf(span):
            raise ValueError("bin edges must span a finite range")
        widths = np.diff(edges)
        if np.any(widths <= 0):
            raise ValueError("bin edges must be strictly increasing")
        # 1e-9 of the span, plus the rounding of edges far from zero
        tol = 1e-9 * span + 4 * np.spacing(np.abs(edges).max())
        if np.any(np.abs(widths - widths[0]) > tol):
            raise ValueError("bin edges must be equal-width: widths "
                             f"{widths.min():g} to {widths.max():g}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def bin_width(self) -> float:
        return float(self.edges[1] - self.edges[0])

    def bin_index(self, value: float) -> int | None:
        """Index of the bin holding value (right edge closes the last bin),
        or None when the value is outside the histogram range or NaN."""
        if not self.edges[0] <= value <= self.edges[-1]:
            return None
        idx = int(np.searchsorted(self.edges, value, side="right")) - 1
        return min(idx, self.counts.size - 1)

    def in_support(self, value: float) -> bool:
        idx = self.bin_index(value)
        return idx is not None and self.counts[idx] > 0

    def distance_to_support(self, value: float) -> float:
        """Distance from value to the nearest occupied bin interval (0 when
        inside one); inf for NaN, which lies in no interval."""
        occupied = np.nonzero(self.counts > 0)[0]
        if occupied.size == 0 or np.isnan(value):
            return np.inf
        lo = self.edges[occupied]
        hi = self.edges[occupied + 1]
        d = np.maximum(lo - value, 0.0) + np.maximum(value - hi, 0.0)
        return float(d.min())


@dataclass(frozen=True)
class ParamHistograms:
    t60: Histogram
    drr: Histogram
    edt: Histogram
    cte: Histogram
    total_count: int

    def __post_init__(self):
        if type(self.total_count) is not int or self.total_count < 1:
            raise ValueError("total_count must be an integer >= 1")
        for name in PARAM_NAMES:
            # summed as Python ints, which cannot wrap as an int64 sum can
            total = sum(getattr(self, name).counts.tolist())
            if total != self.total_count:
                raise ValueError(f"{name} counts sum to {total}, "
                                 f"expected {self.total_count}")

    def __getitem__(self, name: str) -> Histogram:
        if name not in PARAM_NAMES:
            raise KeyError(name)
        return getattr(self, name)


def _make_histogram(values: np.ndarray, bins: int) -> Histogram:
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        # degenerate one-point support: give the bins a sliver of width
        pad = max(abs(lo) * 1e-9, 1e-9)
        lo, hi = lo - pad, hi + pad
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return Histogram(edges, counts)


def build_histograms(params: Sequence[AcousticParams],
                     config: SamplerConfig = SamplerConfig()) -> ParamHistograms:
    """Equal-width histograms spanning [min, max] of each training parameter."""
    if len(params) == 0:
        raise ValueError("cannot build histograms from an empty collection")
    columns = {name: np.array([getattr(p, name) for p in params]) for name in PARAM_NAMES}
    for name, col in columns.items():
        if not np.all(np.isfinite(col)):
            raise ValueError(f"non-finite {name} value in training parameters")
    return ParamHistograms(
        **{name: _make_histogram(col, config.bins_per_param)
           for name, col in columns.items()},
        total_count=len(params),
    )


@dataclass(frozen=True)
class AcceptDecision:
    accepted: bool
    relaxed: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.accepted


def accept(p: AcousticParams, hists: ParamHistograms, relax_prob: float,
           rng: np.random.Generator) -> AcceptDecision:
    """Strict accept when every parameter sits in an occupied bin. If all
    misses are within one bin-width of the support, accept with probability
    relax_prob; otherwise reject. The relaxation draw is taken whenever the
    candidate is relaxable, so acceptance is monotone in relax_prob for a
    fixed rng state."""
    violations = []
    adjacent_only = True
    for name in PARAM_NAMES:
        h = hists[name]
        value = getattr(p, name)
        if h.in_support(value):
            continue
        violations.append(name)
        if h.distance_to_support(value) > h.bin_width:
            adjacent_only = False
    if not violations:
        return AcceptDecision(True, False, ())
    if adjacent_only:
        relaxed = bool(rng.random() < relax_prob)
        return AcceptDecision(relaxed, relaxed, tuple(violations))
    return AcceptDecision(False, False, tuple(violations))


@dataclass
class GenerationReport:
    accepted: int = 0
    rejected: int = 0
    tries: int = 0
    rejections_by_param: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in PARAM_NAMES} | {"invalid": 0}
    )

    def record_rejection(self, reasons: Iterable[str]) -> None:
        self.rejected += 1
        for r in reasons:
            self.rejections_by_param[r] += 1

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["parameter", "rejections"],
                  [*self.rejections_by_param.items(), ("accepted", self.accepted),
                   ("rejected", self.rejected), ("tries", self.tries)])


def generate_constrained(model, hists: ParamHistograms, n: int,
                         config: SamplerConfig = SamplerConfig()
                         ) -> tuple[list[Rir], GenerationReport]:
    """Sample the generator until n candidates pass the histogram constraint.

    Each try draws its own latent row, and one forward runs the rows of up to
    _CHUNK tries, never more than the accepts still needed, so every row is
    examined, in order, unless a stall ends the call. A row's bits do not
    depend on its batch, so neither do the outputs. Two streams spawned from
    config.rng_seed, one for latents and one for relaxation draws, make the
    output a pure function of (model, histograms, n, config), and the first
    m outputs of a call for n >= m those of a call for m. Raises
    GenerationStalledError when a single sample burns max_tries_per_sample
    attempts without an accept.
    """
    from .gan.nets import sample_latent

    if n < 1:
        raise ValueError("n must be >= 1")
    latent_rng, coin_rng = map(np.random.default_rng,
                               np.random.SeedSequence(config.rng_seed).spawn(2))
    report = GenerationReport()
    out: list[Rir] = []
    tries = 0  # since the last accept
    while len(out) < n:
        z = np.concatenate([sample_latent(latent_rng, 1)
                            for _ in range(min(n - len(out), _CHUNK))])
        for wave in model.generator.forward(z):
            report.tries += 1
            tries += 1
            try:
                rir = Rir.from_samples(wave)
                params = analyze(rir)
            except ValueError as exc:  # an EstimationError names its parameter
                report.record_rejection([getattr(exc, "parameter", "") or "invalid"])
            else:
                decision = accept(params, hists, config.relax_prob, coin_rng)
                if decision:
                    report.accepted += 1
                    out.append(rir)
                    tries = 0
                    continue
                report.record_rejection(decision.violations)
            if tries == config.max_tries_per_sample:
                raise GenerationStalledError(
                    f"no accepted sample in {config.max_tries_per_sample} tries "
                    f"(got {len(out)}/{n}); the model does not fit the constraints",
                    report,
                )
    return out, report


def save_histograms(hists: ParamHistograms, path: str | Path) -> None:
    doc = {
        "total_count": hists.total_count,
        "params": {
            name: {
                "edges": [float(e) for e in hists[name].edges],
                "counts": [int(c) for c in hists[name].counts],
            }
            for name in PARAM_NAMES
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")


def _field(doc, *keys):
    """doc[keys[0]][keys[1]]..., or ValueError naming the first missing key."""
    for i, key in enumerate(keys):
        if not isinstance(doc, dict) or key not in doc:
            raise ValueError(f"histogram JSON has no {'.'.join(keys[: i + 1])}")
        doc = doc[key]
    return doc


def _histogram(doc, name: str) -> Histogram:
    """params.<name> of a histogram JSON: edges a list of JSON numbers,
    counts a list of JSON integers. A bool, string, null, nested list or
    fraction (2.0 included) is a ValueError naming the field."""
    arrays = []
    for key, kinds in (("edges", (int, float)), ("counts", (int,))):
        value = _field(doc, "params", name, key)
        if not isinstance(value, list) or not all(type(v) in kinds for v in value):
            raise ValueError(f"params.{name}.{key} must be a list of JSON "
                             f"{'numbers' if key == 'edges' else 'integers'}")
        arrays.append(np.array(value))  # object dtype past int64: refused
    try:
        return Histogram(*arrays)
    except ValueError as exc:
        raise ValueError(f"params.{name}: {exc}") from None


def load_histograms(path: str | Path) -> ParamHistograms:
    """Read save_histograms' JSON; a missing or malformed field is a
    ValueError naming the path and the field."""
    doc = parse_json(read_text(path), path)
    try:
        return ParamHistograms(**{name: _histogram(doc, name) for name in PARAM_NAMES},
                               total_count=_field(doc, "total_count"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc

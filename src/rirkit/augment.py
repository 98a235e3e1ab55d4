"""Far-field speech synthesis: convolve clean speech with an RIR and add a
looped, offset, SNR-scaled noise segment.

The reverberant signal is the clean/RIR convolution truncated back to the
clean length, so corpus duration is preserved. The noise weight alpha is
sqrt(P_signal / (snr * P_noise)) for a requested linear power-ratio snr
(a dB interpretation is available via AugmentSpec.snr_in_db). If the mix
would clip, the whole waveform is rescaled and the factor recorded, leaving
the internal SNR untouched.

Speech and noise are resampled to RIR_RATE (16 kHz), the rate of every RIR.
Each utterance derives its own rng from (global seed, utterance id), so
results do not depend on processing order or worker count. An utterance id
names its output WAV, so it must be a bare file name, unique in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._fields import check_fields, parse_json, read_text
from .audio import AudioBuffer, RIR_RATE, Rir, convolve, load_wav, resample, save_wav
from .corpus import RirPool, _map

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AugmentSpec:
    snr_range: tuple[float, float] = (10.0, 100.0)
    rng_seed: int = 0
    snr_in_db: bool = False

    def __post_init__(self):
        check_fields(self)
        if not np.isfinite(self.snr_range).all():
            raise ValueError("snr_range must be finite")
        lo, hi = self.snr_range
        if not (0 < lo <= hi) and not self.snr_in_db:
            raise ValueError("snr_range must satisfy 0 < lo <= hi")
        if self.snr_in_db and lo > hi:
            raise ValueError("snr_range must satisfy lo <= hi")
        if self.snr_in_db and not (0 < _linear_snr(lo) and _linear_snr(hi) < math.inf):
            raise ValueError("snr_range in dB must give linear ratios 10 ** (snr / 10) "
                             "that are > 0 and finite")


def _linear_snr(db: float) -> float:
    """The linear power ratio 10 ** (db / 10) of a dB SNR: 0.0 where it
    underflows, inf where it overflows."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class MixRecord:
    utt_id: str
    clean_path: str
    rir_id: str
    noise_id: str
    snr: float  # linear power ratio
    k: int  # noise start offset, samples
    alpha: float
    rescale: float
    out_path: str

    def __post_init__(self):
        check_fields(self)

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def looped_noise(noise: AudioBuffer, k: int, length: int) -> AudioBuffer | None:
    """Circular slice: output[i] = noise[(k + i) mod len(noise)].

    The output is filled by slice copies: noise[k:], then whole loops of
    noise, then the head that is left. length 0 yields None (AudioBuffer
    cannot be empty)."""
    n = len(noise)
    if not 0 <= k < n:
        raise ValueError(f"offset k={k} out of range [0, {n})")
    if length == 0:
        return None
    src = noise.samples
    out = np.empty(length, dtype=src.dtype)
    pos = min(length, n - k)
    out[:pos] = src[k : k + pos]
    while pos < length:
        step = min(n, length - pos)
        out[pos : pos + step] = src[:step]
        pos += step
    return AudioBuffer(out, noise.sample_rate)


def compute_alpha(reverberant: AudioBuffer, noise_segment: AudioBuffer,
                  snr: float) -> float:
    """Noise weight for a requested linear power-ratio SNR:
    alpha = sqrt(P_signal / (snr * P_noise))."""
    if snr <= 0:
        raise ValueError("snr must be a positive linear power ratio")
    if len(reverberant) != len(noise_segment):
        raise ValueError("reverberant and noise segments must have equal length")
    p_s = float(np.mean(np.square(reverberant.samples, dtype=np.float64)))
    p_n = float(np.mean(np.square(noise_segment.samples, dtype=np.float64)))
    if p_n <= 0.0:
        raise ValueError("noise segment has zero power")
    return float(np.sqrt(p_s / (snr * p_n)))


def mix(clean: AudioBuffer, rir: Rir | AudioBuffer, noise: AudioBuffer,
        snr: float, k: int, alpha_override: float | None = None
        ) -> tuple[AudioBuffer, MixRecord]:
    """One far-field utterance: reverberate, then add scaled looped noise.

    All inputs must already be at a common sample rate. Returns the mixed
    buffer and a MixRecord whose id/path fields are left blank for the
    caller to fill in.
    """
    rev_buf = AudioBuffer(convolve(clean, rir).samples[: len(clean)], clean.sample_rate)
    rev_s = rev_buf.samples.astype(np.float64)
    seg = looped_noise(noise, k, len(clean))
    if alpha_override is not None:
        alpha = float(alpha_override)
    else:
        alpha = compute_alpha(rev_buf, seg, snr)
    y = rev_s + alpha * seg.samples.astype(np.float64)
    peak = float(np.max(np.abs(y)))
    rescale = 1.0 / peak if peak > 1.0 else 1.0
    record = MixRecord("", "", "", "", float(snr), int(k), alpha, rescale, "")
    return AudioBuffer((y * rescale).astype(np.float32), clean.sample_rate), record


def read_clean_manifest(path: str | Path) -> list[tuple[str, str]]:
    """CSV `utt_id,path` (header optional, # comments skipped)."""
    rows = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        utt_id, _, p = line.partition(",")
        if utt_id == "utt_id" and p == "path":
            continue
        if not p:
            raise ValueError(f"{path}: bad manifest line {line!r}")
        rows.append((utt_id, p))
    return rows


def write_manifest(records: Sequence[MixRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(rec.to_json() + "\n")


def read_manifest(path: str | Path) -> list[MixRecord]:
    """Read manifest.jsonl. A line that is not UTF-8 or not JSON raises
    ValueError; one that is not an object, or has a missing, unknown or
    mistyped key, raises TypeError. Either names the file and the line."""
    records = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        doc = parse_json(line, f"{path}: line {lineno}")
        try:
            records.append(MixRecord(**doc))
        except TypeError as exc:
            raise TypeError(f"{path}: line {lineno}: {exc}") from exc
    return records


def _utt_rng(global_seed: int, utt_id: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{global_seed}:{utt_id}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _load_at_rir_rate(path: str) -> AudioBuffer:
    buf = load_wav(path)
    return resample(buf, RIR_RATE) if buf.sample_rate != RIR_RATE else buf


def augment_corpus(
    clean_manifest: Sequence[tuple[str, str]],
    rir_pool: RirPool,
    noise_pool: RirPool,
    spec: AugmentSpec,
    out_dir: str | Path,
    threads: int = 1,
) -> tuple[list[MixRecord], list[tuple[str, str]]]:
    """Mix every clean utterance with a random RIR, noise, SNR, and offset.

    Per-utterance failures are logged and collected rather than aborting the
    whole job; an utt_id that is not a bare file name, or that repeats, is such
    a failure and writes no file. Returns (records sorted by utt_id, failures
    as (utt_id, error)). Also writes the output WAVs and manifest.jsonl into
    out_dir.
    """
    from .audio import to_rir

    if len(rir_pool.entries) == 0 or len(noise_pool.entries) == 0:
        raise ValueError("rir and noise pools must be non-empty")
    for kind, pool in (("rir", rir_pool), ("noise", noise_pool)):
        paths: dict[str, str] = {}  # the caches below are keyed by id
        for e in pool.entries:
            if paths.setdefault(e.id, e.path) != e.path:
                raise ValueError(f"{kind} pool id {e.id!r} names two files: "
                                 f"{paths[e.id]} and {e.path}")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    # RIRs are kept as samples, not spectra: a spectrum is 0.5 MB per RIR at
    # 65536 points and more for longer utterances (~38 MB or more over the
    # ~72 RIRs a 128-utterance call draws), too much memory for one FFT saved
    # per mix
    rir_cache: dict[str, Rir] = {}
    noise_cache: dict[str, AudioBuffer] = {}
    id_counts = Counter(utt_id for utt_id, _ in clean_manifest)

    def one(item: tuple[str, str]) -> MixRecord:
        utt_id, clean_path = item
        if utt_id in ("", ".", "..") or "/" in utt_id or os.sep in utt_id:
            raise ValueError(f"utt_id {utt_id!r} is not a bare file name")
        if id_counts[utt_id] > 1:
            raise ValueError(f"utt_id {utt_id!r} repeats in the clean manifest")
        rng = _utt_rng(spec.rng_seed, utt_id)
        rir_entry = rir_pool.entries[int(rng.integers(len(rir_pool.entries)))]
        noise_entry = noise_pool.entries[int(rng.integers(len(noise_pool.entries)))]
        lo, hi = spec.snr_range
        snr = float(rng.uniform(lo, hi))
        linear_snr = _linear_snr(snr) if spec.snr_in_db else snr

        clean = _load_at_rir_rate(clean_path)
        if rir_entry.id not in rir_cache:
            rir_cache[rir_entry.id] = to_rir(load_wav(rir_entry.path))
        rir = rir_cache[rir_entry.id]
        if noise_entry.id not in noise_cache:
            noise_cache[noise_entry.id] = _load_at_rir_rate(noise_entry.path)
        noise = noise_cache[noise_entry.id]
        k = int(rng.integers(len(noise)))

        mixed, rec = mix(clean, rir, noise, linear_snr, k)
        out_file = out_path / f"{utt_id}.wav"
        save_wav(mixed, out_file)
        return replace(rec, utt_id=utt_id, clean_path=clean_path,
                       rir_id=rir_entry.id, noise_id=noise_entry.id, snr=snr,
                       out_path=str(out_file))

    records: list[MixRecord] = []
    failures: list[tuple[str, str]] = []

    def run(item):
        try:
            return one(item), None
        except Exception as exc:  # per-utterance isolation
            log.warning("augment failed for %s: %s", item[0], exc)
            return None, (item[0], str(exc))

    for rec, err in _map(run, clean_manifest, threads):
        if rec is not None:
            records.append(rec)
        else:
            failures.append(err)

    records.sort(key=lambda r: r.utt_id)
    write_manifest(records, out_path / "manifest.jsonl")
    return records, failures

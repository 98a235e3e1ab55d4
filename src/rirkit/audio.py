"""Audio I/O, resampling, the canonical RIR representation, and FFT convolution.

Everything here is a pure function over immutable inputs; no shared state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np
from scipy.signal import firwin, resample_poly

RIR_RATE = 16000
RIR_LENGTH = 16384

# windowed-sinc resampler quality knobs
_SINC_ZERO_CROSSINGS = 64
_KAISER_BETA = 8.6


class WavFormatError(ValueError):
    """Raised for structurally malformed RIFF/WAVE files."""


class UnsupportedEncodingError(WavFormatError):
    """Raised for well-formed WAVs whose sample encoding we do not read."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float32 amplitudes (nominally in [-1, 1]) plus a sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float32)
        if s.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {s.shape}")
        if s.size == 0:
            raise ValueError("samples must be non-empty")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples contain NaN or Inf")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class Rir:
    """Canonical room impulse response: exactly 16384 float32 samples at 16 kHz,
    peak-normalized so max |sample| == 1."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float32)
        if s.shape != (RIR_LENGTH,):
            raise ValueError(f"RIR must have exactly {RIR_LENGTH} samples, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("RIR samples contain NaN or Inf")
        peak = float(np.max(np.abs(s)))
        if abs(peak - 1.0) > 1e-6:
            raise ValueError(f"RIR must be peak-normalized to 1, peak is {peak}")
        object.__setattr__(self, "samples", s)

    @property
    def sample_rate(self) -> int:
        return RIR_RATE

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "Rir":
        """Peak-normalize a 16384-sample vector and wrap it as a canonical RIR."""
        s = np.asarray(samples, dtype=np.float32)
        if s.shape != (RIR_LENGTH,):
            raise ValueError(f"expected {RIR_LENGTH} samples, got {s.shape}")
        peak = float(np.max(np.abs(s)))
        if peak == 0.0 or not np.isfinite(peak):
            raise ValueError("cannot normalize an all-zero or non-finite vector")
        return cls(s / np.float32(peak))

    def as_buffer(self) -> AudioBuffer:
        return AudioBuffer(self.samples, RIR_RATE)


def load_wav(path: str | Path) -> AudioBuffer:
    """Read a RIFF/WAVE file (16-bit PCM or 32-bit IEEE float), first channel only.

    Integer PCM is scaled by 1/32768. Raises FileNotFoundError, WavFormatError
    (also for a partial trailing frame or a NaN/Inf sample), or
    UnsupportedEncodingError so callers can tell the failure modes apart.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if len(body) != size:
            raise WavFormatError(f"{path}: {cid!r} chunk declares {size} bytes, "
                                 f"file holds {len(body)}")
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1 or sample_rate <= 0:
        raise WavFormatError(f"{path}: invalid fmt fields")

    if audio_format == 1 and bits == 16:
        dtype, scale = "<i2", np.float32(1.0 / 32768.0)
    elif audio_format == 3 and bits == 32:
        dtype, scale = "<f4", np.float32(1.0)
    else:
        raise UnsupportedEncodingError(
            f"{path}: unsupported encoding (format={audio_format}, bits={bits}); "
            "only 16-bit PCM and 32-bit IEEE float are readable"
        )
    if len(payload) % (bits // 8 * n_channels):
        raise WavFormatError(f"{path}: data chunk of {len(payload)} bytes is not a "
                             f"whole number of {n_channels}-channel {bits}-bit frames")
    if not payload:
        raise WavFormatError(f"{path}: empty data chunk")

    samples = np.frombuffer(payload, dtype=dtype).reshape(-1, n_channels)[:, 0]
    try:
        return AudioBuffer(samples.astype(np.float32) * scale, sample_rate)
    except ValueError as exc:  # NaN or Inf in a float payload
        raise WavFormatError(f"{path}: {exc}") from exc


def save_wav(buffer: AudioBuffer, path: str | Path) -> None:
    """Write mono 32-bit IEEE float WAVE: 44-byte header plus data chunk.

    load_wav(save_wav(b)) round-trips float32 samples bit-exactly.
    """
    s = np.asarray(buffer.samples, dtype=np.float32)
    if s.size == 0 or not np.all(np.isfinite(s)):
        raise ValueError("refusing to write an empty or non-finite buffer")
    rate = int(buffer.sample_rate)
    payload = s.astype("<f4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        3,  # IEEE float
        1,  # mono
        rate,
        rate * 4,
        4,
        32,
        b"data",
        len(payload),
    )
    Path(path).write_bytes(header + payload)


def resample(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited polyphase resampling (Kaiser-windowed sinc).

    Output length is round(n * target / source). Identity when rates match.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be > 0, got {target_rate}")
    src = buffer.sample_rate
    if target_rate == src:
        return AudioBuffer(buffer.samples.copy(), src)

    g = gcd(src, int(target_rate))
    up, down = int(target_rate) // g, src // g
    m = max(up, down)
    half = _SINC_ZERO_CROSSINGS * m
    taps = firwin(2 * half + 1, 1.0 / m, window=("kaiser", _KAISER_BETA))
    y = resample_poly(buffer.samples.astype(np.float64), up, down, window=taps)

    n_out = int(np.floor(buffer.samples.size * target_rate / src + 0.5))
    if y.size < n_out:
        y = np.concatenate([y, np.zeros(n_out - y.size)])
    return AudioBuffer(y[:n_out].astype(np.float32), int(target_rate))


def to_rir(buffer: AudioBuffer) -> Rir:
    """Canonicalize arbitrary audio to a RIR: resample to 16 kHz, truncate or
    zero-pad the tail to 16384 samples, then peak-normalize."""
    b = resample(buffer, RIR_RATE)
    s = b.samples
    if s.size >= RIR_LENGTH:
        s = s[:RIR_LENGTH]
    else:
        s = np.concatenate([s, np.zeros(RIR_LENGTH - s.size, dtype=np.float32)])
    return Rir.from_samples(s)


def convolve(x: AudioBuffer, h: AudioBuffer | Rir) -> AudioBuffer:
    """Full linear convolution via FFT with next-power-of-two padding.

    Result length is len(x) + len(h) - 1 and matches direct summation to
    floating-point accuracy. Sample rates must agree.
    """
    h_rate = h.sample_rate
    if x.sample_rate != h_rate:
        raise ValueError(
            f"sample-rate mismatch: {x.sample_rate} vs {h_rate}; resample first"
        )
    xs = x.samples.astype(np.float64)
    hs = np.asarray(h.samples, dtype=np.float64)
    n = xs.size + hs.size - 1
    nfft = 1 << (n - 1).bit_length()
    y = np.fft.irfft(np.fft.rfft(xs, nfft) * np.fft.rfft(hs, nfft), nfft)[:n]
    return AudioBuffer(y.astype(np.float32), x.sample_rate)

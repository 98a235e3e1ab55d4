"""Audio I/O, resampling, the canonical RIR representation, and FFT convolution.

Everything here is a pure function over immutable inputs; no shared state.
scipy is imported by the first resample, filter build or convolution, not
with this module: a process that never leaves 16 kHz nor convolves never
loads it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from pathlib import Path

import numpy as np

RIR_RATE = 16000
RIR_LENGTH = 16384

# windowed-sinc resampler quality knobs
_SINC_ZERO_CROSSINGS = 64
_KAISER_BETA = 8.6
_MAX_TAPS = 1 << 23  # 64 MiB of float64 taps; 44.1 kHz -> 16 kHz needs 56,449


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


@dataclass(frozen=True)
class Rir(AudioBuffer):
    """Canonical room impulse response: an AudioBuffer of exactly 16384
    samples at 16 kHz, peak-normalized so max |sample| == 1."""

    sample_rate: int = field(default=RIR_RATE, init=False)

    def __post_init__(self):
        super().__post_init__()
        if len(self) != RIR_LENGTH:
            raise ValueError(f"RIR must have exactly {RIR_LENGTH} samples, got {len(self)}")
        peak = float(np.max(np.abs(self.samples)))
        if abs(peak - 1.0) > 1e-6:
            raise ValueError(f"RIR must be peak-normalized to 1, peak is {peak}")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "Rir":
        """Peak-normalize a 16384-sample vector and wrap it as a canonical RIR."""
        s = np.asarray(samples, dtype=np.float32)
        peak = float(np.max(np.abs(s)))
        if peak == 0.0 or not np.isfinite(peak):
            raise ValueError("cannot normalize an all-zero or non-finite vector")
        return cls(s / np.float32(peak))

    def as_buffer(self) -> AudioBuffer:
        return self


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


@lru_cache(maxsize=4)
def _sinc_taps(up: int, down: int) -> np.ndarray:
    """The Kaiser-windowed sinc low-pass that resamples by up/down: 2*half + 1
    taps, half = _SINC_ZERO_CROSSINGS * max(up, down). Built once per ratio and
    shared, so it is read-only (resample_poly copies the window it is given)."""
    from scipy.signal import firwin

    m = max(up, down)
    half = _SINC_ZERO_CROSSINGS * m
    taps = firwin(2 * half + 1, 1.0 / m, window=("kaiser", _KAISER_BETA))
    taps.flags.writeable = False
    return taps


def _ratio(src: int) -> tuple[int, int]:
    """(up, down) in lowest terms, with RIR_RATE / src == up / down."""
    g = gcd(src, RIR_RATE)
    return RIR_RATE // g, src // g


def resample(buffer: AudioBuffer) -> AudioBuffer:
    """Band-limited polyphase resampling (Kaiser-windowed sinc) to RIR_RATE.

    Output length is round(n * RIR_RATE / source). A buffer already at
    RIR_RATE is returned as it is, not copied. A ratio whose filter needs more
    than _MAX_TAPS taps is refused unbuilt, and so is an input too short to
    give one output sample.
    """
    src = buffer.sample_rate
    if src == RIR_RATE:
        return buffer

    up, down = _ratio(src)
    n_taps = 2 * _SINC_ZERO_CROSSINGS * max(up, down) + 1
    if n_taps > _MAX_TAPS:
        raise ValueError(f"resampling {src} Hz to {RIR_RATE} Hz needs a "
                         f"{n_taps}-tap filter, more than the {_MAX_TAPS} allowed")
    n = buffer.samples.size
    n_out = int(np.floor(n * RIR_RATE / src + 0.5))
    if n_out == 0:
        raise ValueError(f"{n} samples at {src} Hz give no sample at {RIR_RATE} Hz")
    from scipy.signal import resample_poly

    # resample_poly gives ceil(n * up / down) samples, never fewer than n_out
    y = resample_poly(buffer.samples.astype(np.float64), up, down,
                      window=_sinc_taps(up, down))
    return AudioBuffer(y[:n_out].astype(np.float32), RIR_RATE)


def _rir_prefix(src: int) -> int:
    """How many input samples at rate src reach the RIR_LENGTH samples that
    to_rir keeps, once resampled to RIR_RATE.

    resample_poly centres the taps h[0..2*half] on each output, so output j is
    sum over |t| <= half of h[half + t] * u[j*down - t], where u is the input
    zero-stuffed by up (u[i*up] = x[i], zero elsewhere). Output j therefore
    reads input samples up to floor((j*down + half) / up), and the last kept
    output, j = RIR_LENGTH - 1, reads them up to
    floor(((RIR_LENGTH - 1)*down + half) / up); this is one less than the
    count returned. Each kept output sums the same products in the same order
    whether or not the input goes on past that prefix, so resampling the
    prefix alone gives the same bits. At RIR_RATE (up = down = 1) the count
    is RIR_LENGTH + half, past what to_rir keeps, and no filter runs.
    """
    up, down = _ratio(src)
    half = _SINC_ZERO_CROSSINGS * max(up, down)
    return ((RIR_LENGTH - 1) * down + half) // up + 1


def to_rir(buffer: AudioBuffer) -> Rir:
    """Canonicalize arbitrary audio to a RIR: resample to 16 kHz, truncate or
    zero-pad the tail to 16384 samples, then peak-normalize.

    Only the input prefix that reaches the kept samples is resampled (see
    _rir_prefix); the result is the same as resampling the whole input.
    """
    n = _rir_prefix(buffer.sample_rate)
    if len(buffer) > n:
        buffer = AudioBuffer(buffer.samples[:n], buffer.sample_rate)
    s = resample(buffer).samples[:RIR_LENGTH]
    if s.size < RIR_LENGTH:
        s = np.concatenate([s, np.zeros(RIR_LENGTH - s.size, dtype=np.float32)])
    return Rir.from_samples(s)


def load_rir(path: str | Path) -> Rir:
    """to_rir(load_wav(path)), whose errors name the file once: load_wav's and
    the OS's already do, and a ValueError from to_rir is prefixed with it."""
    buffer = load_wav(path)
    try:
        return to_rir(buffer)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def convolve(x: AudioBuffer, h: AudioBuffer) -> AudioBuffer:
    """Full linear convolution via one float64 real FFT.

    The FFT length is scipy's next_fast_len of the result length (a 5-smooth
    size, 2^a 3^b 5^c, at most the next power of two and usually well below
    it). Result length is len(x) + len(h) - 1 and matches direct summation to
    floating-point accuracy. Sample rates must agree.
    """
    if x.sample_rate != h.sample_rate:
        raise ValueError(f"sample-rate mismatch: {x.sample_rate} vs {h.sample_rate}; "
                         "resample first")
    from scipy.fft import next_fast_len

    xs = x.samples.astype(np.float64)
    hs = h.samples.astype(np.float64)
    n = xs.size + hs.size - 1
    nfft = next_fast_len(n, real=True)
    y = np.fft.irfft(np.fft.rfft(xs, nfft) * np.fft.rfft(hs, nfft), nfft)[:n]
    return AudioBuffer(y.astype(np.float32), x.sample_rate)

import re
import struct
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import firwin, resample_poly

from rirkit import audio
from rirkit.audio import (
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


def pcm16_wav_bytes(samples, rate, channels=1):
    payload = np.asarray(samples, dtype="<i2").tobytes()
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        1, channels, rate, rate * 2 * channels, 2 * channels, 16, b"data",
        len(payload),
    ) + payload


def float_wav_bytes(samples, rate):
    payload = np.asarray(samples, dtype="<f4").tobytes()
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        3, 1, rate, rate * 4, 4, 32, b"data", len(payload),
    ) + payload


class TestLoadWav:
    def test_pcm16_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(pcm16_wav_bytes([0, 16384, -32768], 8000))
        buf = load_wav(p)
        assert buf.sample_rate == 8000
        np.testing.assert_array_equal(buf.samples, np.float32([0.0, 0.5, -1.0]))

    def test_float32_passthrough(self, tmp_path):
        p = tmp_path / "f.wav"
        save_wav(AudioBuffer(np.float32([0.25]), 16000), p)
        buf = load_wav(p)
        assert buf.sample_rate == 16000
        np.testing.assert_array_equal(buf.samples, np.float32([0.25]))

    def test_stereo_takes_first_channel(self, tmp_path):
        # interleaved L/R frames with distinct channels
        frames = [(100, -100), (200, -200), (300, -300)]
        flat = [v for f in frames for v in f]
        p = tmp_path / "st.wav"
        p.write_bytes(pcm16_wav_bytes(flat, 16000, channels=2))
        buf = load_wav(p)
        assert len(buf) == 3
        np.testing.assert_allclose(buf.samples * 32768.0, [100, 200, 300])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"not a wav at all")
        with pytest.raises(WavFormatError):
            load_wav(p)

    def test_unsupported_encoding(self, tmp_path):
        # valid structure, 8-bit PCM
        payload = bytes([0, 128, 255])
        raw = struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ",
            16, 1, 1, 8000, 8000, 1, 8, b"data", len(payload),
        ) + payload
        p = tmp_path / "u8.wav"
        p.write_bytes(raw)
        with pytest.raises(UnsupportedEncodingError):
            load_wav(p)
        # the two error types stay distinguishable
        assert issubclass(UnsupportedEncodingError, WavFormatError)


    def test_payload_not_whole_samples(self, tmp_path):
        raw = bytearray(pcm16_wav_bytes([0, 0], 16000))
        raw[40:44] = struct.pack("<I", 3)  # 16-bit data chunk of 3 bytes
        p = tmp_path / "odd.wav"
        p.write_bytes(bytes(raw[:47]))
        with pytest.raises(WavFormatError):
            load_wav(p)

    def test_data_chunk_longer_than_file(self, tmp_path):
        raw = bytearray(pcm16_wav_bytes(np.arange(10), 16000))
        raw[40:44] = struct.pack("<I", 2000)  # declares 2000 bytes, holds 20
        p = tmp_path / "short.wav"
        p.write_bytes(bytes(raw))
        with pytest.raises(WavFormatError):
            load_wav(p)

    def test_partial_multichannel_frame(self, tmp_path):
        # 2-channel 16-bit data chunk of 3 samples: one frame and a half
        p = tmp_path / "half.wav"
        p.write_bytes(pcm16_wav_bytes([100, -100, 200], 16000, channels=2))
        with pytest.raises(WavFormatError):
            load_wav(p)

    @pytest.mark.parametrize("wav, says", [
        (pcm16_wav_bytes([1, 2], 16000, channels=0), "invalid fmt fields"),
        (pcm16_wav_bytes([1, 2], 0), "invalid fmt fields"),
        (pcm16_wav_bytes([], 16000), "empty data chunk"),
    ], ids=["no channels", "rate 0", "empty data"])
    def test_fmt_fields_and_empty_data_refused(self, tmp_path, wav, says):
        p = tmp_path / "bad.wav"
        p.write_bytes(wav)
        with pytest.raises(WavFormatError, match=re.escape(f"{p}: {says}")):
            load_wav(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample(self, tmp_path, bad):
        p = tmp_path / "nan.wav"
        p.write_bytes(float_wav_bytes([0.25, bad, -0.5], 16000))
        with pytest.raises(WavFormatError):
            load_wav(p)

    def test_signalling_nan_refused_silently(self, tmp_path, capfd):
        # float payloads are not multiplied, so no arithmetic warns on the NaN
        bits = np.float32([0.25, 0.0, -0.5]).view("<u4")
        bits[1] = 0x7F800001  # a signalling NaN
        p = tmp_path / "snan.wav"
        p.write_bytes(float_wav_bytes(bits.view("<f4"), 16000))
        with pytest.raises(WavFormatError, match="samples contain NaN or Inf$"):
            load_wav(p)
        assert capfd.readouterr() == ("", "")


PCM16_WAV = pcm16_wav_bytes([0, 1000, -1000, 32767, -32768, 5, 6, 7], 8000)
FLOAT_WAV = float_wav_bytes([0.0, 0.5, -0.5, 1.0, -1.0, 0.125], 16000)


class TestLoadWavFuzz:
    """One replaced byte anywhere in a valid file: the load succeeds or
    raises WavFormatError, never another exception."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "m.wav"

    def load_mutated(self, path, raw, pos, value):
        data = bytearray(raw)
        data[pos] = value
        path.write_bytes(bytes(data))
        try:
            load_wav(path)
        except WavFormatError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(pos=st.integers(0, len(PCM16_WAV) - 1), value=st.integers(0, 255))
    def test_pcm16_byte_replaced(self, path, pos, value):
        self.load_mutated(path, PCM16_WAV, pos, value)

    @settings(max_examples=100, deadline=None)
    @given(pos=st.integers(0, len(FLOAT_WAV) - 1), value=st.integers(0, 255))
    def test_float_byte_replaced(self, path, pos, value):
        self.load_mutated(path, FLOAT_WAV, pos, value)

class TestSaveWav:
    def test_round_trip_simple(self, tmp_path):
        buf = AudioBuffer(np.float32([0.0, 0.5, -1.0]), 16000)
        p = tmp_path / "rt.wav"
        save_wav(buf, p)
        back = load_wav(p)
        np.testing.assert_array_equal(back.samples, buf.samples)
        assert back.sample_rate == 16000

    def test_round_trip_bit_exact_random(self, tmp_path):
        rng = np.random.default_rng(123)
        buf = AudioBuffer(rng.uniform(-1, 1, RIR_LENGTH).astype(np.float32), 16000)
        p = tmp_path / "rnd.wav"
        save_wav(buf, p)
        assert np.array_equal(load_wav(p).samples, buf.samples)

    def test_header_is_44_bytes(self, tmp_path):
        p = tmp_path / "h.wav"
        save_wav(AudioBuffer(np.float32([0.1, 0.2]), 16000), p)
        raw = p.read_bytes()
        assert len(raw) == 44 + 8
        assert raw[:4] == b"RIFF" and raw[36:40] == b"data"

    def test_empty_buffer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            AudioBuffer(np.float32([]), 16000)
        p = tmp_path / "never.wav"
        assert not p.exists()


class TestResample:
    def test_identity_when_rates_match(self):
        buf = AudioBuffer(np.float32([0.1, -0.2, 0.3]), 16000)
        assert resample(buf) is buf  # returned as it is, not copied

    def test_sine_48k_to_16k(self):
        t = np.arange(4800) / 48000.0
        buf = AudioBuffer(np.sin(2 * np.pi * 1000 * t).astype(np.float32), 48000)
        out = resample(buf)
        assert len(out) == 1600
        ref = np.sin(2 * np.pi * 1000 * np.arange(1600) / 16000.0)
        mid = slice(200, 1400)  # ignore filter edge transients
        corr = np.corrcoef(out.samples[mid], ref[mid])[0, 1]
        assert corr > 0.999

    def test_dc_preserved(self):
        buf = AudioBuffer(np.full(3200, 0.5, dtype=np.float32), 32000)
        out = resample(buf)
        assert out.sample_rate == 16000
        interior = out.samples[100:-100]
        np.testing.assert_allclose(interior, 0.5, atol=1e-3)

    def test_output_length_rounds(self):
        """resample keeps the first round(n * 16000 / rate) of the ceil(n * up /
        down) samples resample_poly gives, and relies on there being no fewer.
        12345 Hz and 44101 Hz (0.4 M and 5.6 M filter taps, 11 and 100 ms a
        call) are swept at every 20th length."""
        for rate, step in [(8000, 1), (11025, 1), (22050, 1), (32000, 1), (44100, 1),
                           (48000, 1), (88200, 1), (96000, 1), (12345, 20), (44101, 20)]:
            for n in range(1, 400, step):
                n_out = int(np.floor(n * 16000 / rate + 0.5))
                buf = AudioBuffer(np.full(n, 0.1, dtype=np.float32), rate)
                if n_out == 0:  # nothing to keep, and a buffer cannot be empty
                    with pytest.raises(ValueError, match=f"^{n} samples at {rate} Hz "
                                                         "give no sample at 16000 Hz$"):
                        resample(buf)
                    continue
                assert len(resample(buf)) == n_out, (rate, n)

    @pytest.mark.parametrize("rate", [65537, 4294967291])
    def test_filter_past_the_tap_budget_refused(self, rate):
        buf = AudioBuffer(np.full(100, 0.1, dtype=np.float32), rate)
        with pytest.raises(ValueError, match=f"^resampling {rate} Hz to 16000 Hz needs"):
            resample(buf)

    def test_result_past_float32_refused_silently(self, capfd):
        # a 1 kHz square wave of +-3.3e38 overshoots float32's 3.4e38 once filtered
        square = np.where(np.arange(4800) // 24 % 2, 3.3e38, -3.3e38).astype(np.float32)
        with pytest.raises(ValueError, match="^resampling 48000 Hz to 16000 Hz overflows "
                                             r"float32 \(peak 3\.86e\+38\)$"):
            resample(AudioBuffer(square, 48000))
        assert capfd.readouterr() == ("", "")


class TestPolyphaseKernel:
    """The numpy kernel computes the filter scipy's resample_poly applies with
    firwin's taps; only the float64 rounding may differ."""

    # the rates test_output_length_rounds sweeps
    @pytest.mark.parametrize("rate", [8000, 11025, 22050, 32000, 44100, 48000, 88200,
                                      96000, 12345, 44101])
    def test_matches_resample_poly(self, rate):
        up, down = audio._ratio(rate)
        m = max(up, down)
        taps = firwin(2 * audio._SINC_ZERO_CROSSINGS * m + 1, 1.0 / m,
                      window=("kaiser", audio._KAISER_BETA))
        rng = np.random.default_rng(rate)
        n = _needed_prefix(rate)
        for length in (1, n - 1, n + 1, 3 * rate):
            n_out = int(np.floor(length * RIR_RATE / rate + 0.5))
            if n_out == 0:
                continue
            x = rng.uniform(-0.5, 0.5, length).astype(np.float32).astype(np.float64)
            ref = resample_poly(x, up, down, window=taps)[:n_out]
            y = audio._polyphase(x, up, down, n_out)
            assert y.shape == ref.shape, (rate, length)
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref)), (rate, length)


class TestToRir:
    def test_normalizes_peak(self):
        rng = np.random.default_rng(0)
        s = (rng.uniform(-1, 1, RIR_LENGTH) * 0.5).astype(np.float32)
        s[10] = 0.5  # known peak
        rir = to_rir(AudioBuffer(s, RIR_RATE))
        np.testing.assert_allclose(rir.samples, s * 2.0, rtol=1e-6)
        assert np.max(np.abs(rir.samples)) == 1.0

    def test_truncates_long_input(self):
        s = np.linspace(1.0, 0.1, 20000).astype(np.float32)
        rir = to_rir(AudioBuffer(s, RIR_RATE))
        np.testing.assert_allclose(rir.samples, s[:RIR_LENGTH], rtol=1e-6)

    def test_pads_short_input(self):
        s = np.linspace(1.0, 0.1, 8000).astype(np.float32)
        rir = to_rir(AudioBuffer(s, RIR_RATE))
        assert np.all(rir.samples[8000:] == 0.0)
        assert np.count_nonzero(rir.samples[8000:]) == 0
        np.testing.assert_allclose(rir.samples[:8000], s, rtol=1e-6)

    def test_zero_buffer_rejected(self):
        with pytest.raises(ValueError):
            to_rir(AudioBuffer(np.zeros(100, dtype=np.float32), RIR_RATE))

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        buf = AudioBuffer(rng.uniform(-1, 1, 12000).astype(np.float32), RIR_RATE)
        once = to_rir(buf)
        twice = to_rir(once.as_buffer())
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-7)


def _to_rir_full(buffer):
    """to_rir as it was before it resampled a prefix only: the whole input is
    resampled, with the taps built anew on every call."""
    src = buffer.sample_rate
    if src == RIR_RATE:
        s = buffer.samples.copy()
    else:
        g = gcd(src, RIR_RATE)
        up, down = RIR_RATE // g, src // g
        m = max(up, down)
        half = audio._SINC_ZERO_CROSSINGS * m
        taps = firwin(2 * half + 1, 1.0 / m, window=("kaiser", audio._KAISER_BETA))
        y = resample_poly(buffer.samples.astype(np.float64), up, down, window=taps)
        n_out = int(np.floor(buffer.samples.size * RIR_RATE / src + 0.5))
        if y.size < n_out:
            y = np.concatenate([y, np.zeros(n_out - y.size)])
        s = y[:n_out].astype(np.float32)
    if s.size >= RIR_LENGTH:
        s = s[:RIR_LENGTH]
    else:
        s = np.concatenate([s, np.zeros(RIR_LENGTH - s.size, dtype=np.float32)])
    return Rir.from_samples(s)


def _needed_prefix(rate):
    """Input samples that reach the kept RIR samples, worked out from the tap
    layout: the last kept output reads input up to
    floor(((RIR_LENGTH - 1) * down + half) / up)."""
    if rate == RIR_RATE:
        return RIR_LENGTH
    g = gcd(rate, RIR_RATE)
    up, down = RIR_RATE // g, rate // g
    half = audio._SINC_ZERO_CROSSINGS * max(up, down)
    return ((RIR_LENGTH - 1) * down + half) // up + 1


class TestToRirPrefix:
    """to_rir resamples only the prefix it keeps and must give the same bits
    as resampling the whole input."""

    @pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 32000, 44100,
                                      48000, 96000])
    def test_bit_equal_to_full_resample(self, rate):
        rng = np.random.default_rng(rate)
        n = _needed_prefix(rate)
        for length in (n - 1, n, n + 1, int(1.5 * rate), 3 * rate):
            x = AudioBuffer(rng.uniform(-0.5, 0.5, length).astype(np.float32), rate)
            np.testing.assert_array_equal(to_rir(x).samples.view(np.int32),
                                          _to_rir_full(x).samples.view(np.int32),
                                          err_msg=f"{rate} Hz, {length} samples")
        # where down is a multiple of up, the last sample of the prefix meets
        # the outermost tap, a zero of the sinc that rounding leaves at about
        # 1e-20; a huge sample there shows whether it was read
        spiked = rng.uniform(-0.5, 0.5, n + 1).astype(np.float32)
        spiked[n - 1] = 1e30
        x = AudioBuffer(spiked, rate)
        np.testing.assert_array_equal(to_rir(x).samples.view(np.int32),
                                      _to_rir_full(x).samples.view(np.int32),
                                      err_msg=f"{rate} Hz, spike at {n - 1}")

    def test_taps_are_cached_and_read_only(self):
        taps = audio._sinc_taps(1, 3)
        assert taps is audio._sinc_taps(1, 3)
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0] = 0.0


class TestConvolve:
    def test_hand_example(self):
        x = AudioBuffer(np.float32([1, 2]), 16000)
        h = AudioBuffer(np.float32([3, 4]), 16000)
        out = convolve(x, h)
        np.testing.assert_allclose(out.samples, [3, 10, 8], atol=1e-6)

    def test_unit_impulse_identity(self):
        rng = np.random.default_rng(1)
        x = AudioBuffer(rng.uniform(-1, 1, 500).astype(np.float32), 16000)
        h = AudioBuffer(np.float32([1.0]), 16000)
        out = convolve(x, h)
        np.testing.assert_allclose(out.samples, x.samples, atol=1e-7)

    def test_matches_direct_sum_oracle(self):
        self._check_direct_sum(1256)

    # result lengths n: 5-smooth (the FFT is n itself), a prime and a power
    # of two plus one (the FFT is longer than n)
    @pytest.mark.parametrize("n", [1000, 1009, 1025])
    def test_matches_direct_sum_oracle_at_non_power_of_two_lengths(self, n):
        self._check_direct_sum(n)

    @staticmethod
    def _check_direct_sum(n):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, n - 256)
        h = rng.uniform(-1, 1, 257)
        out = convolve(AudioBuffer(x.astype(np.float32), 16000),
                       AudioBuffer(h.astype(np.float32), 16000))
        direct = np.convolve(x.astype(np.float32).astype(np.float64),
                             h.astype(np.float32).astype(np.float64))
        peak = np.max(np.abs(direct))
        assert np.max(np.abs(out.samples - direct)) < 1e-6 * peak

    def test_fft_length_is_5_smooth_and_at_most_the_power_of_two(self, monkeypatch):
        lengths = []
        rfft = np.fft.rfft

        def spy(a, n=None, *args, **kwargs):
            lengths.append(n)
            return rfft(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, "rfft", spy)
        h = AudioBuffer(np.float32([1.0]), 16000)
        for n in [*range(1, 1100), 144383, 2**17 + 1, 262143]:
            lengths.clear()
            convolve(AudioBuffer(np.ones(n, dtype=np.float32), 16000), h)
            nfft = lengths[0]
            assert lengths == [nfft, nfft]
            assert n <= nfft <= 1 << (n - 1).bit_length(), n
            m = nfft
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            assert m == 1, nfft

    def test_fast_len_is_scipys_next_fast_len(self):
        lengths = [*range(1, 2**17 + 1), 2**31 - 1, 2**31 + 1]
        mine = [audio._fast_len(n) for n in lengths]
        scipys = [next_fast_len(n, real=True) for n in lengths]
        wrong = [(n, a, b) for n, a, b in zip(lengths, mine, scipys) if a != b]
        assert not wrong, wrong[:5]

    def test_result_past_float32_refused_silently(self, capfd):
        x = AudioBuffer(np.full(100, 3e38, dtype=np.float32), 16000)
        h = AudioBuffer(np.float32([1.0, 0.5]), 16000)
        with pytest.raises(ValueError, match=r"^the convolution overflows float32 "
                                             r"\(peak 4\.5e\+38\)$"):
            convolve(x, h)
        assert capfd.readouterr() == ("", "")

    def test_rate_mismatch(self):
        x = AudioBuffer(np.float32([1, 2]), 16000)
        h = AudioBuffer(np.float32([1]), 8000)
        with pytest.raises(ValueError):
            convolve(x, h)

    def test_accepts_rir(self):
        rng = np.random.default_rng(2)
        rir = Rir.from_samples(rng.uniform(-1, 1, RIR_LENGTH).astype(np.float32))
        x = AudioBuffer(np.float32([1.0, 0.5]), RIR_RATE)
        out = convolve(x, rir)
        assert len(out) == 2 + RIR_LENGTH - 1

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**16))
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, 200).astype(np.float32)
        y = rng.uniform(-1, 1, 200).astype(np.float32)
        h = AudioBuffer(rng.uniform(-1, 1, 37).astype(np.float32), 16000)
        mixed = a * x + b * y
        if np.max(np.abs(mixed)) == 0:
            return
        lhs = convolve(AudioBuffer(mixed.astype(np.float32), 16000), h).samples
        rhs = (a * convolve(AudioBuffer(x, 16000), h).samples
               + b * convolve(AudioBuffer(y, 16000), h).samples)
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-9)
        assert np.max(np.abs(lhs - rhs)) <= 1e-6 * scale

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), nx=st.integers(1, 300), nh=st.integers(1, 300))
    def test_commutativity(self, seed, nx, nh):
        rng = np.random.default_rng(seed)
        x = AudioBuffer(rng.uniform(-1, 1, nx).astype(np.float32), 16000)
        h = AudioBuffer(rng.uniform(-1, 1, nh).astype(np.float32), 16000)
        a = convolve(x, h).samples
        b = convolve(h, x).samples
        scale = max(np.max(np.abs(a)), 1e-9)
        assert np.max(np.abs(a - b)) <= 1e-6 * scale


class TestRirIsAudioBuffer:
    def test_from_samples_gives_an_audio_buffer(self):
        rir = Rir.from_samples(np.linspace(1.0, 0.1, RIR_LENGTH).astype(np.float32))
        assert isinstance(rir, AudioBuffer)
        assert rir.sample_rate == RIR_RATE and rir.as_buffer() is rir

    def test_rate_is_not_a_constructor_argument(self):
        s = np.zeros(RIR_LENGTH, dtype=np.float32)
        s[0] = 1.0
        with pytest.raises(TypeError):
            Rir(s, 8000)

    def test_saved_like_its_buffer(self, tmp_path):
        rir = Rir.from_samples(np.linspace(1.0, 0.1, RIR_LENGTH).astype(np.float32))
        save_wav(rir, tmp_path / "rir.wav")
        save_wav(rir.as_buffer(), tmp_path / "buffer.wav")
        assert (tmp_path / "rir.wav").read_bytes() == (tmp_path / "buffer.wav").read_bytes()

    @pytest.mark.parametrize("rate", [16000, 44100, 48000])
    def test_load_rir_is_to_rir_of_load_wav(self, tmp_path, rate):
        rng = np.random.default_rng(rate)
        p = tmp_path / "r.wav"
        save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, rate).astype(np.float32), rate), p)
        assert load_rir(p).samples.tobytes() == to_rir(load_wav(p)).samples.tobytes()

    def test_load_rir_names_the_file_once(self, tmp_path):
        p = tmp_path / "zero.wav"
        save_wav(AudioBuffer(np.zeros(64, dtype=np.float32), 16000), p)
        with pytest.raises(ValueError, match="cannot normalize") as err:
            load_rir(p)
        assert str(err.value).startswith(f"{p}: ") and str(err.value).count(str(p)) == 1


class TestInvariants:
    def test_rir_requires_exact_length(self):
        with pytest.raises(ValueError):
            Rir(np.ones(100, dtype=np.float32))

    def test_rir_requires_normalization(self):
        s = np.zeros(RIR_LENGTH, dtype=np.float32)
        s[0] = 0.5
        with pytest.raises(ValueError):
            Rir(s)
        assert Rir.from_samples(s).samples[0] == 1.0

    def test_buffer_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.float32([np.nan]), 16000)

    def test_buffer_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.float32([0.1]), 0)

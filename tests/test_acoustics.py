import numpy as np
import pytest

import rirkit.acoustics as acoustics
from rirkit.acoustics import (
    EstimationError,
    analyze,
    energy_decay_curve,
    estimate_cte,
    estimate_drr,
    estimate_edt,
    estimate_t60,
    write_params_csv,
)
from rirkit.audio import RIR_LENGTH, RIR_RATE, Rir
from rirkit.gan.nets import Generator, sample_latent

import _acoustics_reference as reference
from conftest import exp_decay, exp_decay_rir, noise_rir, signal_from_decay_curve


def closed_form_cte(t60: float) -> float:
    """Early/late energy ratio of a single-slope decay split at 50 ms."""
    q = 10.0 ** (-6.0 * 0.050 / t60)
    return 10.0 * np.log10((1.0 - q) / q)


class TestEnergyDecayCurve:
    def test_unit_impulse(self):
        s = np.zeros(RIR_LENGTH, dtype=np.float32)
        s[0] = 1.0
        edc = energy_decay_curve(Rir(s))
        assert edc.values[0] == 0.0
        assert np.all(edc.values[1:] == edc.values[1])  # floor clamp
        assert edc.values[1] < -100.0

    def test_exponential_matches_analytic_slope(self):
        edc = energy_decay_curve(exp_decay_rir(0.5))
        i = int(0.25 * RIR_RATE)
        assert abs(edc.values[i] - (-30.0)) < 0.5

    def test_trailing_zeros_leave_edc_unchanged(self):
        h = exp_decay(0.4, n=4000)
        base = energy_decay_curve(h).values
        padded = energy_decay_curve(np.concatenate([h, np.zeros(2000)])).values
        np.testing.assert_allclose(padded[:4000], base, atol=1e-9)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rir = noise_rir(float(rng.uniform(0.2, 1.0)), rng)
            v = energy_decay_curve(rir).values
            assert np.all(np.diff(v) <= 1e-12)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            energy_decay_curve(np.zeros(100))


class TestT60:
    @pytest.mark.parametrize("t60", [0.5, 1.0])
    def test_designed_decay(self, t60):
        est = estimate_t60(exp_decay_rir(t60))
        assert abs(est - t60) / t60 < 0.05

    def test_three_second_outlier_long_window(self):
        # a 3 s decay cannot span the -5..-25 dB fit range inside the
        # canonical 1.024 s window; a longer observation estimates it cleanly
        h = exp_decay(3.0, n=40000)
        est = estimate_t60(h)
        assert abs(est - 3.0) / 3.0 < 0.05

    def test_three_second_outlier_flagged_in_canonical_window(self):
        with pytest.raises(EstimationError):
            estimate_t60(exp_decay_rir(3.0))

    def test_delta_rejected(self):
        s = np.zeros(RIR_LENGTH, dtype=np.float32)
        s[0] = 1.0
        with pytest.raises(EstimationError):
            estimate_t60(Rir(s))


def _lstsq_slope(v, lo, hi):
    """The fit as np.linalg.lstsq solves it: slope in dB/s of the line through
    samples lo..hi."""
    t = np.arange(lo, hi + 1) / RIR_RATE
    a = np.vstack([t, np.ones_like(t)]).T
    return float(np.linalg.lstsq(a, v[lo : hi + 1], rcond=None)[0][0])


@pytest.mark.parametrize("t60", [0.2, 0.5, 1.0])
def test_decay_slope_matches_lstsq(t60):
    """The closed-form slope agrees with a least-squares solve over the T60
    and EDT spans and over short ones, to float64 rounding."""
    v = energy_decay_curve(noise_rir(t60, np.random.default_rng(int(t60 * 10)))).values
    i5, i25 = int(np.argmax(v <= -5.0)), int(np.argmax(v <= -25.0))
    spans = [(i5, i25), (0, int(np.argmax(v <= -10.0))), (i5, i5 + 1), (i5, i5 + 2),
             (100, 5000)]
    for lo, hi in spans:
        want = _lstsq_slope(v, lo, hi)
        got = acoustics._decay_slope(v, lo, hi, "t60")
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (lo, hi)


class TestEDT:
    @pytest.mark.parametrize("t60", [0.3, 0.5, 1.0])
    def test_equals_t60_for_single_slope(self, t60):
        rir = exp_decay_rir(t60)
        edt = estimate_edt(rir)
        t = estimate_t60(rir)
        assert abs(edt - t) / t < 0.05
        assert abs(edt - t60) / t60 < 0.05

    def test_two_stage_decay(self):
        # decay curve: 100 dB/s for the first 10 dB (0.1 s), then 20 dB/s
        t = np.arange(RIR_LENGTH) / RIR_RATE
        curve = np.where(t < 0.1, -100.0 * t, -10.0 - 20.0 * (t - 0.1))
        h = signal_from_decay_curve(curve)
        edt = estimate_edt(h)
        t60 = estimate_t60(h)
        assert abs(edt - 0.6) < 0.1
        assert t60 > 2.0 * edt

    def test_delta_rejected(self):
        s = np.zeros(RIR_LENGTH, dtype=np.float32)
        s[0] = 1.0
        with pytest.raises(EstimationError):
            estimate_edt(Rir(s))


class TestDRR:
    def test_unit_impulse_clamps_high(self):
        s = np.zeros(RIR_LENGTH, dtype=np.float32)
        s[0] = 1.0
        assert estimate_drr(Rir(s)) == 120.0

    def test_equal_energy_bursts(self):
        # direct burst inside +-2.5 ms of the peak; equal-energy late burst
        s = np.zeros(RIR_LENGTH)
        s[100] = 1.0
        s[110] = 0.5
        late = np.full(400, np.sqrt((1.0 + 0.25) / 400.0))
        s[4000:4400] = late
        drr = estimate_drr(s)
        assert abs(drr - 0.0) < 0.1

    def test_scale_invariant(self):
        rng = np.random.default_rng(9)
        h = noise_rir(0.5, rng).samples.astype(np.float64)
        assert abs(estimate_drr(h) - estimate_drr(0.5 * h)) < 1e-9


class TestCTE:
    def test_unit_impulse_clamps_high(self):
        s = np.zeros(RIR_LENGTH, dtype=np.float32)
        s[0] = 1.0
        assert estimate_cte(Rir(s)) == 120.0

    def test_four_to_one_blocks(self):
        # early energy 4x late energy -> 10*log10(4) ~ 6.02 dB
        s = np.zeros(RIR_LENGTH)
        s[0] = 1.0  # peak, onset anchor
        s[1:401] = np.sqrt(3.0 / 400.0)  # early extra: total early = 4
        s[2000:2400] = np.sqrt(1.0 / 400.0)  # late block (past 800-sample split)
        cte = estimate_cte(s)
        assert abs(cte - 10.0 * np.log10(4.0)) < 0.1

    def test_exponential_closed_form(self):
        cte = estimate_cte(exp_decay_rir(1.0))
        assert abs(cte - closed_form_cte(1.0)) < 0.2


class TestAnalyze:
    def test_exponential_bundle(self):
        p = analyze(exp_decay_rir(0.5))
        assert abs(p.t60 - 0.5) / 0.5 < 0.05
        assert abs(p.edt - 0.5) / 0.5 < 0.05
        assert abs(p.cte - closed_form_cte(0.5)) < 0.2

    def test_deterministic(self, toy_rirs):
        rir = toy_rirs[0]
        a, b = analyze(rir), analyze(rir)
        assert (a.t60, a.drr, a.edt, a.cte) == (b.t60, b.drr, b.edt, b.cte)

    def test_scale_invariance_through_canonicalization(self, toy_rirs):
        rir = toy_rirs[10]
        scaled = Rir.from_samples(rir.samples * np.float32(0.3))
        a, b = analyze(rir), analyze(scaled)
        for name in ("t60", "drr", "edt", "cte"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-6

    def test_scale_invariance_raw_arrays(self, toy_rirs):
        h = toy_rirs[3].samples.astype(np.float64)
        for c in (0.1, 2.0, 17.5):
            a, b = analyze(h), analyze(c * h)
            for name in ("t60", "drr", "edt", "cte"):
                assert abs(getattr(a, name) - getattr(b, name)) < 1e-6

    def test_time_shift_covariance(self, toy_rirs):
        h = toy_rirs[5].samples.astype(np.float64)
        base = analyze(h)
        for d in (40, 160, 800):
            shifted = np.concatenate([np.zeros(d), h])[: h.size]
            p = analyze(shifted)
            assert abs(p.t60 - base.t60) / base.t60 < 0.02
            assert abs(p.edt - base.edt) / base.edt < 0.02
            assert abs(p.drr - base.drr) < 0.1
            assert abs(p.cte - base.cte) < 0.1


def test_params_csv(tmp_path):
    p = analyze(exp_decay_rir(0.5))
    out = tmp_path / "params.csv"
    write_params_csv(out, [("rir_a", p), ("rir_b", p)])
    lines = out.read_text().splitlines()
    assert lines[0] == "id,t60_s,drr_db,edt_s,cte_db"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "rir_a"
    assert float(fields[1]) == pytest.approx(p.t60, abs=1e-6)
    assert all(len(f.split(".")[1]) == 6 for f in fields[1:])


def _squares_tie() -> np.ndarray:
    """Two peaks whose squares round to the same subnormal: the larger
    magnitude, at 5000, comes after the other."""
    b = 1.5e-160
    s = np.zeros(8000)
    s[10], s[5000] = b, np.nextafter(b, 1.0)
    s[5001:5400] = b / 2
    return s


def _reference_inputs():
    """Responses that reach every branch of the estimators: fits, the
    instantaneous and never-reached decay errors, both clamps of the energy
    ratios, peak ties, and the zero-energy and shape errors."""
    cases = {}
    for d in (0, 37, 800, 5000):
        h = np.concatenate([np.zeros(d), exp_decay(0.4)])[:RIR_LENGTH]
        cases[f"predelay{d}"] = Rir.from_samples(h.astype(np.float32))
        cases[f"predelay{d}_f64"] = h
    delta = np.zeros(RIR_LENGTH)
    delta[0] = 1.0
    cases["delta"] = Rir.from_samples(delta.astype(np.float32))
    cases["delta_late_f64"] = np.roll(delta, 9000)
    twin = exp_decay(0.3) * np.random.default_rng(1).standard_normal(RIR_LENGTH) * 0.1
    twin[[100, 3000]] = [1.0, -1.0]
    cases["two_equal_peaks"] = Rir.from_samples(twin.astype(np.float32))
    cases["two_equal_peaks_f64"] = twin
    huge = exp_decay(0.3).copy()
    huge[[10, 500]] = [1e200, -2e200]
    cases["overflow_f64"] = huge
    cases["squares_tie_f64"] = _squares_tie()
    gen = Generator(4, rng=np.random.default_rng(4))
    waves = gen.forward(sample_latent(np.random.default_rng(5), 6))
    for i, wave in enumerate(waves):
        cases[f"generator{i}"] = Rir.from_samples(wave)
        cases[f"generator{i}_f32"] = wave
    rng = np.random.default_rng(6)
    cases["noise_rir"] = noise_rir(0.6, rng)
    cases["noise_f32"] = noise_rir(0.9, rng).samples[:5000]
    cases["white_f64"] = rng.standard_normal(3000)
    cases["one_sample"] = np.ones(1)
    cases["zero_energy"] = np.zeros(64)
    cases["empty"] = np.zeros(0)
    cases["two_d"] = np.ones((2, 8))
    return cases


REFERENCE_INPUTS = _reference_inputs()
ESTIMATORS = ("estimate_t60", "estimate_drr", "estimate_edt", "estimate_cte")


def _outcome(fn, *args):
    """Bit view of fn's result, or its exception's type, parameter and
    message."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            out = fn(*args)
    except ValueError as exc:
        return type(exc), getattr(exc, "parameter", None), str(exc)
    if isinstance(out, acoustics.AcousticParams):
        out = (out.t60, out.drr, out.edt, out.cte)
    return np.array(out, dtype=np.float64).view(np.uint64).tolist()


class TestSinglePassMatchesReference:
    """analyze builds one DecayCurve and hands it to all four estimators; the
    results must be those of the per-estimator passes kept in
    _acoustics_reference, bit for bit and error for error."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
    def test_bit_equal(self, name):
        x = REFERENCE_INPUTS[name]
        assert _outcome(analyze, x) == _outcome(reference.analyze, x)
        ref_curve = _outcome(reference.energy_decay_curve, x)
        assert _outcome(lambda r: energy_decay_curve(r).values, x) == ref_curve
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                curve = energy_decay_curve(x)
        except ValueError:
            curve = None
        for est in ESTIMATORS:
            want = _outcome(getattr(reference, est), x)
            assert _outcome(getattr(acoustics, est), x) == want, est
            if curve is not None:
                assert _outcome(getattr(acoustics, est), curve) == want, est

    def test_peak_is_largest_magnitude(self):
        s = _squares_tie()
        assert np.argmax(s * s) == 10
        assert energy_decay_curve(s).peak == 5000

    def test_inputs_reach_every_outcome(self):
        """The cases above are only a check if they cover successes and each
        kind of failure."""
        seen = set()
        for x in REFERENCE_INPUTS.values():
            for est in ESTIMATORS:
                out = _outcome(getattr(reference, est), x)
                seen.add(out[2] if isinstance(out, tuple) else "ok")
        assert "ok" in seen
        assert {"zero-energy impulse response",
                "impulse response must be a non-empty 1-D vector",
                "decay from -5 to -25 dB is instantaneous",
                "no resolvable decay region above -10 dB"} <= seen
        assert any(isinstance(m, str) and m.startswith("decay curve never reaches")
                   for m in seen)

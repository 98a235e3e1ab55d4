import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirkit.audio import AudioBuffer, RIR_LENGTH, RIR_RATE, Rir, convolve, load_wav, save_wav
from rirkit.augment import (
    AugmentSpec,
    MixRecord,
    augment_corpus,
    compute_alpha,
    looped_noise,
    mix,
    read_clean_manifest,
    read_manifest,
    write_manifest,
)
from rirkit.corpus import PoolEntry, RirPool

from conftest import noise_rir


def buf(samples, rate=RIR_RATE):
    return AudioBuffer(np.asarray(samples, dtype=np.float32), rate)


def delta_rir():
    s = np.zeros(RIR_LENGTH, dtype=np.float32)
    s[0] = 1.0
    return Rir(s)


class TestLoopedNoise:
    def test_modular_indexing(self):
        out = looped_noise(buf([1, 2, 3]), k=1, length=5)
        np.testing.assert_array_equal(out.samples, [2, 3, 1, 2, 3])

    def test_identity(self):
        out = looped_noise(buf([1, 2, 3]), k=0, length=3)
        np.testing.assert_array_equal(out.samples, [1, 2, 3])

    def test_zero_length(self):
        with pytest.raises(ValueError, match="non-empty"):
            looped_noise(buf([1, 2, 3]), k=0, length=0)

    def test_negative_length(self):
        for k in (0, 2):  # a slice to k + length would count back from the end
            with pytest.raises(ValueError):
                looped_noise(buf([1, 2, 3]), k=k, length=-1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            looped_noise(buf([1, 2, 3]), k=3, length=1)
        with pytest.raises(ValueError):
            looped_noise(buf([1, 2, 3]), k=-1, length=1)

    def test_bit_equal_to_fancy_index_reference(self):
        rng = np.random.default_rng(3)
        n = 1000
        noise = rng.standard_normal(n).astype(np.float32)
        noise[[5, 6, 7]] = [-0.0, 1e-40, -np.finfo(np.float32).max]
        for k in (0, 1, n - 1):
            for length in (1, n - k, n - k + 1, n, 3 * n + 5):
                # looped_noise as it was: one gather through (k + arange) % n
                ref = noise[(k + np.arange(length)) % n]
                out = looped_noise(buf(noise), k, length).samples
                np.testing.assert_array_equal(out.view(np.int32), ref.view(np.int32),
                                              err_msg=f"k={k}, length={length}")

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(0, 9), length=st.integers(1, 40))
    def test_wraparound_property(self, k, length):
        noise = np.arange(10, dtype=np.float32) / 10.0 + 0.05
        out = looped_noise(buf(noise), k, length)
        for i in (0, length // 2, length - 1):
            assert out.samples[i] == noise[(k + i) % 10]


class TestComputeAlpha:
    def test_equal_power_unit_snr(self):
        a = buf([0.5, -0.5, 0.5, -0.5])
        b = buf([0.5, 0.5, -0.5, -0.5])
        assert compute_alpha(a, b, 1.0) == pytest.approx(1.0)

    def test_snr_100_gives_tenth(self):
        a = buf([0.5, -0.5])
        b = buf([0.5, 0.5])
        assert compute_alpha(a, b, 100.0) == pytest.approx(0.1)

    def test_measured_snr_matches_request(self):
        rng = np.random.default_rng(0)
        sig = buf(rng.uniform(-0.8, 0.8, 4000).astype(np.float32))
        noi = buf(rng.uniform(-0.3, 0.3, 4000).astype(np.float32))
        for snr in (10.0, 31.6, 100.0):
            alpha = compute_alpha(sig, noi, snr)
            p_s = np.mean(sig.samples.astype(np.float64) ** 2)
            p_n = np.mean((alpha * noi.samples.astype(np.float64)) ** 2)
            measured_db = 10 * np.log10(p_s / p_n)
            assert abs(measured_db - 10 * np.log10(snr)) < 0.01

    def test_zero_power_noise_rejected(self):
        with pytest.raises(ValueError):
            compute_alpha(buf([0.5]), buf([0.0]), 10.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_alpha(buf([0.5, 0.5]), buf([0.5]), 10.0)


class TestMix:
    def test_identity_when_delta_and_no_noise(self):
        rng = np.random.default_rng(1)
        clean = buf(rng.uniform(-0.5, 0.5, 2000).astype(np.float32))
        noise = buf(rng.uniform(-0.2, 0.2, 500).astype(np.float32))
        out, rec = mix(clean, delta_rir(), noise, snr=50.0, k=0, alpha_override=0.0)
        np.testing.assert_array_equal(out.samples, clean.samples)
        assert rec.alpha == 0.0 and rec.rescale == 1.0

    def test_alpha_zero_equals_truncated_convolution(self, toy_rirs):
        rng = np.random.default_rng(2)
        # quiet input so the reverberant peak stays below 1 (no rescale)
        clean = buf(rng.uniform(-0.01, 0.01, 3000).astype(np.float32))
        noise = buf(rng.uniform(-0.2, 0.2, 500).astype(np.float32))
        rir = toy_rirs[0]
        out, rec = mix(clean, rir, noise, snr=50.0, k=10, alpha_override=0.0)
        assert rec.rescale == 1.0
        expected = convolve(clean, rir).samples[:3000]
        np.testing.assert_allclose(out.samples, expected, atol=2e-7)

    def test_output_length_preserved(self, toy_rirs):
        rng = np.random.default_rng(3)
        clean = buf(rng.uniform(-0.5, 0.5, 5000).astype(np.float32))
        noise = buf(rng.uniform(-0.2, 0.2, 700).astype(np.float32))
        out, _ = mix(clean, toy_rirs[1], noise, snr=20.0, k=3)
        assert len(out) == 5000

    def test_post_hoc_snr_within_tolerance(self, toy_rirs):
        rng = np.random.default_rng(4)
        clean = buf(rng.uniform(-0.5, 0.5, 4000).astype(np.float32))
        noise = buf(rng.uniform(-0.2, 0.2, 900).astype(np.float32))
        snr, k = 42.0, 123
        out, rec = mix(clean, toy_rirs[2], noise, snr=snr, k=k)
        # recompute both components independently from the record
        rev = convolve(clean, toy_rirs[2]).samples[:4000].astype(np.float64)
        seg = looped_noise(noise, rec.k, 4000).samples.astype(np.float64)
        measured = 10 * np.log10(np.mean(rev**2) / np.mean((rec.alpha * seg) ** 2))
        assert abs(measured - 10 * np.log10(snr)) < 0.05

    def test_mix_that_overflows_is_refused_naming_the_snr(self, capfd):
        clean = buf(np.full(100, 0.5, dtype=np.float32))
        noise = buf(np.full(100, 4.0, dtype=np.float32))
        with pytest.raises(ValueError, match=r"^snr 2\.0 .* the mix overflow$"):
            mix(clean, delta_rir(), noise, snr=2.0, k=0, alpha_override=1e308)
        assert capfd.readouterr() == ("", "")

    def test_clipping_rescale_recorded(self):
        clean = buf(np.full(1000, 0.9, dtype=np.float32))
        noise = buf(np.full(100, 0.9, dtype=np.float32))
        out, rec = mix(clean, delta_rir(), noise, snr=1.0, k=0)
        assert rec.rescale < 1.0
        assert np.max(np.abs(out.samples)) <= 1.0 + 1e-6


def make_corpus(tmp_path, n_utts=4, n_rirs=2, n_noise=2, rate=16000):
    rng = np.random.default_rng(99)
    clean_rows = []
    for i in range(n_utts):
        path = tmp_path / f"clean_{i}.wav"
        dur = 2000 + 400 * i
        save_wav(buf(rng.uniform(-0.5, 0.5, dur).astype(np.float32), rate), path)
        clean_rows.append((f"utt{i:02d}", str(path)))
    rir_entries = []
    for i in range(n_rirs):
        path = tmp_path / f"rir_{i}.wav"
        save_wav(noise_rir(0.3 + 0.1 * i, rng).as_buffer(), path)
        rir_entries.append(PoolEntry(f"rir{i}", "GAN.C", str(path)))
    noise_entries = []
    for i in range(n_noise):
        path = tmp_path / f"noise_{i}.wav"
        save_wav(buf(rng.uniform(-0.3, 0.3, 3000).astype(np.float32), rate), path)
        noise_entries.append(PoolEntry(f"noise{i}", "OTHER", str(path)))
    return clean_rows, RirPool(tuple(rir_entries)), RirPool(tuple(noise_entries))


class TestAugmentCorpus:
    def test_end_to_end(self, tmp_path):
        clean, rirs, noises = make_corpus(tmp_path)
        spec = AugmentSpec(rng_seed=5)
        records, failures = augment_corpus(clean, rirs, noises, spec,
                                           tmp_path / "out")
        assert failures == []
        assert len(records) == len(clean)  # 1:1 mapping
        manifest = read_manifest(tmp_path / "out" / "manifest.jsonl")
        assert [r.utt_id for r in manifest] == sorted(r.utt_id for r in records)
        for rec in records:
            assert 10.0 <= rec.snr <= 100.0
            assert 0 <= rec.k < 3000
            out = load_wav(rec.out_path)
            clean_len = len(load_wav(rec.clean_path))
            assert len(out) == clean_len  # duration preserved

    def test_deterministic_across_runs_and_threads(self, tmp_path):
        clean, rirs, noises = make_corpus(tmp_path)
        spec = AugmentSpec(rng_seed=42)
        rec1, _ = augment_corpus(clean, rirs, noises, spec, tmp_path / "a", threads=1)
        rec2, _ = augment_corpus(clean, rirs, noises, spec, tmp_path / "b", threads=3)
        assert [(r.utt_id, r.rir_id, r.noise_id, r.snr, r.k, r.alpha) for r in rec1] \
            == [(r.utt_id, r.rir_id, r.noise_id, r.snr, r.k, r.alpha) for r in rec2]
        for a, b in zip(rec1, rec2):
            np.testing.assert_array_equal(load_wav(a.out_path).samples,
                                          load_wav(b.out_path).samples)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_refused(self, tmp_path, threads):
        clean, rirs, noises = make_corpus(tmp_path)
        with pytest.raises(ValueError):
            augment_corpus(clean, rirs, noises, AugmentSpec(), tmp_path / "out", threads=threads)

    def test_order_independent(self, tmp_path):
        clean, rirs, noises = make_corpus(tmp_path)
        spec = AugmentSpec(rng_seed=42)
        rec1, _ = augment_corpus(clean, rirs, noises, spec, tmp_path / "c")
        rec2, _ = augment_corpus(list(reversed(clean)), rirs, noises, spec,
                                 tmp_path / "d")
        assert [(r.utt_id, r.snr, r.k) for r in rec1] == \
               [(r.utt_id, r.snr, r.k) for r in rec2]

    def test_alpha_reconstruction_from_record(self, tmp_path):
        clean, rirs, noises = make_corpus(tmp_path)
        spec = AugmentSpec(rng_seed=17)
        records, _ = augment_corpus(clean, rirs, noises, spec, tmp_path / "e")
        from rirkit.audio import to_rir
        rir_by_id = {e.id: to_rir(load_wav(e.path)) for e in rirs.entries}
        noise_by_id = {e.id: load_wav(e.path) for e in noises.entries}
        for rec in records:
            c = load_wav(rec.clean_path)
            rev = convolve(c, rir_by_id[rec.rir_id])
            rev = AudioBuffer(rev.samples[: len(c)], c.sample_rate)
            seg = looped_noise(noise_by_id[rec.noise_id], rec.k, len(c))
            alpha = compute_alpha(rev, seg, rec.snr)
            assert abs(alpha - rec.alpha) / rec.alpha < 1e-6

    def test_failures_logged_not_fatal(self, tmp_path):
        clean, rirs, noises = make_corpus(tmp_path)
        clean.append(("uttXX", str(tmp_path / "missing.wav")))
        records, failures = augment_corpus(clean, rirs, noises,
                                           AugmentSpec(rng_seed=1),
                                           tmp_path / "f")
        assert len(records) == len(clean) - 1
        assert len(failures) == 1 and failures[0][0] == "uttXX"

    def test_clean_wav_the_resampler_refuses_names_the_file_once(self, tmp_path):
        clean, rirs, noises = make_corpus(tmp_path, n_utts=1)
        path = tmp_path / "huge_rate.wav"
        save_wav(buf(np.full(100, 0.1), 65537), path)
        records, failures = augment_corpus([*clean, ("uttXX", str(path))], rirs, noises,
                                           AugmentSpec(rng_seed=1), tmp_path / "out")
        assert [r.utt_id for r in records] == [clean[0][0]]
        [(utt_id, message)] = failures
        assert utt_id == "uttXX" and message.startswith(f"{path}: ")
        assert message.count(str(path)) == 1

    def test_unsafe_or_repeated_ids_fail_without_writing(self, tmp_path):
        clean, rirs, noises = make_corpus(tmp_path, n_utts=2)
        path = clean[0][1]
        bad = ["", ".", "..", "../escaped", "sub/name", "dup", "dup"]
        rows = [(utt_id, path) for utt_id in bad] + [clean[1]]
        out = tmp_path / "deep" / "out"
        records, failures = augment_corpus(rows, rirs, noises,
                                           AugmentSpec(rng_seed=1), out)
        assert [r.utt_id for r in records] == [clean[1][0]]
        assert sorted(u for u, _ in failures) == sorted(bad)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.jsonl",
                                                         f"{clean[1][0]}.wav"]
        assert not (tmp_path / "deep" / "escaped.wav").exists()
        assert len(read_manifest(out / "manifest.jsonl")) == 1

    def test_pool_id_naming_two_files_refused_before_any_work(self, tmp_path):
        # the RIR and noise caches are keyed by id: were one id to name two
        # files, whichever loaded first would serve both, and the output would
        # depend on the order of the clean manifest
        clean, rirs, noises = make_corpus(tmp_path)
        for kind, pool in (("rir", rirs), ("noise", noises)):
            a, b = (e.path for e in pool.entries)
            clash = RirPool((PoolEntry("x", "S", a), PoolEntry("x", "S", b)))
            pools = (clash, noises) if kind == "rir" else (rirs, clash)
            with pytest.raises(ValueError, match=f"^{kind} pool id 'x' names two files") as exc:
                augment_corpus(clean, *pools, AugmentSpec(), tmp_path / "out")
            assert a in str(exc.value) and b in str(exc.value)
        assert not (tmp_path / "out").exists()
        twice = RirPool((rirs.entries[0], rirs.entries[0]))  # one file: allowed
        records, failures = augment_corpus(clean, twice, noises, AugmentSpec(),
                                           tmp_path / "ok")
        assert failures == [] and len(records) == len(clean)

    @pytest.mark.parametrize("snr_range, snr_in_db, linear", [
        ((5e-324, 5e-324), False, "5e-324"),  # snr * P_noise underflows to 0
        ((1e-310, 1e-310), False, "1e-310"),  # alpha overflows
        ((2.3e-308, 2.3e-308), False, "2.3e-308"),
        ((-3100.0, -3100.0), True, "1e-310"),
    ])
    def test_snr_whose_noise_weight_overflows_fails_naming_it(self, tmp_path, capfd,
                                                              snr_range, snr_in_db, linear):
        clean, rirs, noises = make_corpus(tmp_path, n_utts=2)
        spec = AugmentSpec(snr_range=snr_range, rng_seed=1, snr_in_db=snr_in_db)
        records, failures = augment_corpus(clean, rirs, noises, spec, tmp_path / "out")
        message = f"snr {linear} (a linear power ratio) makes the noise weight or the mix overflow"
        assert records == [] and failures == [(u, message) for u, _ in clean]
        assert capfd.readouterr() == ("", "")

    def test_snr_db_interpretation(self, tmp_path):
        clean, rirs, noises = make_corpus(tmp_path, n_utts=1)
        spec = AugmentSpec(snr_range=(20.0, 20.0), rng_seed=3, snr_in_db=True)
        records, _ = augment_corpus(clean, rirs, noises, spec, tmp_path / "g")
        rec = records[0]
        assert rec.snr == pytest.approx(20.0)
        # stored alpha corresponds to the linear ratio 10^(20/10) = 100
        c = load_wav(rec.clean_path)
        from rirkit.audio import to_rir
        rev = convolve(c, to_rir(load_wav(dict((e.id, e.path) for e in rirs.entries)[rec.rir_id])))
        rev = AudioBuffer(rev.samples[: len(c)], c.sample_rate)
        seg = looped_noise(load_wav(dict((e.id, e.path) for e in noises.entries)[rec.noise_id]),
                           rec.k, len(c))
        assert abs(compute_alpha(rev, seg, 100.0) - rec.alpha) / rec.alpha < 1e-6


class TestManifests:
    def test_clean_manifest_round_trip(self, tmp_path):
        p = tmp_path / "clean.csv"
        p.write_text("utt_id,path\n# a comment\nu1,/x/a.wav\nu2,/x/b.wav\n")
        rows = read_clean_manifest(p)
        assert rows == [("u1", "/x/a.wav"), ("u2", "/x/b.wav")]

    def test_clean_manifest_header_skipped_only_as_the_first_row(self, tmp_path):
        p = tmp_path / "clean.csv"
        p.write_text("# a comment\nutt_id,path\nutt_id,path\na,b.wav\n")
        assert read_clean_manifest(p) == [("utt_id", "path"), ("a", "b.wav")]

    def test_clean_manifest_bad_line_names_the_line(self, tmp_path):
        p = tmp_path / "clean.csv"
        p.write_text("utt_id,path\n# a comment\nu1,/x/a.wav\nu2\n")
        with pytest.raises(ValueError, match=r"clean\.csv: line 4: bad manifest line 'u2'"):
            read_clean_manifest(p)

    def test_mix_record_json_round_trip(self, tmp_path):
        rec = MixRecord("u1", "/a.wav", "r1", "n1", 42.0, 17, 0.25, 1.0, "/o.wav")
        write_manifest([rec], tmp_path / "manifest.jsonl")
        assert read_manifest(tmp_path / "manifest.jsonl") == [rec]
        keys = set(json.loads((tmp_path / "manifest.jsonl").read_text()))
        assert keys == {"utt_id", "clean_path", "rir_id", "noise_id", "snr",
                        "k", "alpha", "rescale", "out_path"}


def test_spec_validation():
    with pytest.raises(ValueError):
        AugmentSpec(snr_range=(0.0, 10.0))
    with pytest.raises(ValueError):
        AugmentSpec(snr_range=(5.0, 1.0))
    with pytest.raises(ValueError, match=r"^snr_range .*lo <= hi"):
        AugmentSpec(snr_range=(5.0, 1.0), snr_in_db=True)
    with pytest.raises(TypeError):  # every utterance is mixed at RIR_RATE
        AugmentSpec(sample_rate=8000)


@pytest.mark.parametrize("field, kwargs", [
    ("snr_in_db", {"snr_in_db": "no"}),  # a truthy string read every SNR as dB
    ("rng_seed", {"rng_seed": 1.5}),
])
def test_spec_rejects_mistyped_fields(field, kwargs):
    with pytest.raises(TypeError, match=rf"^{field} must be"):
        AugmentSpec(**kwargs)


@pytest.mark.parametrize("snr_range, snr_in_db", [
    ((1.0, float("inf")), False), ((float("nan"), float("nan")), True),
    ((-float("inf"), 3.0), True),
])
def test_spec_rejects_non_finite_snr_range(snr_range, snr_in_db):
    with pytest.raises(ValueError, match="^snr_range must be finite"):
        AugmentSpec(snr_range=snr_range, snr_in_db=snr_in_db)


@pytest.mark.parametrize("snr_range", [
    (4000.0, 5000.0),  # 10 ** 400 overflows: every utterance failed with OverflowError
    (10.0, 3090.0),
    (-4000.0, 10.0),  # 10 ** -400 underflows to 0: every utterance failed
    (np.float32(10.0), np.float32(3090.0)),  # float32 would give inf, not an error
])
def test_spec_rejects_db_range_beyond_float_range(snr_range):
    with pytest.raises(ValueError, match="^snr_range in dB"):
        AugmentSpec(snr_range=snr_range, snr_in_db=True)
    lo, hi = snr_range
    if lo > 0:  # read as linear ratios the same range is fine
        AugmentSpec(snr_range=snr_range)
    AugmentSpec(snr_range=(-3000.0, 3000.0), snr_in_db=True)


def test_spec_stores_snr_range_as_tuple_and_accepts_numpy_scalars():
    assert AugmentSpec(snr_range=[1.0, 2.0]).snr_range == (1.0, 2.0)
    assert type(AugmentSpec(snr_range=[1.0, 2.0]).snr_range) is tuple
    spec = AugmentSpec(snr_range=(np.float32(1.0), np.int64(2)), rng_seed=np.uint32(3),
                       snr_in_db=np.bool_(True))
    assert spec.rng_seed == 3 and spec.snr_in_db


@pytest.mark.parametrize("field, value", [("snr", "x"), ("k", 2.5), ("utt_id", 1)])
def test_mix_record_from_json_rejects_mistyped_fields(tmp_path, field, value):
    doc = asdict(MixRecord("u1", "/a.wav", "r1", "n1", 42.0, 17, 0.25, 1.0, "/o.wav"))
    doc[field] = value
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(TypeError, match=rf"^{re.escape(str(path))}: line 1: {field} must be"):
        read_manifest(path)


_RECORD = MixRecord("u1", "/a.wav", "r1", "n1", 42.0, 17, 0.25, 1.0, "/o.wav")


@pytest.mark.parametrize("bad, error", [
    ("{not json", ValueError),
    ("[1, 2]", TypeError),
    ('"u1"', TypeError),
    (json.dumps({"utt_id": "u1"}), TypeError),
    (json.dumps(asdict(_RECORD))[:-1] + ', "extra": 1}', TypeError),
    (json.dumps(asdict(_RECORD)).replace('"k": 17', '"k": "17"'), TypeError),
    ("[" * 100000, ValueError),
    (b'{"utt_id": "u\xff"}', ValueError),
], ids=["not json", "list", "string", "missing keys", "unknown key", "mistyped key",
        "nested too deeply", "not utf-8"])
def test_read_manifest_names_file_and_line(tmp_path, bad, error):
    path = tmp_path / "manifest.jsonl"
    bad = bad if isinstance(bad, bytes) else bad.encode()
    path.write_bytes(f"{json.dumps(asdict(_RECORD))}\n\n".encode() + bad + b"\n")
    with pytest.raises(error) as exc:
        read_manifest(path)
    assert type(exc.value) is error
    assert str(exc.value).startswith(f"{path}: line 3: ")


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("manifest") / "manifest.jsonl"


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzz_read_manifest(manifest_path, data):
    """A valid manifest with a dropped, added or retyped key and up to two
    characters replaced, inserted or deleted either parses or raises
    TypeError or ValueError naming the file and one of its lines. A line
    nested too deeply, or a byte that is not UTF-8, is always refused: the
    byte with a ValueError naming its own line."""
    docs = [asdict(replace(_RECORD, utt_id=f"u{i}", k=i)) for i in range(3)]
    doc = data.draw(st.sampled_from(docs))
    key = data.draw(st.sampled_from(sorted(doc)))
    edit = data.draw(st.sampled_from(["none", "drop", "add", "retype"]))
    if edit == "drop":
        del doc[key]
    elif edit == "add":
        doc[key + "_"] = 1
    elif edit == "retype":
        doc[key] = data.draw(st.none() | st.booleans() | st.integers() | st.floats()
                             | st.text(max_size=3) | st.lists(st.integers(), max_size=2))
    text = "\n".join(json.dumps(d) for d in docs)
    for _ in range(data.draw(st.integers(0, 2))):
        pos = data.draw(st.integers(0, len(text)))
        char = data.draw(st.sampled_from(list('{}[]",:\n\r 0e\\') + [""])
                         | st.characters(codec="utf-8"))
        text = text[:pos] + char + text[pos + data.draw(st.integers(0, 1)):]
    corrupt = data.draw(st.sampled_from(["none", "nested", "not utf-8"]))
    if corrupt == "nested":
        lines = text.splitlines()
        bad_line = data.draw(st.integers(1, len(lines) + 1))
        lines.insert(bad_line - 1, "[" * 100000 + "]" * 100000)
        text = "\n".join(lines)
    raw = text.encode()
    if corrupt == "not utf-8":  # bytes that no UTF-8 sequence holds
        pos = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xff", b"\xc0", b"\xf5\x80"]))
        raw = raw[:pos] + bad + raw[pos:]
        bad_line = raw.count(b"\n", 0, pos) + 1
    manifest_path.write_bytes(raw)
    try:
        records = read_manifest(manifest_path)
    except (TypeError, ValueError) as exc:
        where = re.match(rf"{re.escape(str(manifest_path))}: line (\d+): ", str(exc))
        assert where
        if corrupt == "not utf-8":
            assert type(exc) is ValueError and int(where[1]) == bad_line
        else:
            assert 1 <= int(where[1]) <= len(text.splitlines())
            assert corrupt == "none" or int(where[1]) <= bad_line
    else:
        assert corrupt == "none"
        assert all(isinstance(r, MixRecord) for r in records)

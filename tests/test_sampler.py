import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirkit.acoustics import AcousticParams, EstimationError, analyze
from rirkit.audio import Rir
from rirkit.gan.nets import sample_latent
from rirkit.gan.training import TrainConfig, train
from rirkit.sampler import (
    PARAM_NAMES,
    GenerationReport,
    GenerationStalledError,
    Histogram,
    SamplerConfig,
    accept,
    build_histograms,
    generate_constrained,
    load_histograms,
    save_histograms,
)

from conftest import exp_decay_rir


def params(t60=0.5, drr=-5.0, edt=0.5, cte=3.0):
    return AcousticParams(t60=t60, drr=drr, edt=edt, cte=cte)


def uniform_hists(n=30, lo=0.2, hi=1.5, count=10):
    """Histograms whose four parameters all span [lo, hi] with every bin occupied."""
    rows = [params(t60=v, drr=v, edt=v, cte=v)
            for v in np.linspace(lo, hi, count * n)]
    return build_histograms(rows, SamplerConfig(bins_per_param=n))


class TestBuildHistograms:
    def test_two_bin_example(self):
        rows = [params(t60=v) for v in (0.2, 0.5, 1.5)]
        h = build_histograms(rows, SamplerConfig(bins_per_param=2)).t60
        np.testing.assert_allclose(h.edges, [0.2, 0.85, 1.5])
        np.testing.assert_array_equal(h.counts, [2, 1])

    def test_single_rir_degenerate_support(self):
        h = build_histograms([params()], SamplerConfig())
        assert h.total_count == 1
        assert h.t60.in_support(0.5)
        assert int(h.t60.counts.sum()) == 1

    def test_total_count_per_parameter(self):
        rng = np.random.default_rng(0)
        rows = [params(t60=rng.uniform(0.2, 1.5), drr=rng.uniform(-10, 5),
                       edt=rng.uniform(0.2, 1.5), cte=rng.uniform(-5, 15))
                for _ in range(967)]
        h = build_histograms(rows, SamplerConfig())
        assert h.total_count == 967
        for name in ("t60", "drr", "edt", "cte"):
            assert int(h[name].counts.sum()) == 967
        with pytest.raises(KeyError):
            h["bogus"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histograms([], SamplerConfig())

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        rows = [params(t60=rng.uniform(0.2, 1.5)) for _ in range(50)]
        a = build_histograms(rows, SamplerConfig())
        b = build_histograms(rows[::-1], SamplerConfig())
        np.testing.assert_array_equal(a.t60.counts, b.t60.counts)
        np.testing.assert_array_equal(a.t60.edges, b.t60.edges)


class TestAccept:
    def test_out_of_support_rejected_with_reason(self):
        hists = uniform_hists()
        decision = accept(params(t60=3.0, drr=0.5, edt=0.5, cte=0.5), hists,
                          relax_prob=0.0, rng=np.random.default_rng(0))
        assert not decision
        assert decision.violations == ("t60",)

    def test_training_values_accepted(self):
        hists = uniform_hists()
        decision = accept(params(t60=0.5, drr=0.5, edt=0.5, cte=0.5), hists,
                          relax_prob=0.0, rng=np.random.default_rng(0))
        assert decision
        assert decision.violations == ()

    def test_relaxation_boundary(self):
        hists = uniform_hists()
        width = hists.t60.bin_width
        near = params(t60=1.5 + 0.4 * width, drr=0.5, edt=0.5, cte=0.5)
        assert accept(near, hists, 1.0, np.random.default_rng(0))
        assert not accept(near, hists, 0.0, np.random.default_rng(0))

    def test_beyond_adjacency_hard_rejected(self):
        hists = uniform_hists()
        far = params(t60=1.5 + 2.5 * hists.t60.bin_width, drr=0.5, edt=0.5, cte=0.5)
        assert not accept(far, hists, 1.0, np.random.default_rng(0))

    @settings(max_examples=40, deadline=None)
    @given(eps1=st.floats(0, 1), eps2=st.floats(0, 1), seed=st.integers(0, 2**16),
           offset=st.floats(0.05, 0.95))
    def test_monotone_in_relaxation_probability(self, eps1, eps2, seed, offset):
        if eps1 > eps2:
            eps1, eps2 = eps2, eps1
        hists = uniform_hists()
        near = params(t60=1.5 + offset * hists.t60.bin_width,
                      drr=0.5, edt=0.5, cte=0.5)
        low = accept(near, hists, eps1, np.random.default_rng(seed))
        high = accept(near, hists, eps2, np.random.default_rng(seed))
        if low.accepted:
            assert high.accepted

    def test_interior_empty_bin_is_relaxable(self):
        rows = [params(t60=v) for v in (0.2, 0.3, 1.4, 1.5)]
        hists = build_histograms(rows, SamplerConfig(bins_per_param=13))
        mid = params(t60=0.35)  # lands next to an occupied bin
        d = hists.t60.distance_to_support(0.35)
        assert 0 < d <= hists.t60.bin_width
        assert accept(mid, hists, 1.0, np.random.default_rng(0))
        assert not accept(mid, hists, 0.0, np.random.default_rng(0))


class TestHistogramPrimitives:
    def test_right_edge_belongs_to_last_bin(self):
        h = Histogram(np.array([0.0, 1.0, 2.0]), np.array([1, 1]))
        assert h.bin_index(2.0) == 1
        assert h.bin_index(2.0001) is None
        assert h.bin_index(-0.1) is None
        assert h.bin_index(0.5) == 0

    def test_nan_is_out_of_range(self):
        """A NaN lies in no bin and at no finite distance from one, so accept
        neither passes it nor treats it as relaxable."""
        h = Histogram(np.array([0.0, 1.0, 2.0]), np.array([1, 1]))
        for nan in (float("nan"), np.float32("nan"), -np.float64("nan")):
            assert h.bin_index(nan) is None
            assert not h.in_support(nan)
            assert h.distance_to_support(nan) == np.inf

    def test_io_round_trip(self, tmp_path):
        hists = uniform_hists()
        p = tmp_path / "h.json"
        save_histograms(hists, p)
        back = load_histograms(p)
        assert back.total_count == hists.total_count
        for name in ("t60", "drr", "edt", "cte"):
            np.testing.assert_allclose(back[name].edges, hists[name].edges)
            np.testing.assert_array_equal(back[name].counts, hists[name].counts)

    @pytest.mark.parametrize("drop, missing", [
        (("params",), "params"),
        (("params", "drr"), "params.drr"),
        (("params", "edt", "edges"), "params.edt.edges"),
        (("params", "cte", "counts"), "params.cte.counts"),
        (("total_count",), "total_count"),
    ])
    def test_load_names_path_and_missing_key(self, tmp_path, drop, missing):
        p = tmp_path / "h.json"
        save_histograms(uniform_hists(), p)
        doc = json.loads(p.read_text())
        parent = doc
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load_histograms(p)
        assert str(p) in str(err.value) and missing in str(err.value)

    @pytest.mark.parametrize("key, index, value, field", [
        ("edges", 1, float("nan"), "params.drr: bin edges must be finite"),
        ("edges", 0, float("-inf"), "params.drr: bin edges must be finite"),
        ("edges", 0, "0", "params.drr.edges"),
        ("edges", 0, True, "params.drr.edges"),
        ("edges", 0, 10**400, "params.drr: bin edges must be numbers"),
        ("counts", 0, 1.2, "params.drr.counts"),
        ("counts", 0, 2.0, "params.drr.counts"),
        ("counts", 0, 1e30, "params.drr.counts"),
        ("counts", 0, 10**30, "params.drr: counts must be int64 integers"),
        ("counts", 0, 2**63, "params.drr: counts must be int64 integers"),
        ("counts", 0, False, "params.drr.counts"),
        ("counts", 0, [1], "params.drr.counts"),
        ("counts", 0, -1, "params.drr: counts must be non-negative"),
        ("total_count", None, 300.0, "total_count"),
        ("total_count", None, 1.9, "total_count"),
        ("total_count", None, True, "total_count"),
        ("edges", 1, 0.25, "params.drr: bin edges must be equal-width"),
        # the first and last edge: a span past the float range
        ("edges", slice(None, None, 30), [-1.7e308, 1.7e308],
         "params.drr: bin edges must span a finite range"),
    ])
    def test_load_refuses_malformed_values(self, tmp_path, key, index, value, field):
        p = tmp_path / "h.json"
        save_histograms(uniform_hists(), p)
        doc = json.loads(p.read_text())
        if index is None:
            doc[key] = value
        else:
            doc["params"]["drr"][key][index] = value
        p.write_text(json.dumps(doc))  # NaN and Infinity as JSON literals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                load_histograms(p)
        assert str(err.value).startswith(f"{p}: {field}")

    def test_load_refuses_counts_whose_int64_sum_wraps(self, tmp_path):
        p = tmp_path / "h.json"
        hists = uniform_hists(n=3, count=1)
        save_histograms(hists, p)
        doc = json.loads(p.read_text())
        doc["params"]["cte"]["counts"] = [2**63 - 1, 2**63 - 1, 5]  # wraps to 3
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="cte counts sum to"):
            load_histograms(p)

    @pytest.mark.parametrize("edges, counts", [
        ([0.0, np.nan, 1.0], [1, 1]),
        ([0.0, np.inf], [1]),
        (["0", "1"], [1]),
        ([0.0, 1.0], [1.2]),
        ([0.0, 1.0], [1e30]),
        ([0.0, 1.0], [True]),
        ([0.0], np.array([], dtype=np.int64)),
        ([0.0, 1.0, 3.0], [1, 1]),
        ([0.0, 1.0, 2.0 + 1e-6], [1, 1]),
        ([-1.7e308, 1e308, 1.7e308], [1, 1]),  # widths inf and 7e307
    ])
    def test_histogram_refuses_malformed_values(self, edges, counts):
        with pytest.raises(ValueError):
            Histogram(np.array(edges), np.array(counts))

    def test_build_histograms_keeps_numpy_histogram(self):
        values = np.random.default_rng(3).uniform(0.2, 1.5, 50)
        h = build_histograms([params(t60=v) for v in values],
                             SamplerConfig(bins_per_param=7)).t60
        counts, edges = np.histogram(values, np.linspace(values.min(), values.max(), 8))
        assert h.edges.dtype == np.float64 and h.counts.dtype == np.int64
        np.testing.assert_array_equal(h.edges, edges)
        np.testing.assert_array_equal(h.counts, counts)

    @pytest.mark.parametrize("doc", ["[]", '{"params": 3}', '{"params": {"t60": []}}'])
    def test_load_rejects_wrong_shapes(self, tmp_path, doc):
        p = tmp_path / "h.json"
        p.write_text(doc)
        with pytest.raises(ValueError, match="h.json"):
            load_histograms(p)


class _StubGenerator:
    """Deterministic z -> waveform map emitting exponential decays whose rate
    depends on the latent vector; lets sampler tests run without training.
    Maps an (n, 100) batch to an (n, 16384) batch, each row on its own."""

    def __init__(self, t60_range=(0.25, 0.75)):
        self.t60_range = t60_range

    def forward(self, z):
        return np.stack([self._row(row) for row in z])

    def _row(self, z):
        lo, hi = self.t60_range
        u = (float(np.tanh(z.sum() / 10.0)) + 1.0) / 2.0
        t60 = lo + (hi - lo) * u
        k = np.arange(16384)
        h = 10.0 ** (-3.0 * k / (16000.0 * t60))
        rng = np.random.default_rng(int(abs(z[0]) * 1e6) + 1)
        h = h * (1.0 + 0.05 * rng.standard_normal(16384))
        h[0] = 1.0
        return h.astype(np.float32)


class _StubModel:
    def __init__(self, **kw):
        self.generator = _StubGenerator(**kw)


@pytest.fixture(scope="module")
def stub_hists():
    rng = np.random.default_rng(7)
    model = _StubModel()
    rows = []
    for _ in range(200):
        z = rng.uniform(-1, 1, (1, 100))
        rows.append(analyze_rir(model.generator.forward(z)[0]))
    return build_histograms(rows, SamplerConfig())


def analyze_rir(wave):
    from rirkit.audio import Rir
    return analyze(Rir.from_samples(wave))


class TestGenerateConstrained:
    def test_strict_mode_all_in_support(self, stub_hists):
        cfg = SamplerConfig(relax_prob=0.0, rng_seed=11)
        rirs, report = generate_constrained(_StubModel(), stub_hists, 20, cfg)
        assert len(rirs) == 20
        for rir in rirs:
            p = analyze(rir)  # independent re-analysis
            for name in ("t60", "drr", "edt", "cte"):
                assert stub_hists[name].in_support(getattr(p, name))

    def test_report_tallies_consistent(self, stub_hists):
        cfg = SamplerConfig(relax_prob=0.0, rng_seed=11)
        _, report = generate_constrained(_StubModel(), stub_hists, 20, cfg)
        assert report.accepted + report.rejected == report.tries
        assert report.accepted == 20

    def test_n_below_one_refused(self, stub_hists):
        with pytest.raises(ValueError, match="^n must be >= 1"):
            generate_constrained(_StubModel(), stub_hists, 0, SamplerConfig())

    def test_deterministic(self, stub_hists):
        cfg = SamplerConfig(relax_prob=0.05, rng_seed=5)
        a, _ = generate_constrained(_StubModel(), stub_hists, 5, cfg)
        b, _ = generate_constrained(_StubModel(), stub_hists, 5, cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.samples, y.samples)

    def test_stall_raises(self, stub_hists):
        # a model whose decays sit far outside the training support
        model = _StubModel(t60_range=(2.5, 3.5))
        cfg = SamplerConfig(relax_prob=0.0, rng_seed=0, max_tries_per_sample=10)
        with pytest.raises(GenerationStalledError) as err:
            generate_constrained(model, stub_hists, 1, cfg)
        report = err.value.report
        assert report.tries == 10
        assert report.accepted == 0
        assert report.accepted + report.rejected == report.tries

    def test_report_csv(self, stub_hists, tmp_path):
        cfg = SamplerConfig(relax_prob=0.0, rng_seed=11)
        _, report = generate_constrained(_StubModel(), stub_hists, 3, cfg)
        p = tmp_path / "report.csv"
        report.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == "parameter,rejections"
        assert any(line.startswith("tries,") for line in lines)


def _reference_generate(model, hists, n, config):
    """generate_constrained with the try loop it had before it became one
    flat for-loop: its own try counter, two except branches and one latent
    row per generator forward. Changed only to draw latents and relaxation
    coins from two spawned streams."""
    latent_rng, coin_rng = map(np.random.default_rng,
                               np.random.SeedSequence(config.rng_seed).spawn(2))
    report = GenerationReport()
    out = []
    while len(out) < n:
        tries_this_sample = 0
        while True:
            report.tries += 1
            tries_this_sample += 1
            z = sample_latent(latent_rng, 1)
            wave = model.generator.forward(z)[0]
            try:
                rir = Rir.from_samples(np.asarray(wave, dtype=np.float32))
                params = analyze(rir)
            except EstimationError as exc:
                report.record_rejection([exc.parameter or "invalid"])
            except ValueError:
                report.record_rejection(["invalid"])
            else:
                decision = accept(params, hists, config.relax_prob, coin_rng)
                if decision:
                    report.accepted += 1
                    out.append(rir)
                    break
                report.record_rejection(decision.violations)
            if tries_this_sample >= config.max_tries_per_sample:
                raise GenerationStalledError(
                    f"no accepted sample in {config.max_tries_per_sample} tries "
                    f"(got {len(out)}/{n}); the model does not fit the constraints",
                    report,
                )
    return out, report


class _FaultyStubGenerator(_StubGenerator):
    """_StubGenerator, but a latent row whose first value is below -0.7 gives
    an all-zero row (no RIR), one above 0.8 a bare impulse (no T60), and one
    in (0.6, 0.8] an impulse over a faint tail (no EDT)."""

    def _row(self, z):
        h = super()._row(z)
        u = z[0]
        if u < -0.7:
            h[:] = 0.0
        elif u > 0.8:
            h[1:] = 0.0
        elif u > 0.6:
            h[1:] *= 0.01
        return h


class TestFlatTryLoop:
    """generate_constrained against _reference_generate: equal RIR bytes and
    an equal report."""

    def _assert_same(self, model, hists, n, cfg):
        rirs, report = generate_constrained(model, hists, n, cfg)
        ref_rirs, ref_report = _reference_generate(model, hists, n, cfg)
        assert report == ref_report
        assert len(rirs) == len(ref_rirs) == n
        for a, b in zip(rirs, ref_rirs):
            assert a.samples.tobytes() == b.samples.tobytes()
        return rirs, report

    def test_relaxed_accepts(self, stub_hists):
        # seed 10: one of the first seeds whose 40 accepts include a relaxed one
        rirs, _ = self._assert_same(_StubModel(), stub_hists, 40,
                                    SamplerConfig(relax_prob=0.05, rng_seed=10))
        relaxed = [r for r in rirs
                   if not all(stub_hists[name].in_support(getattr(analyze(r), name))
                              for name in PARAM_NAMES)]
        assert relaxed

    def test_invalid_rows_and_estimation_errors(self, stub_hists):
        model = _StubModel()
        model.generator = _FaultyStubGenerator()
        # seed 7: its tries meet all three faults
        _, report = self._assert_same(model, stub_hists, 10,
                                      SamplerConfig(relax_prob=0.05, rng_seed=7))
        by_param = report.rejections_by_param
        assert by_param["invalid"] > 0 and by_param["t60"] > 0 and by_param["edt"] > 0

    def test_stall(self, stub_hists):
        model = _StubModel(t60_range=(2.5, 3.5))
        cfg = SamplerConfig(relax_prob=0.0, rng_seed=0, max_tries_per_sample=10)
        with pytest.raises(GenerationStalledError) as new:
            generate_constrained(model, stub_hists, 1, cfg)
        with pytest.raises(GenerationStalledError) as ref:
            _reference_generate(model, stub_hists, 1, cfg)
        assert str(new.value) == str(ref.value)
        assert new.value.report == ref.value.report
        assert new.value.report.tries == 10

    def test_stall_inside_a_chunk(self, stub_hists):
        """n=3 runs one forward of three rows; the stall comes at the second
        row, and the third is not counted as a try."""
        model = _StubModel(t60_range=(2.5, 3.5))
        cfg = SamplerConfig(relax_prob=0.0, rng_seed=0, max_tries_per_sample=2)
        with pytest.raises(GenerationStalledError) as new:
            generate_constrained(model, stub_hists, 3, cfg)
        with pytest.raises(GenerationStalledError) as ref:
            _reference_generate(model, stub_hists, 3, cfg)
        assert str(new.value) == str(ref.value)
        assert new.value.report == ref.value.report
        assert new.value.report.tries == 2


def test_first_outputs_do_not_depend_on_n():
    """On a trained d=2 model, the first m RIRs of a call for 7 are those of a
    call for m, however the 7 were batched."""
    cfg = TrainConfig(steps=3, batch_size=8, n_critic=2, d=2, checkpoint_every=0)
    model = train([exp_decay_rir(t) for t in np.linspace(0.2, 0.8, 8)], cfg).model
    refs = []
    for wave in model.generator.forward(sample_latent(np.random.default_rng(1), 32)):
        try:
            refs.append(analyze(Rir.from_samples(wave)))
        except ValueError:
            continue
    hists = build_histograms(refs)
    sampler_cfg = SamplerConfig(rng_seed=3)
    rirs, _ = generate_constrained(model, hists, 7, sampler_cfg)
    for m in range(1, 7):
        first, _ = generate_constrained(model, hists, m, sampler_cfg)
        assert [r.samples.tobytes() for r in first] == [r.samples.tobytes() for r in rirs[:m]]


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(relax_prob=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(bins_per_param=1)
    with pytest.raises(ValueError):
        SamplerConfig(max_tries_per_sample=0)


@pytest.mark.parametrize("field, value, error", [
    ("bins_per_param", 30.0, TypeError), ("bins_per_param", True, TypeError),
    ("max_tries_per_sample", 1.5, TypeError), ("max_tries_per_sample", "200", TypeError),
    ("rng_seed", None, TypeError), ("rng_seed", False, TypeError),
    ("relax_prob", True, TypeError), ("relax_prob", "0.05", TypeError),
    ("relax_prob", float("nan"), ValueError), ("bins_per_param", 1, ValueError),
    ("bins_per_param", 2**62, ValueError),
])
def test_sampler_config_rejects_mistyped_fields(field, value, error):
    with pytest.raises(error, match=rf"^{field} must be"):
        SamplerConfig(**{field: value})


def test_sampler_config_accepts_numpy_scalars():
    config = SamplerConfig(bins_per_param=np.int64(5), relax_prob=np.float32(0.5),
                           rng_seed=np.uint32(7))
    assert config.bins_per_param == 5

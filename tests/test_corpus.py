import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirkit.audio import save_wav
from rirkit.corpus import (
    PoolEntry,
    RirPool,
    SplitSpec,
    compose_pool,
    read_pool_csv,
    split,
    validate_pool,
    write_pool_csv,
)

from conftest import noise_rir


def _ids(pool: RirPool) -> list[str]:
    return [e.id for e in pool.entries]


def fake_pool(n, source="BUT", prefix="r"):
    return RirPool(tuple(
        PoolEntry(f"{prefix}{i:04d}", source, f"/data/{prefix}{i:04d}.wav")
        for i in range(n)
    ))


class TestSplit:
    def test_paper_scale_split(self):
        pool = fake_pool(1209)
        train, dev, test = split(pool, SplitSpec((773, 194, 242), rng_seed=1))
        assert (len(train), len(dev), len(test)) == (773, 194, 242)
        ids = [set(_ids(p)) for p in (train, dev, test)]
        assert ids[0] | ids[1] | ids[2] == set(_ids(pool))
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_degenerate_split(self):
        pool = fake_pool(3)
        train, dev, test = split(pool, SplitSpec((3, 0, 0), rng_seed=0))
        assert set(_ids(train)) == set(_ids(pool))
        assert len(dev) == 0 and len(test) == 0

    def test_seed_determinism_and_sensitivity(self):
        pool = fake_pool(20)
        a = split(pool, SplitSpec((10, 5, 5), rng_seed=4))
        b = split(pool, SplitSpec((10, 5, 5), rng_seed=4))
        assert [_ids(p) for p in a] == [_ids(p) for p in b]
        c = split(pool, SplitSpec((10, 5, 5), rng_seed=5))
        assert [_ids(p) for p in a] != [_ids(p) for p in c]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            split(fake_pool(10), SplitSpec((5, 4, 2), rng_seed=0))

    @pytest.mark.parametrize("field, args, kwargs", [
        ("sizes", (), {"sizes": (1.5, 0, 0)}),
        ("rng_seed", ((1, 0, 0),), {"rng_seed": "a"}),
        ("sizes", ((1, 2),), {}),  # failed later, in split, at unpacking
    ])
    def test_spec_rejects_mistyped_fields(self, field, args, kwargs):
        with pytest.raises(TypeError, match=rf"^{field} must be"):
            SplitSpec(*args, **kwargs)

    def test_spec_accepts_numpy_scalars(self):
        spec = SplitSpec([np.int64(2), np.int32(1), 0], rng_seed=np.uint16(4))
        assert spec.sizes == (2, 1, 0) and type(spec.sizes) is tuple
        assert [len(p) for p in split(fake_pool(3), spec)] == [2, 1, 0]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**16), cut=st.data())
    def test_disjoint_exhaustive_property(self, n, seed, cut):
        a = cut.draw(st.integers(0, n))
        b = cut.draw(st.integers(0, n - a))
        pool = fake_pool(n)
        parts = split(pool, SplitSpec((a, b, n - a - b), rng_seed=seed))
        assert [len(p) for p in parts] == [a, b, n - a - b]
        combined = [i for p in parts for i in _ids(p)]
        assert len(combined) == n and set(combined) == set(_ids(pool))


class TestCompose:
    def test_equal_mixture(self):
        ganc = fake_pool(773, source="GAN.C", prefix="g")
        gas = fake_pool(773, source="GAS", prefix="s")
        out = compose_pool([(ganc, 773), (gas, 773)], rng_seed=0)
        assert len(out) == 1546
        assert out.source_counts() == {"GAN.C": 773, "GAS": 773}

    def test_identity_on_full_single_pool(self):
        pool = fake_pool(10)
        out = compose_pool([(pool, 10)], rng_seed=0)
        assert sorted(_ids(out)) == sorted(_ids(pool))

    def test_deterministic_subsample(self):
        a = fake_pool(5, prefix="a")
        b = fake_pool(5, source="GAS", prefix="b")
        out1 = compose_pool([(a, 2), (b, 1)], rng_seed=9)
        out2 = compose_pool([(a, 2), (b, 1)], rng_seed=9)
        assert _ids(out1) == _ids(out2)
        assert len(out1) == 3

    def test_count_exceeds_pool(self):
        with pytest.raises(ValueError):
            compose_pool([(fake_pool(3), 4)], rng_seed=0)

    @settings(max_examples=20, deadline=None)
    @given(na=st.integers(1, 30), nb=st.integers(1, 30), seed=st.integers(0, 999),
           data=st.data())
    def test_size_and_tag_accounting(self, na, nb, seed, data):
        ka = data.draw(st.integers(0, na))
        kb = data.draw(st.integers(0, nb))
        a = fake_pool(na, source="BUT", prefix="a")
        b = fake_pool(nb, source="AIR", prefix="b")
        out = compose_pool([(a, ka), (b, kb)], rng_seed=seed)
        assert len(out) == ka + kb
        counts = out.source_counts()
        assert counts.get("BUT", 0) == ka and counts.get("AIR", 0) == kb


class TestValidate:
    def test_healthy_pool(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = []
        for i in range(3):
            p = tmp_path / f"air_{i}.wav"
            save_wav(noise_rir(0.4, rng).as_buffer(), p)
            entries.append(PoolEntry(f"air{i}", "AIR", str(p)))
        report = validate_pool(RirPool(tuple(entries)))
        assert report.ok
        assert report.source_counts == {"AIR": 3}

    def test_missing_file_flagged(self, tmp_path):
        pool = RirPool((PoolEntry("x", "BUT", str(tmp_path / "gone.wav")),))
        report = validate_pool(pool)
        assert not report.ok
        assert "missing" in report.findings[0][1]

    def test_duplicate_id_flagged(self, tmp_path):
        rng = np.random.default_rng(1)
        p = tmp_path / "a.wav"
        save_wav(noise_rir(0.4, rng).as_buffer(), p)
        pool = RirPool((PoolEntry("dup", "BUT", str(p)),
                        PoolEntry("dup", "BUT", str(p))))
        report = validate_pool(pool)
        assert any("duplicate" in f[1] for f in report.findings)

    def test_unloadable_flagged(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"not audio")
        report = validate_pool(RirPool((PoolEntry("j", "OTHER", str(p)),)))
        assert any("loadable" in f[1] for f in report.findings)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_refused(self, tmp_path, threads):
        pool = RirPool((PoolEntry("x", "BUT", str(tmp_path / "gone.wav")),))
        with pytest.raises(ValueError):
            validate_pool(pool, threads=threads)


class TestPoolCsv:
    def test_round_trip_with_provenance(self, tmp_path):
        pool = fake_pool(4, source="GAS")
        p = tmp_path / "pool.csv"
        write_pool_csv(pool, p, provenance={"seed": 7, "sizes": "2,1,1"})
        text = p.read_text()
        assert text.startswith("# seed=7\n# sizes=2,1,1\n")
        back = read_pool_csv(p)
        assert _ids(back) == _ids(pool)
        assert [e.source for e in back.entries] == ["GAS"] * 4

    def test_rejects_malformed_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,source,path\nonly_two,fields\n")
        with pytest.raises(ValueError):
            read_pool_csv(p)

    @pytest.mark.parametrize("row", [",,", ",BUT,/x/a.wav", "a,BUT,", '"",BUT,""',
                                     "a,BUT,,room1"])
    def test_rejects_empty_id_or_path(self, tmp_path, row):
        p = tmp_path / "empty.csv"
        p.write_text(f"id,source,path\nok,BUT,/x/ok.wav\n{row}\n")
        with pytest.raises(ValueError, match=r"empty\.csv: line 3: empty id or path"):
            read_pool_csv(p)

    def test_empty_source_is_kept(self, tmp_path):
        p = tmp_path / "pool.csv"
        p.write_text("a,,/x/a.wav\n")
        assert read_pool_csv(p).entries == (PoolEntry("a", "", "/x/a.wav"),)

    def test_stratification_key_round_trip(self, tmp_path):
        pool = RirPool((PoolEntry("a", "BUT", "/x/a.wav", strat_key="room1"),
                        PoolEntry("b", "BUT", "/x/b.wav", strat_key="room2")))
        p = tmp_path / "keyed.csv"
        write_pool_csv(pool, p)
        back = read_pool_csv(p)
        assert [e.strat_key for e in back.entries] == ["room1", "room2"]

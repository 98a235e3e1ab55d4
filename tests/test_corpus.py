import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirkit.audio import save_wav
from rirkit.corpus import (
    PoolEntry,
    RirPool,
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
        train, dev, test = split(pool, (773, 194, 242), rng_seed=1)
        assert (len(train), len(dev), len(test)) == (773, 194, 242)
        ids = [set(_ids(p)) for p in (train, dev, test)]
        assert ids[0] | ids[1] | ids[2] == set(_ids(pool))
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])

    def test_degenerate_split(self):
        pool = fake_pool(3)
        train, dev, test = split(pool, (3, 0, 0), rng_seed=0)
        assert set(_ids(train)) == set(_ids(pool))
        assert len(dev) == 0 and len(test) == 0

    def test_seed_determinism_and_sensitivity(self):
        pool = fake_pool(20)
        a = split(pool, (10, 5, 5), rng_seed=4)
        b = split(pool, (10, 5, 5), rng_seed=4)
        assert [_ids(p) for p in a] == [_ids(p) for p in b]
        c = split(pool, (10, 5, 5), rng_seed=5)
        assert [_ids(p) for p in a] != [_ids(p) for p in c]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            split(fake_pool(10), (5, 4, 2), rng_seed=0)

    def test_negative_size_refused(self):
        with pytest.raises(ValueError, match="^split sizes must be non-negative$"):
            split(fake_pool(3), (4, -1, 0), rng_seed=0)

    def test_spec_accepts_numpy_scalars(self):
        parts = split(fake_pool(3), [np.int64(2), np.int32(1), 0], rng_seed=np.uint16(4))
        assert [len(p) for p in parts] == [2, 1, 0]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**16), cut=st.data())
    def test_disjoint_exhaustive_property(self, n, seed, cut):
        a = cut.draw(st.integers(0, n))
        b = cut.draw(st.integers(0, n - a))
        pool = fake_pool(n)
        parts = split(pool, (a, b, n - a - b), rng_seed=seed)
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
        assert validate_pool(RirPool(tuple(entries))) == []

    def test_missing_file_flagged(self, tmp_path):
        pool = RirPool((PoolEntry("x", "BUT", str(tmp_path / "gone.wav")),))
        findings = validate_pool(pool)
        assert len(findings) == 1 and "missing" in findings[0][1]

    def test_duplicate_id_flagged(self, tmp_path):
        rng = np.random.default_rng(1)
        p = tmp_path / "a.wav"
        save_wav(noise_rir(0.4, rng).as_buffer(), p)
        pool = RirPool((PoolEntry("dup", "BUT", str(p)),
                        PoolEntry("dup", "BUT", str(p))))
        assert any("duplicate" in f[1] for f in validate_pool(pool))

    def test_unloadable_flagged(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"not audio")
        findings = validate_pool(RirPool((PoolEntry("j", "OTHER", str(p)),)))
        assert any("loadable" in f[1] for f in findings)

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

    def test_wrong_field_count_names_the_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# seed=1\nid,source,path\nok,BUT,/x/ok.wav\na,b,c,d,e\n")
        with pytest.raises(ValueError, match=r"bad\.csv: line 4: expected id,source,path"):
            read_pool_csv(p)

    @pytest.mark.parametrize("row", [",,", ",BUT,/x/a.wav", "a,BUT,", '"",BUT,""',
                                     "a,BUT,,room1"])
    def test_rejects_empty_id_or_path(self, tmp_path, row):
        # a fourth field is refused by its count before its empty path is seen
        why = "expected id,source,path" if row.count(",") == 3 else "empty id or path"
        p = tmp_path / "empty.csv"
        p.write_text(f"id,source,path\nok,BUT,/x/ok.wav\n{row}\n")
        with pytest.raises(ValueError, match=rf"empty\.csv: line 3: {why}"):
            read_pool_csv(p)

    def test_empty_source_is_kept(self, tmp_path):
        p = tmp_path / "pool.csv"
        p.write_text("a,,/x/a.wav\n")
        assert read_pool_csv(p).entries == (PoolEntry("a", "", "/x/a.wav"),)



# every character str.splitlines() breaks a line at, and so read_pool_csv too
LINE_BREAKS = ["\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]
_char = st.characters(codec="utf-8", exclude_characters=LINE_BREAKS)
_field = st.text(_char)
_filled = st.text(_char, min_size=1)


class TestPoolCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from(["#a", 'a,"b']) | _filled, _field,
                                   _filled), max_size=5),
           provenance=st.none() | st.dictionaries(_field, _field, max_size=3))
    def test_written_pool_reads_back_equal(self, tmp_path_factory, rows, provenance):
        pool = RirPool(tuple(PoolEntry(*row) for row in rows))
        path = tmp_path_factory.mktemp("pool") / "pool.csv"
        write_pool_csv(pool, path, provenance=provenance)
        assert read_pool_csv(path) == pool

    @pytest.mark.parametrize("commented", [False, True])
    def test_entry_spelling_the_header_reads_back(self, tmp_path, commented):
        """Only the first row that is not a comment may be the header; an entry
        id,source,path (first or later) is an entry, with or without
        provenance comments before the header."""
        pool = RirPool((PoolEntry("id", "source", "path"),
                        PoolEntry("a", "S", "/x/a.wav"),
                        PoolEntry("id", "source", "path")))
        path = tmp_path / "pool.csv"
        write_pool_csv(pool, path, provenance={"seed": 0} if commented else None)
        assert read_pool_csv(path) == pool

    def test_header_skipped_only_as_the_first_row(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("# seed=0\n\nid,source,path\nid,source,path\n", encoding="utf-8")
        assert read_pool_csv(path) == RirPool((PoolEntry("id", "source", "path"),))
        path.write_text("a,S,/x/a.wav\nid,source,path,strat_key\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"pool\.csv: line 2: expected id,source,path"):
            read_pool_csv(path)

    @pytest.mark.parametrize("quoted", ['"#a"', '"a,""b"'])
    def test_compose_writes_a_quoted_id_back_readable(self, tmp_path, quoted):
        src = tmp_path / "in.csv"
        src.write_text(f"{quoted},S,/x/a.wav\nb,S,/x/b.wav\n", encoding="utf-8")
        pool = read_pool_csv(src)
        out = tmp_path / "out.csv"
        write_pool_csv(compose_pool([(pool, 2)], rng_seed=0), out, provenance={"seed": 0})
        assert sorted(_ids(read_pool_csv(out))) == sorted(_ids(pool))

    @pytest.mark.parametrize("where", ["id", "source", "path", "provenance"])
    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_line_break_refused_before_the_file_is_made(self, tmp_path, where, brk):
        fields = {"id": "a", "source": "S", "path": "/x/a.wav"}
        provenance = {"seed": 1}
        if where == "provenance":
            provenance["note"] = f"x{brk}y"
        else:
            fields[where] = f"x{brk}y"
        path = tmp_path / "pool.csv"
        with pytest.raises(ValueError, match="pool\\.csv: .*line break") as err:
            write_pool_csv(RirPool((PoolEntry(**fields),)), path, provenance=provenance)
        assert str(path) in str(err.value)
        assert not path.exists()

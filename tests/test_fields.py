import os
import subprocess
import sys
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from rirkit._fields import check_fields
from rirkit.augment import AugmentSpec, MixRecord
from rirkit.corpus import SplitSpec
from rirkit.gan import TrainConfig
from rirkit.sampler import SamplerConfig

# Every record read from outside the program, with the fewest valid arguments.
RECORDS = {
    TrainConfig: {"steps": 1},
    SamplerConfig: {},
    AugmentSpec: {},
    MixRecord: {"utt_id": "u1", "clean_path": "/a.wav", "rir_id": "r1", "noise_id": "n1",
                "snr": 42.0, "k": 17, "alpha": 0.25, "rescale": 1.0, "out_path": "/o.wav"},
    SplitSpec: {"sizes": (1, 0, 0)},
}

# One wrong value per annotation kind. A field with any other annotation
# fails here with a KeyError instead of passing unchecked.
WRONG = {int: 1.5, float: "1.0", bool: "no", str: 1}


def wrong_value(hint):
    if typing.get_origin(hint) is tuple:
        return [wrong_value(h) for h in typing.get_args(hint)]
    return WRONG[hint]


CASES = [(cls, f.name) for cls in RECORDS for f in fields(cls)]


@pytest.mark.parametrize("cls, field", CASES,
                         ids=[f"{cls.__name__}.{field}" for cls, field in CASES])
def test_every_field_rejects_a_wrong_type(cls, field):
    value = wrong_value(typing.get_type_hints(cls)[field])
    with pytest.raises(TypeError, match=rf"^{field} must be"):
        cls(**{**RECORDS[cls], field: value})


@pytest.mark.parametrize("value", [True, False])
def test_bool_is_not_a_number(value):
    with pytest.raises(TypeError, match="^k must be an integer"):
        MixRecord(**{**RECORDS[MixRecord], "k": value})
    with pytest.raises(TypeError, match="^snr must be a real number"):
        MixRecord(**{**RECORDS[MixRecord], "snr": value})


@pytest.mark.parametrize("sizes", [(1, 0), (1, 0, 0, 0), "abc", 3, None])
def test_tuple_field_needs_a_list_of_its_length(sizes):
    with pytest.raises(TypeError, match=r"^sizes must be a list of 3 values"):
        SplitSpec(sizes)


def test_unsupported_annotation_is_refused():
    @dataclass
    class Loose:
        names: list[str]
        pair: tuple[int, ...] = (1,)

        def __post_init__(self):
            check_fields(self)

    with pytest.raises(TypeError, match="no field check for annotation"):
        Loose(["a"])


# Every text reader and writer in rirkit, run once on non-ASCII text.
_EVERY_TEXT_FILE = """
import sys
from pathlib import Path

from rirkit import acoustics, augment, cli, corpus, sampler
from rirkit.gan import (Critic, GanModel, Generator, LogRow, load_checkpoint,
                        save_checkpoint, write_log_csv)

out = Path(sys.argv[1])
params = [acoustics.AcousticParams(0.3 + 0.1 * i, 5.0 + i, 0.2 + 0.1 * i, 9.0 + i)
          for i in range(4)]
acoustics.write_params_csv(out / "params.csv", [(f"r{i}", p) for i, p in enumerate(params)])
write_log_csv([LogRow(1, 0.5, -0.5, 0.25)], out / "log.csv")
sampler.GenerationReport().to_csv(out / "report.csv")
hists = sampler.build_histograms(params, sampler.SamplerConfig(bins_per_param=4))
sampler.save_histograms(hists, out / "hists.json")
sampler.load_histograms(out / "hists.json")
pool = corpus.RirPool([corpus.PoolEntry("r\\u00fc", "S\\u00fc", "/\\u00fc.wav")])
corpus.write_pool_csv(pool, out / "pool.csv", provenance={"seed": "\\u00fc"})
assert corpus.read_pool_csv(out / "pool.csv") == pool
(out / "clean.csv").write_text("u\\u00fc,/\\u00fc.wav\\n", encoding="utf-8")
assert augment.read_clean_manifest(out / "clean.csv") == [("u\\u00fc", "/\\u00fc.wav")]
rec = augment.MixRecord("u\\u00fc", "/\\u00fc.wav", "r", "n", 2.0, 1, 0.5, 1.0, "/o.wav")
augment.write_manifest([rec], out / "manifest.jsonl")
assert augment.read_manifest(out / "manifest.jsonl") == [rec]
(out / "config.json").write_text('{"k": "\\u00fc"}', encoding="utf-8")
assert cli._load_json(out / "config.json") == {"k": "\\u00fc"}
save_checkpoint(GanModel(Generator(1), Critic(1), d=1, step=0, seed=0), out / "m.gan")
load_checkpoint(out / "m.gan")
"""


def test_text_files_name_their_encoding(tmp_path):
    """No reader or writer falls back to the locale's encoding: with
    EncodingWarning made an error, every one of them still runs."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", _EVERY_TEXT_FILE, str(tmp_path)],
        env=env, capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert run.returncode == 0, run.stderr
    assert "rü,Sü,/ü.wav".encode() in (tmp_path / "pool.csv").read_bytes()

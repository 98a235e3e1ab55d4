import io
import json
import math
import struct
import tempfile
import typing
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirkit.audio import AudioBuffer, load_wav, save_wav
from rirkit.augment import AugmentSpec
from rirkit.cli import main
from rirkit.corpus import PoolEntry, RirPool, write_pool_csv
from rirkit.gan import Critic, GanModel, Generator, TrainConfig, save_checkpoint
from rirkit.gan.checkpoint import MAGIC
from rirkit.sampler import SamplerConfig

from conftest import noise_rir


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny on-disk corpus: RIR pool, noise pool, clean utterances."""
    root = tmp_path_factory.mktemp("cliws")
    rng = np.random.default_rng(0)

    rir_entries = []
    for i in range(6):
        p = root / f"rir_{i}.wav"
        save_wav(noise_rir(0.25 + 0.05 * i, rng).as_buffer(), p)
        rir_entries.append(PoolEntry(f"rir{i}", "BUT", str(p)))
    write_pool_csv(RirPool(tuple(rir_entries)), root / "rirs.csv")

    noise_entries = []
    for i in range(2):
        p = root / f"noise_{i}.wav"
        save_wav(AudioBuffer(rng.uniform(-0.3, 0.3, 4000).astype(np.float32), 16000), p)
        noise_entries.append(PoolEntry(f"noise{i}", "OTHER", str(p)))
    write_pool_csv(RirPool(tuple(noise_entries)), root / "noise.csv")

    lines = ["utt_id,path"]
    for i in range(3):
        p = root / f"clean_{i}.wav"
        save_wav(AudioBuffer(rng.uniform(-0.4, 0.4, 3200).astype(np.float32), 16000), p)
        lines.append(f"utt{i},{p}")
    (root / "clean.csv").write_text("\n".join(lines) + "\n")
    return root


def test_analyze_writes_csv_and_hist(workspace, tmp_path, capsys):
    rirs = sorted(str(p) for p in workspace.glob("rir_*.wav"))
    rc = main(["analyze", *rirs, "--csv", str(tmp_path / "params.csv"),
               "--hist", str(tmp_path / "hists.json"), "--bins", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "t60=" in out
    assert (tmp_path / "params.csv").read_text().startswith("id,t60_s")
    doc = json.loads((tmp_path / "hists.json").read_text())
    assert doc["total_count"] == 6
    assert len(doc["params"]["t60"]["counts"]) == 5


def test_split_and_compose(workspace, tmp_path):
    rc = main(["--seed", "3", "--out-dir", str(tmp_path), "split",
               "--pool", str(workspace / "rirs.csv"), "--sizes", "4,1,1"])
    assert rc == 0
    train_csv = tmp_path / "train.csv"
    assert train_csv.exists()
    assert "# seed=3" in train_csv.read_text()

    rc = main(["--seed", "1", "--out-dir", str(tmp_path), "compose",
               "--pool", f"{train_csv}:2", "--pool", f"{tmp_path / 'dev.csv'}:1"])
    assert rc == 0
    composed = (tmp_path / "composed.csv").read_text()
    assert len([l for l in composed.splitlines()
                if l and not l.startswith("#") and not l.startswith("id,")]) == 3


def test_validate_exit_codes(workspace, tmp_path):
    assert main(["validate", "--pool", str(workspace / "rirs.csv")]) == 0
    bad = RirPool((PoolEntry("gone", "BUT", str(tmp_path / "missing.wav")),))
    write_pool_csv(bad, tmp_path / "bad.csv")
    assert main(["validate", "--pool", str(tmp_path / "bad.csv")]) == 1


def test_train_generate_augment_pipeline(workspace, tmp_path):
    out = tmp_path / "run"
    cfg = {
        "pool": str(workspace / "rirs.csv"),
        "steps": 4, "batch_size": 2, "d": 1, "rng_seed": 5,
        "checkpoint_every": 0,
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--out-dir", str(out), "train", "--config", str(cfg_path)]) == 0
    ckpt = out / "checkpoint_final.gan"
    assert ckpt.exists()
    assert (out / "training_log.csv").exists()

    # histograms from the same pool
    rirs = sorted(str(p) for p in workspace.glob("rir_*.wav"))
    hist = tmp_path / "h.json"
    assert main(["analyze", *rirs, "--hist", str(hist)]) == 0

    # an undertrained d=1 model will rarely satisfy the constraints: accept
    # either a successful generation or a documented stall (exit 2)
    gen_dir = tmp_path / "gen"
    scfg = tmp_path / "sampler.json"
    scfg.write_text(json.dumps({"relax_prob": 0.05, "max_tries_per_sample": 30}))
    rc = main(["--seed", "2", "--out-dir", str(gen_dir), "generate",
               "--model", str(ckpt), "--hist", str(hist), "-n", "1",
               "--config", str(scfg)])
    assert rc in (0, 2)
    assert (gen_dir / "generation_report.csv").exists()

    aug_dir = tmp_path / "aug"
    rc = main(["--seed", "4", "--out-dir", str(aug_dir), "augment",
               "--clean", str(workspace / "clean.csv"),
               "--rirs", str(workspace / "rirs.csv"),
               "--noise", str(workspace / "noise.csv")])
    assert rc == 0
    manifest = (aug_dir / "manifest.jsonl").read_text().splitlines()
    assert len(manifest) == 3
    rec = json.loads(manifest[0])
    assert 10.0 <= rec["snr"] <= 100.0
    assert len(load_wav(rec["out_path"])) == 3200


def test_augment_failure_exit_code(workspace, tmp_path):
    clean = tmp_path / "broken.csv"
    clean.write_text("utt_id,path\nuX,/nonexistent/file.wav\n")
    rc = main(["--out-dir", str(tmp_path / "aug2"), "augment",
               "--clean", str(clean),
               "--rirs", str(workspace / "rirs.csv"),
               "--noise", str(workspace / "noise.csv")])
    assert rc == 1


def test_analyze_reports_failed_rirs_and_carries_on(workspace, tmp_path, capsys):
    garbage = tmp_path / "garbage.wav"
    garbage.write_bytes(b"not a wav at all")
    delta = np.zeros(16384, dtype=np.float32)
    delta[0] = 1.0  # its decay is instantaneous, so T60 cannot be estimated
    save_wav(AudioBuffer(delta, 16000), tmp_path / "delta.wav")
    good = workspace / "rir_0.wav"
    rc = main(["analyze", str(garbage), str(good), str(tmp_path / "delta.wav"),
               "--csv", str(tmp_path / "params.csv")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert "rir_0: t60=" in out
    assert "failed" in err and "garbage.wav" in err and "delta.wav" in err
    rows = (tmp_path / "params.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("rir_0,")


def _file(tmp, name, data):
    path = tmp / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return str(path)


def _config(tmp, doc):
    return _file(tmp, "config.json", doc if isinstance(doc, (str, bytes)) else json.dumps(doc))


def _pool(tmp, text):
    return _file(tmp, "pool.csv", text)


def _header(tmp, header: bytes):
    """A checkpoint that holds only its magic, header length and header."""
    return _file(tmp, "model.gan", MAGIC + struct.pack("<I", len(header)) + header)


_DEEP = "[" * 100000  # nested far past what the JSON parser can recurse into


def _model(tmp):
    path = tmp / "model.gan"
    save_checkpoint(GanModel(Generator(1), Critic(1), d=1, step=0, seed=0), path)
    return str(path)


def _hist(ws, tmp):
    path = tmp / "hists.json"
    rirs = sorted(str(p) for p in ws.glob("rir_*.wav"))
    assert main(["analyze", *rirs, "--hist", str(path)]) == 0
    return str(path)


BAD_INPUTS = {
    "missing pool file": lambda ws, tmp: ["validate", "--pool", str(tmp / "missing.csv")],
    "missing config file": lambda ws, tmp: ["train", "--config", str(tmp / "missing.json")],
    "config not an object": lambda ws, tmp: ["train", "--config", _config(tmp, [1, 2])],
    "config not json": lambda ws, tmp: ["train", "--config", _config(tmp, "{pool")],
    "train config without pool": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"steps": 1})],
    "unknown train key": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1,
                                           "lr": 0.1})],
    "train steps not an integer": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1.5})],
    "hist without params": lambda ws, tmp: [
        "generate", "--model", _model(tmp), "--hist", _config(tmp, {}), "-n", "1"],
    "hist without a parameter": lambda ws, tmp: [
        "generate", "--model", _model(tmp), "--hist", _config(tmp, {"params": {}}),
        "-n", "1"],
    "unknown latent_dist": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1,
                                           "latent_dist": "cauchy"})],
    "sampler tries not an integer": lambda ws, tmp: [
        "generate", "--model", _model(tmp), "--hist", _hist(ws, tmp), "-n", "1",
        "--config", _config(tmp, {"max_tries_per_sample": 1.5})],
    "removed sample_rate key": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"), "--rirs", str(ws / "rirs.csv"),
        "--noise", str(ws / "noise.csv"), "--spec", _config(tmp, {"sample_rate": 8000})],
    "snr_in_db not a bool": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"), "--rirs", str(ws / "rirs.csv"),
        "--noise", str(ws / "noise.csv"), "--spec", _config(tmp, {"snr_in_db": "false"})],
    "augment rng_seed not an integer": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"), "--rirs", str(ws / "rirs.csv"),
        "--noise", str(ws / "noise.csv"), "--spec", _config(tmp, {"rng_seed": 1.5})],
    "snr_range not finite": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"), "--rirs", str(ws / "rirs.csv"),
        "--noise", str(ws / "noise.csv"),
        "--spec", _config(tmp, {"snr_range": [1.0, float("inf")]})],
    "snr_range in dB overflows": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"), "--rirs", str(ws / "rirs.csv"),
        "--noise", str(ws / "noise.csv"),
        "--spec", _config(tmp, {"snr_range": [4000.0, 5000.0], "snr_in_db": True})],
    "threads zero": lambda ws, tmp: [
        "--threads", "0", "augment", "--clean", str(ws / "clean.csv"),
        "--rirs", str(ws / "rirs.csv"), "--noise", str(ws / "noise.csv")],
    "threads negative": lambda ws, tmp: [
        "--threads", "-1", "augment", "--clean", str(ws / "clean.csv"),
        "--rirs", str(ws / "rirs.csv"), "--noise", str(ws / "noise.csv")],
    "pool row with empty id and path": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"), "--rirs", _pool(tmp, ",,"),
        "--noise", str(ws / "noise.csv")],
    "pool id naming two files": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"),
        "--rirs", _pool(tmp, f"r,S,{ws / 'rir_0.wav'}\nr,S,{ws / 'rir_1.wav'}\n"),
        "--noise", str(ws / "noise.csv")],
    "sizes not three": lambda ws, tmp: [
        "split", "--pool", str(ws / "rirs.csv"), "--sizes", "4,2"],
    "sizes not counts": lambda ws, tmp: [
        "split", "--pool", str(ws / "rirs.csv"), "--sizes", "4,x,1"],
    "compose count not a number": lambda ws, tmp: [
        "compose", "--pool", f"{ws / 'rirs.csv'}:x"],
    "compose without count": lambda ws, tmp: ["compose", "--pool", "5"],
    "train config nested too deeply": lambda ws, tmp: [
        "train", "--config", _config(tmp, _DEEP)],
    "augment spec nested too deeply": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"), "--rirs", str(ws / "rirs.csv"),
        "--noise", str(ws / "noise.csv"), "--spec", _config(tmp, _DEEP)],
    "train config not UTF-8": lambda ws, tmp: [
        "train", "--config", _config(tmp, b'{"pool": "\xff.csv", "steps": 1}')],
    "pool not UTF-8": lambda ws, tmp: ["validate", "--pool", _pool(tmp, b"r,S,\xff.wav\n")],
    "clean manifest not UTF-8": lambda ws, tmp: [
        "augment", "--clean", _file(tmp, "clean.csv", b"utt_id,path\nu0,\xc0.wav\n"),
        "--rirs", str(ws / "rirs.csv"), "--noise", str(ws / "noise.csv")],
    "histogram nested too deeply": lambda ws, tmp: [
        "generate", "--model", _model(tmp), "--hist", _config(tmp, _DEEP), "-n", "1"],
    "checkpoint header nested too deeply": lambda ws, tmp: [
        "generate", "--model", _header(tmp, _DEEP.encode()), "--hist", _hist(ws, tmp),
        "-n", "1"],
    "checkpoint d too large to build": lambda ws, tmp: [
        "generate", "--model",
        _header(tmp, json.dumps({"d": 100000, "step": 0, "seed": 0, "params": []}).encode()),
        "--hist", _hist(ws, tmp), "-n", "1"],
}

# cases whose error line must name the file that could not be read
NAMED_FILE = {
    "train config nested too deeply": "config.json",
    "augment spec nested too deeply": "config.json",
    "train config not UTF-8": "config.json",
    "pool not UTF-8": "pool.csv",
    "clean manifest not UTF-8": "clean.csv",
    "histogram nested too deeply": "config.json",
    "checkpoint header nested too deeply": "model.gan",
    "checkpoint d too large to build": "model.gan",
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2_without_traceback(workspace, tmp_path, capsys, case):
    argv = BAD_INPUTS[case](workspace, tmp_path)
    assert main(["--out-dir", str(tmp_path / "out"), *argv]) == 2
    assert not (tmp_path / "out").exists()  # refused before any work
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    if case in NAMED_FILE:
        assert str(tmp_path / NAMED_FILE[case]) in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_training_exits_2(workspace, tmp_path, capsys):
    cfg = _config(tmp_path, {"pool": str(workspace / "rirs.csv"), "steps": 5,
                             "learning_rate": 1e38, "d": 1, "batch_size": 2,
                             "n_critic": 1})
    assert main(["--out-dir", str(tmp_path / "out"), "train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def _corrupt(text: str, data) -> tuple[bytes, bool]:
    """Draw nothing, a key whose value is nested too deeply, or a byte that is
    not UTF-8, into the JSON object ``text``; (file bytes, corrupted?)."""
    corrupt = data.draw(st.sampled_from(["none", "nested", "not utf-8"]))
    if corrupt == "nested":
        text = '{"deep": ' + _DEEP + "]" * len(_DEEP) + ", " + text[1:]
    raw = text.encode()
    if corrupt == "not utf-8":
        pos = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xff", b"\xc0", b"\xf5\x80"]))  # never UTF-8
        raw = raw[:pos] + bad + raw[pos:]
    return raw, corrupt != "none"


def _wrong_json(hint):
    """Hypothesis strategy for JSON values that do not fit annotation ``hint``."""
    texts, floats = st.text(max_size=5), st.floats()
    junk = (st.none() | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
    if typing.get_origin(hint) is tuple:
        return (junk | texts | st.booleans() | floats
                | st.lists(st.floats(1, 10), max_size=4).filter(lambda v: len(v) != 2)
                | st.tuples(st.floats(1, 10), texts).map(list))
    junk = junk | st.lists(st.integers(), max_size=3)
    return {
        int: junk | texts | st.booleans() | floats.filter(lambda x: not x.is_integer()),
        float: junk | texts | st.booleans(),
        bool: junk | texts | st.integers() | floats,
        str: junk | st.booleans() | st.integers() | floats,
    }[hint]


@pytest.fixture(scope="module")
def config_commands(workspace, tmp_path_factory):
    """Per JSON config: its record, a valid config, and the argv that reads it."""
    tmp = tmp_path_factory.mktemp("fuzz")
    model, hist = _model(tmp), _hist(workspace, tmp)
    ws = workspace
    return {
        "train": (TrainConfig, {"pool": str(ws / "rirs.csv"), "steps": 1},
                  lambda cfg: ["train", "--config", cfg]),
        "sampler": (SamplerConfig, {},
                    lambda cfg: ["generate", "--model", model, "--hist", hist, "-n", "1",
                                 "--config", cfg]),
        "augment": (AugmentSpec, {},
                    lambda cfg: ["augment", "--clean", str(ws / "clean.csv"),
                                 "--rirs", str(ws / "rirs.csv"),
                                 "--noise", str(ws / "noise.csv"), "--spec", cfg]),
    }


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_mistyped_config_field_exits_2(config_commands, data):
    command = data.draw(st.sampled_from(sorted(config_commands)))
    cls, valid, argv = config_commands[command]
    hints = typing.get_type_hints(cls)
    field = data.draw(st.sampled_from([f.name for f in fields(cls)]))
    value = data.draw(_wrong_json(hints[field]))
    raw, _ = _corrupt(json.dumps({**valid, field: value}), data)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        cfg = _config(tmp, raw)
        with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
            rc = main(["--out-dir", str(out), *argv(cfg)])
        assert rc == 2
        assert not out.exists()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: ")
    assert "Traceback" not in err.getvalue()


def _csv_text(tokens):
    """Hypothesis strategy for CSV text: lines of one to four comma-joined
    fields, each field a run of tokens."""
    field = st.lists(st.sampled_from(tokens), max_size=3).map("".join)
    line = st.lists(field, min_size=1, max_size=4).map(",".join)
    return st.lists(line, max_size=5).map("\n".join)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzz_clean_manifest_and_pool_csv_through_augment(workspace, data):
    ws = workspace
    files = {"clean": ws / "clean.csv", "rirs": ws / "rirs.csv", "noise": ws / "noise.csv"}
    fuzzed = data.draw(st.sampled_from(sorted(files)))
    path = str(ws / ("rir_0.wav" if fuzzed == "rirs" else "clean_0.wav"))
    punctuation = [",", '"', "#", "", "\r", "\x1c", " "]
    text = data.draw(_csv_text(punctuation + ["u0", "id", "utt_id", path]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "fuzzed.csv").write_text(text)
        files[fuzzed] = tmp / "fuzzed.csv"
        with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
            rc = main(["--out-dir", str(tmp / "out"), "augment",
                       "--clean", str(files["clean"]), "--rirs", str(files["rirs"]),
                       "--noise", str(files["noise"])])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def _valid_histogram_doc(doc) -> bool:
    """What load_histograms must accept, written out independently: per
    parameter, at least two strictly increasing finite edges and one
    non-negative int64 count per bin (no bools, no fractions), and every
    parameter's counts summing to an integer total_count >= 1."""
    def numbers(v, kinds):
        return isinstance(v, list) and all(type(x) in kinds for x in v)

    if not (isinstance(doc, dict) and isinstance(doc.get("params"), dict)):
        return False
    total = doc.get("total_count")
    if type(total) is not int or total < 1:
        return False
    for name in ("t60", "drr", "edt", "cte"):
        h = doc["params"].get(name)
        if not isinstance(h, dict):
            return False
        edges, counts = h.get("edges"), h.get("counts")
        if not (numbers(edges, (int, float)) and numbers(counts, (int,))
                and len(edges) >= 2 and len(counts) == len(edges) - 1):
            return False
        if not all(math.isfinite(e) for e in edges) or any(
                b <= a for a, b in zip(edges, edges[1:])):
            return False
        if any(not 0 <= c < 2**63 for c in counts) or sum(counts) != total:
            return False
    return True


def _histogram_mutation(doc, data):
    """Apply one drawn defect to the histogram document ``doc`` in place: a
    dropped key, a wrong JSON type, a NaN/Infinity, nested, negative, huge
    or non-integer list element, or a total_count the sums may not match."""
    name = data.draw(st.sampled_from(["t60", "drr", "edt", "cte"]))
    key = data.draw(st.sampled_from(["edges", "counts"]))
    params = doc["params"] if isinstance(doc.get("params"), dict) else {}
    h = params[name] if isinstance(params.get(name), dict) else {}
    defect = data.draw(st.sampled_from(["drop", "retype", "non-finite", "nested",
                                        "negative", "huge", "not an integer", "sum"]))
    if defect in ("drop", "retype"):
        owner, k = data.draw(st.sampled_from([(doc, "total_count"), (doc, "params"),
                                              (params, name), (h, key)]))
        if defect == "drop":
            owner.pop(k, None)
        else:
            owner[k] = data.draw(st.sampled_from([None, True, "1", {}, [], 2.5]))
    elif defect == "sum":
        doc["total_count"] = data.draw(st.integers(-2, 2**64))
    elif isinstance(h.get(key), list) and h[key]:
        values = h[key]
        i = data.draw(st.integers(0, len(values) - 1))
        values[i] = data.draw({
            "non-finite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            "nested": st.just([values[i]]),
            "negative": st.integers(max_value=-1),
            "huge": st.sampled_from([2**63, 10**30, 1e30, 1e300]),
            "not an integer": st.sampled_from([2.0, 0.5, True, "1"]),
        }[defect])


@pytest.fixture(scope="module")
def generate_inputs(workspace, tmp_path_factory):
    """A d=1 checkpoint and a valid histogram JSON of the workspace RIRs."""
    tmp = tmp_path_factory.mktemp("histfuzz")
    return _model(tmp), _hist(workspace, tmp)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzz_histogram_json_through_generate(generate_inputs, data):
    """A histogram document with dropped keys, wrong JSON types, NaN/Infinity
    literals, nested lists, negative or huge counts, unmatched sums, JSON
    nested too deeply or bytes that are not UTF-8 is bad input: exit 2, one
    error line naming the file, no traceback, nothing written."""
    model, valid_hist = generate_inputs
    doc = json.loads(Path(valid_hist).read_text())
    for _ in range(data.draw(st.integers(1, 2))):
        _histogram_mutation(doc, data)
    raw, corrupted = _corrupt(json.dumps(doc), data)  # NaN and Infinity as literals
    valid = _valid_histogram_doc(doc) and not corrupted
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        hist = tmp / "hists.json"
        hist.write_bytes(raw)
        out = tmp / "out"
        with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
            rc = main(["--out-dir", str(out), "generate", "--model", model,
                       "--hist", str(hist), "-n", "1",
                       "--config", _config(tmp, {"max_tries_per_sample": 3})])
        written = out.exists()
    assert "Traceback" not in err.getvalue()
    if valid:  # may generate, or stall on the untrained model (exit 2)
        assert rc in (0, 2)
        return
    assert rc == 2 and not written
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {hist}: ")

import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import typing
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirkit import acoustics, cli
from rirkit.audio import AudioBuffer, Rir, load_wav, save_wav
from rirkit.augment import AugmentSpec
from rirkit.cli import main
from rirkit.corpus import PoolEntry, RirPool, write_pool_csv
from rirkit.gan.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from rirkit.gan.nets import Critic, GanModel, Generator
from rirkit.gan.training import TrainConfig
from rirkit.sampler import (SamplerConfig, build_histograms, generate_constrained,
                            load_histograms, save_histograms)

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


def test_augment_reports_each_failed_utterance_once(workspace, tmp_path):
    """In a fresh interpreter, where no test harness captures log records, a
    missing clean file is reported on stderr once, as `failed <utt_id>: ...`."""
    clean = tmp_path / "clean.csv"
    clean.write_text(f"utt_id,path\nu0,{workspace / 'clean_0.wav'}\nu1,missing.wav\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run(
        [sys.executable, "-m", "rirkit.cli", "--out-dir", str(tmp_path / "out"), "augment",
         "--clean", str(clean), "--rirs", str(workspace / "rirs.csv"),
         "--noise", str(workspace / "noise.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        "failed u1: [Errno 2] No such file or directory: 'missing.wav'"]


def _huge_rate_wav(tmp):
    """A float WAV whose header claims 4294967291 Hz, a rate no resampling
    filter to 16 kHz could be built for."""
    path = tmp / "huge_rate.wav"
    save_wav(AudioBuffer(np.full(64, 0.5, dtype=np.float32), 16000), path)
    data = bytearray(path.read_bytes())
    data[24:28] = struct.pack("<I", 4294967291)  # the fmt chunk's sample rate
    path.write_bytes(bytes(data))
    return path


def _zeros_wav(tmp):
    path = tmp / "zeros.wav"
    save_wav(AudioBuffer(np.zeros(64, dtype=np.float32), 16000), path)
    return path


def test_analyze_reports_failed_rirs_and_carries_on(workspace, tmp_path, capsys):
    garbage = tmp_path / "garbage.wav"
    garbage.write_bytes(b"not a wav at all")
    delta = np.zeros(16384, dtype=np.float32)
    delta[0] = 1.0  # its decay is instantaneous, so T60 cannot be estimated
    save_wav(AudioBuffer(delta, 16000), tmp_path / "delta.wav")
    good = workspace / "rir_0.wav"
    huge = _huge_rate_wav(tmp_path)
    rc = main(["analyze", str(garbage), str(good), str(tmp_path / "delta.wav"), str(huge),
               "--csv", str(tmp_path / "params.csv")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert "rir_0: t60=" in out
    assert "failed" in err and "garbage.wav" in err and "delta.wav" in err
    assert f"failed {huge}: resampling 4294967291 Hz to 16000 Hz" in err
    rows = (tmp_path / "params.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("rir_0,")


def test_rir_past_float32_once_resampled_fails_in_one_line(tmp_path, capsys):
    """A 48 kHz float RIR of +-3.3e38 overshoots float32 once filtered:
    analyze and validate name the overflow, and numpy prints no warning."""
    path = tmp_path / "square.wav"
    square = np.where(np.arange(4800) // 24 % 2, 3.3e38, -3.3e38).astype(np.float32)
    save_wav(AudioBuffer(square, 48000), path)
    says = f"{path}: resampling 48000 Hz to 16000 Hz overflows float32 (peak 3.86e+38)"
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr() == ("", f"failed {says}\n")
    assert main(["validate", "--pool", _pool(tmp_path, f"r1,S,{path}\n")]) == 1
    assert capsys.readouterr() == ("checked 1 entries (S:1)\n"
                                   f"  r1: not loadable as RIR: {says}\n1 problem(s)\n", "")


def _one_sample_48k_wav(tmp):
    """Too short to give one sample at 16 kHz."""
    path = tmp / "one_sample.wav"
    save_wav(AudioBuffer(np.float32([0.5]), 48000), path)
    return path


def _not_riff(tmp):
    path = tmp / "not_riff.wav"
    path.write_bytes(b"not a wav at all")
    return path


BAD_RIR_FILES = {
    "all zeros": _zeros_wav,
    "not RIFF": _not_riff,
    "one sample at 48 kHz": _one_sample_48k_wav,
    "missing": lambda tmp: tmp / "missing.wav",
}


@pytest.mark.parametrize("case", list(BAD_RIR_FILES))
def test_bad_rir_file_named_once_by_every_reader(workspace, tmp_path, capsys, case):
    """analyze, train, validate and augment read RIR files through one reader,
    and each failure line they print names the bad file exactly once."""
    bad = str(BAD_RIR_FILES[case](tmp_path))
    pool = _pool(tmp_path, f"r1,S,{bad}\n")

    def lines(argv, rc):
        assert main(["--out-dir", str(tmp_path / "out"), *argv]) == rc
        out, err = capsys.readouterr()
        return out.splitlines(), err.splitlines()

    _, err = lines(["analyze", bad], 1)
    assert len(err) == 1 and err[0].startswith("failed ")

    _, train_err = lines(["train", "--config", _config(tmp_path, {"pool": pool, "steps": 1})], 2)
    assert len(train_err) == 1 and train_err[0].startswith("error: ")
    err += train_err

    out, _ = lines(["validate", "--pool", pool], 1)
    err += [line for line in out if line.startswith("  r1: ")]

    _, aug_err = lines(["augment", "--clean", str(workspace / "clean.csv"), "--rirs", pool,
                        "--noise", str(workspace / "noise.csv")], 1)
    assert len(aug_err) == 3 and all(line.startswith("failed utt") for line in aug_err)
    err += aug_err

    assert len(err) == 6
    for line in err:
        assert line.count(bad) == 1, line


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

# a train config that runs briefly wherever a bad value is let through
_D1_TRAIN = {"steps": 2, "d": 1, "batch_size": 2, "n_critic": 1, "checkpoint_every": 0}


def _model(tmp, **header):
    """A d=1 checkpoint, with the given header values written over its own."""
    path = tmp / "model.gan"
    save_checkpoint(GanModel(Generator(1), Critic(1), d=1, step=0, seed=0), path)
    if header:
        data = path.read_bytes()
        start = len(MAGIC) + 4
        end = start + struct.unpack_from("<I", data, len(MAGIC))[0]
        blob = json.dumps({**json.loads(data[start:end]), **header}).encode()
        path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + data[end:])
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
    "train pool a number": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": 5, "steps": 1})],
    "train pool null": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": None, "steps": 1})],
    "train pool empty string": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": "", "steps": 1})],
    "train pool with no entries": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": _pool(tmp, "id,source,path\n"),
                                           "steps": 1})],
    "generate n zero": lambda ws, tmp: [
        "generate", "--model", _model(tmp), "--hist", _hist(ws, tmp), "-n", "0"],
    "unknown train key": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1,
                                           "lr": 0.1})],
    "train steps not an integer": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1.5})],
    "train steps zero": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 0})],
    "train rng_seed negative": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1,
                                           "rng_seed": -1})],
    "seed negative before train": lambda ws, tmp: [
        "--seed", "-1", "train", "--config",
        _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1})],
    "seed negative before split": lambda ws, tmp: [
        "--seed", "-1", "split", "--pool", str(ws / "rirs.csv"), "--sizes", "4,1,1"],
    "seed negative before compose": lambda ws, tmp: [
        "--seed", "-1", "compose", "--pool", f"{ws / 'rirs.csv'}:2"],
    "seed negative before augment": lambda ws, tmp: [
        "--seed", "-1", "augment", "--clean", str(ws / "clean.csv"),
        "--rirs", str(ws / "rirs.csv"), "--noise", str(ws / "noise.csv")],
    "sampler rng_seed negative": lambda ws, tmp: [
        "generate", "--model", _model(tmp), "--hist", _hist(ws, tmp), "-n", "1",
        "--config", _config(tmp, {"rng_seed": -1})],
    "augment rng_seed negative": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"), "--rirs", str(ws / "rirs.csv"),
        "--noise", str(ws / "noise.csv"), "--spec", _config(tmp, {"rng_seed": -1})],
    "hist without params": lambda ws, tmp: [
        "generate", "--model", _model(tmp), "--hist", _config(tmp, {}), "-n", "1"],
    "hist without a parameter": lambda ws, tmp: [
        "generate", "--model", _model(tmp), "--hist", _config(tmp, {"params": {}}),
        "-n", "1"],
    "unknown latent_dist": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1,
                                           "latent_dist": "cauchy"})],
    "removed latent_dist key": lambda ws, tmp: [
        "train", "--config", _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1,
                                           "latent_dist": "uniform"})],
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
    "sizes with a non-ASCII digit": lambda ws, tmp: [
        "split", "--pool", str(ws / "rirs.csv"), "--sizes", "1,1,\u00b2"],
    "compose count not a number": lambda ws, tmp: [
        "compose", "--pool", f"{ws / 'rirs.csv'}:x"],
    "compose count a non-ASCII digit": lambda ws, tmp: [
        "compose", "--pool", f"{ws / 'rirs.csv'}:\u00b2"],
    "compose without count": lambda ws, tmp: ["compose", "--pool", "5"],
    "compose count past its pool": lambda ws, tmp: [
        "compose", "--pool", _file(tmp, "a.csv", f"r0,S,{ws / 'rir_0.wav'}\n") + ":1",
        "--pool", _file(tmp, "b.csv", f"r1,S,{ws / 'rir_1.wav'}\n") + ":2"],
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
        _header(tmp, json.dumps({"d": 100000, "step": 0, "seed": 0, "latent_dist": "uniform",
                                 "shuffle_radius": 2, "params": []}).encode()),
        "--hist", _hist(ws, tmp), "-n", "1"],
    "train pool WAV at a rate past the resampler": lambda ws, tmp: [
        "train", "--config",
        _config(tmp, {"pool": _pool(tmp, f"r,S,{_huge_rate_wav(tmp)}\n"), "steps": 1})],
    "train pool WAV all zeros": lambda ws, tmp: [
        "train", "--config",
        _config(tmp, {"pool": _pool(tmp, f"r,S,{_zeros_wav(tmp)}\n"), "steps": 1})],
    "train d too large to build": lambda ws, tmp: [
        "train", "--config",
        _config(tmp, {"pool": str(ws / "rirs.csv"), "steps": 1, "d": 1000000000})],
    "train clip_c infinite": lambda ws, tmp: [
        "train", "--config", _config(tmp, {**_D1_TRAIN, "pool": str(ws / "rirs.csv"),
                                           "clip_c": float("inf")})],
    "train learning_rate infinite": lambda ws, tmp: [
        "train", "--config", _config(tmp, {**_D1_TRAIN, "pool": str(ws / "rirs.csv"),
                                           "learning_rate": float("inf")})],
    "train shuffle_radius past the critic's last shuffle": lambda ws, tmp: [
        "train", "--config", _config(tmp, {**_D1_TRAIN, "pool": str(ws / "rirs.csv"),
                                           "shuffle_radius": 64})],
    "pool row with four fields": lambda ws, tmp: [
        "augment", "--clean", str(ws / "clean.csv"),
        "--rirs", _pool(tmp, f"r,S,{ws / 'rir_0.wav'},room1\n"),
        "--noise", str(ws / "noise.csv")],
    "checkpoint shuffle_radius past the critic's last shuffle": lambda ws, tmp: [
        "generate", "--model", _model(tmp, shuffle_radius=64), "--hist", _hist(ws, tmp),
        "-n", "1"],
    "analyze bins past memory": lambda ws, tmp: [
        "analyze", *sorted(str(p) for p in ws.glob("rir_*.wav"))[:3],
        "--hist", str(tmp / "h.json"), "--bins", "1000000000000"],
    "analyze bins past any array length": lambda ws, tmp: [
        "analyze", *sorted(str(p) for p in ws.glob("rir_*.wav"))[:2],
        "--hist", str(tmp / "h.json"), "--bins", str(2**63 - 1)],
    "train batch_size past any array length": lambda ws, tmp: [
        "train", "--config", _config(tmp, {**_D1_TRAIN, "pool": str(ws / "rirs.csv"),
                                           "batch_size": 2**63})],
    "train batch_size past a C long": lambda ws, tmp: [
        "train", "--config", _config(tmp, {**_D1_TRAIN, "pool": str(ws / "rirs.csv"),
                                           "batch_size": 10**20})],
}

# cases whose error line must name the file that could not be read
NAMED_FILE = {
    "train pool a number": "config.json",
    "train pool null": "config.json",
    "train pool empty string": "config.json",
    "train pool with no entries": "pool.csv",
    "removed latent_dist key": "config.json",
    "train steps zero": "config.json",
    "train rng_seed negative": "config.json",
    "sampler rng_seed negative": "config.json",
    "augment rng_seed negative": "config.json",
    "train config nested too deeply": "config.json",
    "augment spec nested too deeply": "config.json",
    "train config not UTF-8": "config.json",
    "pool not UTF-8": "pool.csv",
    "clean manifest not UTF-8": "clean.csv",
    "histogram nested too deeply": "config.json",
    "checkpoint header nested too deeply": "model.gan",
    "checkpoint d too large to build": "model.gan",
    "compose count past its pool": "b.csv",
    "train pool WAV at a rate past the resampler": "huge_rate.wav",
    "train pool WAV all zeros": "zeros.wav",
    "train clip_c infinite": "config.json",
    "train learning_rate infinite": "config.json",
    "train shuffle_radius past the critic's last shuffle": "config.json",
    "pool row with four fields": "pool.csv",
    "checkpoint shuffle_radius past the critic's last shuffle": "model.gan",
    "train batch_size past any array length": "config.json",
    "train batch_size past a C long": "config.json",
}

# cases whose error line must say what was refused: the flag, the field, the
# model size or the row
SAYS = {
    "sizes with a non-ASCII digit": "--sizes needs three comma-separated counts",
    "compose count a non-ASCII digit": "--pool needs CSV:COUNT",
    "train d too large to build": "no memory for a d=1000000000 model",
    "train clip_c infinite": "clip_c must be > 0 and finite, got inf",
    "train learning_rate infinite": "learning_rate must be > 0 and finite, got inf",
    "train shuffle_radius past the critic's last shuffle":
        "shuffle_radius must be in [0, 63], got 64",
    "pool row with four fields": "line 1: expected id,source,path",
    "checkpoint shuffle_radius past the critic's last shuffle":
        "no d=1 model can be built (shuffle_radius must be in [0, 63], got 64)",
    "analyze bins past any array length": f"--bins must be < 2**62, got {2**63 - 1}",
    "train batch_size past any array length": f"batch_size must be < 2**62, got {2**63}",
    "train batch_size past a C long": f"batch_size must be < 2**62, got {10**20}",
    "analyze bins past memory": "Unable to allocate",
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
    if case in SAYS:
        assert SAYS[case] in err


def test_train_out_of_memory_exits_2_without_traceback(workspace, tmp_path, capsys):
    # train makes --out-dir before its first step, where the batch is allocated
    config = _config(tmp_path, {**_D1_TRAIN, "pool": str(workspace / "rirs.csv"),
                                "batch_size": 10**12})
    assert main(["--out-dir", str(tmp_path / "out"), "train", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and len(err.splitlines()) == 1


def test_bare_memory_error_exits_2_saying_so(workspace, monkeypatch, capsys):
    def no_memory(args):
        raise MemoryError
    monkeypatch.setattr(cli, "_cmd_validate", no_memory)
    assert main(["validate", "--pool", str(workspace / "rirs.csv")]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("command", ["train", "split", "compose", "augment"])
def test_negative_seed_refused_before_the_command_runs(workspace, tmp_path, capsys, command):
    argv = BAD_INPUTS[f"seed negative before {command}"](workspace, tmp_path)
    assert main(["--out-dir", str(tmp_path / "out"), *argv]) == 2
    assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n")


def test_validate_no_load_is_gone(workspace, capsys):
    """validate always loads each file; the flag that skipped it is an argparse error."""
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--pool", str(workspace / "rirs.csv"), "--no-load"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-load" in capsys.readouterr().err


def test_compose_out_is_gone(workspace, tmp_path, capsys):
    """compose always writes composed.csv into --out-dir; the flag that renamed it
    is an argparse error."""
    pool = f"{workspace / 'rirs.csv'}:2"
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path), "compose", "--pool", pool, "--out", "x.csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["--out-dir", str(tmp_path), "compose", "--pool", pool]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["composed.csv"]


@pytest.mark.parametrize("argv", [
    ["analyze", "r.wav"], ["train", "--config", "t.json"],
    ["generate", "--model", "m.gan", "--hist", "h.json", "-n", "1"],
    ["augment", "--clean", "c.csv", "--rirs", "r.csv", "--noise", "n.csv"],
    ["split", "--pool", "p.csv", "--sizes", "1,1,1"], ["compose", "--pool", "p.csv:1"],
    ["validate", "--pool", "p.csv"],
], ids=lambda argv: argv[0])
def test_each_subcommand_parser_carries_its_handler(argv):
    args = cli._build_parser().parse_args(argv)
    assert args.run is getattr(cli, f"_cmd_{argv[0]}")


def test_analyze_bins_refused_before_any_rir_is_read(workspace, tmp_path, capsys):
    rc = main(["analyze", str(workspace / "rir_0.wav"), str(workspace / "rir_1.wav"),
               "--csv", str(tmp_path / "p.csv"), "--hist", str(tmp_path / "h.json"),
               "--bins", "1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err == "error: --bins must be >= 2, got 1\n"
    assert out == ""  # no RIR was analysed
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "h.json").exists()


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
    parameter, at least two strictly increasing finite edges whose bin widths
    all equal the first to 1e-9 of the span (plus 4 ulps of the largest edge)
    and one non-negative int64 count per bin (no bools, no fractions), and
    every parameter's counts summing to an integer total_count >= 1."""
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
        widths = [b - a for a, b in zip(edges, edges[1:])]
        tol = 1e-9 * (edges[-1] - edges[0]) + 4 * math.ulp(max(abs(e) for e in edges))
        if any(abs(w - widths[0]) > tol for w in widths):
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


@pytest.mark.parametrize("input_file", ["hist", "config"])
def test_generate_refuses_bad_hist_or_config_before_reading_the_model(
        workspace, tmp_path, capsys, monkeypatch, input_file):
    def no_model(*args, **kwargs):
        raise AssertionError("load_checkpoint called before the small inputs were checked")

    monkeypatch.setattr(cli, "load_checkpoint", no_model)
    hist = (_config(tmp_path, {"params": {}}) if input_file == "hist"
            else _hist(workspace, tmp_path))
    argv = ["--out-dir", str(tmp_path / "out"), "generate", "--model", str(tmp_path / "x.gan"),
            "--hist", hist, "-n", "1"]
    if input_file == "config":
        argv += ["--config", _file(tmp_path, "sampler.json", '{"relax_prob": "high"}')]
    assert main(argv) == 2
    bad = hist if input_file == "hist" else str(tmp_path / "sampler.json")
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")
    assert not (tmp_path / "out").exists()


def test_generate_writes_the_bytes_of_a_full_load(tmp_path, monkeypatch):
    loads = []
    monkeypatch.setattr(cli, "load_checkpoint",
                        lambda path, **kw: loads.append(kw) or load_checkpoint(path, **kw))
    # a random d=1 generator and histograms of its own outputs, so tries are accepted
    model = GanModel(Generator(1, rng=np.random.default_rng(3)),
                     Critic(1, rng=np.random.default_rng(4)), d=1, step=0, seed=0)
    ckpt, hist = tmp_path / "model.gan", tmp_path / "hists.json"
    save_checkpoint(model, ckpt)
    waves = model.generator.forward(np.random.default_rng(5).uniform(-1, 1, (32, 100)))
    params = [acoustics.analyze(Rir.from_samples(w)) for w in waves]
    save_histograms(build_histograms(params, SamplerConfig()), hist)
    assert main(["--seed", "6", "--out-dir", str(tmp_path / "gen"), "generate",
                 "--model", str(ckpt), "--hist", str(hist), "-n", "2"]) == 0
    assert loads == [{"critic": False}]  # the critic's blobs were skipped
    rirs, _ = generate_constrained(load_checkpoint(ckpt), load_histograms(hist), 2,
                                   SamplerConfig(rng_seed=6))
    for i, rir in enumerate(rirs):
        save_wav(rir, tmp_path / f"ref_{i}.wav")
        assert ((tmp_path / "gen" / f"rir_{i:04d}.wav").read_bytes()
                == (tmp_path / f"ref_{i}.wav").read_bytes())

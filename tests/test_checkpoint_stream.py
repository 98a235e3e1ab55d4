"""A checkpoint load streams: it reads each weight blob in bounded blocks of
leading-axis rows into the model it builds, so its allocations peak at the
model plus one read buffer, not at the model plus a blob or the whole file."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from rirkit.gan.checkpoint import (_BLOCK_BYTES, _COPY_COLUMNS, _NO_BYTES, MAGIC, CheckpointError,
                                   _blocks, _tensors, load_checkpoint, save_checkpoint)
from rirkit.gan.nets import Critic, GanModel, Generator


def _model(d):
    return GanModel(Generator(d, rng=np.random.default_rng(1)),
                    Critic(d, rng=np.random.default_rng(2)), d=d, step=5, seed=6)


def _arrays(model):
    return model.generator.param_arrays() + model.critic.param_arrays()


def _traced_load(path):
    load_checkpoint(path)  # imports and one-time caches stay outside the trace
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return loaded, peak


@pytest.fixture(scope="module")
def d16(tmp_path_factory):
    model = _model(16)
    path = tmp_path_factory.mktemp("ckpt") / "model.gan"
    save_checkpoint(model, path)
    return model, path


def test_load_peaks_at_model_plus_largest_tensor(tmp_path):
    model = _model(8)
    path = tmp_path / "model.gan"
    save_checkpoint(model, path)
    arrays = _arrays(model)
    model_bytes = sum(a.nbytes for a in arrays)  # 3.0 MB at d=8
    largest = max(a.nbytes for a in arrays)  # 0.8 MB: the dense and outer conv weights
    loaded, peak = _traced_load(path)
    # holding the whole file would add its size, about model_bytes
    assert peak <= model_bytes + largest + 256 * 1024
    for a, b in zip(arrays, _arrays(loaded)):
        np.testing.assert_array_equal(a, b)


def test_load_peaks_at_model_plus_one_block(d16):
    model, path = d16
    arrays = _arrays(model)
    model_bytes = sum(a.nbytes for a in arrays)  # 10.4 MB at d=16
    assert max(a.nbytes for a in arrays) > 3 * _BLOCK_BYTES  # 3.3 MB: a blob would show
    loaded, peak = _traced_load(path)
    assert peak <= model_bytes + _BLOCK_BYTES + 256 * 1024
    for a, b in zip(arrays, _arrays(loaded)):
        np.testing.assert_array_equal(a, b)


def test_cut_inside_a_later_block_refused(d16, tmp_path):
    model, path = d16
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    offset = len(MAGIC) + 4 + hlen
    entries = json.loads(data[len(MAGIC) + 4 : offset])["params"]
    for entry, arr in zip(entries, _arrays(model)):
        blocks = _blocks(arr)
        if len(blocks) > 1:
            break
        offset += arr.nbytes
    first = arr[blocks[0]].nbytes
    assert first <= _BLOCK_BYTES < arr.nbytes
    cut = tmp_path / "cut.gan"
    cut.write_bytes(data[: offset + first + 100])
    with pytest.raises(CheckpointError, match="truncated weight blob for " + re.escape(str(entry))):
        load_checkpoint(cut)


def test_save_load_save_is_byte_identical(d16, tmp_path):
    _, path = d16
    again = tmp_path / "again.gan"
    save_checkpoint(load_checkpoint(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_save_load_round_trip_with_a_partial_copy_slice(tmp_path):
    """At d=5 tconv1's c_in is 80: a transposed block is copied in slices of
    _COPY_COLUMNS, the last one partial, on save and on load."""
    model = _model(5)
    tconv1 = model.generator.named_params()[2]
    assert tconv1[:2] == ("tconv1", "W") and tconv1[2].shape[1] % _COPY_COLUMNS != 0
    save_checkpoint(model, tmp_path / "a.gan")
    loaded = load_checkpoint(tmp_path / "a.gan")
    for a, b in zip(_arrays(model), _arrays(loaded)):
        assert a.tobytes() == b.tobytes()
    save_checkpoint(loaded, tmp_path / "b.gan")
    assert (tmp_path / "b.gan").read_bytes() == (tmp_path / "a.gan").read_bytes()


def test_generator_only_load_peaks_at_generator_plus_one_block(d16):
    model, path = d16
    generator_bytes = sum(a.nbytes for a in model.generator.param_arrays())  # 6.0 MB at d=16
    critic_bytes = sum(a.nbytes for a in model.critic.param_arrays())  # 4.4 MB
    assert critic_bytes > _BLOCK_BYTES + 256 * 1024  # reading the critic would show
    load_checkpoint(path, critic=False)  # imports and one-time caches stay outside the trace
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path, critic=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= generator_bytes + _BLOCK_BYTES + 256 * 1024
    assert loaded.critic is None
    for a, b in zip(model.generator.param_arrays(), loaded.generator.param_arrays()):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("critic", [True, False])
def test_cut_after_the_header_refused_before_any_weight_is_built(tmp_path, critic):
    # a d=64 header and manifest, written from zero-byte nets, then 1000 bytes
    # of the 146 MB of blobs it announces: refused from the file size alone
    layout = _tensors(Generator(64, dtype=_NO_BYTES), Critic(64, dtype=_NO_BYTES))
    header = json.dumps({"d": 64, "step": 0, "seed": 0, "latent_dist": "uniform",
                         "shuffle_radius": 2, "params": [entry for entry, _ in layout]})
    path = tmp_path / "cut.gan"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header.encode() + bytes(1000))
    first = layout[0][0]
    assert (first["role"], first["layer"], first["param"]) == ("generator", "dense", "W")
    refusal = "truncated weight blob for " + re.escape(str(first))
    with pytest.raises(CheckpointError, match=refusal):  # imports stay outside the trace
        load_checkpoint(path, critic=critic)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=refusal):
            load_checkpoint(path, critic=critic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

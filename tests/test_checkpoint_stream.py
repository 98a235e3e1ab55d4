"""A checkpoint load streams: it reads each weight blob in bounded blocks of
leading-axis rows into the model it builds, so its allocations peak at the
model plus one read buffer, not at the model plus a blob or the whole file."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from rirkit.gan import CheckpointError, Critic, GanModel, Generator, load_checkpoint, save_checkpoint
from rirkit.gan.checkpoint import _BLOCK_BYTES, MAGIC, _blocks


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

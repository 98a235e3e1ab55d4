"""Checkpoint load contract: a checkpoint restores every tensor of the model
its header describes, or it raises CheckpointError."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirkit.gan.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from rirkit.gan.nets import Critic, GanModel, Generator


def _d1_model():
    return GanModel(Generator(1, rng=np.random.default_rng(1)),
                    Critic(1, rng=np.random.default_rng(2)), d=1, step=3, seed=4)


@pytest.fixture()
def saved(tmp_path):
    model = _d1_model()
    path = tmp_path / "model.gan"
    save_checkpoint(model, path)
    return model, path


def split(path):
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    start = len(MAGIC) + 4
    return json.loads(data[start : start + hlen]), data[start + hlen :]


def join(path, header, body):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + body)


def test_golden_bytes(saved):
    """The file format, pinned: a change to the header's keys, their order or
    values, or to the blob layout, moves these."""
    data = saved[1].read_bytes()
    assert len(data) == 140657
    assert hashlib.sha256(data).hexdigest() == (
        "c89b0e49bfc2a360d509223c7f3f252ce7f5e174072bd21699cf2195813849a7")
    assert split(saved[1])[0]["latent_dist"] == "uniform"


def test_rewritten_unchanged_header_still_loads(saved):
    model, path = saved
    join(path, *split(path))
    loaded = load_checkpoint(path)
    assert (loaded.d, loaded.step, loaded.seed) == (1, 3, 4)
    for a, b in zip(model.critic.param_arrays(), loaded.critic.param_arrays()):
        np.testing.assert_array_equal(a, b)


def test_partial_manifest_refused(saved):
    # only the generator's dense.W, with exactly its blob: every other tensor
    # would keep its placeholder initialisation
    _, path = saved
    header, body = split(path)
    first = header["params"][0]
    assert (first["role"], first["layer"], first["param"]) == ("generator", "dense", "W")
    header["params"] = [first]
    join(path, header, body[: 4 * int(np.prod(first["shape"]))])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _drop_last(params):
    return params[:-1]


def _extra(params):
    return params + [dict(params[-1], param="extra")]


def _reorder(params):
    return [params[1], params[0]] + params[2:]


def _wrong_shape(params):
    return [dict(params[0], shape=[100, 255])] + params[1:]


@pytest.mark.parametrize("edit", [_drop_last, _extra, _reorder, _wrong_shape])
def test_manifest_mismatch_refused(saved, edit):
    _, path = saved
    header, body = split(path)
    header["params"] = edit(header["params"])
    join(path, header, body)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["d", "step", "seed"])
@pytest.mark.parametrize("value", [None, "1", 1.5, True])
def test_bad_integer_fields_refused(saved, key, value):
    _, path = saved
    header, body = split(path)
    if value is None:
        del header[key]
    else:
        header[key] = value
    join(path, header, body)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# d and shuffle_radius are judged by the nets that the layout walk builds
@pytest.mark.parametrize("key, value", [("step", -1),
                                        ("seed", -1),
                                        ("latent_dist", "cauchy"),
                                        ("latent_dist", "gaussian"),
                                        ("shuffle_radius", -3),
                                        ("shuffle_radius", "two"),
                                        ("shuffle_radius", 64),
                                        ("d", 0),
                                        ("latent_dist", None),
                                        ("shuffle_radius", None)])
def test_unusable_model_fields_refused(saved, key, value):
    _, path = saved
    header, body = split(path)
    if value is None:
        del header[key]
    else:
        header[key] = value
    join(path, header, body)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_truncated_blob_refused(saved):
    _, path = saved
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="truncated weight blob"):
        load_checkpoint(path)


def test_trailing_bytes_refused(saved):
    _, path = saved
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="1 trailing bytes"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def d1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.gan"
    save_checkpoint(_d1_model(), path)
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    return path, data, len(MAGIC) + 4 + hlen


@settings(max_examples=100, deadline=None)
@given(where=st.floats(0.0, 1.0, exclude_max=True), value=st.integers(0, 255))
def test_header_byte_replaced(d1_file, where, value):
    # one byte of the magic, length prefix or JSON header: a single digit of d
    # can change, so any model built stays small
    path, data, header_end = d1_file
    mutated = bytearray(data)
    mutated[int(where * header_end)] = value
    path.write_bytes(bytes(mutated))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@pytest.mark.parametrize("critic", [True, False])
@pytest.mark.parametrize("header", [[1, 2], "d", 3, None])
def test_header_that_is_not_an_object_refused(saved, header, critic):
    _, path = saved
    join(path, header, split(path)[1])
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: corrupt header")):
        load_checkpoint(path, critic=critic)


# generator-only loads: the same checks, the critic's blobs skipped unread

def test_generator_only_load_restores_the_generator(saved):
    model, path = saved
    loaded = load_checkpoint(path, critic=False)
    assert loaded.critic is None
    assert (loaded.d, loaded.step, loaded.seed) == (1, 3, 4)
    for a, b in zip(model.generator.param_arrays(), loaded.generator.param_arrays()):
        np.testing.assert_array_equal(a, b)


def _set(key, value):
    def edit(header, body):
        if value is None:
            del header[key]
        else:
            header[key] = value
        return header, body
    return edit


def _manifest(change):
    def edit(header, body):
        header["params"] = change(header["params"])
        return header, body
    return edit


def _partial(header, body):
    first = header["params"][0]
    header["params"] = [first]
    return header, body[: 4 * int(np.prod(first["shape"]))]


# d values whose float32 nets numpy cannot shape; for the larger two, not even
# the zero-byte layout a load checks the manifest against can be built
HUGE_D = (10**16, 10**19, 2**63)


# every header and manifest refusal of the tests above (which load with the
# critic), as (header, body) edits
HEADER_REFUSALS = {
    "partial manifest": _partial,
    **{f"manifest {change.__name__}": _manifest(change)
       for change in (_drop_last, _extra, _reorder, _wrong_shape)},
    **{f"{key}={value!r}": _set(key, value)
       for key in ("d", "step", "seed") for value in (None, "1", 1.5, True)},
    **{f"{key}={value!r}": _set(key, value)
       for key, value in (("step", -1), ("seed", -1),
                          ("latent_dist", "cauchy"), ("shuffle_radius", -3),
                          ("shuffle_radius", "two"), ("shuffle_radius", 64), ("d", 0),
                          ("latent_dist", None), ("shuffle_radius", None))},
    **{f"d={value}": _set("d", value) for value in HUGE_D},
}


@pytest.mark.parametrize("case", list(HEADER_REFUSALS))
def test_generator_only_load_makes_every_header_check(saved, case):
    _, path = saved
    join(path, *HEADER_REFUSALS[case](*split(path)))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, critic=False)


@pytest.mark.parametrize("critic", [True, False])
@pytest.mark.parametrize("d", HUGE_D)
def test_huge_d_refused_naming_the_file(saved, d, critic):
    _, path = saved
    join(path, *_set("d", d)(*split(path)))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path, critic=critic)


@pytest.mark.parametrize("critic", [True, False])
def test_cut_inside_the_critics_last_blob_refused_by_name(saved, critic):
    _, path = saved
    header, _ = split(path)
    last = header["params"][-1]
    assert (last["role"], last["layer"], last["param"]) == ("critic", "dense", "b")
    assert last["shape"] == [1]  # 4 bytes: a 2-byte cut lands inside it
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(CheckpointError, match=re.escape(f"truncated weight blob for {last}")):
        load_checkpoint(path, critic=critic)


def test_generator_only_load_refuses_trailing_bytes(saved):
    _, path = saved
    path.write_bytes(path.read_bytes() + b"\0\0")
    with pytest.raises(CheckpointError, match="2 trailing bytes"):
        load_checkpoint(path, critic=False)


def test_numpy_integer_step_and_seed_saved_as_int(tmp_path):
    model = _d1_model()
    model.step, model.seed = np.int64(3), np.uint32(4)
    model.d, model.critic.shuffle_radius = np.int64(1), np.int64(2)
    path = tmp_path / "model.gan"
    save_checkpoint(model, path)
    header, _ = split(path)
    assert (header["step"], header["seed"]) == (3, 4)
    assert (header["d"], header["shuffle_radius"]) == (1, 2)
    loaded = load_checkpoint(path)
    assert (loaded.step, loaded.seed) == (3, 4)
    assert (loaded.d, loaded.critic.shuffle_radius) == (1, 2)


@pytest.mark.parametrize("key, value", [("step", -1), ("seed", -1), ("step", np.int64(-1)),
                                        ("step", 1.0), ("seed", "4"), ("seed", None),
                                        ("d", True), ("d", 1.0)])
def test_save_refuses_what_the_load_refuses(tmp_path, key, value):
    model = _d1_model()
    setattr(model, key, value)
    path = tmp_path / "model.gan"
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: header needs integers d, "
                                                        "step >= 0, seed >= 0")):
        save_checkpoint(model, path)
    assert not path.exists()


def test_save_refuses_a_d_its_nets_were_not_built_with(tmp_path):
    model = _d1_model()
    model.d = 2
    path = tmp_path / "model.gan"
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: parameter manifest differs from a d=2 model's")):
        save_checkpoint(model, path)
    assert not path.exists()


# what a caller may leave in a model's d, step or seed: ints (negatives
# included), numpy integers, bools and floats
_FIELD_VALUES = st.one_of(st.integers(-3, 2**70), st.integers(-3, 2**40).map(np.int64),
                          st.booleans(), st.floats(-3.0, 1e20))


@pytest.fixture(scope="module")
def d1_model():
    return _d1_model()


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2]), step=_FIELD_VALUES, seed=_FIELD_VALUES)
def test_save_refuses_or_the_load_restores_every_bit(d1_model, tmp_path_factory, d, step,
                                                     seed):
    path = tmp_path_factory.mktemp("prop") / "model.gan"
    d1_model.d, d1_model.step, d1_model.seed = d, step, seed
    saves = d == 1 and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                           and v >= 0 for v in (step, seed))
    try:
        save_checkpoint(d1_model, path)
    except CheckpointError:
        assert not saves and not path.exists()
        return
    assert saves
    loaded = load_checkpoint(path)
    assert (loaded.d, loaded.step, loaded.seed) == (1, step, seed)
    for net in ("generator", "critic"):
        for a, b in zip(getattr(d1_model, net).param_arrays(),
                        getattr(loaded, net).param_arrays()):
            assert a.tobytes() == b.tobytes()


def test_generator_only_model_cannot_be_saved(saved, tmp_path):
    _, path = saved
    with pytest.raises(ValueError, match="without a critic"):
        save_checkpoint(load_checkpoint(path, critic=False), tmp_path / "again.gan")
    assert not (tmp_path / "again.gan").exists()


@settings(max_examples=100, deadline=None)
@given(where=st.floats(0.0, 1.0, exclude_max=True), value=st.integers(0, 255))
def test_header_byte_replaced_generator_only(d1_file, where, value):
    path, data, header_end = d1_file
    mutated = bytearray(data)
    mutated[int(where * header_end)] = value
    path.write_bytes(bytes(mutated))
    try:
        load_checkpoint(path, critic=False)
    except CheckpointError:
        pass

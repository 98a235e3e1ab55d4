"""Versioned model checkpoints.

Layout: magic bytes "IRGAN01", a little-endian uint32 header length, a JSON
header (d, step, seed, latent distribution, shuffle radius, and the ordered
parameter manifest with shapes), then raw little-endian float32 weight blobs
in manifest order (generator first, then critic). A load checks the header's
types, then its manifest and the file size against nets of zero-byte tensors,
which refuse any d or shuffle radius that the nets' shape rules forbid; so a
refused checkpoint allocates no weights and an accepted one restores every
tensor. Only then does it build a float32 model with zero weights (no random
initialisation) and read each blob into its tensor in place, in blocks of
leading-axis rows of at most a mebibyte (or one row, if a row is larger). A
block of a C-contiguous tensor is read straight into the tensor. A block of
a ConvTranspose1d weight, a transposed view of its storage, lands in one
reused buffer and is copied into place in slices of _COPY_COLUMNS columns,
which keep the strided side of each slice within a few cache lines (a d=64
tap copies 2-3x faster than in one transposed copy). So a load peaks at the
model plus one bounded buffer. Saving runs the load's header check on the
header it writes, so it refuses, before it opens the file, every header that
the load would refuse (a numpy integer is written as an int), and then writes
the same blocks, a transposed one copied into the buffer the same way. A
generator-only load (critic=False) makes the same checks, but builds no
critic and leaves its blobs unread.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
from pathlib import Path

import numpy as np

from .._fields import parse_json

MAGIC = b"IRGAN01"
_BLOCK_BYTES = 1 << 20  # one read or write block, unless a single row is larger
_COPY_COLUMNS = 64  # columns per slice of a transposed block's copy
_NO_BYTES = np.dtype([])  # zero-byte records: a net built of them has shapes, no storage
_HEADER_RULE = ('header needs integers d, step >= 0, seed >= 0 and shuffle_radius, '
                'and latent_dist "uniform"')


class CheckpointError(ValueError):
    pass


def _tensors(generator, critic) -> list[tuple[dict, np.ndarray]]:
    """(manifest entry, live array) for every tensor, in checkpoint order; a
    None critic (a generator-only load) holds none."""
    return [({"role": role, "layer": layer_name, "param": param_name,
              "shape": list(arr.shape)}, arr)
            for role, net in (("generator", generator), ("critic", critic))
            if net is not None
            for layer_name, param_name, arr in net.named_params()]


def _blocks(arr: np.ndarray) -> list[slice]:
    """Leading-axis row ranges of arr, in file order, each of at most
    _BLOCK_BYTES but at least one row."""
    rows = max(1, _BLOCK_BYTES // max(1, arr[:1].nbytes))
    return [slice(i, i + rows) for i in range(0, len(arr), rows)]


def _copy(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """dst[...] = src; returns dst. numpy walks dst in its memory order, so
    when src is a transposed view (or dst is, and src is not) the copy runs
    in slices of _COPY_COLUMNS along dst's contiguous axis: each slice walks
    the other side through few enough cache lines that they stay in cache."""
    axis = int(np.argmin(dst.strides))
    for j in range(0, dst.shape[axis], _COPY_COLUMNS):
        at = (slice(None),) * axis + (slice(j, j + _COPY_COLUMNS),)
        dst[at] = src[at]
    return dst


def _buffer(tensors) -> np.ndarray:
    """One little-endian float32 row buffer, sized to the largest block."""
    return np.empty(max(arr[rows].size for _, arr in tensors for rows in _blocks(arr)), "<f4")


def _layout(header, path) -> list[tuple[dict, np.ndarray]]:
    """The zero-byte layout of the model a parsed header describes, or
    CheckpointError: the one header rule that a load and a save both run."""
    from .nets import Critic, Generator

    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header")
    d, step, seed, latent_dist, radius = (header.get(key) for key in (
        "d", "step", "seed", "latent_dist", "shuffle_radius"))
    if (latent_dist != "uniform" or not all(type(v) is int for v in (d, step, seed, radius))
            or min(step, seed) < 0):
        raise CheckpointError(f"{path}: {_HEADER_RULE}")
    try:  # shapes only: zero-byte tensors, so nothing is allocated yet
        layout = _tensors(Generator(d, dtype=_NO_BYTES),
                          Critic(d, shuffle_radius=radius, dtype=_NO_BYTES))
    except ValueError as exc:  # the nets refuse what they cannot build, numpy a huge d
        raise CheckpointError(f"{path}: no d={d} model can be built ({exc})") from None
    if header.get("params") != [entry for entry, _ in layout]:
        raise CheckpointError(f"{path}: parameter manifest differs from a d={d} model's")
    return layout


def save_checkpoint(model, path: str | Path) -> None:
    if model.critic is None:
        raise ValueError("cannot save a model without a critic (a generator-only load)")
    tensors = _tensors(model.generator, model.critic)
    header = {
        "d": model.d,
        "step": model.step,
        "seed": model.seed,
        "latent_dist": "uniform",
        "shuffle_radius": model.critic.shuffle_radius,
        "params": [entry for entry, _ in tensors],
    }
    try:  # numpy integers are written as int
        blob = json.dumps(header, default=operator.index).encode("utf-8")
    except TypeError:
        raise CheckpointError(f"{path}: {_HEADER_RULE}") from None
    _layout(json.loads(blob), path)
    buf = _buffer(tensors)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, arr in tensors:
            for rows in _blocks(arr):
                part = arr[rows]
                f.write(np.ascontiguousarray(part, dtype="<f4") if part.flags.c_contiguous
                        else _copy(buf[: part.size].reshape(part.shape), part))


def load_checkpoint(path: str | Path, critic: bool = True):
    """The model a checkpoint holds, every tensor restored, or CheckpointError.

    With critic=False the header, the manifest (the critic's entries too) and
    the file size are checked as in a full load, but the critic's blobs are
    left unread and the model's critic is None.
    """
    from .nets import Critic, GanModel, Generator

    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(len(MAGIC) + 4)
        if len(head) < len(MAGIC) + 4 or head[: len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: not a {MAGIC.decode()} checkpoint")
        (hlen,) = struct.unpack_from("<I", head, len(MAGIC))
        try:  # capped: a corrupt length would otherwise allocate up to 4 GiB
            header = parse_json(f.read(min(hlen, size)).decode("utf-8"), path)
        except ValueError as exc:
            raise CheckpointError(f"{path}: corrupt header") from exc
        layout = _layout(header, path)
        d, step, seed, radius = (header[key] for key in ("d", "step", "seed", "shuffle_radius"))
        left = size - f.tell()
        for entry, arr in layout:  # math.prod: a zero-byte array's size can overflow
            left -= 4 * math.prod(arr.shape)
            if left < 0:
                raise CheckpointError(f"{path}: truncated weight blob for {entry}")
        if left:
            raise CheckpointError(f"{path}: {left} trailing bytes")

        try:  # zero weights, filled in place below
            model = GanModel(Generator(d), Critic(d, shuffle_radius=radius) if critic else None,
                             d=d, step=step, seed=seed)
        except MemoryError:
            raise CheckpointError(f"{path}: no memory for a d={d} model") from None
        tensors = _tensors(model.generator, model.critic)
        buf = _buffer(tensors)
        for entry, arr in tensors:
            for rows in _blocks(arr):
                part = arr[rows]
                direct = part.flags.c_contiguous and part.dtype == buf.dtype
                block = part if direct else buf[: part.size].reshape(part.shape)
                if f.readinto(block) != block.nbytes:  # the file shrank during the load
                    raise CheckpointError(f"{path}: truncated weight blob for {entry}")
                if not direct:
                    _copy(part, block)
    return model

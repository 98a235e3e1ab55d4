"""Versioned model checkpoints.

Layout: magic bytes "IRGAN01", a little-endian uint32 header length, a JSON
header (d, step, seed, latent distribution, shuffle radius, and the ordered
parameter manifest with shapes), then raw little-endian float32 weight blobs
in manifest order (generator first, then critic). Loading builds a float32
model with zero weights (no random initialisation) and reads each blob into
its tensor in place, in blocks of leading-axis rows through one reused buffer
of at most a mebibyte (or one row, if a row is larger), so a load peaks at
the model plus one bounded read buffer; saving writes the same blocks. A
load refuses a header whose manifest differs from the one that d builds,
whose d is too large to build, or whose latent distribution or shuffle
radius that model cannot use, so a checkpoint either restores every tensor
or does not load.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .._fields import parse_json

MAGIC = b"IRGAN01"
_BLOCK_BYTES = 1 << 20  # one read or write block, unless a single row is larger


class CheckpointError(ValueError):
    pass


def _tensors(model) -> list[tuple[dict, np.ndarray]]:
    """(manifest entry, live array) for every tensor, in checkpoint order."""
    return [({"role": role, "layer": layer_name, "param": param_name,
              "shape": list(arr.shape)}, arr)
            for role, net in (("generator", model.generator), ("critic", model.critic))
            for layer_name, param_name, arr in net.named_params()]


def _blocks(arr: np.ndarray) -> list[slice]:
    """Leading-axis row ranges of arr, in file order, each of at most
    _BLOCK_BYTES but at least one row."""
    rows = max(1, _BLOCK_BYTES // max(1, arr[:1].nbytes))
    return [slice(i, i + rows) for i in range(0, len(arr), rows)]


def save_checkpoint(model, path: str | Path) -> None:
    tensors = _tensors(model)
    header = {
        "d": model.d,
        "step": model.step,
        "seed": model.seed,
        "latent_dist": model.latent_dist,
        "shuffle_radius": model.critic.shuffle_radius,
        "params": [entry for entry, _ in tensors],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, arr in tensors:
            for rows in _blocks(arr):
                f.write(np.ascontiguousarray(arr[rows], dtype="<f4"))


def load_checkpoint(path: str | Path):
    from .nets import LATENT_DISTS, Critic, GanModel, Generator

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
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: corrupt header")
        d, step, seed = (header.get(key) for key in ("d", "step", "seed"))
        if not all(type(v) is int for v in (d, step, seed)) or d < 1:
            raise CheckpointError(f"{path}: header needs integers d >= 1, step and seed")
        latent_dist = header.get("latent_dist", "uniform")
        radius = header.get("shuffle_radius", 2)
        if latent_dist not in LATENT_DISTS:
            raise CheckpointError(f"{path}: unknown latent distribution {latent_dist!r}")
        if type(radius) is not int or radius < 0:
            raise CheckpointError(f"{path}: shuffle radius must be an integer >= 0")

        try:  # zero weights, filled in place below
            model = GanModel(Generator(d), Critic(d, shuffle_radius=radius), d=d,
                             step=step, seed=seed, latent_dist=latent_dist)
        except MemoryError:
            raise CheckpointError(f"{path}: no memory for a d={d} model") from None
        tensors = _tensors(model)
        if header.get("params") != [entry for entry, _ in tensors]:
            raise CheckpointError(f"{path}: parameter manifest differs from a d={d} model's")
        # conv weights are transposed views of their storage, so blocks land
        # in this buffer first and are then copied into place
        buf = np.empty(max((arr[rows].size for _, arr in tensors for rows in _blocks(arr)),
                           default=0), "<f4")
        for entry, arr in tensors:
            for rows in _blocks(arr):
                part = arr[rows]
                block = buf[: part.size].reshape(part.shape)
                if f.readinto(block) != block.nbytes:
                    raise CheckpointError(f"{path}: truncated weight blob for {entry}")
                part[...] = block
        if f.tell() != size:
            raise CheckpointError(f"{path}: {size - f.tell()} trailing bytes")
    return model

"""Versioned model checkpoints.

Layout: magic bytes "IRGAN01", a little-endian uint32 header length, a JSON
header (d, step, seed, latent distribution, shuffle radius, and the ordered
parameter manifest with shapes), then raw little-endian float32 weight blobs
in manifest order (generator first, then critic). Loading builds a float32
model with zero weights (no random initialisation), copies each blob into its
tensor in place, and refuses a header whose manifest differs from the one
that d builds, or whose latent distribution or shuffle radius that model
cannot use, so a checkpoint either restores every tensor or does not load.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"IRGAN01"


class CheckpointError(ValueError):
    pass


def _manifest(model) -> list[dict]:
    entries = []
    for role, net in (("generator", model.generator), ("critic", model.critic)):
        for layer_name, param_name, arr in net.named_params():
            entries.append(
                {"role": role, "layer": layer_name, "param": param_name,
                 "shape": list(arr.shape)}
            )
    return entries


def save_checkpoint(model, path: str | Path) -> None:
    header = {
        "d": model.d,
        "step": model.step,
        "seed": model.seed,
        "latent_dist": model.latent_dist,
        "shuffle_radius": model.critic.shuffle_radius,
        "params": _manifest(model),
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for role, net in (("generator", model.generator), ("critic", model.critic)):
            for _, _, arr in net.named_params():
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path):
    from .nets import LATENT_DISTS, Critic, GanModel, Generator

    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 4 or data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a {MAGIC.decode()} checkpoint")
    (hlen,) = struct.unpack_from("<I", data, len(MAGIC))
    start = len(MAGIC) + 4
    try:
        header = json.loads(data[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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

    model = GanModel(
        generator=Generator(d),  # zero weights, filled in place below
        critic=Critic(d, shuffle_radius=radius),
        d=d,
        step=step,
        seed=seed,
        latent_dist=latent_dist,
    )
    manifest = _manifest(model)
    if header.get("params") != manifest:
        raise CheckpointError(f"{path}: parameter manifest differs from a d={d} model's")
    nets = {"generator": model.generator, "critic": model.critic}
    pos = start + hlen
    for entry in manifest:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape))
        raw = memoryview(data)[pos : pos + 4 * count]  # no copy of the blob
        if len(raw) != 4 * count:
            raise CheckpointError(f"{path}: truncated weight blob for {entry}")
        arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
        nets[entry["role"]].set_param(entry["layer"], entry["param"], arr)
        pos += 4 * count
    if pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - pos} trailing bytes")
    return model

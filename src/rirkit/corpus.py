"""RIR pool bookkeeping: CSV-backed pools with source tags, seeded splits,
composable mixtures, and validation findings.

Pool files are CSV `id,source,path` (comment lines start with #). Split
outputs carry a provenance header recording the seed and sizes.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._fields import read_text, write_csv


@dataclass(frozen=True)
class PoolEntry:
    id: str
    source: str
    path: str


@dataclass(frozen=True)
class RirPool:
    entries: tuple[PoolEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def source_counts(self) -> dict[str, int]:
        return dict(Counter(e.source for e in self.entries))


def split(pool: RirPool, sizes: Sequence[int], rng_seed: int = 0
          ) -> tuple[RirPool, RirPool, RirPool]:
    """Seeded uniform shuffle, then partition into (train, dev, test).

    The three sizes must be non-negative and sum to the pool size; the three
    parts are disjoint and exhaustive, and identical for identical seeds.
    """
    a, b, c = sizes
    if min(a, b, c) < 0:
        raise ValueError("split sizes must be non-negative")
    if a + b + c != len(pool):
        raise ValueError(f"sizes {tuple(sizes)} do not sum to pool size {len(pool)}")
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(pool))
    shuffled = [pool.entries[i] for i in order]
    return (RirPool(shuffled[:a]), RirPool(shuffled[a : a + b]), RirPool(shuffled[a + b :]))


def compose_pool(parts: Sequence[tuple[RirPool, int]], rng_seed: int = 0) -> RirPool:
    """Seeded uniform subsample of each pool (without replacement),
    concatenated with source tags preserved."""
    rng = np.random.default_rng(rng_seed)
    entries: list[PoolEntry] = []
    for pool, count in parts:
        if count > len(pool):
            raise ValueError(f"requested {count} entries from a pool of {len(pool)}")
        idx = rng.choice(len(pool), size=count, replace=False)
        entries.extend(pool.entries[i] for i in idx)
    return RirPool(entries)


def _map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], in order: on the caller's thread at threads=1
    (a pool thread would get its own malloc arena), else on a pool of that
    many threads, which refuses threads < 1."""
    if threads == 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=threads) as tp:
        return list(tp.map(fn, items))


def validate_pool(pool: RirPool, threads: int = 1) -> list[tuple[str, str]]:
    """Check id uniqueness, file existence, and loadability as a canonical
    RIR. Non-fatal: every problem is returned as an (id, problem) finding,
    duplicate ids first; an empty list means the pool is sound."""
    from .audio import load_rir

    findings, seen = [], set()
    for e in pool.entries:
        if e.id in seen:
            findings.append((e.id, "duplicate id"))
        seen.add(e.id)

    def check(e: PoolEntry):
        p = Path(e.path)
        if not p.is_file():
            return (e.id, f"missing file: {e.path}")
        try:
            load_rir(p)
        except Exception as exc:
            return (e.id, f"not loadable as RIR: {exc}")
        return None

    findings.extend(r for r in _map(check, pool.entries, threads) if r is not None)
    return findings


def read_pool_csv(path: str | Path) -> RirPool:
    """Read a pool CSV. Its first row that is not a comment is skipped when it
    is the header id,source,path. A row with the wrong number of fields,
    an empty id or an empty path is refused with a ValueError naming the file
    and the line."""
    entries, first = [], True
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if line.startswith("#") or not line.strip():
            continue
        row = next(csv.reader(io.StringIO(line)))
        header, first = first and row == ["id", "source", "path"], False
        if header:
            continue
        if len(row) != 3:
            raise ValueError(f"{path}: line {lineno}: expected id,source,path, got {line!r}")
        if not row[0] or not row[2]:
            raise ValueError(f"{path}: line {lineno}: empty id or path in {line!r}")
        entries.append(PoolEntry(*row))
    return RirPool(entries)


def write_pool_csv(pool: RirPool, path: str | Path,
                   provenance: dict[str, object] | None = None) -> None:
    write_csv(path, ["id", "source", "path"], ([e.id, e.source, e.path] for e in pool.entries),
              comments=[f"{key}={value}" for key, value in (provenance or {}).items()])

"""RIR pool bookkeeping: CSV-backed pools with source tags, seeded splits,
composable mixtures, and a validation report.

Pool files are CSV `id,source,path` (comment lines start with #). Split
outputs carry a provenance header recording the seed and sizes.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._fields import check_fields, read_text


@dataclass(frozen=True)
class PoolEntry:
    id: str
    source: str
    path: str
    # optional stratification key (e.g. a room id); carried through splits
    # and composition, not otherwise interpreted
    strat_key: str = ""


@dataclass(frozen=True)
class RirPool:
    entries: tuple[PoolEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def source_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.source] = counts.get(e.source, 0) + 1
        return counts


@dataclass(frozen=True)
class SplitSpec:
    sizes: tuple[int, int, int]
    rng_seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if any(s < 0 for s in self.sizes):
            raise ValueError("split sizes must be non-negative")


def split(pool: RirPool, spec: SplitSpec) -> tuple[RirPool, RirPool, RirPool]:
    """Seeded uniform shuffle, then partition into (train, dev, test).

    Sizes must sum to the pool size; the three parts are disjoint and
    exhaustive, and identical for identical seeds.
    """
    a, b, c = spec.sizes
    if a + b + c != len(pool):
        raise ValueError(f"sizes {spec.sizes} do not sum to pool size {len(pool)}")
    rng = np.random.default_rng(spec.rng_seed)
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


@dataclass
class ValidationReport:
    checked: int = 0
    source_counts: dict[str, int] = field(default_factory=dict)
    findings: list[tuple[str, str]] = field(default_factory=list)  # (id, problem)

    @property
    def ok(self) -> bool:
        return not self.findings


def _map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], in order: on the caller's thread at threads=1
    (a pool thread would get its own malloc arena), else on a pool of that
    many threads, which refuses threads < 1."""
    if threads == 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=threads) as tp:
        return list(tp.map(fn, items))


def validate_pool(pool: RirPool, load: bool = True, threads: int = 1) -> ValidationReport:
    """Check id uniqueness, file existence, and (optionally) loadability as a
    canonical RIR. Non-fatal: everything lands in the findings list."""
    from .audio import load_wav, to_rir

    report = ValidationReport(checked=len(pool), source_counts=pool.source_counts())
    seen: set[str] = set()
    for e in pool.entries:
        if e.id in seen:
            report.findings.append((e.id, "duplicate id"))
        seen.add(e.id)

    def check(e: PoolEntry):
        p = Path(e.path)
        if not p.is_file():
            return (e.id, f"missing file: {e.path}")
        if load:
            try:
                to_rir(load_wav(p))
            except Exception as exc:
                return (e.id, f"not loadable as RIR: {exc}")
        return None

    report.findings.extend(r for r in _map(check, pool.entries, threads) if r is not None)
    return report


def read_pool_csv(path: str | Path) -> RirPool:
    """Read a pool CSV. A row with an empty id or an empty path is refused
    with a ValueError naming the file and the line."""
    entries = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if line.startswith("#") or not line.strip():
            continue
        row = next(csv.reader(io.StringIO(line)))
        if row[:3] == ["id", "source", "path"]:
            continue
        if len(row) not in (3, 4):
            raise ValueError(f"{path}: expected id,source,path[,strat_key] rows, "
                             f"got {line!r}")
        if not row[0] or not row[2]:
            raise ValueError(f"{path}: line {lineno}: empty id or path in {line!r}")
        entries.append(PoolEntry(*row))
    return RirPool(entries)


def write_pool_csv(pool: RirPool, path: str | Path,
                   provenance: dict[str, object] | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        for key, value in (provenance or {}).items():
            f.write(f"# {key}={value}\n")
        writer = csv.writer(f)
        keyed = any(e.strat_key for e in pool.entries)
        writer.writerow(["id", "source", "path"] + (["strat_key"] if keyed else []))
        for e in pool.entries:
            row = [e.id, e.source, e.path]
            writer.writerow(row + [e.strat_key] if keyed else row)

"""Seeded input generation for the benchmark, independent of regmap.

Every dataset draws from its own numpy PCG64 stream keyed by
(seed, stream name), so adding a dataset never shifts another one, and
an edit to regmap's own generator cannot move these inputs.

A dataset is held as three parallel arrays (chromosome code, start,
end) plus the name table. Files are written in draw order (unsorted),
with the injected malformed lines placed at seeded positions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HUMAN = tuple(f"chr{i}" for i in range(1, 23)) + ("chrX",)
MOUSE = tuple(f"chr{i}" for i in range(1, 20)) + ("chrX",)
SPAN = 200_000_000

# One of each rejection reason regmap.bedio knows, cycled in order.
MALFORMED = (
    "chr1\t{s}",
    "chr1\t{s}x\t{e}",
    "chr1\t{s}\tNA",
    "chr 1\t{s}\t{e}",
    "\t{s}\t{e}",
)


@dataclass
class Dataset:
    """Regions in file order; ``chrom`` indexes ``names``."""

    names: tuple[str, ...]
    chrom: np.ndarray
    start: np.ndarray
    end: np.ndarray
    malformed: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.start)

    @property
    def valid(self) -> np.ndarray:
        return (self.start >= 0) & (self.end >= self.start)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def narrow(rng, n: int, names=HUMAN, max_len: int = 500) -> Dataset:
    """Peaks 1..max_len bp long, uniform over every chromosome."""
    length = rng.integers(1, max_len + 1, n)
    start = rng.integers(0, SPAN - max_len, n)
    chrom = rng.integers(0, len(names), n)
    return Dataset(names, chrom, start, start + length)


def broad(rng, n: int, domains: int, names=HUMAN) -> Dataset:
    """Domains 500 bp..20 kb long plus ``domains`` of 1..5 Mb."""
    length = rng.integers(500, 20_001, n)
    length[rng.choice(n, domains, replace=False)] = rng.integers(1_000_000, 5_000_001, domains)
    start = rng.integers(0, SPAN - 5_000_000, n)
    chrom = rng.integers(0, len(names), n)
    return Dataset(names, chrom, start, start + length)


def inject_invalid(rng, ds: Dataset, count: int) -> None:
    """Turn ``count`` rows invalid: half get end < start, half start < 0."""
    rows = rng.choice(len(ds), count, replace=False)
    swap, negative = rows[: count // 2], rows[count // 2 :]
    ds.start[swap], ds.end[swap] = ds.end[swap].copy(), ds.start[swap].copy()
    ds.start[negative] = -ds.start[negative] - 1


def inject_malformed(rng, ds: Dataset, count: int) -> None:
    """Add ``count`` lines that a permissive parse must reject."""
    s = rng.integers(0, SPAN, count)
    ds.malformed = [
        MALFORMED[i % len(MALFORMED)].format(s=int(s[i]), e=int(s[i]) + 100) for i in range(count)
    ]


def bed_text(ds: Dataset, rng=None) -> str:
    names = ds.names
    lines = [
        f"{names[c]}\t{s}\t{e}\n"
        for c, s, e in zip(ds.chrom.tolist(), ds.start.tolist(), ds.end.tolist())
    ]
    if ds.malformed:
        # Malformed lines go in at seeded positions; data rows keep their order.
        at = np.sort(rng.integers(0, len(lines) + 1, len(ds.malformed)))
        for offset, (pos, bad) in enumerate(zip(at.tolist(), ds.malformed)):
            lines.insert(pos + offset, bad + "\n")
    return "".join(lines)


def write_bed(path: Path, ds: Dataset, rng=None) -> int:
    """Write ``ds`` as BED and return the file size in bytes."""
    data = bed_text(ds, rng).encode()
    path.write_bytes(data)
    return len(data)

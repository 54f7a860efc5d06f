"""Reproducible random streams.

All Monte Carlo entry points take a ``numpy.random.Generator`` and draw
from it alone.  Parallel experiment drivers derive one independent PCG64
substream per replication block from ``(master_seed, tag, block_index)``,
so results do not depend on how blocks are distributed over workers.
"""
from __future__ import annotations

import zlib

import numpy as np

__all__ = ["substream"]

_MASK64 = (1 << 64) - 1


def substream(seed: int, tag: str, index: int) -> np.random.Generator:
    """Independent stream keyed by (master seed, tag, block index).

    The tag is hashed with CRC-32 so distinct experiment names map to
    distinct key material; the triple seeds a PCG64 generator through a
    seed sequence (``numpy.random.default_rng``).
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    return np.random.default_rng((seed & _MASK64, zlib.crc32(tag.encode("utf-8")), index))

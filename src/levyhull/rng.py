"""Reproducible random streams.

All Monte Carlo entry points take a ``numpy.random.Generator``.  Parallel
experiment drivers derive one independent substream per replication block
from ``(master_seed, tag, block_index)`` through a counter-based generator,
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
    distinct key material; the triple feeds a Philox counter-based
    generator via a seed sequence.
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    entropy = (seed & _MASK64, zlib.crc32(tag.encode("utf-8")), index)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

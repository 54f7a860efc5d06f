"""Reproducible random streams.

All Monte Carlo entry points take a ``numpy.random.Generator``.  Parallel
experiment drivers derive one independent substream per replication block
from ``(master_seed, tag, block_index)`` through a counter-based generator,
so results do not depend on how blocks are distributed over workers.

A sampler that draws millions of variables from one generator, such as a
batch of a limit series, takes them from a :func:`child_stream` of it: a
PCG64 generator, which draws uniforms in about half the time of Philox
(O'Neill 2014), keyed by four words of the caller's stream.
"""
from __future__ import annotations

import zlib

import numpy as np

__all__ = ["child_stream", "substream"]

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


def child_stream(rng: np.random.Generator) -> np.random.Generator:
    """PCG64 generator seeded by a seed sequence of four raw 64-bit words of
    ``rng``'s bit generator.

    The words advance ``rng`` by four outputs of its bit generator, so the
    same parent state gives the same child, and each call on one parent
    gives a new one.
    """
    words = rng.bit_generator.random_raw(4)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

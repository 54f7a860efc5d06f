import zlib

import numpy as np
import pytest

from levyhull.rng import substream


def test_substream_reproducible():
    a = substream(42, "demo", 3).random(8)
    b = substream(42, "demo", 3).random(8)
    assert np.array_equal(a, b)


def test_substreams_distinct():
    base = substream(42, "demo", 0).random(8)
    assert not np.array_equal(base, substream(42, "demo", 1).random(8))
    assert not np.array_equal(base, substream(42, "other", 0).random(8))
    assert not np.array_equal(base, substream(43, "demo", 0).random(8))


def test_substream_is_a_pcg64_seeded_by_the_key_triple():
    # pinned: every stream of every criterion is this construction
    for seed, tag, index in ((42, "demo", 3), (-1, "clt-0", 0), (2**70 + 5, "tail-q", 11)):
        key = (seed & (2**64 - 1), zlib.crc32(tag.encode("utf-8")), index)
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        g = substream(seed, tag, index)
        assert isinstance(g.bit_generator, np.random.PCG64)
        assert np.array_equal(g.random(8), ref.random(8))


def test_substream_refuses_a_negative_index():
    with pytest.raises(ValueError, match="index"):
        substream(42, "demo", -1)

import numpy as np

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

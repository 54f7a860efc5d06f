import numpy as np
import pytest

from levyhull.rng import child_stream, substream


def test_substream_reproducible():
    a = substream(42, "demo", 3).random(8)
    b = substream(42, "demo", 3).random(8)
    assert np.array_equal(a, b)


def test_substreams_distinct():
    base = substream(42, "demo", 0).random(8)
    assert not np.array_equal(base, substream(42, "demo", 1).random(8))
    assert not np.array_equal(base, substream(42, "other", 0).random(8))
    assert not np.array_equal(base, substream(43, "demo", 0).random(8))


@pytest.mark.parametrize("parent", [lambda: substream(42, "demo", 3), lambda: np.random.default_rng(7)])
def test_child_stream_is_a_pcg64_keyed_by_four_words_of_its_parent(parent):
    p, q = parent(), parent()
    child = child_stream(p)
    assert isinstance(child.bit_generator, np.random.PCG64)
    # deterministic: the same parent state gives the same child
    assert np.array_equal(child.random(8), child_stream(q).random(8))
    # the child took four raw words of the parent and nothing else
    r = parent()
    r.bit_generator.random_raw(4)
    assert p.bit_generator.random_raw() == r.bit_generator.random_raw()
    # two calls on one parent give different children
    p = parent()
    assert not np.array_equal(child_stream(p).random(8), child_stream(p).random(8))

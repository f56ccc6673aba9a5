import numpy as np
import pytest

from partialid import ParameterError, substream


def test_identical_keys_reproduce_identical_sequences():
    a = substream(42, 0).uniform(size=1000)
    b = substream(42, 0).uniform(size=1000)
    assert np.array_equal(a, b)


def test_distinct_indices_give_different_sequences():
    a = substream(42, 0).uniform(size=1000)
    b = substream(42, 1).uniform(size=1000)
    assert np.any(a != b)


def test_zero_seed_zero_index_is_a_valid_stream():
    u = substream(0, 0).uniform(size=1000)
    assert np.all((0.0 <= u) & (u < 1.0))


def test_negative_index_rejected():
    with pytest.raises(ParameterError):
        substream(42, -1)


def test_scalar_and_vector_draws_agree():
    s1 = substream(7, 3)
    s2 = substream(7, 3)
    scalars = np.array([s1.uniform() for _ in range(50)])
    assert np.array_equal(scalars, s2.uniform(size=50))


def test_split_children_are_deterministic_and_independent():
    parent1 = substream(9, 4)
    parent2 = substream(9, 4)
    c1 = parent1.split(0).uniform(size=200)
    c1_again = parent2.split(0).uniform(size=200)
    c2 = parent2.split(1).uniform(size=200)
    assert np.array_equal(c1, c1_again)
    assert np.any(c1 != c2)


def test_split_does_not_advance_parent_state():
    a = substream(9, 4)
    b = substream(9, 4)
    a.split(0)
    a.split(1)
    assert a.uniform() == b.uniform()


def test_independence_of_other_streams():
    # drawing from one stream never affects another
    a = substream(11, 0)
    before = substream(11, 5).uniform(size=10)
    a.uniform(size=10_000)
    after = substream(11, 5).uniform(size=10)
    assert np.array_equal(before, after)


# --- seeding a block of streams at once -------------------------------------

from partialid.rng import RngStream, SeedBlock, seed_words  # noqa: E402
from partialid.scenarios import attempt_stream  # noqa: E402

MASTER_SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 - 1)
ROLES = (0, 1, 2, 5)
ATTEMPTS = (0, 1, 999, 2**31, 2**32 - 1)
SUBKEYS = ((), (0,), (1,), (0, 3))


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("subkey", SUBKEYS)
def test_seed_words_reproduce_seed_sequence(master_seed, subkey):
    # one call mixes one-word (role 0) and two-word stream indices
    indices = [(role << 32) + a for role in ROLES for a in ATTEMPTS]
    words = seed_words(master_seed, np.array(indices, dtype=np.uint64), subkey)
    assert words.shape == (len(indices), 4) and words.dtype == np.uint64
    for row, index in zip(words, indices):
        expected = np.random.SeedSequence((master_seed, index, *subkey)).generate_state(
            4, np.uint64)
        assert np.array_equal(row, expected), (master_seed, index, subkey)


@pytest.mark.parametrize("master_seed", (0, 2**32, 2**64 - 1))
@pytest.mark.parametrize("role", ROLES)
def test_block_streams_match_attempt_streams(master_seed, role):
    attempts = range(2**32 - 4, 2**32) if role == 5 else range(995, 1001)
    base = role << 32
    streams = range(base + attempts.start, base + attempts.stop)
    block = SeedBlock(master_seed, streams)
    # rows of uniforms, read without building the streams; a subrange too
    rows = (block.uniforms(7, streams), block.split(1).uniforms(5, streams),
            block.split(0).split(1).uniforms(5, streams), block.split(0).uniforms(5, streams))
    assert np.array_equal(block.uniforms(7, streams[2:4]), rows[0][2:4])
    for r, j in enumerate(attempts):
        ref = attempt_stream(master_seed, role, j)
        assert np.array_equal(rows[3][r], ref.split(0).uniform(size=5))
        assert np.array_equal(rows[1][r], ref.split(1).uniform(size=5))
        assert np.array_equal(rows[2][r], ref.split(0).split(1).uniform(size=5))
        assert np.array_equal(rows[0][r], ref.uniform(size=7))


def test_block_split_is_computed_once_and_does_not_advance_the_parent():
    block = SeedBlock(3, range(10, 20))
    assert block.split(0) is block.split(0)
    a, b = RngStream(3, 12), RngStream(3, 12)
    a.split(0)
    assert a.uniform() == b.uniform()


def test_seed_block_rejects_bad_ranges():
    with pytest.raises(ParameterError):
        SeedBlock(3, range(-1, 4))
    with pytest.raises(ParameterError):
        SeedBlock(3, range(0, 10, 2))
    with pytest.raises(ParameterError):
        SeedBlock(3, range(10, 20)).uniforms(1, range(15, 21))
    with pytest.raises(ParameterError):
        attempt_stream(3, 1, 2**32)

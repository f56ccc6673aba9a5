import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialid import ParameterError, rng, substream


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


@pytest.mark.parametrize("index", [1.5, "3"])
def test_index_must_be_an_integer(index):
    # int(1.5) would have keyed stream 1
    with pytest.raises(ParameterError, match="^stream_index must be an integer"):
        substream(42, index)


def test_scalar_and_vector_draws_agree():
    s1 = substream(7, 3)
    s2 = substream(7, 3)
    scalars = np.array([s1.uniform() for _ in range(50)])
    assert np.array_equal(scalars, s2.uniform(size=50))


def test_independence_of_other_streams():
    # drawing from one stream never affects another
    a = substream(11, 0)
    before = substream(11, 5).uniform(size=10)
    a.uniform(size=10_000)
    after = substream(11, 5).uniform(size=10)
    assert np.array_equal(before, after)


# --- seeding a block of streams at once -------------------------------------

from partialid.rng import (  # noqa: E402
    SHORT_ROW, RngStream, pcg64_uniforms, seed_words, stream_uniforms)
from partialid.scenarios import attempt_stream  # noqa: E402

MASTER_SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 - 1)
ROLES = (0, 1, 2, 5)
ATTEMPTS = (0, 1, 999, 2**31, 2**32 - 1)


@pytest.mark.parametrize("master_seed", MASTER_SEEDS)
@pytest.mark.parametrize("dtype", (np.uint64, np.int64), ids=("uint64", "int64"))
@pytest.mark.parametrize("order", ("ascending", "interleaved"))
def test_seed_words_reproduce_seed_sequence(master_seed, dtype, order):
    # one call mixes one-word (role 0) and two-word stream indices; interleaved,
    # each row's neighbours take the other word count, so rows hashed in two
    # groups must land back in place
    indices = [(role << 32) + a for role in ROLES for a in ATTEMPTS]
    if order == "interleaved":
        narrow, wide = indices[:len(ATTEMPTS)], indices[len(ATTEMPTS):]
        indices = [i for pair in zip(wide, narrow) for i in pair] + wide[len(narrow):]
    words = seed_words(master_seed, np.array(indices, dtype=dtype))
    assert words.shape == (len(indices), 4) and words.dtype == np.uint64
    for row, index in zip(words, indices):
        expected = np.random.SeedSequence((master_seed, index)).generate_state(4, np.uint64)
        assert np.array_equal(row, expected), (master_seed, index)


def indices_of(streams):
    return np.arange(streams.start, streams.stop, dtype=np.uint64)


@pytest.mark.parametrize("master_seed", (0, 2**32, 2**64 - 1))
@pytest.mark.parametrize("role", ROLES)
def test_seeded_rows_match_attempt_streams(master_seed, role):
    attempts = range(2**32 - 4, 2**32) if role == 5 else range(995, 1001)
    base = role << 32
    words = seed_words(master_seed, indices_of(range(base + attempts.start,
                                                     base + attempts.stop)))
    # rows of uniforms, read without building the streams; a subrange too
    rows = stream_uniforms(words, 7)
    assert np.array_equal(stream_uniforms(words[2:4], 7), rows[2:4])
    for r, j in enumerate(attempts):
        assert np.array_equal(rows[r], attempt_stream(master_seed, role, j).uniform(size=7))


# --- PCG64 in limbs ------------------------------------------------------------

@pytest.mark.parametrize("master_seed", (0, 2**64 - 1))
@pytest.mark.parametrize("start", (0, 2**32 - 3, 2**64 - 6), ids=("low", "straddle", "top"))
@pytest.mark.parametrize("m", (0, 1, SHORT_ROW, SHORT_ROW + 1))
def test_short_and_long_rows_match_streams(master_seed, start, m):
    # indices below and at or above 2**32 take one and two entropy words; the
    # top rows end at the last index, 2**64 - 1
    words = seed_words(master_seed, indices_of(range(start, start + 6)))
    for rows in (slice(0, 6), slice(2, 5)):
        indices = range(start, start + 6)[rows]
        out = stream_uniforms(words[rows], m)
        assert out.shape == (len(indices), m) and out.flags.c_contiguous
        for row, index in zip(out, indices):
            assert np.array_equal(row, RngStream(master_seed, index).uniform(m))


def test_only_long_rows_build_a_generator_per_row(monkeypatch):
    words = seed_words(3, indices_of(range(10, 20)))
    monkeypatch.setattr(rng, "_SeedRow", None)
    assert stream_uniforms(words, SHORT_ROW).shape == (10, SHORT_ROW)
    with pytest.raises(TypeError):
        stream_uniforms(words, SHORT_ROW + 1)


@pytest.mark.parametrize("m", (3, SHORT_ROW, SHORT_ROW + 1, 300))
def test_rows_drawn_into_a_reused_buffer_equal_fresh_rows(m):
    # chunks of 4 rows into one buffer, the last chunk of 2 rows shorter than it
    words = seed_words(5, indices_of(range(100, 110)))
    fresh = stream_uniforms(words, m)
    buffer = np.full((4, m), np.nan)
    for start in range(0, 10, 4):
        rows = stream_uniforms(words[start:start + 4], m, out=buffer)
        assert rows.base is buffer
        assert rows.shape == (min(4, 10 - start), m) and rows.flags.c_contiguous
        assert rows.tobytes() == fresh[start:start + 4].tobytes()
    # the short last chunk leaves the buffer's later rows as the chunk before wrote them
    assert buffer[2:].tobytes() == fresh[6:8].tobytes()


def test_uniform_rows_hand_out_each_rows_next_uniforms_and_count_them_as_an_int():
    u = np.arange(24.0).reshape(2, 12)
    rows = rng.UniformRows(u)
    assert rows.uniform().tolist() == [0.0, 12.0]
    assert rows.uniform(2).tolist() == [[1.0, 2.0], [13.0, 14.0]]
    assert rows.uniform(np.int64(1)).shape == (2, 1)
    assert rows.uniform((2, 3)).tolist() == [[[4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
                                             [[16.0, 17.0, 18.0], [19.0, 20.0, 21.0]]]
    assert rows.at == 10 and type(rows.at) is int
    for size in (1.5, "2", (2.0,)):
        with pytest.raises(TypeError):
            rows.uniform(size)


PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
M64, M128 = 2**64 - 1, 2**128


def native_uniforms(words, m):
    return np.random.Generator(np.random.PCG64(rng._SeedRow(words))).random(m)


def words_reaching(state, initseq):
    """Seed words whose generator's first draw steps to the 128-bit ``state``."""
    inc = (initseq << 1 | 1) % M128
    inverse = pow(PCG_MULT, -1, M128)
    seeded = (state - inc) * inverse % M128  # the state after seeding
    initstate = ((seeded - inc) * inverse - inc) % M128
    return np.array([initstate >> 64, initstate & M64, initseq >> 64, initseq & M64],
                    dtype=np.uint64)


def xsl_rr(state):
    """PCG64's output of ``state`` as a uniform, with Python integers."""
    x, rot = (state >> 64) ^ (state & M64), state >> 122
    return (((x >> rot | x << (64 - rot)) & M64) >> 11) * 2.0**-53


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from((0, 63, None)),
                               st.integers(0, M128 - 1), st.integers(0, M128 - 1)),
                     min_size=1, max_size=8),
       m=st.integers(1, 2 * SHORT_ROW))
def test_limb_arithmetic_matches_the_generator(rows, m):
    # each row's first draw steps to a state of rotation 0, 63 or (None) any
    words = []
    for rot, state, initseq in rows:
        if rot is not None:
            state = rot << 122 | state % 2**122
        words.append(words_reaching(state, initseq))
        assert native_uniforms(words[-1], 1)[0] == xsl_rr(state)
    words = np.array(words)
    expected = np.array([native_uniforms(w, m) for w in words])
    assert np.array_equal(pcg64_uniforms(words, m), expected)


def test_limb_arithmetic_at_extreme_words():
    words = np.array([[0] * 4, [M64] * 4, [M64, 0, M64, 0], [0, M64, 0, M64]], dtype=np.uint64)
    expected = np.array([native_uniforms(w, 40) for w in words])
    assert np.array_equal(pcg64_uniforms(words, 40), expected)

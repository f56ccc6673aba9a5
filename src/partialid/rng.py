"""Deterministic, worker-invariant random number streams.

Every source of randomness in the package is an :class:`RngStream`, keyed by
``(master_seed, stream_index)`` plus an optional child path.  The key is mixed
into the generator state by ``numpy``'s ``SeedSequence``, so a stream's draw
sequence depends only on its key, never on how many other streams exist or on
which process consumes it.  Monte Carlo loops assign one stream per draw index,
which makes results invariant to the worker count.

Building a ``SeedSequence`` costs far more than most draws it feeds, so a run
of consecutive indices can be seeded at once by a :class:`SeedBlock`.  It
computes the ``SeedSequence`` hash of every key of the block in one vectorized
pass (:func:`seed_words`) and reproduces ``generate_state(4, np.uint64)`` word
for word; :meth:`SeedBlock.uniforms` fills one row per stream with the same
uniforms as ``RngStream(key)`` draws, without building the streams.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

_SEED_MOD = 2**64


class RngStream:
    """Single-owner deterministic uniform generator.

    Identical keys reproduce identical draw sequences; distinct keys give
    statistically independent sequences.  Streams are stateful and must not
    be shared between concurrent consumers.
    """

    __slots__ = ("master_seed", "stream_index", "subkey", "_gen")

    def __init__(self, master_seed: int, stream_index: int, subkey: tuple = ()):
        if stream_index < 0:
            raise ParameterError(f"stream_index must be >= 0, got {stream_index}")
        self.master_seed = int(master_seed) % _SEED_MOD
        self.stream_index = int(stream_index)
        self.subkey = tuple(map(int, subkey))
        entropy = (self.master_seed, self.stream_index, *self.subkey)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def uniform(self, size=None):
        """Uniform draws on [0, 1): a float for ``size=None``, else an array."""
        if size is None:
            return self._gen.random()
        return self._gen.random(size)

    def split(self, k: int) -> "RngStream":
        """Derive an independent child stream keyed by ``k``.

        Used where one logical draw needs several mutually independent
        sources (e.g. two independent processes inside one scenario draw).
        The child's sequence is unrelated to the parent's and to siblings'.
        """
        return RngStream(self.master_seed, self.stream_index, self.subkey + (int(k),))

    def __repr__(self):
        return (
            f"RngStream(master_seed={self.master_seed}, "
            f"stream_index={self.stream_index}, subkey={self.subkey})"
        )


class UniformRows:
    """Stands in for one stream per row of ``u``: ``uniform(size)`` gives each
    row's next uniforms, shaped ``(rows, *size)``, as that row's stream would."""

    __slots__ = ("u", "at")

    def __init__(self, u: np.ndarray):
        self.u, self.at = u, 0

    def uniform(self, size=None) -> np.ndarray:
        shape = () if size is None else tuple(np.atleast_1d(size))
        count = math.prod(shape)
        self.at += count
        return self.u[:, self.at - count:self.at].reshape(len(self.u), *shape)


def substream(master_seed: int, index: int) -> RngStream:
    """Return the deterministic stream keyed by ``(master_seed, index)``."""
    return RngStream(master_seed, index)


# --- SeedSequence for many keys at once --------------------------------------
# The constants and the order of operations are those of numpy's SeedSequence
# (NEP 19) with its default pool of four 32-bit words.

_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


class _SeedRow(ISeedSequence):
    """Answers a bit generator's one ``generate_state`` call with precomputed words.

    PCG64 asks once for four uint64 words; the row is those words.
    """

    __slots__ = ("_row",)

    def __init__(self, row):
        self._row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self._row


def _int_words(n: int) -> list[int]:
    """The uint32 words SeedSequence takes from one integer, least significant first."""
    if n < 0:
        raise ParameterError(f"seed key entries must be >= 0, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for k < count, as a uint32 column."""
    out = [init]
    for _ in range(count - 1):
        out.append((out[-1] * mult) & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _hash_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for each column.

    ``entropy`` is ``(L, n)`` uint32, row j holding entropy word j of every
    key; the result is ``(n, 4)`` uint64.  SeedSequence hashes one word at a
    time with a running multiplier; a hash does not depend on the words
    before it, so the hashes SeedSequence takes from one pool word in a row
    are taken here at once, each with its own multiplier.
    """
    n_words, n = entropy.shape
    n_hashes = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, n_words - _POOL_SIZE)
    consts = _hash_constants(_INIT_A, _MULT_A, n_hashes + 1)
    used = 0

    def hashmix(value, count):
        nonlocal used
        value = (value ^ consts[used:used + count]) * consts[used + 1:used + count + 1]
        used += count
        return value ^ (value >> _XSHIFT)

    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    pool[:n_words] = entropy[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, hashmix(entropy[src], _POOL_SIZE))

    # generate_state: 8 uint32 words cycling through the pool
    consts = _hash_constants(_INIT_B, _MULT_B, 9)
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:8]) * consts[1:]
    state = (state ^ (state >> _XSHIFT)).astype(np.uint64)
    # uint64 word j is uint32 words 2j (low half) and 2j + 1 (high half)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def seed_words(master_seed: int, indices, subkey: tuple = ()) -> np.ndarray:
    """PCG64 seed words of the streams ``(master_seed, index, *subkey)``.

    Row r equals ``SeedSequence((master_seed % 2**64, indices[r], *subkey))
    .generate_state(4, np.uint64)``, computed for all indices in one pass.
    ``indices`` is a 1-d integer array with entries in ``[0, 2**64)``.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.dtype.kind not in "iu":
        raise ParameterError("indices must be a 1-d integer array")
    if indices.dtype.kind == "i" and indices.size and indices.min() < 0:
        raise ParameterError("stream indices must be >= 0")
    indices = indices.astype(np.uint64)
    head = _int_words(int(master_seed) % _SEED_MOD)
    tail = [w for k in subkey for w in _int_words(int(k))]
    out = np.empty((indices.size, 4), dtype=np.uint64)
    # an index below 2**32 is one entropy word, a larger one two
    for wide in (False, True):
        rows = np.flatnonzero((indices > _MASK32) == wide)
        if rows.size == 0:
            continue
        idx = indices[rows]
        mid = 1 + wide
        entropy = np.empty((len(head) + mid + len(tail), rows.size), dtype=np.uint32)
        entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head)] = idx & np.uint64(_MASK32)
        if wide:
            entropy[len(head) + 1] = idx >> np.uint64(32)
        entropy[len(head) + mid:] = np.array(tail, dtype=np.uint32)[:, None]
        out[rows] = _hash_words(entropy)
    return out


class SeedBlock:
    """The streams ``(master_seed, index, *subkey)`` for a range of indices.

    Seed words for the whole range are computed on construction, so each
    stream costs only its bit generator.  The block of a child key
    ``subkey + (k,)`` is computed on the first :meth:`split` by ``k`` and
    kept, so the splits of a block's streams are seeded a block at a time too.
    """

    __slots__ = ("master_seed", "start", "stop", "subkey", "words", "_children")

    def __init__(self, master_seed: int, indices: range, subkey: tuple = ()):
        if indices.step != 1 or indices.start < 0 or indices.stop > _SEED_MOD:
            raise ParameterError(f"a seed block needs a contiguous range in [0, 2**64), "
                                 f"got {indices}")
        self.master_seed = int(master_seed) % _SEED_MOD
        self.start = indices.start
        self.stop = indices.stop
        self.subkey = tuple(map(int, subkey))
        self.words = seed_words(self.master_seed,
                                np.arange(self.start, self.stop, dtype=np.uint64), self.subkey)
        self._children = {}

    def uniforms(self, m: int, indices: range) -> np.ndarray:
        """The first ``m`` uniforms of the streams of ``indices``, a subrange of
        the block, one row per index: row r is ``RngStream(master_seed, indices[r],
        subkey).uniform(m)``, drawn without building the stream."""
        if not self.start <= indices.start <= indices.stop <= self.stop:
            raise ParameterError(f"{indices} is not within [{self.start}, {self.stop})")
        out = np.empty((len(indices), m))
        for row, words in zip(out, self.words[indices.start - self.start:]):
            np.random.Generator(np.random.PCG64(_SeedRow(words))).random(out=row)
        return out

    def split(self, k: int) -> "SeedBlock":
        """The block of child key ``k`` over the same indices."""
        child = self._children.get(k)
        if child is None:
            child = self._children[k] = SeedBlock(
                self.master_seed, range(self.start, self.stop), self.subkey + (int(k),))
        return child

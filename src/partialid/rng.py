"""Deterministic, worker-invariant random number streams.

Every source of randomness in the package is an :class:`RngStream`, keyed by
``(master_seed, stream_index)``.  The key is mixed into the generator state by
``numpy``'s ``SeedSequence``, so a stream's draw sequence depends only on its
key, never on how many other streams exist or on which process consumes it.
Monte Carlo loops assign one stream per draw index, which makes results
invariant to the worker count; a draw that needs several independent parts
reads them from its one stream in turn.

Building a ``SeedSequence`` costs far more than most draws it feeds, so many
streams can be seeded at once: :func:`seed_words` computes the
``SeedSequence`` hash of every key in one vectorized pass and reproduces
``generate_state(4, np.uint64)`` word for word, and :func:`stream_uniforms`
fills one row per stream with the same uniforms as ``RngStream(key)`` draws,
without building the streams.  Short rows come from PCG64 itself, computed in
uint64 limbs for all rows at once (:func:`pcg64_uniforms`); longer rows from
one generator per row.
"""

from __future__ import annotations

import math
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError, as_int

_SEED_MOD = 2**64


class RngStream:
    """Single-owner deterministic uniform generator.

    Identical keys reproduce identical draw sequences; distinct keys give
    statistically independent sequences.  Streams are stateful and must not
    be shared between concurrent consumers.
    """

    __slots__ = ("master_seed", "stream_index", "_gen")

    def __init__(self, master_seed: int, stream_index: int):
        self.master_seed = as_int("master_seed", master_seed) % _SEED_MOD
        self.stream_index = as_int("stream_index", stream_index, 0)
        entropy = (self.master_seed, self.stream_index)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def uniform(self, size=None):
        """Uniform draws on [0, 1): a float for ``size=None``, else an array."""
        return self._gen.random(size)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


class UniformRows:
    """Stands in for one stream per row of ``u``: ``uniform(size)`` gives each
    row's next uniforms, shaped ``(rows, *size)``, as that row's stream would."""

    __slots__ = ("u", "at")

    def __init__(self, u: np.ndarray):
        self.u, self.at = u, 0

    def uniform(self, size=None) -> np.ndarray:
        """Each row's next uniforms; ``size`` is None, an integer or a tuple of
        integers, and ``at``, the uniforms read so far, a Python int."""
        if size is None:
            shape = ()
        elif isinstance(size, tuple):
            shape = tuple(map(operator.index, size))
        else:
            shape = (operator.index(size),)
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

    ``entropy`` is ``(L, n)`` uint32 with L at most the pool size, row j
    holding entropy word j of every key; the result is ``(n, 4)`` uint64.
    SeedSequence hashes one word at a time with a running multiplier; a hash
    does not depend on the words before it, so the hashes SeedSequence takes
    from one pool word in a row are taken here at once, each with its own
    multiplier.
    """
    n_words, n = entropy.shape
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
    used = 0

    def hashmix(value, count):
        nonlocal used
        value = (value ^ consts[used:used + count]) * consts[used + 1:used + count + 1]
        used += count
        return value ^ (value >> _XSHIFT)

    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)
    pool[:n_words] = entropy
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))

    # generate_state: 8 uint32 words cycling through the pool
    consts = _hash_constants(_INIT_B, _MULT_B, 9)
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:8]) * consts[1:]
    state = (state ^ (state >> _XSHIFT)).astype(np.uint64)
    # uint64 word j is uint32 words 2j (low half) and 2j + 1 (high half)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def seed_words(master_seed: int, indices) -> np.ndarray:
    """PCG64 seed words of the streams ``(master_seed, index)``.

    Row r equals ``SeedSequence((master_seed % 2**64, indices[r]))
    .generate_state(4, np.uint64)``, computed for all indices in one pass.
    ``indices`` is a 1-d integer array with entries in ``[0, 2**64)``.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or indices.dtype.kind not in "iu":
        raise ParameterError("indices must be a 1-d integer array")
    if indices.dtype.kind == "i" and indices.size and indices.min() < 0:
        raise ParameterError("stream indices must be >= 0")
    indices = indices.astype(np.uint64)
    # SeedSequence takes an integer as its uint32 words, least significant first
    seed = as_int("master_seed", master_seed) % _SEED_MOD
    head = [seed & _MASK32, seed >> 32] if seed > _MASK32 else [seed]
    out = np.empty((indices.size, 4), dtype=np.uint64)
    # an index below 2**32 is one entropy word, a larger one two
    for wide in (False, True):
        rows = np.flatnonzero((indices > _MASK32) == wide)
        if rows.size == 0:
            continue
        idx = indices[rows]
        mid = 1 + wide
        entropy = np.empty((len(head) + mid, rows.size), dtype=np.uint32)
        entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
        entropy[len(head)] = idx & np.uint64(_MASK32)
        if wide:
            entropy[len(head) + 1] = idx >> np.uint64(32)
        out[rows] = _hash_words(entropy)
    return out


# --- PCG64 for many seeds at once ---------------------------------------------
# numpy's PCG64 (pcg64.h): a 128-bit LCG with XSL-RR output.  A 128-bit value
# is a (hi, lo) pair of uint64 arrays.  No operand is a Python int, so the
# value-based casting of numpy 1.x cannot promote the arithmetic to float64.

#: Rows of at most this many uniforms are computed by :func:`pcg64_uniforms`,
#: longer rows by one generator each: building a generator costs about as much
#: as 60 limb steps of a row, and each double it fills about an eighth of one.
SHORT_ROW = 16

_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63, _U64 = map(np.uint64, (1, 11, 32, 58, 63, 64))
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO_0, _PCG_MULT_LO_1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _U32


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """``state * multiplier + inc mod 2**128`` on (hi, lo) limbs."""
    # the high half of lo * _PCG_MULT_LO, from 32-bit halves (Hacker's Delight 8-2)
    lo0, lo1 = lo & _LOW32, lo >> _U32
    t = lo1 * _PCG_MULT_LO_0 + ((lo0 * _PCG_MULT_LO_0) >> _U32)
    w = lo0 * _PCG_MULT_LO_1 + (t & _LOW32)
    carry = lo1 * _PCG_MULT_LO_1 + (t >> _U32) + (w >> _U32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def pcg64_uniforms(words: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """``Generator(PCG64(seed)).random(m)`` for every row of seed words at once.

    ``words`` is ``(n, 4)`` uint64, each row the four words PCG64 takes from
    its seed sequence; the result is ``(n, m)``, bit for bit as numpy draws it,
    written into ``out`` if given, a C-contiguous ``(n, m)`` float array.
    """
    states = np.empty((2, m, len(words)), dtype=np.uint64)  # hi, lo of each step
    with np.errstate(over="ignore"):
        init_hi, init_lo, seq_hi, seq_lo = words.T
        # pcg_setseq_128_srandom_r: inc = (initseq << 1) | 1, then from state 0
        # one step (state = inc), add initstate, one more step
        inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
        inc_lo = (seq_lo << _U1) | _U1
        lo = inc_lo + init_lo
        hi, lo = _pcg64_step(inc_hi + init_hi + (lo < init_lo), lo, inc_hi, inc_lo)
        for j in range(m):
            hi, lo = states[:, j] = _pcg64_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: (hi ^ lo) rotated right by the top 6 bits of the state
        hi, lo = states
        rot = hi >> _U58
        bits = hi ^ lo
        bits = (bits >> rot) | (bits << ((_U64 - rot) & _U63))
    # a double from the top 53 bits; C order, as row-wise reductions expect
    return np.multiply((bits >> _U11).T, 2.0**-53,
                       out=np.empty((len(words), m)) if out is None else out)


def stream_uniforms(words: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """The first ``m`` uniforms of the stream of each row of seed words.

    ``words`` is ``(n, 4)`` uint64, row r the :func:`seed_words` of a stream;
    row r of the result is that stream's ``uniform(m)``, drawn without
    building the stream.  Up to :data:`SHORT_ROW` uniforms, all rows are
    computed at once (:func:`pcg64_uniforms`), longer rows by one generator
    each.  With ``out``, a C-contiguous float array of at least n rows of
    ``m``, the rows are written into its leading n rows, and the result is
    that view of it: a caller that draws many chunks reuses one buffer.
    """
    out = np.empty((len(words), m)) if out is None else out[:len(words)]
    if m <= SHORT_ROW:
        return pcg64_uniforms(words, m, out)
    for row, seed in zip(out, words):
        np.random.Generator(np.random.PCG64(_SeedRow(seed))).random(out=row)
    return out

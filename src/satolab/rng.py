"""Splittable counter-based random number generation.

Every variate is a pure function of (key, counter), so any position in any
stream can be addressed directly without generating its predecessors.  The
ensemble sampler keys one stream per member and uses the prime-ideal position
as the counter, which makes runs reproducible under any batching or thread
layout.  The mixer is the splitmix64 finalizer, whose output stream passes
standard statistical batteries.

The word at (key, counter) is _mix64(key + GOLDEN * (counter + 1)), built by
_derive alone.  _derive takes the counter words GOLDEN * (counter + 1)
precomputed by counter_words, so a caller that visits the same counters many
times (the indicator tiles of every block) builds them once.  uniforms_at is
the one place a word becomes the top 53 bits k = word >> 11 and the uniform
u = k * 2^-53; it takes output and scratch arrays, so a sampler tile draws
into its block's workspace and allocates nothing.

The indicator tiles never form u: _range_test turns each pair F(a), F(b)
into integer cut points on k (exact, as scaling by 2^53 is) and those into
one unsigned range test on the raw 64-bit word, with the counter words of
the rows it keeps.  So this module alone knows how a word becomes k and u.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_ROOT_SALT = np.uint64(0x5851F42D4C957F2D)
_U53_SCALE = float(2.0**-53)


def _mix64(z: np.ndarray, tmp: np.ndarray = None) -> np.ndarray:
    """splitmix64 finalizer; avalanches all 64 bits of the uint64 z, in place,
    with the shifted words in tmp (an array of z's shape; new if None)."""
    tmp = np.empty_like(z) if tmp is None else tmp
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= _MIX_A
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= _MIX_B
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def counter_words(counters) -> np.ndarray:
    """The words GOLDEN * (counter + 1) that place each counter in a stream."""
    with np.errstate(over="ignore"):
        return _GOLDEN * (np.asarray(counters).astype(np.uint64) + np.uint64(1))


def _derive(key: np.ndarray, words: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Stream words at (key, counter) for words = counter_words(counter),
    broadcast; given uint64 arrays out and tmp of the broadcast shape, the
    words form in out and the mixer's shifts in tmp."""
    with np.errstate(over="ignore"):
        z = np.add(np.asarray(key, dtype=np.uint64), words, out=out)
    return _mix64(z, tmp)


def root_key(seed: int) -> np.uint64:
    """Top-level key for a run; all streams descend from it."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    z = np.asarray(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF) ^ _ROOT_SALT)
    return np.uint64(_mix64(z)[()])


def member_keys(seed: int, member_indices: np.ndarray) -> np.ndarray:
    """One derived key per ensemble member index."""
    idx = np.asarray(member_indices, dtype=np.uint64)
    return _derive(np.asarray(root_key(seed)), counter_words(idx))


def uniforms_at(keys, counters, out=None, bits=None) -> np.ndarray:
    """Uniform [0, 1) variates at (key, counter), broadcast over both arrays.

    The only place bits become doubles.  keys[None, :] against
    counters[:, None] gives one row per counter.  Given a float64 out and a
    uint64 bits of the broadcast shape, the words form in bits, the mixer's
    shifts go into out, and the uniforms then replace them there.
    """
    tmp = None if out is None else out.view(np.uint64)
    bits = _derive(keys, counter_words(counters), bits, tmp)
    bits >>= np.uint64(11)
    return np.multiply(bits.view(np.int64), _U53_SCALE, out=out)


def uniform_matrix(keys: np.ndarray, count: int) -> np.ndarray:
    """Uniforms at counters 0..count-1 for each key, shape (len(keys), count).

    Each entry depends only on its own (key, counter) pair, so the matrix is
    independent of how rows are batched across blocks or threads.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    keys = np.asarray(keys, dtype=np.uint64)[:, None]
    return uniforms_at(keys, np.arange(count, dtype=np.uint64)[None, :])


def _range_test(lo: np.ndarray, hi: np.ndarray):
    """The test lo <= u <= hi on the raw 64-bit word, one (lo, hi) pair per
    counter row: the counter words, L and W of the rows whose count can be
    nonzero, each as one 1-D array.

    A uniform is u = k 2^-53 for the 53-bit integer k = word >> 11, and
    scaling by 2^53 is exact, so u >= lo exactly when k >= K = ceil(lo 2^53)
    and u <= hi exactly when k <= H = floor(hi 2^53).  int64 keeps a cut
    point below 0 (a cdf rounding to a tiny negative value near theta = 0)
    or at 2^53 (a cdf rounding to 1.0) exact.  K is clipped to [0, 2^53]
    and H to [-1, 2^53 - 1], which moves no count, and rows with H < K are
    dropped; the rest have 0 <= K <= H < 2^53.  Then K <= word >> 11 <= H
    exactly when (word - L) mod 2^64 <= W, with L = K 2^11 and
    W = (H - K) 2^11 + 2047, and L + W < 2^64.
    """
    scale = 2.0**53
    k = np.ceil(lo * scale).astype(np.int64).clip(0, 2**53)
    h = np.floor(hi * scale).astype(np.int64).clip(-1, 2**53 - 1)
    rows = np.flatnonzero(k <= h)
    low = k[rows].astype(np.uint64) << np.uint64(11)
    width = ((h - k)[rows].astype(np.uint64) << np.uint64(11)) | np.uint64(2047)
    return counter_words(rows), low, width

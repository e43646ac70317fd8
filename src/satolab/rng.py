"""Splittable counter-based random number generation.

Every variate is a pure function of (key, counter), so any position in any
stream can be addressed directly without generating its predecessors.  The
ensemble sampler keys one stream per member and uses the prime-ideal position
as the counter, which makes runs reproducible under any batching or thread
layout.  The mixer is the splitmix64 finalizer, whose output stream passes
standard statistical batteries.

The word at (key, counter) is _mix64(key + GOLDEN * (counter + 1)), built by
_derive alone.  integers_at is the raw entry point: it takes the counter words
GOLDEN * (counter + 1) precomputed by counter_words, so a caller that visits
the same counters many times (the indicator tiles of every block) builds them
once, and returns the top 53 bits k of each word as int64.  uniforms_at is
k * 2^-53 and remains the only place bits become doubles.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_ROOT_SALT = np.uint64(0x5851F42D4C957F2D)
_U53_SCALE = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; avalanches all 64 bits of the uint64 z, in place."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= _MIX_A
        z ^= z >> np.uint64(27)
        z *= _MIX_B
        z ^= z >> np.uint64(31)
    return z


def counter_words(counters) -> np.ndarray:
    """The words GOLDEN * (counter + 1) that place each counter in a stream."""
    with np.errstate(over="ignore"):
        return _GOLDEN * (np.asarray(counters).astype(np.uint64) + np.uint64(1))


def _derive(key: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Stream words at (key, counter) for words = counter_words(counter), broadcast."""
    with np.errstate(over="ignore"):
        return _mix64(np.asarray(key, dtype=np.uint64) + words)


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


def integers_at(keys, words) -> np.ndarray:
    """53-bit integers k at (key, counter) for words = counter_words(counters).

    Broadcast like uniforms_at, as int64 (every k lies in [0, 2^53)); the
    uniform at the same place is exactly k * 2^-53.
    """
    bits = _derive(keys, words)
    bits >>= np.uint64(11)
    return bits.view(np.int64)


def uniforms_at(keys, counters) -> np.ndarray:
    """Uniform [0, 1) variates at (key, counter), broadcast over both arrays.

    The only place bits become doubles.  keys[None, :] against
    counters[:, None] gives one row per counter.
    """
    return integers_at(keys, counter_words(counters)) * _U53_SCALE


def uniform_matrix(keys: np.ndarray, count: int) -> np.ndarray:
    """Uniforms at counters 0..count-1 for each key, shape (len(keys), count).

    Each entry depends only on its own (key, counter) pair, so the matrix is
    independent of how rows are batched across blocks or threads.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    keys = np.asarray(keys, dtype=np.uint64)[:, None]
    return uniforms_at(keys, np.arange(count, dtype=np.uint64)[None, :])


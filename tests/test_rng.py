"""Counter-based RNG: reference-mixer oracle, stream algebra, uniformity."""
import math

import numpy as np

from satolab.rng import (
    _derive,
    counter_words,
    member_keys,
    root_key,
    uniform_matrix,
    uniforms_at,
)

_MASK = (1 << 64) - 1


def _mix_oracle(z: int) -> int:
    """splitmix64 finalizer in plain integer arithmetic."""
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _stream_oracle(key: int, n: int) -> list:
    """Classic splitmix64 output stream seeded at `key`."""
    state = key & _MASK
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        out.append(_mix_oracle(state))
    return out


def test_derive_matches_integer_oracle():
    for key in (0, 1, 1234567, 0xDEADBEEF, _MASK):
        got = _derive(np.asarray(np.uint64(key)), counter_words(np.arange(6)))
        want = _stream_oracle(key, 6)
        assert [int(g) for g in got] == want


def test_root_key_matches_oracle_and_masks_seed():
    seed = 20260816
    want = _mix_oracle((seed & _MASK) ^ 0x5851F42D4C957F2D)
    assert int(root_key(seed)) == want
    assert int(root_key(seed + (1 << 64))) == want  # seed taken mod 2^64
    assert root_key(3) != root_key(4)


def test_member_keys_are_root_stream_words():
    # member i's key is word i of the root key's stream
    seed = 99
    keys = member_keys(seed, np.arange(8))
    assert [int(k) for k in keys] == _stream_oracle(int(root_key(seed)), 8)


def test_uniform_matrix_rows_match_sequential_streams():
    keys = member_keys(5, np.arange(4))
    mat = uniform_matrix(keys, 9)
    assert mat.shape == (4, 9)
    for i in range(4):
        row = [(w >> 11) * 2.0**-53 for w in _stream_oracle(int(keys[i]), 9)]
        assert mat[i].tolist() == row
    for c in range(9):
        assert np.array_equal(mat[:, c], uniforms_at(keys, c))


def test_uniforms_at_broadcasts_to_permuted_transpose():
    keys = member_keys(5, np.arange(6))
    perm = np.array([4, 0, 7, 2, 2, 9, 1])
    want = uniform_matrix(keys, 10)[:, perm].T
    got = uniforms_at(keys[None, :], perm[:, None])
    assert got.shape == (7, 6)
    assert np.array_equal(got, want)


def test_uniforms_at_are_top_53_bits_of_oracle_words():
    # u 2^53 = word >> 11 exactly: the top 53 bits of the stream word
    keys = member_keys(5, np.arange(6))
    counters = np.array([0, 1, 2, 9, 1000, 2**40, 2**63 - 1], dtype=np.uint64)
    u = uniforms_at(keys[None, :], counters[:, None])
    assert u.dtype == np.float64 and u.shape == (7, 6)
    for i, c in enumerate(counters):
        for m, key in enumerate(keys):
            word = _mix_oracle(int(key) + 0x9E3779B97F4A7C15 * (int(c) + 1))
            assert u[i, m] * 2**53 == word >> 11
    for key in (0, 0xDEADBEEF, _MASK):
        got = uniforms_at(np.uint64(key), np.arange(6))
        assert [g * 2**53 for g in got] == [w >> 11 for w in _stream_oracle(key, 6)]


def test_streams_are_reproducible_and_distinct():
    a, c = uniform_matrix(member_keys(11, np.arange(2)), 16)
    b = uniform_matrix(member_keys(11, np.arange(1)), 16)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_have_53_bit_resolution_and_range():
    u = uniforms_at(root_key(123), np.arange(4096))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    scaled = u * 2.0**53
    assert np.array_equal(scaled, np.round(scaled))


def test_uniform_moments():
    n = 200_000
    u = uniforms_at(root_key(20260816), np.arange(n))
    # mean 1/2 with sd sqrt(1/12n); variance 1/12 with sd ~ (1/sqrt 180)/sqrt n
    assert abs(u.mean() - 0.5) < 4.0 * math.sqrt(1.0 / (12.0 * n))
    assert abs(u.var() - 1.0 / 12.0) < 4.0 * math.sqrt(1.0 / (180.0 * n))
    # tail occupancy: binomial p=0.001 within 4 sigma
    p_hat = float(np.mean(u < 0.001))
    assert abs(p_hat - 0.001) < 4.0 * math.sqrt(0.001 * 0.999 / n)


def test_uniform_matrix_rejects_negative_count():
    keys = member_keys(1, np.arange(2))
    try:
        uniform_matrix(keys, -1)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("negative count must be rejected")

"""Prime splitting, ideal enumeration, norm-power sums and the exact sum
of a float array."""
import functools
import itertools
import math

import numpy as np
import pytest

from oracles import enumerate_one_prime_at_a_time, split_one_prime
from satolab import number_field
from satolab.measures import _expectations
from satolab.moments_engine import ZSeries, limit_law_m, z_power_coeffs
from satolab.number_field import (
    FieldSpec,
    LevelSpec,
    PrimeIdeal,
    _euler_symbols,
    _exact_sum,
    _ideal_table,
    _kronecker,
    _outside,
    enumerate_prime_ideals,
    higher_power_sum,
    is_prime,
    mertens_sum,
    norm_counts,
    pi_L,
    primes_up_to,
    split_prime,
)
from satolab.selberg import ArcInterval, to_chebyshev

Q5 = FieldSpec.real_quadratic(5)
QQ = FieldSpec.rationals()

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def kronecker_oracle(disc: int, p: int) -> int:
    # Brute force: count square roots of disc mod p (odd p), minus one.
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    roots = sum(1 for t in range(p) if (t * t - disc) % p == 0)
    return roots - 1


def test_is_prime_against_sieve():
    flags = np.zeros(2000, dtype=bool)
    flags[primes_up_to(1999)] = True
    for n in range(2000):
        assert is_prime(n) == bool(flags[n])
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_refuses_past_its_witness_range():
    # the 12 witnesses decide only below 2^64; past it a composite such as
    # 1287836182261 * 2575672364521 must not be answered
    assert is_prime(2**64 - 59) and not is_prime(2**64 - 1)
    for n in (2**64, 1287836182261 * 2575672364521, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)
    with pytest.raises(ValueError):
        split_prime(Q5, 2**89 - 1)


def test_primes_up_to_counts():
    assert primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert len(primes_up_to(10**4)) == 1229
    assert len(primes_up_to(10**6)) == 78498


def test_primes_up_to_crosses_block_boundary():
    n = (1 << 20) + 5000
    ps = primes_up_to(n)
    assert np.all(ps[1:] > ps[:-1])
    tail = [int(p) for p in ps if p > n - 100]
    for p in tail:
        assert is_prime(p)


def test_kronecker_matches_oracle():
    for disc in [5, 8, 12, 13, 17]:
        for p in PRIMES_BELOW_100:
            assert _kronecker(disc, np.array([p])).tolist() == [kronecker_oracle(disc, p)]


def test_field_spec_validation():
    assert Q5.discriminant == 5
    assert FieldSpec.real_quadratic(2).discriminant == 8
    assert FieldSpec.real_quadratic(3).discriminant == 12
    with pytest.raises(ValueError):
        FieldSpec.real_quadratic(12)  # 4 | 12
    with pytest.raises(ValueError):
        FieldSpec.real_quadratic(1)
    assert FieldSpec.from_name("sqrt5") == Q5
    for name in ("rationals", "q", "Q"):
        assert FieldSpec.from_name(name) == QQ
    for bad in ("sqrt4", "sqrt", "sqrt-5", " sqrt5", "rational", 5, None):
        with pytest.raises(ValueError):
            FieldSpec.from_name(bad)


def test_split_prime_examples():
    eleven = split_prime(Q5, 11)
    assert [i.norm for i in eleven] == [11, 11]
    assert [i.split_type for i in eleven] == ["split", "split"]
    assert [i.label for i in eleven] == [0, 1]

    five = split_prime(Q5, 5)
    assert len(five) == 1 and five[0].split_type == "ramified" and five[0].norm == 5

    two = split_prime(Q5, 2)
    assert len(two) == 1 and two[0].split_type == "inert" and two[0].norm == 4
    # x^2 - x - 1 has no root mod 2, confirming inertness independently.
    assert all((t * t - t - 1) % 2 != 0 for t in range(2))

    with pytest.raises(ValueError):
        split_prime(Q5, 15)


def test_split_prime_matches_symbol_oracle():
    for p in PRIMES_BELOW_100:
        ideals = split_prime(Q5, p)
        sym = kronecker_oracle(5, p)
        if sym == 1:
            assert len(ideals) == 2 and all(i.norm == p for i in ideals)
        elif sym == -1:
            assert len(ideals) == 1 and ideals[0].norm == p * p
        else:
            assert len(ideals) == 1 and ideals[0].norm == p


def test_enumerate_rationals_x10():
    ideals = enumerate_prime_ideals(QQ, 10)
    assert [i.norm for i in ideals] == [2, 3, 5, 7]
    assert all(i.split_type == "rational" for i in ideals)


def test_enumerate_quadratic_x10_via_oracle():
    ideals = enumerate_prime_ideals(Q5, 10)
    # Independent count from the splitting oracle.
    expected = 0
    norms = []
    for p in [2, 3, 5, 7]:
        sym = kronecker_oracle(5, p)
        if sym == 1:
            expected += 2
            norms += [p, p]
        elif sym == 0:
            expected += 1
            norms += [p]
        elif p * p <= 10:
            expected += 1
            norms += [p * p]
    assert len(ideals) == expected
    assert sorted(i.norm for i in ideals) == sorted(norms)


def test_enumerate_sorted_and_inert_cutoff():
    ideals = enumerate_prime_ideals(Q5, 120)
    keys = [(i.norm, i.p, i.label) for i in ideals]
    assert keys == sorted(keys)
    for i in ideals:
        if i.split_type == "inert":
            assert i.p <= math.isqrt(120)
        assert i.norm == i.p**i.f


def test_level_exclusion_removes_one():
    level = LevelSpec.above_primes(Q5, [5])
    assert len(level.excluded) == 1
    full = enumerate_prime_ideals(Q5, 100)
    pruned = enumerate_prime_ideals(Q5, 100, level)
    assert len(full) - len(pruned) == 1
    assert all(i.norm != 5 for i in pruned)


def test_level_spec_rejects_duplicates():
    ideal = split_prime(Q5, 5)[0]
    with pytest.raises(ValueError):
        LevelSpec(excluded=(ideal, ideal))


def tau(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if n % k == 0)


def test_norm_multiplicity_bound():
    ideals = enumerate_prime_ideals(Q5, 300)
    counts = {}
    for i in ideals:
        counts[i.norm] = counts.get(i.norm, 0) + 1
    for norm, count in counts.items():
        assert count <= tau(norm) ** (Q5.degree - 1)
    for i in enumerate_prime_ideals(QQ, 300):
        assert 1 <= tau(i.norm) ** (QQ.degree - 1)


def test_pi_l_consistency_split_counts():
    x = 10**4
    split = ramified = inert_small = 0
    for p in primes_up_to(x):
        sym = int(_kronecker(5, np.array([p]))[0])
        if sym == 1:
            split += 1
        elif sym == 0:
            ramified += 1
        elif p * p <= x:
            inert_small += 1
    assert pi_L(Q5, x) == 2 * split + ramified + inert_small


def test_enumeration_deterministic():
    a = enumerate_prime_ideals(Q5, 500)
    b = enumerate_prime_ideals(Q5, 500)
    assert a == b


def test_mertens_rationals_x100():
    direct = math.fsum(1.0 / p for p in PRIMES_BELOW_100)
    got = mertens_sum(QQ, 100)
    assert got == pytest.approx(direct, abs=1e-10)
    assert got == pytest.approx(1.80281, abs=1e-5)


def test_mertens_minus_loglog_stabilizes():
    vals = [mertens_sum(QQ, x) - math.log(math.log(x)) for x in [10**4, 10**5, 10**6]]
    assert max(vals) - min(vals) <= 0.05


def _minus_row_product(x):
    """counts * row(1)^3 over the distinct norms of sqrt5 at x for the
    minorant, the product _main_term_kernel sums for the block (1, 1, 1)."""
    pair = to_chebyshev(ArcInterval(math.pi / 4, math.pi / 2), limit_law_m(Q5, x))
    z = ZSeries.from_extremal(pair, "minus")
    qs, counts = norm_counts(Q5, x)
    row = _expectations(z_power_coeffs(z, 1).coeffs[::2], 1.0 / qs)
    return counts.astype(np.float64) * row * row * row


@functools.lru_cache(maxsize=1)
def _fsum_cases():
    rng = np.random.default_rng(41)
    pair = rng.normal(size=400) * 10.0 ** rng.integers(-30, 30, size=400)
    cancelling = np.concatenate([pair, -pair, [3e-40]])
    rng.shuffle(cancelling)
    top = np.finfo(np.float64).max
    return {
        "random": [rng.normal(size=int(n)) for n in rng.integers(1, 5000, size=20)],
        "10^-250..10^250": [rng.normal(size=3000) * 10.0 ** rng.integers(-250, 251, size=3000)],
        "cancelling pairs": [cancelling, np.concatenate([pair, -pair])],
        "ties to even": [np.array([1.0, 2.0**-53]), np.array([1.0, 2.0**-53, 2.0**-106]),
                         np.array([1.0 + 2.0**-52, 2.0**-53]), np.array([-1.0, -(2.0**-53)])],
        # a tie at the first levels that a bit far below breaks, three or
        # more levels down
        "near ties": [np.array([1.0, 2.0**-53, 2.0**-160]), np.array([1.0, 2.0**-53, -(2.0**-160)]),
                      np.array([-1.0, -(2.0**-53), -(2.0**-1074)]),
                      np.array([1.0, 2.0**-160, 1.0, 1.0, 2.0**-52])],
        "subnormals": [rng.normal(size=1000) * 1e-310, np.array([5e-324] * 7 + [-1e-323]),
                       np.array([2.0**-1022, -(2.0**-1074), 1e-300])],
        "zeros": [np.zeros(17), np.array([0.0, -0.0]), np.zeros(0)],
        "extremes": [np.array([1.7e308, -1.7e308, 4.9e-324]), np.array([1e308, -1e-308, 1e200])],
        # n = 2^k - 2, 2^k - 1 and 2^k, where the least k with 2^k >= n + 2
        # steps up
        "sizes at a step of k": [
            sign * rng.uniform(0.5, 1.0, size=(1 << k) + d)
            for k in (2, 3, 10, 16)
            for d in (-2, -1, 0)
            for sign in (1.0, rng.choice([-1.0, 1.0], size=(1 << k) + d))
        ],
        # at or above 2^1000, where the first level truncates instead of adding sigma
        "past 2^1000": [rng.normal(size=3000) * 2.0 ** rng.integers(1000, 1016, size=3000),
                        np.array([top]), np.array([top, -top / 2, 1.0, 2.0**-1074]),
                        np.array([2.0**1021, 1.0, -(2.0**1021), 2.0**-1074]),
                        np.concatenate([rng.normal(size=100) * 2.0**1015, rng.normal(size=100) * 1e-300])],
        "kernel row product, minus": [_minus_row_product(1e6)],
    }


@pytest.mark.parametrize("case", sorted(_fsum_cases()))
def test_exact_sum_is_fsum(case):
    for values in _fsum_cases()[case]:
        assert _exact_sum(values.copy()) == math.fsum(values.tolist()), values[:4]


def test_exact_sum_past_one_bincount():
    # 2^23 + 1 values just below 1, whose exact sum needs more than 53 bits
    # and so rounds
    value = 1.0 - 2.0**-53
    values = np.full(2**23 + 1, value)
    assert _exact_sum(values) == math.fsum(itertools.repeat(value, values.size))


def test_exact_sum_survives_an_intermediate_overflow():
    values = np.array([1e308, 1e308, -1e308])
    with pytest.raises(OverflowError):
        math.fsum(values.tolist())
    assert _exact_sum(values) == 1e308


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("finite", [[], [1.0, -2.5e300, 3e-310]])
def test_exact_sum_refuses_non_finite_values(bad, finite):
    with pytest.raises(ValueError, match="finite"):
        _exact_sum(np.array([*finite, bad, *finite]))


def test_norm_power_sums_keep_their_fsum_bits():
    norms = _ideal_table(Q5, 10**5).norm
    assert mertens_sum(Q5, 10**5) == math.fsum((1.0 / norms).tolist())
    assert higher_power_sum(Q5, 10**5) == math.fsum((1.0 / (norms * (norms - 1))).tolist())


@pytest.mark.parametrize("fs", [QQ, Q5])
@pytest.mark.parametrize("x", [10**5, 10**7])
def test_norm_power_sums_over_distinct_norms_equal_the_per_ideal_sums(fs, x):
    # count/q over the distinct norms against 1/N per ideal over the int64
    # norm column, the product N (N - 1) taken in int64
    norms = _ideal_table(fs, x).norm
    assert mertens_sum(fs, x) == _exact_sum(1.0 / norms)
    assert higher_power_sum(fs, x) == _exact_sum(1.0 / (norms * (norms - 1)))


def test_float_product_of_consecutive_norms_rounds_as_the_int64_product():
    # q (q - 1.0) in float64 against the exact int64 product converted, where
    # the product passes 2^53 and so rounds
    q = np.random.default_rng(8).integers(9 * 10**7, 10**8, size=10**5, endpoint=True)
    exact = q * (q - 1)
    assert exact.max() > 2**53
    qf = q.astype(np.float64)
    assert np.array_equal(qf * (qf - 1.0), exact.astype(np.float64))


def test_higher_power_sum_bounded():
    lo = higher_power_sum(QQ, 10**4)
    hi = higher_power_sum(QQ, 10**6)
    assert hi <= lo + 0.01
    assert hi >= lo


def test_sum_preconditions():
    with pytest.raises(ValueError):
        mertens_sum(QQ, 10)
    with pytest.raises(ValueError):
        higher_power_sum(QQ, 10)
    with pytest.raises(ValueError):
        enumerate_prime_ideals(QQ, 1.5)


def test_prime_ideal_ordering_key():
    a = PrimeIdeal(norm=11, p=11, label=0, f=1, split_type="split")
    b = PrimeIdeal(norm=11, p=11, label=1, f=1, split_type="split")
    c = PrimeIdeal(norm=9, p=3, label=0, f=2, split_type="inert")
    assert sorted([b, a, c]) == [c, a, b]


FIELDS = ["rationals", "sqrt2", "sqrt3", "sqrt5", "sqrt13"]  # disc 1, 8, 12, 5, 13


def _rows(ideals):
    return [(i.norm, i.p, i.label, i.f, i.split_type) for i in ideals]


@pytest.mark.parametrize("x", [10, 120, 10**4, (1 << 20) + 5000, 10**6])
def test_ideal_table_matches_one_prime_at_a_time(x):
    # the column table, the objects built from it and the norm column all
    # equal the per-prime loop, split types included; the bounds include one
    # past the first 2^20 sieve block, and the fields an even discriminant
    # (sqrt2, sqrt3) and ramified odd primes (5, 3 and 13)
    for name in FIELDS:
        fs = FieldSpec.from_name(name)
        want = enumerate_one_prime_at_a_time(fs, x)
        table = _ideal_table(fs, x)
        codes = [number_field._SPLIT_TYPES[c] for c in table.code.tolist()]
        columns = [c.tolist() for c in (table.norm, table.p, table.label, table.f)]
        assert list(zip(*columns, codes)) == want, (name, x)
        got = enumerate_prime_ideals(fs, x)
        assert _rows(got) == want and {type(i) for i in got} == {PrimeIdeal}, (name, x)
        assert np.repeat(*norm_counts(fs, x)).tolist() == [float(row[0]) for row in want]
        assert pi_L(fs, x) == len(want)


@pytest.mark.parametrize("name", FIELDS)
def test_level_exclusions_match_on_compared_fields(name):
    # exclusions match on (norm, p, label, f): one conjugate of a split
    # prime, whole primes, and ideals of norm > x
    fs = FieldSpec.from_name(name)
    above = LevelSpec.above_primes(fs, [3, 13, 11, 1009, 2**61 - 1]).excluded
    for x in (120, 10**4):
        for excluded in (above, above[-1:], split_prime(fs, 11)[-1:]):
            level = LevelSpec(excluded=excluded)
            keys = {row[:4] for row in _rows(excluded)}
            want = [row for row in enumerate_one_prime_at_a_time(fs, x) if row[:4] not in keys]
            assert _rows(enumerate_prime_ideals(fs, x, level)) == want, (name, x, excluded)
            qs, counts = norm_counts(fs, x, level)
            assert np.repeat(qs, counts).tolist() == [float(row[0]) for row in want]
            assert not any(c.flags.writeable for c in _outside(fs, x, level))
            assert pi_L(fs, x, level) == len(want)
    assert any(i.norm > 10**4 for i in above)


@pytest.mark.parametrize("name", ["rationals", "sqrt2", "sqrt5", "sqrt13"])
def test_outside_matches_a_four_column_filter(name):
    # _outside matches on 2 norm + label alone; a filter on (norm, p, label,
    # f) over the whole table removes the same rows.  Excluded: one
    # conjugate of a split prime, the other of a second, both of a third,
    # inert, ramified and rational ideals, and the ideals above primes past
    # the table (100003 and 2^61 - 1, and inert primes whose norm passes x)
    fs, x = FieldSpec.from_name(name), 10**5
    by_type = {}
    for q in primes_up_to(1000).tolist():
        by_type.setdefault(split_prime(fs, q)[0].split_type, []).append(q)
    excluded = [split_prime(fs, q)[i] for q, i in zip(by_type.get("split", []), (1, 0))]
    whole = [q for ps in by_type.values() for q in {*ps[2:4], *ps[-2:]}]
    for q in [*whole, 100003, 2**61 - 1]:
        excluded += split_prime(fs, q)
    table = _ideal_table(fs, x)
    keys = {(i.norm, i.p, i.label, i.f) for i in excluded}
    rows = zip(*(c.tolist() for c in table[:4]))
    keep = np.array([row not in keys for row in rows])
    got = _outside(fs, x, LevelSpec(excluded=tuple(excluded)))
    assert 0 < np.count_nonzero(~keep) < len(excluded)
    for got_col, col in zip(got, table):
        assert got_col.dtype == col.dtype and not got_col.flags.writeable
        assert got_col.tolist() == col[keep].tolist(), name
    assert {i.split_type for i in excluded if i.norm <= x} == set(by_type)


def test_outside_and_norm_counts_read_only_and_built_without_objects(monkeypatch):
    def no_objects(*fields):
        raise AssertionError("built PrimeIdeal objects")

    level = LevelSpec.above_primes(Q5, [11])
    monkeypatch.setattr(number_field, "PrimeIdeal", no_objects)
    with pytest.raises(AssertionError):  # the patch reaches the object path
        enumerate_prime_ideals(Q5, 100)
    _ideal_table.cache_clear()
    table = _outside(Q5, 1e6)
    assert table.norm.dtype == np.int64 and table.norm.size == 78510
    assert np.all(np.diff(table.norm) >= 0)
    for column in table:
        with pytest.raises(ValueError):
            column[0] = 1
    assert _outside(Q5, 1e6).norm is table.norm
    qs, counts = norm_counts(Q5, 1e6)
    assert qs.dtype == np.float64 and counts.dtype == np.int64
    assert np.all(np.diff(qs) > 0.0) and counts.sum() == 78510
    pruned = _outside(Q5, 1e6, level)
    assert pruned.norm.size == 78508 and not any(c.flags.writeable for c in pruned)
    assert norm_counts(Q5, 1e6, level)[1].sum() == 78508


@pytest.mark.parametrize("name", ["rationals", "sqrt2", "sqrt5", "sqrt13"])
def test_norm_counts_equal_unique_over_the_norm_column(name):
    # with no level, and with levels that exclude one conjugate of a split
    # prime, an inert ideal, a ramified ideal (a rational one over Q) and an
    # ideal past the table; values and dtypes both
    fs, x = FieldSpec.from_name(name), 10**5
    first = {}
    for q in primes_up_to(1000).tolist():
        first.setdefault(split_prime(fs, q)[0].split_type, q)
    single = [split_prime(fs, q)[-1:] for q in first.values()]
    levels = [None, *(LevelSpec(excluded=tuple(e)) for e in single)]
    levels.append(LevelSpec(excluded=tuple(split_prime(fs, 100003))))
    levels.append(LevelSpec(excluded=tuple(i for e in single for i in e)))
    assert len(first) == (1 if fs.degree == 1 else 3)
    for level in levels:
        got = norm_counts(fs, x, level)
        want = np.unique(_outside(fs, x, level).norm.astype(np.float64), return_counts=True)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (name, level)


def test_norm_counts_of_an_empty_table(tmp_path, capsys):
    # sqrt5 has no prime ideal of norm <= 3 (2 is inert and 3 too, 5 is
    # ramified), so both columns are empty, and clt still names x
    from satolab.cli import main

    got = norm_counts(Q5, 3)
    want = np.unique(_outside(Q5, 3).norm.astype(np.float64), return_counts=True)
    assert got[0].size == got[1].size == 0
    assert [g.dtype for g in got] == [w.dtype for w in want]
    argv = ["clt", "--field", "sqrt5", "--x", "3", "--size", "100", "--seed", "1",
            "--statistic", "smooth", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "'x'" in capsys.readouterr().err


def test_pi_l_at_one_million():
    assert pi_L(Q5, 1e6) == 78510
    assert pi_L(QQ, 1e6) == 78498


def test_vectorized_kronecker_matches_oracle():
    primes = primes_up_to(1999)
    for disc in [5, 8, 12, 13, 17, 24, -3, -4]:
        want = [kronecker_oracle(disc, p) for p in primes.tolist()]
        assert _kronecker(disc, primes).tolist() == want, disc
        one_at_a_time = [_kronecker(disc, np.array([p]))[0] for p in primes[:40]]
        assert one_at_a_time == want[:40]


def _euler_oracle(disc: int, p: int) -> int:
    # Euler's criterion by Python's pow, p = 2 by disc mod 8
    if p == 2:
        return 0 if disc % 2 == 0 else (1 if disc % 8 in (1, 7) else -1)
    r = disc % p
    return 0 if r == 0 else (1 if pow(r, (p - 1) // 2, p) == 1 else -1)


def test_kronecker_by_residue_class_matches_euler_on_every_prime(monkeypatch):
    # one symbol per residue class mod |disc|, gathered, agrees with Euler's
    # criterion on every one of the 17,984 primes to 2e5.  A disc past the
    # cutoff (more classes than primes) and object-dtype primes take Euler's
    # criterion on every prime
    primes = primes_up_to(200_000)
    euler, calls = _euler_symbols, []

    def counted(disc, p):
        calls.append(p.size)
        return euler(disc, p)

    monkeypatch.setattr(number_field, "_euler_symbols", counted)
    past = 4 * 1_000_003  # a field discriminant with more classes than primes
    for disc in (5, 8, 12, 13, 4004, -3, -4, past):
        want = [_euler_oracle(disc, p) for p in primes.tolist()]
        calls.clear()
        assert _kronecker(disc, primes).tolist() == want, disc
        classes = np.unique(primes % abs(disc)).size
        assert calls == [primes.size if disc == past else classes], disc
        assert euler(disc, primes).tolist() == want, disc
    calls.clear()
    assert _kronecker(5, primes.astype(object)).tolist() == euler(5, primes).tolist()
    assert calls == [primes.size]


def test_split_prime_beyond_int64_products():
    # products of residues stay in int64 up to isqrt(2^63 - 1) = 3,037,000,499;
    # past it the kernel runs on Python ints
    for name in FIELDS:
        fs = FieldSpec.from_name(name)
        for p in (3_037_000_493, 3_037_000_507, 2**61 - 1):
            assert _rows(split_prime(fs, p)) == split_one_prime(fs, p), (name, p)

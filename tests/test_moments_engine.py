"""Tests for the deterministic moment pipeline.

The partition expansion is pinned by an exact multinomial oracle over
rational site values, the distinct-tuple Moebius sum by brute-force
enumeration and, bit for bit, by the walk over every set partition, and
the local integrals by direct quadrature against the local density.
"""
import itertools
import math
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import expi

from oracles import (
    block_order_counts,
    block_summer,
    cumulant_main_terms,
    full_horner,
    set_partitions,
    walked_tuple_sum,
)
from satolab.chebyshev import ChebyshevSeries
from satolab.measures import LocalMeasure, density
from satolab.moments_engine import (
    WeightVector,
    ZSeries,
    classify_partition,
    growth_bookkeeping,
    main_term_report,
    partitions_of,
    limit_law_m,
    z_power_coeffs,
)
from satolab import moments_engine
from satolab.measures import _expectations
from satolab.moments_engine import _block_orders, _distinct_tuple_sum, _ei
from satolab.number_field import (
    FieldSpec,
    LevelSpec,
    enumerate_prime_ideals,
    norm_counts,
    split_prime,
)
from satolab.selberg import ArcInterval, selberg_coefficients, to_chebyshev, variance_sum

Q5 = FieldSpec.real_quadratic(5)
ARC = ArcInterval(math.pi / 4, math.pi / 2)


def _brute_distinct_sum(parts, per_site):
    """Sum over ordered tuples of pairwise-distinct sites, exact arithmetic
    when the site values are Fractions."""
    total = 0
    for tup in itertools.permutations(range(len(per_site)), len(parts)):
        prod = 1
        for r, site in zip(parts, tup):
            prod = prod * per_site[site] ** r
        total = total + prod
    return total


def test_partition_expansion_reproduces_powers_exactly():
    # (z_1 + ... + z_s)^n as a weighted sum over partitions of distinct
    # ordered tuple sums, in exact rational arithmetic.
    sites = [Fraction(3, 7), Fraction(-1, 2), Fraction(5, 11), Fraction(2, 3)]
    for n in range(1, 6):
        acc = Fraction(0)
        for part in partitions_of(n):
            acc += part.weight * _brute_distinct_sum(part.parts, sites)
        assert acc == sum(sites) ** n


def test_three_site_fourth_power_exact():
    sites = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)]
    acc = Fraction(0)
    for part in partitions_of(4):
        acc += part.weight * _brute_distinct_sum(part.parts, sites)
    assert acc == sum(sites) ** 4


def test_partition_table_order_four():
    got = {p.parts: p.weight for p in partitions_of(4)}
    assert got == {
        (4,): Fraction(1),
        (3, 1): Fraction(4),
        (2, 2): Fraction(3),
        (2, 1, 1): Fraction(6),
        (1, 1, 1, 1): Fraction(1),
    }


def test_partition_counts_and_guards():
    counts = [len(partitions_of(n)) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]
    assert len(partitions_of(12)) == 77
    for p in partitions_of(8):
        assert p.weight.denominator == 1 and p.weight > 0
        assert sum(p.parts) == 8
        assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))
    with pytest.raises(ValueError):
        partitions_of(0)
    with pytest.raises(ValueError):
        partitions_of(13)


def test_case_labels_are_a_partition_of_partitions():
    assert classify_partition((2,)) == 1
    assert classify_partition((2, 2, 2)) == 1
    assert classify_partition((1,)) == 2
    assert classify_partition((3, 1)) == 2
    assert classify_partition((3, 2)) == 3
    assert classify_partition((4,)) == 3
    for n in range(1, 9):
        labels = [classify_partition(p.parts) for p in partitions_of(n)]
        assert all(lab in (1, 2, 3) for lab in labels)
        if n % 2:
            assert 1 not in labels


def test_distinct_tuple_sum_matches_brute_force():
    rng = np.random.default_rng(7)
    counts = np.array([1.0, 2.0, 1.0, 3.0, 1.0, 2.0])
    f_rows = {r: rng.normal(size=6) for r in range(1, 5)}
    # expand the grouped representation to one value per ideal
    per_site = {
        r: [f_rows[r][i] for i in range(6) for _ in range(int(counts[i]))]
        for r in f_rows
    }
    for parts in [(2,), (1, 1), (2, 1), (3, 1), (2, 2), (1, 1, 1), (2, 1, 1)]:
        got = _distinct_tuple_sum(parts, block_summer(f_rows.__getitem__, counts))
        want = 0.0
        for tup in itertools.permutations(range(len(per_site[1])), len(parts)):
            prod = 1.0
            for r, site in zip(parts, tup):
                prod *= per_site[r][site]
            want += prod
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_block_orders_count_every_set_partition():
    # the DP over positions counts each block sequence as the walk over
    # all Bell(u) set partitions does, for every partition of n <= 8
    for n in range(1, 9):
        for p in partitions_of(n):
            got = dict(_block_orders(p.parts))
            assert got == block_order_counts(p.parts), p.parts
            assert sum(got.values()) == len(set_partitions(len(p.parts)))


def test_grouped_tuple_sum_is_bitwise_the_walk():
    rng = np.random.default_rng(23)
    for scale in (1.0, 1e-3, 1e3):
        counts = rng.integers(1, 4, size=50).astype(np.float64)
        f_rows = {r: scale * rng.normal(size=50) for r in range(1, 9)}
        block_sum = block_summer(f_rows.__getitem__, counts)
        for n in range(1, 9):
            for p in partitions_of(n):
                want = walked_tuple_sum(p.parts, block_sum)
                assert _distinct_tuple_sum(p.parts, block_sum) == want, (scale, p.parts)


def _distinct_norm_weights(fs, x, level=None):
    norms = np.array([ideal.norm for ideal in enumerate_prime_ideals(fs, x, level)], dtype=np.float64)
    qs, counts = np.unique(norms, return_counts=True)
    return 1.0 / qs, counts.astype(np.float64)


@pytest.mark.parametrize(
    "sign, level",
    [("plus", None), ("minus", None), ("plus", LevelSpec(excluded=tuple(split_prime(Q5, 11)[:1])))],
    ids=["plus", "minus", "plus-level"],
)
def test_shared_block_cache_matches_fresh_cache_sums(sign, level):
    x = 20_000
    pair = to_chebyshev(ARC, limit_law_m(Q5, x))
    z = ZSeries.from_extremal(pair, sign)
    w, counts = _distinct_norm_weights(Q5, x, level)
    pi_count = float(counts.sum())
    f_rows = {r: full_horner(z_power_coeffs(z, r).coeffs, w) for r in range(1, 9)}
    for n in range(1, 9):
        rep = main_term_report(n, Q5, x, pair, sign=sign, level=level)
        scale = pi_count ** (n / 2.0)
        want = tuple(
            (
                p.parts,
                classify_partition(p.parts),
                float(p.weight)
                * _distinct_tuple_sum(p.parts, block_summer(f_rows.__getitem__, counts))
                / scale,
            )
            for p in partitions_of(n)
        )
        assert rep.partition_terms == want


def _cold(n, fs, x, pair, sign="plus", level=None):
    moments_engine._main_term_kernel.cache_clear()
    return main_term_report(n, fs, x, pair, sign=sign, level=level)


def test_kernel_reuse_matches_cold_recomputation_bitwise():
    # interleaved calls that share, and do not share, a kernel key
    x = 20_000
    m = limit_law_m(Q5, x)
    pairs = {
        "arc": to_chebyshev(ARC, m),
        "other arc": to_chebyshev(ArcInterval(0.5, 1.0), m),
        "small M": to_chebyshev(ARC, 40),
    }
    level = LevelSpec(excluded=tuple(split_prime(Q5, 11)[:1]))
    calls = [
        (8, x, "arc", "plus", None),
        (3, float(x), "arc", "plus", None),
        (5, x, "arc", "minus", None),
        (2, x, "arc", "plus", None),
        (4, x, "other arc", "plus", None),
        (6, float(x), "small M", "minus", None),
        (7, x, "arc", "plus", level),
        (1, float(x) + 0.5, "arc", "plus", level),
        (4, x, "small M", "minus", None),
        (6, x, "arc", "minus", None),
    ]
    moments_engine._main_term_kernel.cache_clear()
    got = [main_term_report(n, Q5, xx, pairs[p], sign=s, level=lv) for n, xx, p, s, lv in calls]
    for rep, (n, xx, p, s, lv) in zip(got, calls):
        want = _cold(n, Q5, xx, pairs[p], sign=s, level=lv)
        assert rep.partition_terms == want.partition_terms
        assert rep.total == want.total and rep.pi_L_x == want.pi_L_x
    assert got[6].pi_L_x == got[0].pi_L_x - 1


def test_kernel_is_shared_by_int_and_float_bounds():
    pair = to_chebyshev(ARC, 30)
    moments_engine._main_term_kernel.cache_clear()
    main_term_report(2, Q5, 5000, pair)
    main_term_report(3, Q5, 5000.0, pair)
    main_term_report(4, Q5, 5000.9, pair)
    info = moments_engine._main_term_kernel.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (2, 1, 1, 1)


def test_sweep_builds_each_profile_once(monkeypatch):
    calls = []

    def counted(coeffs, w):
        calls.append(coeffs.size)
        return _expectations(coeffs, w)

    monkeypatch.setattr(moments_engine, "_expectations", counted)
    pair = to_chebyshev(ARC, limit_law_m(Q5, 20_000))
    moments_engine._main_term_kernel.cache_clear()
    for n in range(1, 9):
        main_term_report(n, Q5, 20_000, pair)
    assert len(calls) == 8
    for n in (8, 3, 5):
        main_term_report(n, Q5, 20_000, pair)
    assert len(calls) == 8


def test_sweep_builds_each_block_sum_once():
    blocks = {
        tuple(sorted(p.parts[i] for i in block))
        for n in range(1, 9)
        for p in partitions_of(n)
        for sigma in set_partitions(len(p.parts))
        for block in sigma
    }
    x = 20_000
    pair = to_chebyshev(ARC, limit_law_m(Q5, x))
    z_bytes = ZSeries.from_extremal(pair, "plus").series.coeffs.tobytes()
    moments_engine._main_term_kernel.cache_clear()
    for n in range(1, 9):
        main_term_report(n, Q5, x, pair)
    block_sum = moments_engine._main_term_kernel(Q5, x, None, z_bytes)[1]
    assert block_sum.cache_info().misses == len(blocks)
    for n in (8, 3, 5):
        main_term_report(n, Q5, x, pair)
    assert block_sum.cache_info().misses == len(blocks)
    assert moments_engine._main_term_kernel.cache_info().misses == 1


def test_order_on_cached_lower_orders_matches_cold_call():
    # order 8 at M = 1300, built on the cached powers, rows and block sums of
    # orders 1..7, reads the bits of a cold call, and so does order 7
    pair = to_chebyshev(ARC, 1300)
    fs = FieldSpec.rationals()
    moments_engine._main_term_kernel.cache_clear()
    for n in range(1, 8):
        main_term_report(n, fs, 300, pair)
    warm = main_term_report(8, fs, 300, pair)
    assert main_term_report(7, fs, 300, pair).total == _cold(7, fs, 300, pair).total
    cold = _cold(8, fs, 300, pair)
    assert (warm.total, warm.partition_terms) == (cold.total, cold.partition_terms)


def test_threads_sharing_a_kernel_match_cold_calls():
    pair = to_chebyshev(ARC, limit_law_m(Q5, 20_000))
    orders = [8, 2, 7, 3, 6, 4, 5, 1]
    want = {n: _cold(n, Q5, 20_000, pair).partition_terms for n in orders}
    got = {}
    moments_engine._main_term_kernel.cache_clear()
    main_term_report(1, Q5, 20_000, pair)  # every thread shares this kernel
    threads = [
        threading.Thread(
            target=lambda n=n: got.__setitem__(n, main_term_report(n, Q5, 20_000, pair))
        )
        for n in orders
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert {n: rep.partition_terms for n, rep in got.items()} == want


@pytest.mark.parametrize(
    "fs, x", [(Q5, 100_000), (FieldSpec.rationals(), 20_000), (Q5, 3_000_000)]
)
def test_main_term_matches_cumulant_oracle(fs, x):
    # the partition expansion is the n-th moment of the model sum, which the
    # oracle takes from per-norm cumulants
    pair = to_chebyshev(ARC, limit_law_m(fs, x))
    for sign in ("plus", "minus"):
        z = ZSeries.from_extremal(pair, sign)
        want = cumulant_main_terms(z.series.coeffs, np.repeat(*norm_counts(fs, x)), 8)
        for n in range(1, 9):
            got = main_term_report(n, fs, x, pair, sign=sign).total
            assert abs(got - want[n - 1]) <= 1e-12, (sign, n)


def test_moebius_route_reproduces_powers():
    # with f_r = v^r pointwise, the full expansion telescopes to (sum v)^n
    rng = np.random.default_rng(11)
    v = rng.uniform(0.1, 1.0, size=9)
    counts = np.ones_like(v)
    f_rows = {r: v**r for r in range(1, 7)}
    for n in range(1, 7):
        acc = [
            float(p.weight)
            * _distinct_tuple_sum(p.parts, block_summer(f_rows.__getitem__, counts))
            for p in partitions_of(n)
        ]
        assert math.fsum(acc) == pytest.approx(float(np.sum(v)) ** n, rel=1e-11)


def test_z_series_construction():
    pair = to_chebyshev(ARC, 10)
    z = ZSeries.from_extremal(pair, "plus")
    assert z.series.coeffs[0] == 0.0
    assert z.source == "plus"
    zm = ZSeries.from_extremal(pair, "minus")
    assert zm.series.coeffs[0] == 0.0
    assert not np.array_equal(z.series.coeffs, zm.series.coeffs)
    with pytest.raises(ValueError):
        ZSeries.from_extremal(pair, "both")
    with pytest.raises(ValueError):
        ZSeries(series=ChebyshevSeries([0.5, 1.0]), source="plus")
    circle_pair = selberg_coefficients(ARC.to_circle(), 10)
    assert np.array_equal(ZSeries.from_extremal(circle_pair, "plus").series.coeffs, z.series.coeffs)


def test_z_power_identity_and_guards():
    pair = to_chebyshev(ARC, 8)
    z = ZSeries.from_extremal(pair, "plus")
    first = z_power_coeffs(z, 1)
    assert np.array_equal(first.coeffs, z.series.coeffs)
    with pytest.raises(ValueError):
        z_power_coeffs(z, 0)


def test_z_power_hand_linearization():
    # U_1^2 = U_0 + U_2 and U_1^3 = 2 U_1 + U_3
    z = ZSeries(series=ChebyshevSeries([0.0, 1.0]), source="plus")
    assert np.allclose(z_power_coeffs(z, 2).coeffs, [1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(z_power_coeffs(z, 3).coeffs, [0.0, 2.0, 0.0, 1.0], atol=1e-15)


def test_z_square_constant_term_is_coefficient_energy():
    pair = to_chebyshev(ARC, 20)
    sums = variance_sum(pair)
    for sign, want in (("plus", sums.plus), ("minus", sums.minus)):
        z = ZSeries.from_extremal(pair, sign)
        assert z_power_coeffs(z, 2).coeffs[0] == pytest.approx(want, rel=1e-12)


def test_z_power_pointwise_spot_check():
    pair = to_chebyshev(ArcInterval(0.8, 2.1), 8)
    z = ZSeries.from_extremal(pair, "plus")
    cubed = z_power_coeffs(z, 3)
    theta = np.linspace(0.05, math.pi - 0.05, 23)
    assert np.max(np.abs(cubed.evaluate(theta) - z.series.evaluate(theta) ** 3)) < 1e-8


def _local_integral(z, r, q):
    """The local integral of Z^r at norm q, by the program's Horner path."""
    return float(_expectations(z_power_coeffs(z, r).coeffs[::2], np.array([1.0 / q]))[0])


def test_local_integral_single_term():
    z = ZSeries(series=ChebyshevSeries([0.0, 0.0, 0.37]), source="plus")
    assert _local_integral(z, 1, 4.0) == pytest.approx(0.37 / 4.0, rel=1e-15)
    odd = ZSeries(series=ChebyshevSeries([0.0, 0.0, 0.0, 1.3]), source="plus")
    assert _local_integral(odd, 1, 9.0) == 0.0


def test_local_integral_first_power_decay():
    pair = to_chebyshev(ARC, 10)
    z = ZSeries.from_extremal(pair, "plus")
    bound = float(np.sum(np.abs(z.series.coeffs)))
    for q in (1e4, 1e6, 1e8):
        assert abs(_local_integral(z, 1, q)) <= bound / q


def test_local_integral_matches_quadrature():
    pair = to_chebyshev(ARC, 6)
    z = ZSeries.from_extremal(pair, "plus")
    mu = LocalMeasure(7)
    theta = np.linspace(0.0, math.pi, 20001)
    vals = z.series.evaluate(theta)
    dens = density(mu, theta)
    from scipy.integrate import simpson

    for r in (1, 2, 3):
        want = float(simpson(vals**r * dens, x=theta))
        assert _local_integral(z, r, 7.0) == pytest.approx(want, abs=1e-8)


def test_second_integral_near_energy_at_large_q():
    pair = to_chebyshev(ARC, 50)
    z = ZSeries.from_extremal(pair, "plus")
    want = variance_sum(pair).plus
    assert abs(_local_integral(z, 2, 1e6) - want) < 1e-4


def _brute_main_term(n, fs, x, pair, sign):
    z = ZSeries.from_extremal(pair, sign)
    ideals = enumerate_prime_ideals(fs, x)
    w = 1.0 / np.array([ideal.norm for ideal in ideals], dtype=np.float64)
    g = {r: full_horner(z_power_coeffs(z, r).coeffs, w).tolist() for r in range(1, n + 1)}
    total = 0.0
    for part in partitions_of(n):
        s = 0.0
        for tup in itertools.permutations(range(len(ideals)), len(part.parts)):
            prod = 1.0
            for r, idx in zip(part.parts, tup):
                prod *= g[r][idx]
            s += prod
        total += float(part.weight) * s
    return total / len(ideals) ** (n / 2.0)


def test_main_term_matches_brute_force():
    pair = to_chebyshev(ArcInterval(1.0, 2.0), 6)
    fs = FieldSpec.rationals()
    for n in (1, 2, 3):
        want = _brute_main_term(n, fs, 200, pair, "plus")
        got = main_term_report(n, fs, 200, pair, sign="plus").total
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
    want = _brute_main_term(4, fs, 60, pair, "plus")
    got = main_term_report(4, fs, 60, pair, sign="plus").total
    assert got == pytest.approx(want, rel=1e-10)


def test_main_term_brute_force_with_norm_multiplicity():
    # split primes share a norm, exercising the grouped-count path
    pair = to_chebyshev(ARC, 5)
    want = _brute_main_term(2, Q5, 200, pair, "minus")
    got = main_term_report(2, Q5, 200, pair, sign="minus").total
    assert got == pytest.approx(want, rel=1e-10)


def test_main_term_even_orders_near_gaussian():
    x = 100_000
    fs = FieldSpec.rationals()
    m = limit_law_m(fs, x)
    pair = to_chebyshev(ARC, m)
    v = variance_sum(pair).plus
    second = main_term_report(2, fs, x, pair, sign="plus").total
    fourth = main_term_report(4, fs, x, pair, sign="plus").total
    assert second == pytest.approx(v, rel=1e-2)
    assert fourth == pytest.approx(3.0 * v**2, rel=2e-2)


def test_main_term_odd_orders_small():
    x = 100_000
    fs = FieldSpec.rationals()
    pair = to_chebyshev(ARC, limit_law_m(fs, x))
    for n in (1, 3):
        assert abs(main_term_report(n, fs, x, pair, sign="plus").total) < 0.05


def test_main_term_distance_to_target_nonincreasing():
    fs = FieldSpec.rationals()
    errs = []
    for x in (10_000, 100_000, 1_000_000):
        pair = to_chebyshev(ARC, limit_law_m(fs, x))
        v = variance_sum(pair).plus
        errs.append(abs(main_term_report(2, fs, x, pair, sign="plus").total / v - 1.0))
    assert errs[0] >= errs[1] >= errs[2]


def test_main_term_report_structure():
    fs = FieldSpec.rationals()
    pair = to_chebyshev(ARC, 12)
    rep = main_term_report(4, fs, 2000, pair, sign="plus")
    assert rep.n == 4
    assert rep.m_used == 12
    assert rep.pi_L_x == 303
    assert set(rep.case_totals) == {1, 2, 3}
    assert rep.total == pytest.approx(math.fsum(rep.case_totals.values()), rel=1e-12)
    assert len(rep.partition_terms) == 5
    by_parts = {parts: (label, val) for parts, label, val in rep.partition_terms}
    assert by_parts[(2, 2)][0] == 1
    # the paired-square case dominates the fourth moment
    assert abs(by_parts[(2, 2)][1]) > abs(by_parts[(4,)][1])
    assert rep.case_totals[1] == pytest.approx(rep.total, rel=0.05)


def test_moment_main_term_guards():
    fs = FieldSpec.rationals()
    pair = to_chebyshev(ARC, 6)
    with pytest.raises(ValueError):
        main_term_report(0, fs, 100, pair)
    with pytest.raises(ValueError):
        main_term_report(9, fs, 100, pair)
    assert main_term_report(2, fs, 100, pair).total > 0.0
    only = split_prime(fs, 2)
    with pytest.raises(ValueError):
        main_term_report(2, fs, 2, pair, level=LevelSpec(excluded=tuple(only)))


def test_weight_vector_validation():
    wv = WeightVector(ks=(4, 12))
    assert wv.degree == 2
    assert wv.log_ks == (math.log(4), math.log(12))
    assert wv.sum_log == pytest.approx(math.log(48), rel=1e-15)
    with pytest.raises(ValueError):
        WeightVector(ks=(4, 5))
    with pytest.raises(ValueError):
        WeightVector(ks=(2, 4))
    with pytest.raises(ValueError):
        WeightVector()
    with pytest.raises(ValueError):
        WeightVector(log_ks=(1.0, -2.0))
    huge = WeightVector(ks=(4**200,))
    assert huge.log_ks[0] == pytest.approx(200 * math.log(4), rel=1e-12)
    sym = WeightVector(log_ks=(1e18, 2e18))
    assert sym.ks == ()
    assert sym.sum_log == 3e18


def test_growth_bookkeeping_small_weights():
    rep = growth_bookkeeping(1e4, WeightVector(ks=(4, 4)), n=2)
    assert rep.within_budget is False
    assert rep.budget == math.inf
    assert rep.m_limit_law == 77
    assert rep.pi_L_estimate == 1229.0
    assert rep.m_weight_rule_short == 0
    assert rep.m_weight_rule_full == 0
    assert rep.hypothesis_ratio < 0.01
    staged = growth_bookkeeping(1e4, WeightVector(ks=(1024, 4096)), n=2)
    assert staged.m_weight_rule_short == 1
    assert staged.m_weight_rule_full == 2
    assert staged.within_budget is False


def test_growth_bookkeeping_symbolic_regime():
    # weights of size exp(x^{0.6}) at x = 1e30 swamp the trace budget
    rep = growth_bookkeeping(1e30, WeightVector(log_ks=(1e18, 1e18)), n=2)
    assert rep.within_budget is True
    assert rep.budget == 0.0
    assert rep.log10_budget < -1e17
    assert rep.hypothesis_ratio > 1.0
    assert rep.m_weight_rule_short > 10**15
    assert rep.m_limit_law > 10**14


def test_limit_law_m_values():
    assert limit_law_m(FieldSpec.rationals(), 1e4) == 77
    assert limit_law_m(Q5, 1e6) == 735
    with pytest.raises(ValueError):
        limit_law_m(Q5, 10)


# 2,001 norm bounds past the enumeration cutoff, up to the config's 1e8
BEYOND_EXACT = np.linspace(2e6, 1e8, 2002)[1:]


def test_ei_matches_mpmath():
    with mpmath.workdps(40):
        for x in [0.5, 1.0, 5.0, *np.log(BEYOND_EXACT[::50]), math.log(1e8), 30.0]:
            want = mpmath.ei(x)
            assert abs((_ei(x) - want) / want) <= 4e-15, x


def test_limit_law_m_matches_scipy_expi_beyond_exact_range():
    # the series Ei flips no floor on the grid
    for fs in (FieldSpec.rationals(), Q5):
        got = [limit_law_m(fs, x) for x in BEYOND_EXACT]
        want = [
            math.floor(math.sqrt(float(expi(math.log(x)))) * math.log(math.log(x)))
            for x in BEYOND_EXACT
        ]
        assert got == want


def test_pi_L_estimate_beyond_exact_range():
    # prime ideal theorem main term; pi(1e7) = 664579
    rep = growth_bookkeeping(1e7, WeightVector(ks=(4, 4)), n=2)
    assert rep.pi_L_estimate == pytest.approx(664579.0, rel=1e-3)

"""Deterministic moment pipeline for extremal Chebyshev sums.

Covers the closed-form side of the central limit argument: powers of the
degree-M sum Z (the extremal expansion with its constant term removed),
exact local integrals of Z^r, the partition expansion of the n-th moment
with distinct-ideal tuple sums, and bookkeeping for the weight-growth
hypothesis under which the sampled trace terms are negligible.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import ChebyshevSeries, series_product
from .measures import _expectations
from .number_field import FieldSpec, LevelSpec, _bound, _exact_sum, norm_counts, pi_L
from .selberg import ExtremalPair

__all__ = [
    "GrowthReport",
    "MainTermReport",
    "Partition",
    "WeightVector",
    "ZSeries",
    "classify_partition",
    "growth_bookkeeping",
    "main_term_report",
    "partitions_of",
    "limit_law_m",
    "z_power_coeffs",
]

_EXACT_PI_L_CUTOFF = 2_000_000.0
_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class ZSeries:
    """Chebyshev sum with no constant term, tagged by the sign it came from."""

    series: ChebyshevSeries
    source: str

    def __post_init__(self):
        if self.source not in ("plus", "minus"):
            raise ValueError("source must be 'plus' or 'minus'")
        if self.series.coeffs[0] != 0.0:
            raise ValueError("constant Chebyshev coefficient must vanish")

    @classmethod
    def from_extremal(cls, pair: ExtremalPair, sign: str = "plus") -> "ZSeries":
        coeffs = (pair.f_plus if sign == "plus" else pair.f_minus).coeffs.copy()
        coeffs[0] = 0.0
        return cls(series=ChebyshevSeries(coeffs), source=sign)


@dataclass(frozen=True)
class Partition:
    """Unordered parts summing to n, with the expansion weight.

    The weight n!/(prod r_i!) / (prod mult_j!) counts the ways to split n
    labeled draws into blocks of the given sizes; it makes the partition
    expansion reproduce n-th powers of finite sums exactly, which is the
    binding contract (checked by the multinomial oracle test).
    """

    parts: tuple
    weight: int


def _partition_weight(parts: tuple) -> int:
    n = sum(parts)
    w = math.factorial(n)
    for r in parts:
        w //= math.factorial(r)
    for m in Counter(parts).values():
        w //= math.factorial(m)
    return w


def partitions_of(n: int) -> list:
    """All partitions of n (parts nonincreasing) with expansion weights."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 12:
        raise ValueError("partition order must lie in 1..12")

    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            parts = tuple(prefix)
            out.append(Partition(parts=parts, weight=_partition_weight(parts)))
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return out


def classify_partition(parts) -> int:
    """Case labels: 1 all parts equal 2; 2 some part equals 1; 3 the rest."""
    if all(r == 2 for r in parts):
        return 1
    if any(r == 1 for r in parts):
        return 2
    return 3


def z_power_coeffs(z: ZSeries, r: int) -> ChebyshevSeries:
    """Exact linearized Chebyshev coefficients of Z^r, each power built from
    the previous one as Z^k = Z^(k-1) Z."""
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ValueError("power must be a positive integer")
    power = ChebyshevSeries(z.series.coeffs.copy())
    for _ in range(int(r) - 1):
        power = series_product(power, z.series)
    return power


def _block_orders(parts: tuple) -> tuple:
    """(blocks, count) for each distinct sequence of block multisets, in
    order of first position, over the set partitions of the positions of
    parts; count is how many set partitions give it.  A DP over the
    positions: each opens a new last block or joins an earlier one, and
    equal sequences merge their counts (eight 1s: 128 sequences for 4,140
    set partitions)."""
    states = {(): 1}
    for r in parts:
        grown = {}
        for blocks, count in states.items():
            for i in range(len(blocks)):
                key = blocks[:i] + (tuple(sorted(blocks[i] + (r,))),) + blocks[i + 1 :]
                grown[key] = grown.get(key, 0) + count
            key = blocks + ((r,),)
            grown[key] = grown.get(key, 0) + count
        states = grown
    return tuple(states.items())


def _distinct_tuple_sum(parts: tuple, block_sum) -> float:
    """Sum over pairwise-distinct ideal tuples of the product of local
    integrals, by inclusion-exclusion over set partitions of positions.

    Collapsing a block of positions onto one ideal carries the Moebius
    factor (-1)^(|B|-1) (|B|-1)!; block_sum(multiset) is the power sum of
    one block over the ideals, as _main_term_kernel builds it.  A set
    partition's term depends only on its sequence of block multisets, so
    each sequence of _block_orders is multiplied out once, in block order,
    and enters the one fsum as many times as set partitions give it: the
    bits of a walk over all Bell(len(parts)) set partitions.
    """
    terms = []
    for blocks, count in _block_orders(parts):
        factor = 1.0
        for multiset in blocks:
            sign = -1.0 if (len(multiset) - 1) % 2 else 1.0
            factor *= sign * math.factorial(len(multiset) - 1) * block_sum(multiset)
        terms += [factor] * count
    return math.fsum(terms)


@lru_cache(maxsize=1)
def _main_term_kernel(fs: FieldSpec, bound: int, level, z_bytes: bytes):
    """(ideal count, block_sum) for the last (field, bound, level, Z
    coefficients) asked for; one entry, so a process holds at most the rows
    of one call.  The local profile row(r) of Z^r and each block sum
    sum_q counts[q] prod_{r in multiset} row(r)[q] over the distinct norms,
    exact and correctly rounded, are built once, as an order first needs
    them, with Z^r = Z^(r-1) Z as z_power_coeffs builds it, so every order
    reads the bits a fresh call would compute.  The caches are lru_caches,
    so threads may share them."""
    qs, counts = norm_counts(fs, bound, level)
    if not qs.size:
        raise ValueError("no prime ideals of norm <= x")
    count = int(counts.sum())
    counts = counts.astype(np.float64)  # float64 products take half the time of int64 x float64
    z = ChebyshevSeries(np.frombuffer(z_bytes).copy())

    @lru_cache(maxsize=None)
    def power(r: int) -> ChebyshevSeries:
        return z if r == 1 else series_product(power(r - 1), z)

    @lru_cache(maxsize=None)
    def row(r: int) -> np.ndarray:
        return _expectations(power(r).coeffs[::2], 1.0 / qs)

    @lru_cache(maxsize=None)
    def block_sum(multiset: tuple) -> float:
        # counts * (row * row * ...) in left-to-right order, on one new buffer
        factors = [row(r) for r in multiset[1:]] + [counts]
        prod = row(multiset[0]) * factors[0]
        for f in factors[1:]:
            prod *= f
        return _exact_sum(prod)

    return count, block_sum


@dataclass(frozen=True)
class MainTermReport:
    n: int
    sign: str
    m_used: int
    pi_L_x: int
    total: float
    case_totals: dict
    partition_terms: tuple  # (parts, case, normalized value)


def main_term_report(
    n: int,
    fs: FieldSpec,
    x,
    pair: ExtremalPair,
    sign: str = "plus",
    level: LevelSpec = None,
) -> MainTermReport:
    """Partition expansion of the n-th moment main term, normalized.

    Computes (1/pi_L^{n/2}) sum over partitions of weight times the
    distinct-tuple sum of products of local Z^{r_i} integrals, with the
    per-partition case labels retained.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= 8:
        raise ValueError("moment order must lie in 1..8 for exact tuple sums")
    z = ZSeries.from_extremal(pair, sign)
    size, block_sum = _main_term_kernel(fs, _bound(x), level, z.series.coeffs.tobytes())
    scale = float(size) ** (n / 2.0)
    terms = []
    for p in partitions_of(int(n)):
        value = float(p.weight) * _distinct_tuple_sum(p.parts, block_sum) / scale
        terms.append((p.parts, classify_partition(p.parts), value))
    case_totals = {c: math.fsum(v for _, case, v in terms if case == c) for c in (1, 2, 3)}
    total = math.fsum(case_totals.values())
    return MainTermReport(
        n=int(n),
        sign=sign,
        m_used=pair.degree,
        pi_L_x=size,
        total=total,
        case_totals=case_totals,
        partition_terms=tuple(terms),
    )


@dataclass(frozen=True)
class WeightVector:
    """Even weights k_i >= 4, or their natural logs in asymptotic regimes.

    Passing ks validates evenness and the lower bound and fills log_ks;
    WeightVector(log_ks=...) accepts logarithms directly for weights too
    large to write down (evenness is then assumed, not checked).
    """

    ks: tuple = ()
    log_ks: tuple = ()

    def __post_init__(self):
        if self.ks:
            ks = tuple(int(k) for k in self.ks)
            if any(k < 4 or k % 2 for k in ks):
                raise ValueError("weights must be even integers >= 4")
            object.__setattr__(self, "ks", ks)
            object.__setattr__(self, "log_ks", tuple(math.log(k) for k in ks))
        elif self.log_ks:
            logs = tuple(float(v) for v in self.log_ks)
            if any(not math.isfinite(v) or v < math.log(4.0) for v in logs):
                raise ValueError("log-weights must be finite and >= log 4")
            object.__setattr__(self, "log_ks", logs)
        else:
            raise ValueError("need weights or their logarithms")

    @property
    def degree(self) -> int:
        return len(self.log_ks)

    @property
    def sum_log(self) -> float:
        return math.fsum(self.log_ks)


def _ei(x: float) -> float:
    """Exponential integral Ei(x) = gamma + ln x + sum_n x^n/(n n!) for x > 0.

    Every term of the sum is positive, so fsum leaves about an ulp: at most
    9.2e-16 relative for x in [14.5, 18.5], the logs of the norm bounds past
    the enumeration cutoff.
    """
    terms, term, total, n = [], 1.0, 0.0, 0
    while n < x or terms[-1] > 1e-17 * total:
        n += 1
        term *= x / n
        terms.append(term / n)
        total += terms[-1]
    return math.fsum([_EULER_GAMMA, math.log(x), *terms])


def _pi_L_value(fs: FieldSpec, x) -> float:
    """pi_L by enumeration in exact range, prime-ideal-theorem li(x) beyond."""
    xf = float(x)
    if xf <= _EXACT_PI_L_CUTOFF:
        return float(pi_L(fs, xf))
    return _ei(math.log(xf))


def limit_law_m(fs: FieldSpec, x) -> int:
    """Expansion degree floor(sqrt(pi_L(x)) loglog x) used in the limit law."""
    xf = float(x)
    if xf < 16.0:
        raise ValueError("x must be at least 16")
    count = _pi_L_value(fs, xf)
    return int(math.floor(math.sqrt(count) * math.log(math.log(xf))))


@dataclass(frozen=True)
class GrowthReport:
    x: float
    n: int
    degree: int
    m_weight_rule_short: int
    m_weight_rule_full: int
    m_limit_law: int
    pi_L_estimate: float
    hypothesis_ratio: float
    log10_budget: float
    budget: float
    within_budget: bool


def growth_bookkeeping(
    x,
    weights: WeightVector,
    fs: FieldSpec = None,
    n: int = 2,
) -> GrowthReport:
    """Weight-growth bookkeeping for the trace-term error budget.

    Reports the weight-based degree rule [2d sum(log k_i) / (3 log x)] in
    both index conventions (the short form omits the final weight from the
    sum; the full form keeps it -- printed forms of the rule disagree, so
    both are carried), the limit-law degree floor(sqrt(pi_L) loglog x),
    and the n-th moment error budget M^{2n} x^{(3/2)Mn} pi_L^{n/2} /
    prod k_i evaluated at the limit-law degree, in log10 to survive
    under/overflow.
    """
    xf = float(x)
    if xf < 16.0:
        raise ValueError("x must be at least 16")
    if not isinstance(weights, WeightVector):
        raise ValueError("weights must be a WeightVector")
    if fs is None:
        fs = FieldSpec.rationals()
    d = weights.degree
    log_x = math.log(xf)
    short_sum = math.fsum(weights.log_ks[: d - 1]) if d > 1 else 0.0
    m_short = int(math.floor(2.0 * d * short_sum / (3.0 * log_x)))
    m_full = int(math.floor(2.0 * d * weights.sum_log / (3.0 * log_x)))
    count = _pi_L_value(fs, xf)
    m_thm = limit_law_m(fs, xf)
    ln10 = math.log(10.0)
    log10_budget = (
        2.0 * n * math.log10(max(m_thm, 1))
        + 1.5 * m_thm * n * math.log10(xf)
        + 0.5 * n * math.log10(count)
        - weights.sum_log / ln10
    )
    if log10_budget > 308.0:
        budget = math.inf
    elif log10_budget < -323.0:
        budget = 0.0
    else:
        budget = 10.0**log10_budget
    return GrowthReport(
        x=xf,
        n=int(n),
        degree=d,
        m_weight_rule_short=m_short,
        m_weight_rule_full=m_full,
        m_limit_law=m_thm,
        pi_L_estimate=count,
        hypothesis_ratio=weights.sum_log / (math.sqrt(xf) * log_x),
        log10_budget=log10_budget,
        budget=budget,
        within_budget=bool(log10_budget < -3.0),
    )

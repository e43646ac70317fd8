"""Prime ideals of the rationals and of real quadratic fields.

Splitting is decided by the Kronecker symbol of the field discriminant:
(disc/p) = +1 gives two conjugate ideals of norm p, -1 one inert ideal of
norm p^2, and 0 one ramified ideal of norm p.  Enumeration up to a norm
bound feeds the ideal-counting function pi_L(x) and the partial sums

    sum_{N <= x} 1/N        and        sum_{N <= x} 1/(N (N - 1)),

the second being the closed form of sum_{r >= 2} N^{-r}.

The ideals of norm <= x are held as one column table per (field, bound):
int64 columns norm and p, int8 columns label and f and a split-type code,
sorted by (norm, p, label) and built in array passes from the sieve and one
vectorized Kronecker symbol (Euler's criterion by square-and-multiply on
int64 arrays for odd p, the disc mod 8 rule for p = 2), taken once per
residue class mod |disc| and gathered.  _outside(fs, x, level) is the one
place a level applies: it removes the excluded ideals by matching (norm,
label) and returns the table's read-only rows.  norm_counts groups those
rows by norm into the distinct norms and their counts, which the moment
main terms, the sampler and the sums above read; pi_L counts the rows; the
primes subcommand writes the columns; and enumerate_prime_ideals builds
PrimeIdeal tuples from them on each call.
"""
from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "FieldSpec",
    "PrimeIdeal",
    "LevelSpec",
    "is_prime",
    "primes_up_to",
    "split_prime",
    "enumerate_prime_ideals",
    "norm_counts",
    "pi_L",
    "mertens_sum",
    "higher_power_sum",
]

_SIEVE_CAPACITY = 10**8
_SIEVE_BLOCK = 1 << 20
# Products of two residues mod p stay in int64 while p <= isqrt(2^63 - 1);
# beyond it the Kronecker kernel works on Python integers.
_INT64_ROOT = math.isqrt(2**63 - 1)

# Deterministic Miller-Rabin witness set for n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Split types, indexed by the code column of the ideal table.
_SPLIT_TYPES = ("rational", "split", "inert", "ramified")
_RATIONAL, _SPLIT, _INERT, _RAMIFIED = range(4)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 2^64; a ValueError from 2^64 up,
    where the witness set no longer decides."""
    n = int(n)
    if n >= 2**64:
        raise ValueError(f"{n} is past the 2^64 range of the primality test")
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _kronecker(disc: int, primes: np.ndarray) -> np.ndarray:
    """Kronecker symbols (disc/p) for an array of primes, as int64.

    For disc = 0 or 1 mod 4, every field discriminant among them, (disc/p)
    depends only on p mod |disc|.  So when |disc| is at most the number of
    primes, and the primes are an integer array within the int64 kernel's
    range, the symbol is taken on one prime of each residue class present
    and gathered through a table of |disc| entries.  Past that cutoff, and
    for object-dtype primes, _euler_symbols takes it on every prime.
    """
    disc, m = int(disc), abs(int(disc))
    by_class = disc % 4 < 2 and 0 < m <= primes.size and primes.dtype != object
    if not by_class or int(np.max(primes)) > _INT64_ROOT:
        return _euler_symbols(disc, primes)
    r = primes % m
    rep = np.zeros(m, dtype=np.int64)
    rep[r] = primes  # one prime of each class present
    classes = np.flatnonzero(rep)
    table = np.zeros(m, dtype=np.int64)
    table[classes] = _euler_symbols(disc, rep[classes])
    return table[r]


def _euler_symbols(disc: int, primes: np.ndarray) -> np.ndarray:
    """(disc/p) on every prime: p = 2 by disc mod 8; odd p by Euler's
    criterion, r^((p - 1)/2) mod p with r = disc mod p, by square-and-multiply
    over the exponent bits of all primes at once, on int64 arrays while the
    products fit and on Python ints past that."""
    disc = int(disc)
    small = primes.size == 0 or int(np.max(primes)) <= _INT64_ROOT
    p = primes.astype(np.int64 if small else object)
    r = np.remainder(disc, p)
    e = (p - 1) // 2
    power = np.ones_like(p)
    base = r
    while np.any(e):
        power = np.where(e & 1, power * base % p, power)
        base = base * base % p
        e = e >> 1
    sym = np.where(r == 0, 0, np.where(power == 1, 1, -1)).astype(np.int64)
    if disc % 2 == 0:
        sym[p == 2] = 0
    else:
        sym[p == 2] = 1 if disc % 8 in (1, 7) else -1
    return sym


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, by segmented sieve."""
    n = int(n)
    if n > _SIEVE_CAPACITY:
        raise ValueError(f"sieve capacity is {_SIEVE_CAPACITY}")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    root = math.isqrt(n)
    base_flags = np.ones(root + 1, dtype=bool)
    base_flags[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base_flags[p]:
            base_flags[p * p :: p] = False
    base = np.flatnonzero(base_flags).astype(np.int64)
    chunks = [base]
    lo = root + 1
    while lo <= n:
        hi = min(lo + _SIEVE_BLOCK, n + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            flags[start - lo :: p] = False
        chunks.append((np.flatnonzero(flags) + lo).astype(np.int64))
        lo = hi
    return np.concatenate(chunks)


@dataclass(frozen=True)
class FieldSpec:
    """The rationals or a real quadratic field Q(sqrt(D))."""

    kind: str
    D: int
    degree: int
    discriminant: int

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(kind="rationals", D=1, degree=1, discriminant=1)

    @classmethod
    def real_quadratic(cls, D: int) -> "FieldSpec":
        D = int(D)
        if not 1 < D <= 10**12:  # keeps the trial division below under 0.2 s
            raise ValueError("D must be a squarefree integer with 1 < D <= 10^12")
        for k in range(2, math.isqrt(D) + 1):
            if D % (k * k) == 0:
                raise ValueError(f"D={D} is not squarefree (divisible by {k}^2)")
        disc = D if D % 4 == 1 else 4 * D
        return cls(kind="real_quadratic", D=D, degree=2, discriminant=disc)

    @classmethod
    @lru_cache(maxsize=64)
    def from_name(cls, name: str) -> "FieldSpec":
        """'rationals' (or 'q', 'Q'), or 'sqrtD' for Q(sqrt D) with D squarefree;
        cached, so the config check and the run share one squarefree test."""
        if not isinstance(name, str):
            raise ValueError(f"field name must be a string, got {name!r}")
        if name in ("rationals", "q", "Q"):
            return cls.rationals()
        m = re.fullmatch(r"sqrt(\d+)", name)
        if m:
            return cls.real_quadratic(int(m.group(1)))
        raise ValueError(f"unknown field '{name}' (use rationals or sqrtD)")


class PrimeIdeal(NamedTuple):
    """A prime ideal; as a tuple it sorts by (norm, p, label)."""

    norm: int
    p: int
    label: int  # 0, or 1 for the second conjugate of a split prime
    f: int
    split_type: str


@dataclass(frozen=True)
class LevelSpec:
    """Finite set of excluded prime ideals (the divisors of the level)."""

    excluded: tuple = ()

    def __post_init__(self):
        ex = tuple(self.excluded)
        if len(set(ex)) != len(ex):
            raise ValueError("excluded ideals must be distinct")
        object.__setattr__(self, "excluded", ex)

    @classmethod
    def empty(cls) -> "LevelSpec":
        return cls()

    @classmethod
    def above_primes(cls, fs: FieldSpec, primes) -> "LevelSpec":
        ideals = []
        for p in primes:
            ideals.extend(split_prime(fs, p))
        return cls(excluded=tuple(ideals))


def split_prime(fs: FieldSpec, p: int) -> list:
    """Ideals above a rational prime, in label order."""
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    primes = np.array([p], dtype=np.int64 if p <= _INT64_ROOT else object)
    return _prime_ideals(_split_columns(fs, primes))


def _split_columns(fs: FieldSpec, primes: np.ndarray) -> tuple:
    """Columns (norm, p, label, f, split-type code) of the ideals above the
    ascending primes, in (p, label) order."""
    if fs.degree == 1:
        ones = np.ones(primes.size, dtype=np.int8)
        return primes, primes, ones - 1, ones, np.full(primes.size, _RATIONAL, np.int8)
    sym = _kronecker(fs.discriminant, primes)
    copies = np.where(sym == 1, 2, 1)
    p, sym = np.repeat(primes, copies), np.repeat(sym, copies)
    label = np.zeros(p.size, dtype=np.int8)
    label[1:] = p[1:] == p[:-1]  # the second conjugate of a split prime
    inert = sym == -1
    code = np.select([sym == 1, inert], [_SPLIT, _INERT], _RAMIFIED).astype(np.int8)
    return np.where(inert, p * p, p), p, label, np.where(inert, 2, 1).astype(np.int8), code


def _prime_ideals(columns) -> list:
    """PrimeIdeal tuples from the columns norm, p, label, f and split-type
    code, in row order."""
    norm, p, label, f, code = (c.tolist() for c in columns[:5])
    return list(map(PrimeIdeal, norm, p, label, f, map(_SPLIT_TYPES.__getitem__, code)))


class _IdealTable(NamedTuple):
    """The prime ideals of norm <= bound as read-only columns, sorted by
    (norm, p, label)."""

    norm: np.ndarray
    p: np.ndarray
    label: np.ndarray
    f: np.ndarray
    code: np.ndarray


@lru_cache(maxsize=8)
def _ideal_table(fs: FieldSpec, bound: int) -> _IdealTable:
    norm, p, label, f, code = _split_columns(fs, primes_up_to(bound))
    # equal norms have equal p (a norm is p or p^2), and _split_columns emits
    # each split pair in label order, so a stable sort by norm keeps (p, label)
    at = np.flatnonzero(norm <= bound)
    at = at[np.argsort(norm[at], kind="stable")]
    columns = [c[at] for c in (norm, p, label, f, code)]
    for c in columns:
        c.flags.writeable = False
    return _IdealTable(*columns)


def _bound(x) -> int:
    x = float(x)
    if x < 2.0:
        raise ValueError("x must be at least 2")
    return int(math.floor(x))


def _outside(fs: FieldSpec, x, level: LevelSpec = None) -> _IdealTable:
    """The table of the prime ideals of norm <= x without the level's
    excluded ideals; its columns are read-only.

    An excluded ideal is matched on the one key 2 norm + label.  A norm is
    either a prime or the square of a prime, never both, so (norm, label)
    names one ideal; for a PrimeIdeal from split_prime, norm = p^f, so p and
    f follow from the norm.  Excluded ideals of norm past the table are
    skipped (their norm may be past int64)."""
    table = _ideal_table(fs, _bound(x))
    if level is None or not level.excluded:
        return table
    top = int(table.norm[-1]) if table.norm.size else 0
    keys = [2 * ideal.norm + ideal.label for ideal in level.excluded if ideal.norm <= top]
    keep = ~np.isin(2 * table.norm + table.label, keys)
    columns = [c[keep] for c in table]
    for c in columns:
        c.flags.writeable = False
    return _IdealTable(*columns)


def enumerate_prime_ideals(fs: FieldSpec, x, level: LevelSpec = None) -> list:
    """All prime ideals of norm <= x outside the level, sorted by (norm, p, label)."""
    return _prime_ideals(_outside(fs, x, level))


def norm_counts(fs: FieldSpec, x, level: LevelSpec = None) -> tuple:
    """(qs, counts): the ascending distinct norms of _outside(fs, x, level)
    as float64 and how many ideals have each, as int64, from the run starts
    of its sorted norm column; nothing is sorted and no PrimeIdeal built.
    The ideals of norm qs[i] are the rows counts[:i].sum() onward, so
    np.repeat(v, counts) puts per-norm values v in row order."""
    norm = _outside(fs, x, level).norm
    first = np.flatnonzero(np.diff(norm, prepend=0))  # norms are >= 2
    return norm[first].astype(np.float64), np.diff(first, append=norm.size)


def pi_L(fs: FieldSpec, x, level: LevelSpec = None) -> int:
    """Number of prime ideals of norm <= x outside the level."""
    return int(_outside(fs, x, level).norm.size)


def _rounded(total: int, low: int) -> float:
    """total 2^low, correctly rounded; OverflowError past the float range."""
    return float(total << low) if low >= 0 else total / (1 << -low)


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a float64 array, the float math.fsum
    returns wherever fsum returns one (it raises on some intermediate
    overflows, such as [1e308, 1e308, -1e308]); ValueError on a NaN or an
    infinity, OverflowError on a sum past the float range.

    Error-free extraction (Rump, Ogita & Oishi, 2008) on a copy v of the n
    values, 2^k >= n + 2.  While |v| <= 2^(low+53-k), a level takes the bits
    q of v at and above 2^low as fl((sigma + v) - sigma), sigma = 2^(low+53),
    or by truncation where sigma would overflow; np.sum adds them exactly in
    any order, v <- v - q is exact and leaves |v| <= 2^low for the next
    level, and an int total joins the level sums in units of 2^low.  As
    |sum v| <= n 2^low, the sum is final once (total - n) 2^low and (total +
    n) 2^low round alike, or once a level adds 0 and leaves v 0.
    """
    v = np.array(values, dtype=np.float64)
    q = np.empty_like(v)
    top = float(np.abs(v, out=q).max(initial=0.0))
    if not math.isfinite(top):  # the max propagates NaN, so one test covers NaN and inf
        raise ValueError("an exact sum needs finite values, not NaN or infinity")
    n = v.size
    k = (n + 1).bit_length()
    low = math.frexp(top)[1] + k - 53
    total = 0
    while True:
        if low > 970:  # sigma = 2^(low+53) would pass the float range
            np.trunc(np.ldexp(v, -low, out=q), out=q)
            part = int(q.sum())
            np.ldexp(q, low, out=q)
        else:
            sigma = math.ldexp(1.0, low + 53)
            np.subtract(np.add(v, sigma, out=q), sigma, out=q)
            part = int(math.ldexp(q.sum(), -low))
        v -= q
        total = (total << (53 - k)) + part
        with contextlib.suppress(OverflowError):  # an end past the float range: undecided
            if not (part or v.any()) or _rounded(total - n, low) == _rounded(total + n, low):
                break
        low += k - 53
    return _rounded(total, low)


def mertens_sum(fs: FieldSpec, x) -> float:
    """sum of 1/N(p) over all prime ideals of norm <= x (level-free), as
    count/q over the distinct norms: a norm has one or two ideals, and
    2/q = 2 (1/q) exactly, so the exact sum is the same."""
    if float(x) < 16.0:
        raise ValueError("x must be at least 16")
    qs, counts = norm_counts(fs, x)
    return _exact_sum(counts / qs)


def higher_power_sum(fs: FieldSpec, x) -> float:
    """sum over norms N <= x of 1/(N (N-1)), the full r >= 2 power tail;
    q and q - 1 are exact in float64 at the sieve capacity, so q (q - 1.0)
    is the correctly rounded exact product, as in int64 and converted."""
    if float(x) < 16.0:
        raise ValueError("x must be at least 16")
    qs, counts = norm_counts(fs, x)
    return _exact_sum(counts / (qs * (qs - 1.0)))

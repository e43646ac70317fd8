"""Prime ideals of the rationals and of real quadratic fields.

Splitting is decided by the Kronecker symbol of the field discriminant:
(disc/p) = +1 gives two conjugate ideals of norm p, -1 one inert ideal of
norm p^2, and 0 one ramified ideal of norm p.  Enumeration up to a norm
bound feeds the ideal-counting function pi_L(x) and the partial sums

    sum_{N <= x} 1/N        and        sum_{N <= x} 1/(N (N - 1)),

the second being the closed form of sum_{r >= 2} N^{-r}.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "FieldSpec",
    "PrimeIdeal",
    "LevelSpec",
    "is_prime",
    "kronecker_symbol",
    "primes_up_to",
    "split_prime",
    "enumerate_prime_ideals",
    "pi_L",
    "mertens_sum",
    "higher_power_sum",
]

_SIEVE_CAPACITY = 10**8
_SIEVE_BLOCK = 1 << 20

# Deterministic Miller-Rabin witness set for n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2^64."""
    n = int(n)
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


def kronecker_symbol(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p) for prime p."""
    disc, p = int(disc), int(p)
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    r = disc % p
    if r == 0:
        return 0
    e = pow(r, (p - 1) // 2, p)
    return 1 if e == 1 else -1


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
        if D <= 1:
            raise ValueError("D must be a squarefree integer > 1")
        for k in range(2, math.isqrt(D) + 1):
            if D % (k * k) == 0:
                raise ValueError(f"D={D} is not squarefree (divisible by {k}^2)")
        disc = D if D % 4 == 1 else 4 * D
        return cls(kind="real_quadratic", D=D, degree=2, discriminant=disc)

    @classmethod
    def of_degree(cls, degree: int, D: int = 0) -> "FieldSpec":
        if degree == 1:
            return cls.rationals()
        if degree == 2:
            return cls.real_quadratic(D)
        raise ValueError(
            "only degrees 1 and 2 are implemented; higher-degree totally real "
            "fields need new splitting rules in split_prime and the tau-power "
            "multiplicity bound wired through enumerate_prime_ideals"
        )

    @classmethod
    def from_name(cls, name: str) -> "FieldSpec":
        """'rationals' (or 'q', 'Q'), or 'sqrtD' for Q(sqrt D) with D squarefree."""
        if not isinstance(name, str):
            raise ValueError(f"field name must be a string, got {name!r}")
        if name in ("rationals", "q", "Q"):
            return cls.rationals()
        m = re.fullmatch(r"sqrt(\d+)", name)
        if m:
            return cls.real_quadratic(int(m.group(1)))
        raise ValueError(f"unknown field '{name}' (use rationals or sqrtD)")


@dataclass(frozen=True, order=True)
class PrimeIdeal:
    """A prime ideal, keyed by (norm, p, label) for stable ordering."""

    norm: int
    p: int
    label: int  # 0, or 1 for the second conjugate of a split prime
    f: int
    split_type: str = field(compare=False)


@dataclass(frozen=True)
class LevelSpec:
    """Finite set of excluded prime ideals (the divisors of the level)."""

    excluded: tuple = ()
    squarefree: bool = True

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
    return _split_known_prime(fs, p)


def _split_known_prime(fs: FieldSpec, p: int) -> list:
    if fs.degree == 1:
        return [PrimeIdeal(norm=p, p=p, label=0, f=1, split_type="rational")]
    sym = kronecker_symbol(fs.discriminant, p)
    if sym == 1:
        return [
            PrimeIdeal(norm=p, p=p, label=0, f=1, split_type="split"),
            PrimeIdeal(norm=p, p=p, label=1, f=1, split_type="split"),
        ]
    if sym == -1:
        return [PrimeIdeal(norm=p * p, p=p, label=0, f=2, split_type="inert")]
    return [PrimeIdeal(norm=p, p=p, label=0, f=1, split_type="ramified")]


@lru_cache(maxsize=8)
def _enumerate_all(fs: FieldSpec, bound: int) -> tuple:
    out = []
    for p in primes_up_to(bound):
        for ideal in _split_known_prime(fs, int(p)):
            if ideal.norm <= bound:
                out.append(ideal)
    out.sort()
    return tuple(out)


def enumerate_prime_ideals(fs: FieldSpec, x, level: LevelSpec = None) -> list:
    """All prime ideals of norm <= x outside the level, sorted by (norm, p, label)."""
    x = float(x)
    if x < 2.0:
        raise ValueError("x must be at least 2")
    ideals = _enumerate_all(fs, int(math.floor(x)))
    if level is not None and level.excluded:
        excluded = set(level.excluded)
        return [ideal for ideal in ideals if ideal not in excluded]
    return list(ideals)


def pi_L(fs: FieldSpec, x, level: LevelSpec = None) -> int:
    """Number of prime ideals of norm <= x outside the level."""
    return len(enumerate_prime_ideals(fs, x, level))


def mertens_sum(fs: FieldSpec, x) -> float:
    """sum of 1/N(p) over all prime ideals of norm <= x (level-free)."""
    if float(x) < 16.0:
        raise ValueError("x must be at least 16")
    return math.fsum(1.0 / ideal.norm for ideal in enumerate_prime_ideals(fs, x))


def higher_power_sum(fs: FieldSpec, x) -> float:
    """sum over norms N <= x of 1/(N (N-1)), the full r >= 2 power tail."""
    if float(x) < 16.0:
        raise ValueError("x must be at least 16")
    return math.fsum(
        1.0 / (ideal.norm * (ideal.norm - 1)) for ideal in enumerate_prime_ideals(fs, x)
    )

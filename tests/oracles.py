"""Reference implementations that the tests compare the program against."""
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from satolab.chebyshev import eval_U
from satolab.ensemble import smooth_weight
from satolab.measures import (
    LocalMeasure,
    _cdf_series,
    _density,
    _measure_series,
    chebyshev_moment,
    quantile,
)
from satolab.number_field import primes_up_to
from satolab.rng import member_keys, uniform_matrix


def linearize_product(m: int, n: int) -> list:
    """Degrees appearing in U_m * U_n, descending: m+n, m+n-2, ..., |m-n|."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be nonnegative")
    return list(range(m + n, abs(m - n) - 1, -2))


def bisection_quantile(measure, u):
    """Inverse of measures.cdf by 42 bisection halvings plus two Newton polish steps.

    Bisection brings the bracket below 1e-12; the Newton steps (clipped to
    the final bracket, skipped where the density is degenerate) sharpen the
    root without risking escape near the endpoints.  About 40 cdf
    evaluations per angle: slow, but it shares no bracket table and no
    start-point rule with measures.quantile.  The series factors are built
    once per call, and each cdf evaluation calls the series kernel that
    measures.cdf calls, so values agree with cdf and density bit for bit.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    u_flat = np.atleast_1d(u_arr).ravel()
    series = _measure_series(measure)
    lo = np.zeros_like(u_flat)
    hi = np.full_like(u_flat, math.pi)
    for _ in range(42):
        mid = 0.5 * (lo + hi)
        less = _cdf_series(mid, np.sin(mid), np.cos(mid), series) < u_flat
        lo = np.where(less, mid, lo)
        hi = np.where(less, hi, mid)
    theta = 0.5 * (lo + hi)
    for _ in range(2):
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        dens = _density(sin_t, cos_t, series)
        resid = _cdf_series(theta, sin_t, cos_t, series) - u_flat
        step = np.where(dens > 1e-12, resid / np.maximum(dens, 1e-12), 0.0)
        theta = np.clip(theta - step, lo, hi)
    theta = np.where(u_flat == 0.0, 0.0, np.where(u_flat == 1.0, math.pi, theta))
    return theta.reshape(u_arr.shape) if u_arr.shape else theta[0]


def long_double_cdf(q: float, theta) -> np.ndarray:
    """The truncated local cdf series of measures.cdf in long double, term by
    term: theta/pi + sum_k a_k sin(2 k theta), a_k = (p_k - p_{k-1})/(2 pi k),
    with p_0 = 1, p_n = q^-n for n <= N, the measure's series length, and
    p_{N+1} = 0.  Every sine is taken directly, with no recurrence."""
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    t = np.asarray(theta, dtype=np.float64).astype(ld)
    n = 0 if math.isinf(q) else int(math.floor(-math.log(1e-14) / math.log(q)))
    p = [ld(1)] + [ld(1) / ld(q) ** k for k in range(1, n + 1)] + [ld(0)]
    total = t / pi
    for k in range(1, n + 2):
        total += (p[k] - p[k - 1]) / (2 * pi * k) * np.sin(2 * k * t)
    return total


def kronecker_euler(disc: int, p: int) -> int:
    """Kronecker symbol (disc/p) for one prime: the disc mod 8 rule at p = 2,
    Euler's criterion by Python's three-argument pow for odd p."""
    if p == 2:
        if disc % 2 == 0:
            return 0
        return 1 if disc % 8 in (1, 7) else -1
    r = disc % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def split_one_prime(fs, p: int) -> list:
    """Rows (norm, p, label, f, split type) of the ideals above the prime p,
    in label order, decided one prime at a time."""
    if fs.degree == 1:
        return [(p, p, 0, 1, "rational")]
    sym = kronecker_euler(fs.discriminant, p)
    if sym == 1:
        return [(p, p, 0, 1, "split"), (p, p, 1, 1, "split")]
    if sym == -1:
        return [(p * p, p, 0, 2, "inert")]
    return [(p, p, 0, 1, "ramified")]


def enumerate_one_prime_at_a_time(fs, bound: int) -> list:
    """Rows (norm, p, label, f, split type) of the prime ideals of norm <=
    bound, sorted: one split_one_prime call per prime below the bound."""
    return sorted(
        row for p in primes_up_to(bound).tolist() for row in split_one_prime(fs, p) if row[0] <= bound
    )


def circle_poly_direct(coeff_map, x):
    """Real part of sum_m c_m e(m x) at the points x, one complex
    exponential over all of x per coefficient."""
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros_like(x, dtype=np.complex128)
    for m, c in coeff_map.items():
        total += c * np.exp(2j * math.pi * m * x)
    return total.real


def circle_poly_long_double(coeff_map, grid: int, js):
    """Real part of sum_m c_m e(m x_j) at x_j = -1/2 + j/(grid - 1) for the
    indices js, with the phases reduced exactly in integers and the sum in
    long double: e(m x_j) = exp(i pi k/n), k = m (2j - n) mod 2n."""
    n = grid - 1
    ms = np.array(list(coeff_map), dtype=np.int64)
    cs = np.array(list(coeff_map.values()), dtype=np.complex128)
    js = np.asarray(js, dtype=np.int64)
    k = (ms[None, :] * (2 * js[:, None] - n)) % (2 * n)
    angle = np.longdouble("3.14159265358979323846264338327950288") * k.astype(np.longdouble) / n
    re = cs.real.astype(np.longdouble)
    im = cs.imag.astype(np.longdouble)
    return (np.cos(angle) * re - np.sin(angle) * im).sum(axis=1)


def full_horner(coeffs, w):
    """The even-coefficient polynomial of coeffs at every w, by Horner over
    every coefficient and every row."""
    total = np.zeros_like(w)
    for c in coeffs[::2][::-1]:
        total = total * w + c
    return total


def horner_stops(c, w) -> list:
    """The last term K(q) that each norm q = 1/w takes of the series with
    U_{2n} coefficients c (not all zero), w non-increasing: with j the first
    nonzero coefficient and S_n = max_{k>=n} |c_k|, a norm takes term n
    while q^n <= e^690 and, past j, S_n q^{-(n-j)} > 2^-60 (1 - w[0]) |c_j|
    (both in logs, by math.log), and none after the first it does not take.
    Plain Python, one norm at a time."""
    mag = [abs(float(v)) for v in c]
    tails = list(itertools.accumulate(reversed(mag), max))[::-1]
    j = next(n for n, v in enumerate(mag) if v)
    log_floor = math.log(mag[j]) + math.log1p(-float(w[0])) - 60.0 * math.log(2.0)
    stops = []
    for wq in w:
        log_q = -math.log(float(wq))
        k = 0
        while k + 1 < len(mag):
            n = k + 1
            if log_q > 690.0 / n:
                break
            if n > j and (tails[n] == 0.0 or log_q > (math.log(tails[n]) - log_floor) / (n - j)):
                break
            k = n
        stops.append(k)
    return stops


def truncated_horner(c, w) -> list:
    """sum_{n <= K(q)} c_n w^n at every w = 1/q (w non-increasing), by a
    per-norm Horner over c_0..c_K(q) in Python floats, K(q) by horner_stops;
    all zeros for all-zero c."""
    c = [float(v) for v in c]
    if not any(c):
        return [0.0] * len(w)
    out = []
    for wq, stop in zip(map(float, w), horner_stops(c, w)):
        total = 0.0
        for n in range(stop, -1, -1):
            total = total * wq + c[n]
        out.append(total)
    return out


def set_partitions(u: int) -> list:
    """All Bell(u) set partitions of range(u), each a tuple of ascending
    position tuples in order of their first position: the last position
    joins each block of a set partition of the others in turn, then opens
    a new last block."""
    if u == 0:
        return [()]
    out = []
    for sigma in set_partitions(u - 1):
        out += [sigma[:i] + (block + (u - 1,),) + sigma[i + 1 :] for i, block in enumerate(sigma)]
        out.append(sigma + ((u - 1,),))
    return out


def block_order_counts(parts: tuple) -> dict:
    """{sequence of block multisets: number of set partitions giving it},
    over the set partitions of the positions of parts."""
    counts = {}
    for sigma in set_partitions(len(parts)):
        blocks = tuple(tuple(sorted(parts[i] for i in block)) for block in sigma)
        counts[blocks] = counts.get(blocks, 0) + 1
    return counts


def block_summer(row, counts: np.ndarray):
    """Block sums sum_q counts[q] prod_{r in multiset} row(r)[q], by
    math.fsum, for a row(r) and counts given as arrays: the bits of the
    block sums of moments_engine._main_term_kernel.  Cached by multiset."""

    @functools.lru_cache(maxsize=None)
    def block_sum(multiset: tuple) -> float:
        prod = row(multiset[0])
        for r in multiset[1:]:
            prod = prod * row(r)
        return math.fsum((counts * prod).tolist())

    return block_sum


def walked_tuple_sum(parts: tuple, block_sum) -> float:
    """The distinct-tuple sum by a walk over every set partition of the
    positions, one Moebius term each, multiplied out in block order."""
    terms = []
    for sigma in set_partitions(len(parts)):
        factor = 1.0
        for block in sigma:
            multiset = tuple(sorted(parts[i] for i in block))
            sign = -1.0 if (len(block) - 1) % 2 else 1.0
            factor *= sign * math.factorial(len(block) - 1) * block_sum(multiset)
        terms.append(factor)
    return math.fsum(terms)


def smooth_power_coeffs(spec, big_m: float, r: int, n_max: int) -> np.ndarray:
    """U_2n coefficients, n = 0..n_max, of phi_M(theta/pi)^r, by the
    trapezoid rule on 4096 nodes over one period.

    c_n = (2/pi) int_0^pi phi_M^r U_2n(cos theta) sin^2 theta dtheta, and
    U_2n(cos theta) sin^2 theta = (cos 2n theta - cos (2n + 2) theta)/2, so the
    integrand is pi-periodic; for a gaussian weight it is also smooth, and
    the rule is exact to rounding once the nodes outnumber its frequencies.
    """
    theta = np.arange(4096) * (math.pi / 4096)
    weight = smooth_weight(spec, big_m, theta / math.pi) ** r
    n = np.arange(n_max + 1)[:, None]
    return (np.cos(2 * n * theta) - np.cos((2 * n + 2) * theta)) @ weight / 4096


def cumulants_from_raw(raw: np.ndarray) -> np.ndarray:
    """Cumulants k_1..k_R from raw moments m_1..m_R along the last axis (one
    row per norm, say): k_n = m_n - sum_{j<n} C(n-1, j-1) k_j m_{n-j}."""
    mom = np.concatenate([np.ones(raw.shape[:-1] + (1,)), raw], axis=-1)
    k = np.zeros_like(mom)
    for n in range(1, mom.shape[-1]):
        k[..., n] = mom[..., n] - sum(
            math.comb(n - 1, j - 1) * k[..., j] * mom[..., n - j] for j in range(1, n)
        )
    return k[..., 1:]


def standardized_sum_moments(raw: np.ndarray, counts, center: float, scale: float) -> list:
    """E[((S - center)/scale)^r], r = 1..R, where S sums independent terms,
    counts[i] of them with the raw moments raw[i, :R].  Cumulants add over
    the terms, by math.fsum; center shifts the first; the moments of the
    shifted sum follow by m_n = sum_j C(n-1, j-1) k_j m_{n-j}."""
    per_norm = cumulants_from_raw(np.asarray(raw, dtype=np.float64))
    counts = np.asarray(counts, dtype=np.float64)
    k = [math.fsum((counts * col).tolist()) for col in per_norm.T]
    k[0] -= center
    mom = [1.0]
    for n in range(1, len(k) + 1):
        mom.append(math.fsum(math.comb(n - 1, j - 1) * k[j - 1] * mom[n - j] for j in range(1, n + 1)))
    return [m / scale**n for n, m in enumerate(mom[1:], start=1)]


def cumulant_main_terms(z_coeffs, norms, orders: int) -> list:
    """E[(sum_i Z(theta_i))^n] / pi_L^{n/2} for n = 1..orders under the
    independence model, with Z = sum_k z_coeffs[k] U_k(cos theta) and one
    angle per norm in norms.

    Z sin(theta) = sum_k z_coeffs[k] sin((k + 1) theta), so a DST-I on N - 1
    nodes theta_j = j pi / N takes the U-coefficients of Z to its values and
    the values of Z^r sin(theta) back to the U-coefficients of Z^r, exactly
    while r deg Z < N - 1.  E_q[U_2k] = q^-k and E_q[U_odd] = 0 give the raw
    moments of Z^r at each norm; their cumulants add over independent ideals.
    """
    from scipy.fft import dst

    coeffs = np.asarray(z_coeffs, dtype=np.float64)
    n_nodes = 2
    while n_nodes - 1 <= orders * (coeffs.size - 1):
        n_nodes *= 2
    padded = np.zeros(n_nodes - 1)
    padded[: coeffs.size] = coeffs
    sin_t = np.sin(np.arange(1, n_nodes) * (math.pi / n_nodes))
    z = dst(padded, type=1) / 2.0 / sin_t
    qs, counts = np.unique(np.asarray(norms, dtype=np.float64), return_counts=True)
    # terms of the series in 1/q up to the first below 1e-38 at the smallest q
    terms = min(math.ceil(38.0 / math.log10(qs[0])) + 1, n_nodes // 2)
    powers = (1.0 / qs)[:, None] ** np.arange(terms)[None, :]
    raw = [np.ones(qs.size)]
    for r in range(1, orders + 1):
        u_coeffs = dst(z**r * sin_t, type=1) / n_nodes
        raw.append(powers @ u_coeffs[0 : 2 * terms : 2])
    kappa = [None]
    for n in range(1, orders + 1):
        kappa.append(
            raw[n] - sum(math.comb(n - 1, j - 1) * kappa[j] * raw[n - j] for j in range(1, n))
        )
    total_kappa = [None] + [math.fsum((counts * kappa[n]).tolist()) for n in range(1, orders + 1)]
    moments = [1.0]
    for n in range(1, orders + 1):
        moments.append(
            math.fsum(
                math.comb(n - 1, j - 1) * total_kappa[j] * moments[n - j] for j in range(1, n + 1)
            )
        )
    size = float(np.asarray(norms).size)
    return [moments[n] / size ** (n / 2.0) for n in range(1, orders + 1)]


@dataclass(frozen=True)
class TraceIdentityReport:
    empirical: float
    target: float
    z_score: float
    standard_error: float
    size: int


def trace_identity_check(config, ideals, ms) -> TraceIdentityReport:
    """Ensemble average of a product of U_m values vs its closed form.

    The closed form is the product of local Chebyshev moments: q^{-m/2} per
    even order, zero if any order is odd.  Angles are drawn at the list
    position of each ideal, so the check shares no stream with run_ensemble.
    """
    ideal_list = list(ideals)
    orders = [int(m) for m in ms]
    if len(ideal_list) != len(orders):
        raise ValueError("need one order per ideal")
    if any(m < 0 for m in orders):
        raise ValueError("orders must be nonnegative")
    if len(set(ideal_list)) != len(ideal_list):
        raise ValueError("ideals must be pairwise distinct")
    total = config.size
    keys = member_keys(config.seed, np.arange(total, dtype=np.uint64))
    u = uniform_matrix(keys, len(ideal_list))
    prod = np.ones(total)
    target = 1.0
    for j, (ideal, m) in enumerate(zip(ideal_list, orders)):
        meas = LocalMeasure(ideal.norm)
        theta = quantile(meas, u[:, j])
        prod = prod * eval_U(m, theta)
        target *= chebyshev_moment(meas, m)
    empirical = float(np.mean(prod))
    spread = float(np.std(prod, ddof=1)) if total > 1 else 0.0
    se = spread / math.sqrt(total) if total > 1 else 0.0
    z = (empirical - target) / se if se > 0.0 else 0.0
    return TraceIdentityReport(
        empirical=empirical,
        target=float(target),
        z_score=float(z),
        standard_error=se,
        size=total,
    )

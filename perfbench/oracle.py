"""Reference computations for the benchmark, written apart from satolab.

Nothing here calls the package: the benchmark feeds these functions the
inputs it also gives the program and compares the two answers.  Every
reference rests only on the definitions of the independence model:

* the local density at a prime ideal of norm q,
      f_q(theta) = (2/pi) sin^2 theta (q + 1) / (q + 2 + 1/q - 4 cos^2 theta),
  integrated by composite Gauss-Legendre quadrature;
* the splitmix64 counter generator that keys one stream per member;
* the splitting of rational primes in Q(sqrt 5), for the ideal count;
* the Chebyshev rule E_q[U_2k(cos theta)] = q^-k, E_q[U_odd] = 0.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import dst

# ----------------------------------------------------------------- splitmix64

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_ROOT_SALT = 0x5851F42D4C957F2D


def _mix64(z: int) -> int:
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _derive(key: int, index: int) -> int:
    return _mix64((key + _GOLDEN * (index + 1)) & _MASK)


def member_key(seed: int, member: int) -> int:
    """Stream key of one ensemble member, in plain Python integers."""
    return _derive(_mix64((seed & _MASK) ^ _ROOT_SALT), member)


def uniforms(key: int, count: int) -> list:
    """Uniforms at counters 0..count-1 of one stream: top 53 bits over 2^53."""
    return [(_derive(key, j) >> 11) * 2.0**-53 for j in range(count)]


# ------------------------------------------------------------ prime ideals


def primes_up_to(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def sqrt5_norms(x: float) -> np.ndarray:
    """Norms of the prime ideals of Q(sqrt 5) of norm <= x, sorted.

    5 ramifies; p = +-1 mod 5 splits into two ideals of norm p; p = +-2
    mod 5 (2 included) stays inert with norm p^2.
    """
    bound = int(math.floor(x))
    norms = []
    for p in primes_up_to(bound).tolist():
        r = p % 5
        if r == 0:
            norms.append(p)
        elif r in (1, 4):
            norms += [p, p]
        elif p * p <= bound:
            norms.append(p * p)
    return np.sort(np.array(norms, dtype=np.float64))


# ------------------------------------------------------------- local laws


def density(q, theta):
    """Local density f_q(theta) on [0, pi]; broadcasts q against theta."""
    s = np.sin(theta)
    c = np.cos(theta)
    return (2.0 / math.pi) * s * s * (q + 1.0) / (q + 2.0 + 1.0 / q - 4.0 * c * c)


def gauss_nodes(a: float, b: float, panels: int, order: int = 20):
    """Nodes and weights of composite Gauss-Legendre on [a, b]."""
    x, w = leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def arc_mass(qs: np.ndarray, a: float, b: float) -> np.ndarray:
    """Local mass of the arc [a, b] for each norm in qs."""
    nodes, weights = gauss_nodes(a, b, 16)
    return density(qs[:, None], nodes[None, :]) @ weights


def periodized_gaussian(lam: float, big_m: float, t):
    """phi_M(t) = sum_m exp(-lam (M (t + m))^2) for t in [0, 1].

    |m| <= 3 suffices: every dropped term has |t + m| >= 2, so with
    lam M^2 >= 16 it is below exp(-64).
    """
    t = np.asarray(t, dtype=np.float64)
    return sum(np.exp(-lam * (big_m * (t + m)) ** 2) for m in range(-3, 4))


def smooth_raw_moments(qs, lam, big_m, orders: int) -> np.ndarray:
    """E_q[phi_M(theta/pi)^r] for r = 1..orders, one row per norm."""
    nodes, weights = gauss_nodes(0.0, math.pi, 64, 16)
    phi = periodized_gaussian(lam, big_m, nodes / math.pi)
    wd = density(np.asarray(qs)[:, None], nodes[None, :]) * weights[None, :]
    return np.stack([wd @ phi**r for r in range(1, orders + 1)], axis=1)


class LocalInverter:
    """Quantiles of f_q by root finding on a quadrature-built CDF.

    The CDF is tabulated at panel edges by Gauss-Legendre sums; inside a
    panel it is the edge value plus a Gauss-Legendre integral from the edge,
    and the root is found by Newton steps kept inside a shrinking bracket.
    """

    _PANELS = 512

    def __init__(self, qs: np.ndarray):
        self.qs = np.asarray(qs, dtype=np.float64)
        self.edges = np.linspace(0.0, math.pi, self._PANELS + 1)
        self._x, self._w = leggauss(20)
        lo = self.edges[:-1]
        parts = self._integral(self.qs[:, None], lo[None, :], self.edges[None, 1:])
        self.table = np.concatenate(
            [np.zeros((self.qs.size, 1)), np.cumsum(parts, axis=1)], axis=1
        )

    def _integral(self, q, a, b):
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        pts = mid[..., None] + half[..., None] * self._x
        return half * (density(q[..., None], pts) @ self._w)

    def total_mass_error(self) -> float:
        return float(np.max(np.abs(self.table[:, -1] - 1.0)))

    def quantile(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Angles theta with F_q(theta) = u, q = self.qs[rows]."""
        tab = self.table[rows]
        k = np.array([np.searchsorted(t, v, side="right") for t, v in zip(tab, u)])
        k = np.clip(k, 1, self._PANELS) - 1
        lo = self.edges[k]
        hi = self.edges[k + 1]
        base = tab[np.arange(rows.size), k]
        q = self.qs[rows]
        theta = 0.5 * (lo + hi)
        for _ in range(60):
            g = base + self._integral(q, self.edges[k], theta) - u
            hi = np.where(g > 0.0, theta, hi)
            lo = np.where(g > 0.0, lo, theta)
            f = density(q, theta)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = theta - g / f
            inside = (newton > lo) & (newton < hi) & (f > 0.0)
            theta = np.where(inside, newton, 0.5 * (lo + hi))
        return theta


# ------------------------------------------------------- laws of the sums


def poisson_binomial_pmf(p: np.ndarray) -> np.ndarray:
    """Exact law of a sum of independent Bernoulli(p_i), O(n^2) recurrence."""
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p.tolist(), start=1):
        pmf[1 : i + 1] = pmf[1 : i + 1] * (1.0 - pi) + pmf[:i] * pi
        pmf[0] *= 1.0 - pi
    return pmf


def cumulants_from_raw(m: np.ndarray) -> np.ndarray:
    """Cumulants k_1..k_R from raw moments m_1..m_R (last axis)."""
    R = m.shape[-1]
    mom = np.concatenate([np.ones(m.shape[:-1] + (1,)), m], axis=-1)
    k = np.zeros_like(mom)
    for n in range(1, R + 1):
        k[..., n] = mom[..., n] - sum(
            math.comb(n - 1, j - 1) * k[..., j] * mom[..., n - j] for j in range(1, n)
        )
    return k[..., 1:]


def raw_from_cumulants(k: np.ndarray) -> np.ndarray:
    """Raw moments m_1..m_R from cumulants k_1..k_R (1-D)."""
    R = k.size
    mom = [1.0]
    for n in range(1, R + 1):
        mom.append(
            math.fsum(math.comb(n - 1, j - 1) * k[j - 1] * mom[n - j] for j in range(1, n + 1))
        )
    return np.array(mom[1:])


def sum_law_moments(raw: np.ndarray, counts: np.ndarray, center: float, scale: float):
    """Moments E[((S - center)/scale)^r], r = 1..R, of S = sum of independent
    terms; raw[i] holds the raw moments of one term at norm i, counts[i] the
    number of ideals of that norm."""
    k = (counts[:, None] * cumulants_from_raw(raw)).sum(axis=0)
    k[0] -= center
    return raw_from_cumulants(k) / scale ** np.arange(1, k.size + 1)


# ------------------------------------------------------- extremal pair


def circle_values(coeffs: dict, points: int) -> np.ndarray:
    """sum_m c_m e(m j/points) at j = 0..points-1, by one inverse FFT."""
    spec = np.zeros(points, dtype=np.complex128)
    for m, c in coeffs.items():
        spec[m % points] += c
    return (np.fft.ifft(spec) * points).real


def cosine_coefficients(coeffs: dict, degree: int) -> np.ndarray:
    """scr(m) = Re(c_m + c_-m): F(theta) = S(theta/2pi) + S(-theta/2pi)
    = scr(0) + 2 sum_{m>=1} scr(m) cos(m theta)."""
    return np.array([(coeffs[m] + coeffs[-m]).real for m in range(degree + 1)])


def moment_main_terms(scr: np.ndarray, norms: np.ndarray, orders: int) -> np.ndarray:
    """E[(sum_i Z(theta_i))^n] / pi_L^{n/2} for n = 1..orders.

    Z = F - [F]_0 with F given by its cosine coefficients scr.  The
    U-coefficients of Z^r come from a DST-I of Z^r sin(theta) on N > r M
    nodes; E_q[Z^r] = sum_k [Z^r]_{2k} q^-k; cumulants add over ideals.
    """
    degree = scr.size - 1
    n_nodes = 1
    while n_nodes <= orders * degree + 2:
        n_nodes *= 2
    theta = np.arange(1, n_nodes) * (math.pi / n_nodes)
    cos_mt = np.cos(np.outer(theta, np.arange(1, degree + 1)))
    z = 2.0 * (cos_mt @ scr[1:]) + scr[2]
    qs, counts = np.unique(norms, return_counts=True)
    # Enough terms of the series in 1/q that the first one dropped is < 1e-38.
    terms = min(math.ceil(38.0 / math.log10(qs[0])), (orders * degree) // 2 + 1)
    powers = (1.0 / qs)[:, None] ** np.arange(terms)[None, :]
    raw = np.empty((qs.size, orders))
    zr = np.ones_like(z)
    for r in range(1, orders + 1):
        zr = zr * z
        u_coef = dst(zr * np.sin(theta), type=1) / n_nodes
        raw[:, r - 1] = powers @ u_coef[0 : 2 * terms : 2]
    total = sum_law_moments(raw, counts.astype(np.float64), 0.0, 1.0)
    return total / float(norms.size) ** (np.arange(1, orders + 1) / 2.0)

"""Beurling-Selberg extremal trigonometric polynomials for interval indicators.

Given J = [alpha, beta] on the circle and a degree M, the majorant S+ and
the minorant S- are trigonometric polynomials of degree at most M with
S- <= chi_J <= S+ and the optimal L1 defect 1/(M+1) on each side.  They
are Selberg's periodizations of Beurling's entire majorant of sgn, and
their Fourier coefficients have a closed form (Vaaler, "Some extremal
functions in Fourier analysis", Bull. AMS 12 (1985); Montgomery, "Ten
Lectures on the Interface between Analytic Number Theory and Harmonic
Analysis", ch. 1).  With delta = M + 1 and u = k/delta for 1 <= k <= M,

    hatS+-(k) = [pi u (1-u) cot(pi u) + u] chi_J^(k)
                +- (1-u) (e(-k alpha) + e(-k beta)) / (2 delta),

hatS+-(0) = (beta - alpha) +- 1/delta and hatS+-(-k) = conj hatS+-(k).
The first bracket is Vaaler's polynomial, the second Fejer's kernel.

The Chebyshev re-expansion maps S+- to F+- with F(theta) = S(theta/2pi) +
S(-theta/2pi), the interval sandwich used on [0, pi].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chebyshev import ChebyshevSeries

__all__ = [
    "CircleInterval",
    "ArcInterval",
    "ExtremalPair",
    "chi_hat",
    "selberg_coefficients",
    "evaluate_circle_poly",
    "to_chebyshev",
    "mu_infty_interval",
    "VarianceSums",
    "variance_sum",
]


@dataclass(frozen=True)
class CircleInterval:
    """J = [alpha, beta] inside [-1/2, 1/2] on the unit circle."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (-0.5 <= a < b <= 0.5):
            raise ValueError("need -1/2 <= alpha < beta <= 1/2")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def length(self) -> float:
        return self.beta - self.alpha


@dataclass(frozen=True)
class ArcInterval:
    """I = [a, b] inside [0, pi], in radians."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        if not (0.0 <= a < b <= math.pi):
            raise ValueError("need 0 <= a < b <= pi")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def to_circle(self) -> CircleInterval:
        return CircleInterval(self.a / math.tau, self.b / math.tau)


@dataclass(frozen=True)
class ExtremalPair:
    """Majorant/minorant data: circle coefficients and Chebyshev re-expansion.

    s_plus and s_minus map m in [-M, M] to the circle Fourier coefficient
    (coefficients vanish for |m| > M); f_plus and f_minus hold the Chebyshev
    coefficients of F+-.
    """

    degree: int
    s_plus: dict
    s_minus: dict
    f_plus: ChebyshevSeries
    f_minus: ChebyshevSeries


def chi_hat(J: CircleInterval, m):
    """Fourier coefficient of the indicator of J at the integer or integer
    array m: (e(-m alpha)-e(-m beta))/(2 pi i m)."""
    m = np.asarray(m)
    k = np.where(m == 0, 1, m)
    num = np.exp(-2j * math.pi * k * J.alpha) - np.exp(-2j * math.pi * k * J.beta)
    return np.where(m == 0, J.length, num / (2j * math.pi * k))[()]


def selberg_coefficients(J: CircleInterval, M: int) -> ExtremalPair:
    """Degree-M extremal pair for J: circle coefficients and Chebyshev re-expansion.

    Evaluates the closed form of the module docstring for all |m| <= M.
    With the cosine coefficients scr(m) = hatS(m) + hatS(-m) (so scr(0) = 2
    hatS(0)) the Chebyshev coefficients telescope:

        F(m) = scr(m) - scr(m+2),   scr(m+2) := 0 for m + 2 > M,

    which reproduces S(theta/2pi) + S(-theta/2pi) pointwise.
    """
    if not isinstance(M, (int, np.integer)) or M < 1:
        raise ValueError("M must be a positive integer")
    M = int(M)
    delta = M + 1
    k = np.arange(1, delta, dtype=np.float64)
    u = k / delta
    ea = np.exp(-2j * math.pi * k * J.alpha)
    eb = np.exp(-2j * math.pi * k * J.beta)
    chi = (ea - eb) / (2j * math.pi * k)
    vaaler = math.pi * u * (1.0 - u) / np.tan(math.pi * u) + u
    fejer = (1.0 - u) * (ea + eb) / (2.0 * delta)
    signs = np.array([[1.0], [-1.0]])
    pos = vaaler * chi + signs * fejer
    full = np.concatenate([pos[:, ::-1].conj(), J.length + signs / delta, pos], axis=1)
    scr = (full[:, M:] + full[:, M::-1]).real
    fhat = scr.copy()
    fhat[:, :-2] -= scr[:, 2:]
    circle = (dict(zip(range(-M, M + 1), row.tolist())) for row in full)
    return ExtremalPair(M, *circle, *map(ChebyshevSeries, fhat))


def evaluate_circle_poly(coeff_map: dict, grid: int) -> np.ndarray:
    """Real part of sum_m c_m e(m x) at the points x = linspace(-1/2, 1/2, grid).

    With n = grid - 1 the points are x_j = -1/2 + j/n, where e(m x_j) =
    (-1)^m e(mj/n): each c_m (-1)^m folds into bin m mod n, one inverse FFT
    gives x_0..x_{n-1}, and x_n = 1/2 repeats x_0.
    """
    n = int(grid) - 1
    ms = np.array(list(coeff_map))
    cs = np.array(list(coeff_map.values()), dtype=np.complex128)
    bins = np.zeros(n, dtype=np.complex128)
    np.add.at(bins, ms % n, np.where(ms % 2 == 0, cs, -cs))
    values = np.fft.ifft(bins, norm="forward").real
    return np.append(values, values[0])


def to_chebyshev(I: ArcInterval, M: int) -> ExtremalPair:
    """selberg_coefficients for the circle image of the arc I, for M >= 3."""
    if M < 3:
        raise ValueError("M must be at least 3")
    return selberg_coefficients(I.to_circle(), M)


# pi - math.pi, the low word of pi
_PI_LO = 1.2246467991473532e-16


def mu_infty_interval(I: ArcInterval) -> float:
    """Sato-Tate mass of the arc, (b - a)/pi - (sin 2b - sin 2a)/(2 pi), as
    (d - sin d + 2 sin d sin^2 m)/pi with d = b - a and m = (a + b)/2: two
    terms that are never negative, so a short arc keeps its digits.  Below
    d = 0.5, d - sin d is its Taylor series (the first dropped term is under
    1e-18 of it); past a + b = pi, sin m is sin(pi - m), with pi's low word."""
    a, b = I.a, I.b
    d = b - a
    if d < 0.5:
        rest = 0.0
        for k in range(15, 1, -2):  # d^3/3! - (d^5/5! - (... - d^15/15!))
            rest = d**k / math.factorial(k) - rest
    else:
        rest = d - math.sin(d)
    m = (a + b) / 2.0 if a + b <= math.pi else ((math.pi - a) + (math.pi - b) + 2.0 * _PI_LO) / 2.0
    return (rest + 2.0 * math.sin(d) * math.sin(m) ** 2) / math.pi


class VarianceSums(NamedTuple):
    plus: float
    minus: float


def variance_sum(pair: ExtremalPair) -> VarianceSums:
    """sum_{m=1}^{M} F(m)^2 for each sign; the Selberg variance surrogate."""
    return VarianceSums(
        plus=float(np.sum(pair.f_plus.coeffs[1:] ** 2)),
        minus=float(np.sum(pair.f_minus.coeffs[1:] ** 2)),
    )

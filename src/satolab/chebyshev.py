"""Chebyshev polynomials of the second kind on the angle variable.

Throughout, U_n is evaluated at cos(theta) for theta in [0, pi], where the
family is orthonormal with respect to the semicircle weight
(2/pi) sin^2(theta) dtheta:

    (2/pi) * integral_0^pi U_m(cos t) U_n(cos t) sin^2 t dt = delta_{mn}.

Finite expansions f = sum_m c_m U_m are held as coefficient vectors; products
are reduced back to the U basis through the linearization

    U_m U_n = U_{m+n} + U_{m+n-2} + ... + U_{|m-n|}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebyshevSeries",
    "eval_U",
    "series_product",
    "fourier_coefficient",
    "simpson_quadrature",
]

# Below this, sin((n+1)t)/sin(t) loses too many digits and the three-term
# recurrence in cos(t) is used instead.
_SINE_QUOTIENT_CUTOFF = 1e-6


@dataclass(frozen=True)
class ChebyshevSeries:
    """Finite expansion sum_{m=0}^{d} coeffs[m] * U_m(cos theta)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty one-dimensional array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def evaluate(self, theta) -> np.ndarray:
        """Clenshaw evaluation at theta (scalar or array) in [0, pi]."""
        theta = _check_theta(theta)
        x = np.cos(theta)
        b1 = np.zeros_like(x)
        b2 = np.zeros_like(x)
        for c in self.coeffs[::-1]:
            b1, b2 = c + 2.0 * x * b1 - b2, b1
        return b1


def _check_theta(theta) -> np.ndarray:
    t = np.asarray(theta, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("theta must be finite")
    if np.any(t < 0.0) or np.any(t > np.pi):
        raise ValueError("theta must lie in [0, pi]")
    return t


def eval_U(n: int, theta) -> np.ndarray:
    """U_n(cos theta) via sin((n+1)theta)/sin(theta).

    Near theta = 0 and theta = pi the quotient degenerates and the three-term
    recurrence U_k = 2 cos(theta) U_{k-1} - U_{k-2} is used; at the endpoints
    themselves the exact values U_n(1) = n+1 and U_n(-1) = (-1)^n (n+1).

    Args:
        n: nonnegative integer degree.
        theta: scalar or array of angles in [0, pi].

    Returns:
        Array (or scalar array) of U_n values.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    return _eval_u_at(n, _u_nodes(_check_theta(theta)))[()]


def _u_nodes(t: np.ndarray) -> tuple:
    """What eval_U reads of the angles t at every degree: the mask of the
    nodes where the sine quotient is used, their angles and sines, and
    cos t at the other nodes."""
    s = np.sin(t)
    safe = np.abs(s) >= _SINE_QUOTIENT_CUTOFF
    return safe, t[safe], s[safe], np.cos(t[~safe])


def _eval_u_at(n: int, nodes: tuple) -> np.ndarray:
    """U_n at the angles that _u_nodes read."""
    safe, t_safe, s_safe, x_rest = nodes
    out = np.empty(safe.shape)
    out[safe] = np.sin((n + 1) * t_safe) / s_safe
    if x_rest.size:
        out[~safe] = _eval_u_recurrence(n, x_rest)
    return out


def _eval_u_recurrence(n: int, x: np.ndarray) -> np.ndarray:
    # U_n(1) = n + 1 and U_n(-1) = (-1)^n (n + 1): the integers the recurrence
    # gives there, written down; the recurrence runs at the other nodes only
    out = np.where(x > 0.0, n + 1.0, (-1.0) ** n * (n + 1.0))
    inner = np.abs(x) != 1.0
    if n == 0 or not np.any(inner):
        return out
    y = x[inner]
    pm1, p = np.ones_like(y), 2.0 * y
    for _ in range(n - 1):
        pm1, p = p, 2.0 * y * p - pm1
    out[inner] = p
    return out


def series_product(a: ChebyshevSeries, b: ChebyshevSeries) -> ChebyshevSeries:
    """Product of two expansions, reduced to the U basis.

    Computed through the sine-polynomial form: with A = sin(theta) f and
    B = sin(theta) g, the product satisfies sin^2(theta) f g = A B, and
    matching cosine coefficients of A B against

        sin^2(theta) sum_k c_k U_k = (1/2) sum_k c_k (cos k theta - cos (k+2) theta)

    recovers c by a two-step recurrence.  This reproduces the term-by-term
    linearization exactly, in O(d^2) instead of O(d^3) work.
    """
    sa = a.coeffs  # coefficient of sin((m+1) theta)
    sb = b.coeffs
    deg = a.degree + b.degree
    conv = np.convolve(sa, sb)  # index i+j, frequency i+j+2
    corr = np.convolve(sa, sb[::-1])  # corr[d + b.degree] pairs i - j = d
    # p[k] = (corr(k) + corr(-k) - conv[k-2]) / 2, with corr(0) taken once.
    first = np.zeros(deg + 3)
    first[: a.degree + 1] = corr[b.degree :]
    first[1 : b.degree + 1] += corr[: b.degree][::-1]
    first[2:] -= conv
    p = 0.5 * first
    # c[k] = 2 p[k] + c[k-2]: a running sum over each parity class.
    c = np.empty(deg + 1)
    c[0::2] = np.cumsum(2.0 * p[0 : deg + 1 : 2])
    c[1::2] = np.cumsum(2.0 * p[1 : deg + 1 : 2])
    return ChebyshevSeries(c)


def simpson_quadrature(values: np.ndarray, step: float) -> float:
    """Composite Simpson rule on an odd-length uniform grid."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 3 or v.size % 2 == 0:
        raise ValueError("need an odd number of nodes (even panel count)")
    weights = np.ones(v.size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(step / 3.0 * np.dot(weights, v))


def fourier_coefficient(f, n: int, quadrature_points: int = 2**14) -> float:
    """Coefficient [f * U_n] = (2/pi) integral_0^pi f(theta) U_n(cos theta) sin^2 theta dtheta.

    The integral is evaluated by composite Simpson quadrature on
    2 quadrature_points panels (2 quadrature_points + 1 nodes).

    Args:
        f: vectorized callable on [0, pi].
        n: coefficient index, nonnegative.
        quadrature_points: half the panel count of the rule, at least 2.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if quadrature_points < 2:
        raise ValueError("quadrature_points must be at least 2")
    grid = np.linspace(0.0, np.pi, 2 * int(quadrature_points) + 1)
    fv = np.asarray(f(grid), dtype=np.float64)
    if not np.all(np.isfinite(fv)):
        raise ValueError("integrand returned non-finite values")
    integrand = fv * eval_U(int(n), grid) * np.sin(grid) ** 2 * (2.0 / np.pi)
    return simpson_quadrature(integrand, grid[1] - grid[0])

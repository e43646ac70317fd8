"""The Sato-Tate measure and its local deformations at prime ideals.

On [0, pi] the limiting measure is d mu_infty = (2/pi) sin^2(theta) dtheta.
At a prime ideal of norm q the local measure is the deformation

    d mu_q = (q + 1) / ((q^{1/2} + q^{-1/2})^2 - 4 cos^2 theta) d mu_infty,

whose Chebyshev moments are exactly q^{-m/2} for even m and 0 for odd m.
mu_infty is the q -> infinity end of the same family, LocalMeasure(math.inf).
The identity behind both facts is the geometric expansion of the density
ratio in U_{2n}(cos theta) q^{-n}, which also yields a closed-form CDF used
by the inverse-transform sampler.

cdf, quantile and the ensemble sampler share one series kernel
(_cdf_series), one bracket grid (_GRID, 4097 nodes) and one inverter
(_invert).  The bracket is a guide table in g(u) = (1 + cbrt u -
cbrt(1 - u))/2, which flattens the cubic cdf tails: one gather into the
n - 1 guide cells of an n-node row, then a walk of at most 2 steps.  The
sampler brackets every norm past 1e4 in one shared row, the cdf of
LocalMeasure(math.inf), and the norm's own Newton steps close the O(1/q)
gap: each step is clipped to the bracketed cell and its two neighbours.
The series factors of a norm q are built once, by the scalar power q^{-n}
(_powers): for one measure, or for a column of ascending norms split into
runs that share a series length (_norm_runs).  The inverter leaves
|cdf(theta) - u| <= 1e-15 for every u in [0, 1], and theta within 1e-12
rad of the root for u in [1e-12, 1 - 1e-5]; nearer the ends a cdf
rounding error of 1e-16 moves the root by more than that.

The same expansion gives local expectations: a function with the series
sum_n c_n U_{2n}(cos theta) has E_q = sum_n c_n q^{-n}, which _expectations
forms at every distinct norm for the theory's Z^r profiles and for the
smooth model mean and variance.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import _check_theta, eval_U, simpson_quadrature

__all__ = [
    "LocalMeasure",
    "density",
    "chebyshev_moment",
    "moment_quadrature",
    "cdf",
    "quantile",
]

# Geometric tail: terms with q^{ -n } below this are dropped from the CDF
# series, giving absolute truncation error under 2e-14.
_TAIL_EPS = 1e-14
_TWO_PI = 2.0 * math.pi
# Bracket grid and Newton steps of quantile and of the sampler.
_GRID = np.linspace(0.0, math.pi, 4097)
_GRID.flags.writeable = False
_NEWTON_STEPS = 2
# Cells at each end of a bracket grid where the inverter starts from cube-root
# interpolation: there the cdf is cubic in the distance to the endpoint.
_TAIL_CELLS = 32
# Slack on the guide cell edges, far above the rounding error of _guide_map.
_GUIDE_SLACK = 2.0**-40
# Past q^n = e^690 (about 1e300) the term c_n w^n, w = 1/q, is about 1e-300
# of c_n and no longer moves a row's value, so the Horner step for w^n
# skips those rows.
_LOG_UNDERFLOW = 690.0


@dataclass(frozen=True)
class LocalMeasure:
    """Plancherel-type measure at a place of residue norm q >= 2; q = inf is
    the limiting measure (2/pi) sin^2(theta) dtheta."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not q >= 2.0:
            raise ValueError("local measure norm q must be >= 2")
        object.__setattr__(self, "q", q)


def density(measure, theta):
    """Density of the measure with respect to dtheta, vectorized."""
    t = _check_theta(theta)
    return _density(np.sin(t), np.cos(t), _measure_series(measure))


def chebyshev_moment(measure, m: int) -> float:
    """Exact integral of U_m(cos theta) against the measure.

    For the local measure at norm q this is q^{-m/2} for even m and 0 for
    odd m; at q = inf only the m = 0 mass is left.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    if m % 2 == 1:
        return 0.0
    return float(measure.q) ** (-m / 2.0)


def moment_quadrature(measure, m: int, quadrature_points: int = 2**12) -> float:
    """Quadrature cross-check of chebyshev_moment: Simpson on 2 quadrature_points panels."""
    grid, weight = _weighted_grid(measure, int(quadrature_points))
    return simpson_quadrature(eval_U(int(m), grid) * weight, grid[1] - grid[0])


@functools.lru_cache(maxsize=1)
def _weighted_grid(measure, quadrature_points: int) -> tuple:
    """The Simpson grid and the density on it, shared across the orders m."""
    grid = np.linspace(0.0, math.pi, 2 * quadrature_points + 1)
    return grid, density(measure, grid)


def _expectations(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E_q of the series sum_n coeffs[n] U_{2n}(cos theta) at every w = 1/q:
    U_{2n} integrates to q^{-n}, so each is the polynomial sum_n coeffs[n]
    w^n, by Horner.

    w must be non-increasing (norms ascending): the Horner step for w^n
    then updates only the prefix of rows with q^n <= e^690, and a row
    outside it starts from zero exactly when it enters.  The prefixes shrink
    as n grows, so the loop starts at the last n whose prefix is non-empty.
    """
    if np.any(np.diff(w) > 0.0):
        raise ValueError("w must be non-increasing")
    log_q = -np.log(w)
    limits = np.full(coeffs.size, np.inf)
    limits[1:] = _LOG_UNDERFLOW / np.arange(1, coeffs.size)
    rows = np.searchsorted(log_q, limits, side="right")
    total = np.zeros_like(w)
    for n in range(np.count_nonzero(rows) - 1, -1, -1):
        head = rows[n]
        total[:head] = total[:head] * w[:head] + coeffs[n]
    return total


def _local_tail_length(q: float) -> int:
    # Largest n with q^{-n} >= _TAIL_EPS.
    return int(math.floor(-math.log(_TAIL_EPS) / math.log(q)))


@dataclass(frozen=True)
class _Series:
    """Hoisted factors of the cdf series at one norm or at a column of norms.

    powers[n-1] = q^{-n}; the density ratio to the limiting measure is
    fac/(qp - 4 cos^2 theta) with qp = q + 2 + 1/q and fac = q + 1.  The
    limiting measure has no terms and qp = fac = None (ratio 1).
    """

    powers: tuple = ()
    qp: object = None
    fac: object = None

    def __getitem__(self, rows):  # the factors of some rows of a column series
        return _Series(tuple(p[rows] for p in self.powers), self.qp[rows], self.fac[rows])


def _powers(q: float) -> list:
    """q^{-n} for n = 1.._local_tail_length(q), by the scalar ** that every
    series uses: numpy's array power can differ from it by an ulp."""
    w = 1.0 / float(q)
    return [w**n for n in range(1, _local_tail_length(q) + 1)]


def _measure_series(measure) -> _Series:
    q = measure.q
    if math.isinf(q):
        return _Series()
    return _Series(tuple(_powers(q)), q + 2.0 + 1.0 / q, q + 1.0)


def _norm_runs(qs: np.ndarray) -> list:
    """(i0, i1, series) for each run qs[i0:i1] of the ascending norms qs that
    shares a series length, with the factors as (i1 - i0, 1) columns.

    The length never rises with q, so a run is one slice; row k of a run's
    series equals _measure_series(LocalMeasure(qs[i0 + k])) bit for bit.
    """
    per_norm = [_powers(q) for q in qs.tolist()]
    lengths = np.array([len(p) for p in per_norm])
    edges = [0, *(np.flatnonzero(np.diff(lengths)) + 1), qs.size]
    runs = []
    for i0, i1 in zip(edges, edges[1:]):
        q = qs[i0:i1, None]
        powers = np.array(per_norm[i0:i1]).T[:, :, None]
        runs.append((i0, i1, _Series(tuple(powers), q + 2.0 + 1.0 / q, q + 1.0)))
    return runs


def _density(sin_t, cos_t, series: _Series):  # given sin theta and cos theta
    dens = (2.0 / math.pi) * sin_t * sin_t
    if series.fac is not None:
        dens = dens * series.fac / (series.qp - 4.0 * cos_t * cos_t)
    return dens


def _cdf_series(theta, sin_t, cos_t, series: _Series):
    """The local cdf series, given sin theta and cos theta.

    sin 2 theta and 2 cos 2 theta come from the caller's sin and cos, and
    sin 2 n theta by the three-term recurrence.  Each term runs the operations
    of total += p/(2 pi n) sk - p/(2 pi (n + 1)) sk_next in that order, into
    four buffers of the output's shape that the terms reuse.
    """
    s1 = 2.0 * sin_t * cos_t
    total = theta / math.pi - s1 / _TWO_PI
    c = 2.0 * (cos_t * cos_t - sin_t * sin_t)
    sk_prev = np.zeros_like(total)
    sk = np.empty_like(total)
    sk[...] = s1
    sk_next, term = np.empty_like(total), np.empty_like(total)
    for n, p in enumerate(series.powers, 1):
        np.subtract(np.multiply(c, sk, out=sk_next), sk_prev, out=sk_next)
        np.multiply(p / (_TWO_PI * n), sk, out=term)
        np.multiply(p / (_TWO_PI * (n + 1)), sk_next, out=sk_prev)  # sk_prev is spent
        total += np.subtract(term, sk_prev, out=term)
        sk_prev, sk, sk_next = sk, sk_next, sk_prev
    return total


def cdf(measure, theta):
    """Distribution function on [0, pi]; closed form, vectorized.

    The limiting measure has cdf theta/pi - sin(2 theta)/(2 pi).  The local
    cdf is the termwise integral of the density expansion,

        sum_n q^{-n} [ sin(2 n theta)/(2 n) - sin((2 n + 2) theta)/(2 n + 2) ] / pi

    (with the n = 0 term read as the limiting cdf), truncated geometrically.
    Both endpoints are exact: cdf(0) = 0 and cdf(pi) = 1.
    """
    t = _check_theta(theta)
    return _cdf_series(t, np.sin(t), np.cos(t), _measure_series(measure))


def _cdf_norms(runs: list, theta) -> np.ndarray:
    """cdf(LocalMeasure(q), theta) for every norm q of the runs (_norm_runs),
    one row per norm, bit for bit; theta is a row of angles.  One series
    call per run."""
    t = _check_theta(theta)
    sin_t, cos_t = np.sin(t), np.cos(t)
    return np.concatenate(
        [_cdf_series(np.broadcast_to(t, (i1 - i0, t.size)), sin_t, cos_t, s) for i0, i1, s in runs]
    )


def _guide_map(u):  # flat in the cubic tails of every cdf
    return 0.5 * (1.0 + np.cbrt(u) - np.cbrt(1.0 - u))


def _guide(table: np.ndarray):
    """Guide rows of a cdf table row or block of rows (Chen & Asau, 1974),
    and their walk length.

    A row of n nodes gets m = n - 1 guide cells.  Entry j of a row counts the
    nodes with g(row) < j/m - _GUIDE_SLACK, clipped to [1, n - 1]; the cell
    of any u with floor(m g(u)) = j lies from there to `walk` indices above,
    whether or not rounding keeps g monotone.  Each row's counts fill their
    own m + 2 bins of one bincount.
    """
    n = table.shape[-1]
    cells = n - 1
    mapped = _guide_map(table.reshape(-1, n))
    bins = (cells + 2) * np.arange(mapped.shape[0])[:, None]

    def below(shift):  # node counts below j/cells + shift, j = 0..cells + 1
        at = (cells * (mapped - shift)).astype(np.intp) + 1 + bins
        counts = np.bincount(at.ravel(), minlength=bins.size * (cells + 2))
        return np.cumsum(counts.reshape(-1, cells + 2), axis=1).clip(1, n - 1)

    lo = below(-_GUIDE_SLACK)[:, :-1]
    walk = int(np.max(below(_GUIDE_SLACK)[:, 1:] - lo))
    return lo.astype(np.int32).reshape(table.shape[:-1] + (n,)), walk


def _bracket(table: np.ndarray, guide: np.ndarray, walk: int, rows, u):
    """Cell index idx with table[row, idx - 1] < u <= table[row, idx], clipped
    to [1, n - 1], and those two values; rows broadcasts against u."""
    n = table.shape[-1]
    flat = table.ravel()
    idx = guide.ravel()[rows * n + ((n - 1) * _guide_map(u)).astype(np.intp)]
    base = rows * n
    for _ in range(walk):
        idx += flat[base + idx] < u
    at = base + idx
    return idx, flat[at - 1], flat[at]


def _lerp(v, v0, v1, a, b):
    return a + (v - v0) / np.maximum(v1 - v0, 1e-300) * (b - a)


def _invert(u, idx, r_lo, r_hi, series: _Series):
    """Quantiles of u bracketed in the _GRID cells [_GRID[idx - 1], _GRID[idx]].

    r_lo and r_hi are the bracket row's values at the cell ends.  The start
    point is inverse interpolation across the cell: linear in the interior, and
    linear in the cube roots of u and of the row values (of 1 - u and 1 - row
    near pi) in the first and last _TAIL_CELLS cells, where the cdf is cubic in
    the distance to the endpoint.  The _NEWTON_STEPS Newton steps on `series`
    are clipped to the cell and its two neighbours, inside [0, pi], and skipped
    where the density is below 1e-12.
    """
    lo = _GRID[idx - 1]
    hi = _GRID[idx]
    theta = _lerp(u, r_lo, r_hi, lo, hi)
    head = np.nonzero(idx <= _TAIL_CELLS)
    theta[head] = _lerp(
        np.cbrt(u[head]), np.cbrt(r_lo[head]), np.cbrt(r_hi[head]), lo[head], hi[head]
    )
    tail = np.nonzero(idx >= _GRID.size - _TAIL_CELLS)
    theta[tail] = _lerp(
        np.cbrt(1.0 - u[tail]), np.cbrt(1.0 - r_hi[tail]), np.cbrt(1.0 - r_lo[tail]),
        hi[tail], lo[tail],
    )
    lo = np.take(_GRID, idx - 2, mode="clip")  # foot of the cell below, or 0
    hi = np.take(_GRID, idx + 1, mode="clip")  # top of the cell above, or pi
    for _ in range(_NEWTON_STEPS):
        sin_t = np.sin(theta)
        cos_t = np.cos(theta)
        dens = _density(sin_t, cos_t, series)
        resid = _cdf_series(theta, sin_t, cos_t, series) - u
        step = np.where(dens > 1e-12, resid / np.maximum(dens, 1e-12), 0.0)
        theta = np.clip(theta - step, lo, hi)
    return np.where(u == 0.0, 0.0, np.where(u == 1.0, math.pi, theta))


def quantile(measure, u):
    """Inverse of cdf: a 4097-point guide-table bracket, then two Newton steps.

    |cdf(quantile(u)) - u| <= 1e-15 for every u in [0, 1], and for u in
    [1e-12, 1 - 1e-5] the angle is within 1e-12 rad of the root.
    quantile(0) = 0 and quantile(1) = pi exactly.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("u must lie in [0, 1]")
    u_flat = np.atleast_1d(u_arr).ravel()
    table = cdf(measure, _GRID)
    bracket = _bracket(table, *_guide(table), 0, u_flat)
    theta = _invert(u_flat, *bracket, _measure_series(measure))
    return theta.reshape(u_arr.shape) if u_arr.shape else theta[0]

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
(_cdf_series, by Clenshaw's recurrence over sin 2k theta), one bracket grid
(_GRID, 4097 nodes) and one inverter (_invert).  The bracket is a guide
table in g(u) = (1 + cbrt u - cbrt(1 - u))/2, which flattens the cubic cdf
tails: one gather into the n - 1 guide cells of an n-node row, then a walk
of at most 2 steps.  In a norm's own row the start is cubic Hermite
inverse interpolation with slopes 1/f from a slope table of the same
shape (_grid_rows), and one Newton step follows.  The first and last 32
cells start from cube-root interpolation and take two steps.  The
sampler's tables (_inverter) hold the own rows of the norms up to
_SHARED_Q = 1e4 and one shared row, the cdf of LocalMeasure(math.inf),
for every norm past it; there the start is linear, and the norm's own two
Newton steps close the O(1/q) gap.  Each step is clipped to the bracketed
cell and its two neighbours.  The series factors of a norm q are built
once, from the scalar power q^{-n} (_powers): for one measure, or for a
column of ascending norms split into runs that share a series length
(_norm_runs).  The inverter leaves |cdf(theta) - u| <= 1e-15 for every u
in [0, 1], and theta within 1e-12 rad of the root for u in [1e-11, 1 -
1e-5] (at most 7.2e-13 measured).  Nearer the ends the cdf's rounding
moves the root by more than that: near theta = 0 about 1e-20 against a
density of 2e-8 at u = 1e-12, up to 1.3e-12 rad below u = 3.5e-12.

Every kernel of the inverter (_bracket, _hermite, _lerp, _newton,
_density, _cdf_series) writes into the arrays of a _Workspace, flat
buffers reused by liveness, with every arithmetic step in the order of the
plain expression it replaces.  The smooth sampler keeps one workspace per
block and inverts a tile of at most _TILE cells at a time (_angles), so a tile
allocates nothing but the arrays of its tail cells; cdf, density and
quantile call the same kernels on a workspace sized to their input.

The same expansion gives local expectations: a function with the series
sum_n c_n U_{2n}(cos theta) has E_q = sum_n c_n q^{-n}, which _expectations
forms at every distinct norm for the theory's Z^r profiles and for the
smooth model mean and variance.  Each norm's Horner sum stops once the rest
of the series is at most 2^-60 of sum_n |c_n| q^{-n} (and at q^n = e^690 at
the latest), so a value lies within a few 2^-53 sum_n |c_n| q^{-n} of the
full-length sum, but not always on its bits.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import _check_theta, _eval_u_at, _u_nodes, simpson_quadrature

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
# Bracket grid of quantile and of the sampler, and its cell width.
_GRID = np.linspace(0.0, math.pi, 4097)
_GRID.flags.writeable = False
_CELL = math.pi / (_GRID.size - 1)
_GRID_SIN, _GRID_COS = np.sin(_GRID), np.cos(_GRID)
# Cells at each end of a bracket grid where the inverter starts from cube-root
# interpolation and takes two Newton steps: there the cdf is cubic in the
# distance to the endpoint.
_TAIL_CELLS = 32
# Slack on the guide cell edges, far above the rounding error of _guide_map.
_GUIDE_SLACK = 2.0**-40
# Cells per cache-sized tile of ideal rows whose uniforms the sampler draws
# and consumes together, and about the cells per chunk of the bracket tables;
# neither moves a bit of the output.
_TILE = 2**15
# Norms past this bracket in one shared row, the limit law's cdf: every local
# cdf lies within about 0.21/q of it, so each root stays within one cell of its
# bracket; x = 1e4 keeps every norm's own row.
_SHARED_Q = 1e4
# Past q^n = e^690 (about 1e300) the term c_n w^n, w = 1/q, is about 1e-300
# of c_n, so _expectations stops every norm there at the latest.
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


class _Workspace:
    """Scratch arrays for the inverter's kernels, on flat float64 buffers of
    `cells` cells each, reused by liveness.

    take(shape, k, dtype) hands out k arrays of `shape` (at most `cells`
    cells, dtype at most 8 bytes), each on a buffer that give() returned or,
    past those, on a new one; give() returns the buffers under its arrays,
    and raises ValueError for an array that take() did not hand out.
    A kernel takes its temporaries, gives them back when they die, and
    returns its result on a buffer of the same workspace.  The smooth sampler
    keeps one workspace per block, so its tiles allocate nothing once the
    first has grown it; cdf, density and quantile size one to their input.
    """

    def __init__(self, shape):
        self.cells = math.prod(shape)
        self._free = []
        self._own = {}  # every buffer made, by id; held, so no id is reused

    def take(self, shape, k=1, dtype=np.float64) -> list:
        size = math.prod(shape)
        bufs = [self._free.pop() if self._free else self._buffer() for _ in range(k)]
        return [b[:size].view(dtype)[:size].reshape(shape) for b in bufs]

    def _buffer(self) -> np.ndarray:
        b = np.empty(self.cells)
        self._own[id(b)] = b
        return b

    def give(self, *arrays):
        if any(id(a.base) not in self._own for a in arrays):
            raise ValueError("give(): an array that this workspace's take() did not hand out")
        self._free.extend(a.base for a in arrays)


def density(measure, theta):
    """Density of the measure with respect to dtheta, vectorized."""
    t = _check_theta(theta)
    return _density(np.sin(t), np.cos(t), _measure_series(measure))[()]


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
    grid, weight, nodes = _weighted_grid(measure, int(quadrature_points))
    return simpson_quadrature(_eval_u_at(int(m), nodes) * weight, grid[1] - grid[0])


@functools.lru_cache(maxsize=1)
def _weighted_grid(measure, quadrature_points: int) -> tuple:
    """The Simpson grid, the density on it and what eval_U reads of it
    (chebyshev._u_nodes), shared across the orders m."""
    grid = np.linspace(0.0, math.pi, 2 * quadrature_points + 1)
    return grid, density(measure, grid), _u_nodes(grid)


def _expectations(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E_q of the series sum_n coeffs[n] U_{2n}(cos theta) at every w = 1/q:
    U_{2n} integrates to q^{-n}, so each is the polynomial sum_n coeffs[n]
    w^n, by Horner, stopped at each norm's own precision.

    With j the first nonzero coefficient and S_n = max_{k>=n} |coeffs[k]|,
    a norm takes term n > j only while S_n w^{n-j} > 2^-60 (1 - w[0])
    |coeffs[j]|, and no term with q^n > e^690.  The rest it drops is then at
    most S_n w^n / (1 - w[0]) <= 2^-60 |coeffs[j]| w^j, within 2^-60 of
    sum_kept |coeffs[n]| w^n and well inside Horner's own rounding bound (or,
    at the cap, under S_n e^-690 / (1 - w[0])).  Each condition is one limit
    on log q per n; taken non-increasing in n, the limits make the norms that
    take term n a prefix of w, which must be non-increasing (norms
    ascending).  The loop starts at the last n whose prefix is non-empty, and
    a row outside a prefix starts from zero exactly when it enters.  Each
    step multiplies and adds in place on a view of the prefix: the bits of
    total[:k] * w[:k] + coeffs[n], with no temporary per step.  All-zero
    coefficients give zero rows.
    """
    if np.any(np.diff(w) > 0.0):
        raise ValueError("w must be non-increasing")
    total = np.zeros_like(w)
    mag = np.abs(coeffs)
    nonzero = np.flatnonzero(mag)
    if not (w.size and nonzero.size):
        return total
    j = nonzero[0]
    log_floor = math.log(mag[j]) + math.log1p(-w[0]) - 60.0 * math.log(2.0)
    tail = np.maximum.accumulate(mag[::-1])[::-1]
    limits = np.full(coeffs.size, np.inf)
    with np.errstate(divide="ignore"):
        limits[j + 1 :] = (np.log(tail[j + 1 :]) - log_floor) / np.arange(1, coeffs.size - j)
    limits[1:] = np.minimum(limits[1:], _LOG_UNDERFLOW / np.arange(1, coeffs.size))
    rows = np.searchsorted(-np.log(w), np.minimum.accumulate(limits), side="right")
    for n in range(np.count_nonzero(rows) - 1, -1, -1):
        head = total[: rows[n]]
        head *= w[: rows[n]]
        head += coeffs[n]
    return total


def _local_tail_length(q: float) -> int:
    # Largest n with q^{-n} >= _TAIL_EPS.
    return int(math.floor(-math.log(_TAIL_EPS) / math.log(q)))


@dataclass(frozen=True)
class _Series:
    """Hoisted factors of the cdf series at one norm or at a column of norms.

    The cdf is theta/pi + sum_k coeffs[k-1] sin(2 k theta), k = 1..N + 1,
    with coeffs[k-1] = (p_k - p_{k-1})/(2 pi k), p_0 = 1, p_n = q^{-n} for
    n <= N = _local_tail_length(q) and p_{N+1} = 0.  The density ratio to the
    limiting measure is fac/(qp - 4 cos^2 theta) with qp = q + 2 + 1/q and
    fac = q + 1.  The limiting measure has the one coefficient -1/(2 pi) and
    qp = fac = None (ratio 1).
    """

    coeffs: tuple = (-1.0 / math.tau,)
    qp: object = None
    fac: object = None

    def __getitem__(self, rows):  # the factors of some rows of a column series
        return _Series(tuple(a[rows] for a in self.coeffs), self.qp[rows], self.fac[rows])


def _powers(q: float) -> list:
    """q^{-n} for n = 1.._local_tail_length(q), by the scalar ** that every
    series uses: numpy's array power can differ from it by an ulp."""
    w = 1.0 / float(q)
    return [w**n for n in range(1, _local_tail_length(q) + 1)]


def _coeffs(powers) -> np.ndarray:
    """The series coefficients from the powers p_1..p_N of one norm, or of
    one norm a row."""
    powers = np.asarray(powers, dtype=np.float64)
    one = np.ones(powers.shape[:-1] + (1,))
    p = np.concatenate([one, powers, 0.0 * one], axis=-1)
    return np.diff(p, axis=-1) / (math.tau * np.arange(1, p.shape[-1]))


def _measure_series(measure) -> _Series:
    q = measure.q
    if math.isinf(q):
        return _Series()
    return _Series(tuple(_coeffs(_powers(q))), q + 2.0 + 1.0 / q, q + 1.0)


def _norm_runs(qs: np.ndarray) -> list:
    """(i0, i1, series) for each run qs[i0:i1] of the ascending norms qs that
    shares a series length, with the factors as (i1 - i0, 1) columns.

    The length never rises with q, so a run is one slice, and its end is
    found by bisection on the scalar length.  Its powers q^{-n} come from
    math.pow, the libm call of the scalar w**n (_powers), so row k of a
    run's series equals _measure_series(LocalMeasure(qs[i0 + k])) bit for bit.
    """
    runs, i0 = [], 0
    while i0 < qs.size:
        n = _local_tail_length(qs[i0])
        i1 = bisect.bisect_left(
            range(qs.size), True, lo=i0 + 1, key=lambda i: _local_tail_length(qs[i]) < n
        )
        q = qs[i0:i1, None]
        w = (1.0 / q[:, 0]).tolist()
        powers = np.empty((i1 - i0, n))
        for k in range(n):
            powers[:, k] = list(map(math.pow, w, itertools.repeat(k + 1.0)))
        coeffs = _coeffs(powers).T[:, :, None]
        runs.append((i0, i1, _Series(tuple(coeffs), q + 2.0 + 1.0 / q, q + 1.0)))
        i0 = i1
    return runs


def _density(sin_t, cos_t, series: _Series, ws: _Workspace = None):
    """The density (2/pi) sin^2 theta, times the ratio fac/(qp - 4 cos^2
    theta), given sin theta and cos theta."""
    shape = np.broadcast_shapes(np.shape(sin_t), np.shape(series.fac))
    ws = _Workspace(shape) if ws is None else ws
    [dens] = ws.take(shape)
    np.multiply(2.0 / math.pi, sin_t, out=dens)
    dens *= sin_t
    if series.fac is not None:
        [den] = ws.take(shape)
        np.multiply(4.0, cos_t, out=den)
        den *= cos_t
        dens *= series.fac
        dens /= np.subtract(series.qp, den, out=den)
        ws.give(den)
    return dens


def _cdf_series(theta, sin_t, cos_t, series: _Series, ws: _Workspace = None):
    """The local cdf theta/pi + sin(2 theta) b_1, given sin theta and cos theta.

    b_1 = sum_k a_k U_{k-1}(cos 2 theta), the sum of a_k sin(2 k theta) over
    sin(2 theta), by Clenshaw's recurrence b_k = a_k + 2 cos(2 theta) b_{k+1}
    - b_{k+2} (Clenshaw, MTAC 1955): three operations a term, into three
    buffers of the output's shape that the terms reuse.
    """
    *rest, last = series.coeffs
    shape = np.broadcast_shapes(np.shape(theta), np.shape(sin_t), np.shape(last))
    ws = _Workspace(shape) if ws is None else ws
    [c] = ws.take(np.shape(sin_t))
    np.multiply(4.0, sin_t, out=c)
    c *= sin_t
    np.subtract(2.0, c, out=c)
    b1, b2, t = ws.take(shape, 3)
    b1[...] = last
    b2.fill(0.0)
    for a in reversed(rest):
        np.multiply(c, b1, out=t)
        t -= b2
        t += a
        b1, b2, t = t, b1, b2
    ws.give(c)
    [out] = ws.take(shape)
    np.multiply(2.0, sin_t, out=t)  # 2 sin cos b_1, then theta/pi plus it
    t *= cos_t
    t *= b1
    np.divide(theta, math.pi, out=out)
    out += t
    ws.give(b1, b2, t)
    return out


def cdf(measure, theta):
    """Distribution function on [0, pi]; closed form, vectorized.

    The limiting measure has cdf theta/pi - sin(2 theta)/(2 pi).  The local
    cdf is the termwise integral of the density expansion,

        sum_n q^{-n} [ sin(2 n theta)/(2 n) - sin((2 n + 2) theta)/(2 n + 2) ] / pi

    (with the n = 0 term read as the limiting cdf), truncated geometrically
    and summed by sine frequency (_cdf_series).  Both endpoints are exact:
    cdf(0) = 0 and cdf(pi) = 1.
    """
    t = _check_theta(theta)
    return _cdf_series(t, np.sin(t), np.cos(t), _measure_series(measure))[()]


def _cdf_norms(runs: list, theta) -> np.ndarray:
    """cdf(LocalMeasure(q), theta) for every norm q of the runs (_norm_runs),
    one row per norm, bit for bit; theta is a row of angles.  One series
    call per run."""
    t = _check_theta(theta)
    sin_t, cos_t = np.sin(t), np.cos(t)
    return np.concatenate([_cdf_series(t, sin_t, cos_t, s) for _, _, s in runs])


def _guide_map(u, ws: _Workspace = None):
    """g(u) = (1 + cbrt u - cbrt(1 - u))/2, flat in the cubic tails of every cdf."""
    shape = np.shape(u)
    ws = _Workspace(shape) if ws is None else ws
    g, tmp = ws.take(shape, 2)
    np.cbrt(u, out=g)
    g += 1.0
    g -= np.cbrt(np.subtract(1.0, u, out=tmp), out=tmp)
    g *= 0.5
    ws.give(tmp)
    return g


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


def _bracket(table: np.ndarray, guide: np.ndarray, walk: int, rows, u, slopes, ws: _Workspace):
    """Cell index idx (int32) with table[row, idx - 1] < u <= table[row, idx],
    clipped to [1, n - 1], and those two values; rows broadcasts against u.
    Given a slope table of the table's shape, its two values at the cell ends
    follow.  Every gather takes mode="clip", which writes into its out
    directly (mode="raise" buffers it); the indices lie in range."""
    n = table.shape[-1]
    flat = table.ravel()
    base = rows * n
    shape = np.broadcast_shapes(np.shape(rows), np.shape(u))
    g = _guide_map(u, ws)
    g *= n - 1
    [at], [idx] = ws.take(shape, 1, np.intp), ws.take(shape, 1, np.int32)
    np.copyto(at, g, casting="unsafe")  # truncates, as astype(np.intp)
    at += base
    np.take(guide.ravel(), at, mode="clip", out=idx)
    [step] = ws.take(shape, 1, np.bool_)
    for _ in range(walk):
        np.add(base, idx, out=at)
        np.take(flat, at, mode="clip", out=g)
        np.less(g, u, out=step)
        idx += step
    sources = (flat,) if slopes is None else (flat, slopes.ravel())
    ends = ws.take(shape, 2 * len(sources))  # r_lo, r_hi[, m_lo, m_hi]
    np.add(base, idx, out=at)
    for src, hi in zip(sources, ends[1::2]):
        np.take(src, at, mode="clip", out=hi)
    at -= 1
    for src, lo in zip(sources, ends[::2]):
        np.take(src, at, mode="clip", out=lo)
    ws.give(g, at, step)
    return (idx, *ends)


def _grid_rows(series: _Series, ws: _Workspace = None):
    """The cdf and the slopes 1/f on _GRID, one row per norm of `series`.  The
    slopes are 0 at both ends, where f vanishes and only tail cells, which
    read no slope, begin or end."""
    shape = np.broadcast_shapes(_GRID.shape, np.shape(series.coeffs[-1]))
    ws = _Workspace(shape) if ws is None else ws
    table = _cdf_series(_GRID, _GRID_SIN, _GRID_COS, series, ws)
    dens = _density(_GRID_SIN[1:-1], _GRID_COS[1:-1], series, ws)
    [slopes] = ws.take(shape)
    slopes[..., [0, -1]] = 0.0
    np.divide(1.0, dens, out=slopes[..., 1:-1])
    ws.give(dens)
    return table, slopes


def _lerp(v, v0, v1, a, b, ws: _Workspace = None):
    """The linear start a + (v - v0)/max(v1 - v0, 1e-300) (b - a)."""
    shape = np.shape(v)
    ws = _Workspace(shape) if ws is None else ws
    out, tmp = ws.take(shape, 2)
    np.subtract(v, v0, out=out)
    out /= np.maximum(np.subtract(v1, v0, out=tmp), 1e-300, out=tmp)
    out *= np.subtract(b, a, out=tmp)
    out += a
    ws.give(tmp)
    return out


def _hermite(u, r_lo, r_hi, m_lo, m_hi, lo, ws: _Workspace):
    """Cubic Hermite inverse interpolation across the _GRID cells from lo,
    with slopes dtheta/du = m_lo, m_hi at the ends (Hormann & Leydold, ACM
    TOMACS 2003): the linear start lo + t _CELL, t the cell fraction of u,
    plus t (1 - t) ((1 - t) (h m_lo - _CELL) - t (h m_hi - _CELL)), where
    h = r_hi - r_lo."""
    h, t, s, theta = ws.take(u.shape, 4)
    np.subtract(u, r_lo, out=t)
    t /= np.subtract(r_hi, r_lo, out=h)
    np.subtract(1.0, t, out=s)
    np.multiply(h, m_lo, out=theta)  # s (h m_lo - _CELL)
    theta -= _CELL
    theta *= s
    np.multiply(h, m_hi, out=h)  # t (h m_hi - _CELL)
    h -= _CELL
    h *= t
    theta -= h
    theta *= s
    theta += _CELL
    theta *= t
    theta += lo
    ws.give(h, t, s)
    return theta


def _newton(theta, u, lo, hi, series: _Series, ws: _Workspace = None):
    """One Newton step on cdf(theta) = u, in place, clipped to [lo, hi] and
    skipped where the density is below 1e-12."""
    shape = theta.shape
    ws = _Workspace(shape) if ws is None else ws
    sin_t, cos_t = ws.take(shape, 2)
    np.sin(theta, out=sin_t)
    np.cos(theta, out=cos_t)
    dens = _density(sin_t, cos_t, series, ws)
    step = _cdf_series(theta, sin_t, cos_t, series, ws)
    step -= u
    [skip] = ws.take(shape, 1, np.bool_)
    np.logical_not(np.greater(dens, 1e-12, out=skip), out=skip)  # np.where's test, negated
    np.maximum(dens, 1e-12, out=dens)
    step /= dens
    np.copyto(step, 0.0, where=skip)
    theta -= step
    np.maximum(theta, lo, out=theta)  # np.clip's bits but for NaN and -0.0, about 4x faster
    np.minimum(theta, hi, out=theta)
    ws.give(sin_t, cos_t, dens, step, skip)
    return theta


def _invert(u, series: _Series, idx, r_lo, r_hi, m_lo=None, m_hi=None, *, ws: _Workspace):
    """Quantiles of u bracketed in the _GRID cells [_GRID[idx - 1], _GRID[idx]]
    of a cdf row whose values at the cell ends are r_lo and r_hi.  Node i of
    _GRID is i _CELL bit for bit, so the cell ends are products, not gathers.

    Given the slopes m_lo and m_hi (1/f at the cell ends, _grid_rows), the
    row is the cdf of `series` itself: the start is cubic Hermite inverse
    interpolation and one Newton step on `series` follows.  Otherwise the row
    is another measure's: the start is linear and two steps follow.  In the
    first and last _TAIL_CELLS cells, where the cdf is cubic in the distance
    to the endpoint, the start is linear in the cube roots of u and of the row
    values (of 1 - u and 1 - row near pi), and two steps follow either way.
    Each step is clipped to the cell and its two neighbours, inside [0, pi].
    theta is within 1e-12 rad of the root for u in [1e-11, 1 - 1e-5].

    The bracket's arrays go back to ws, the workspace of _bracket, and the
    angles come on one of its buffers.  Only the tail cells' arrays are new.
    """
    shape = u.shape
    [lo] = ws.take(shape)
    np.subtract(idx, 1.0, out=lo)
    lo *= _CELL
    if m_lo is None:
        [top] = ws.take(shape)
        np.multiply(idx, _CELL, out=top)
        theta = _lerp(u, r_lo, r_hi, lo, top, ws)
        ws.give(top)
    else:
        theta = _hermite(u, r_lo, r_hi, m_lo, m_hi, lo, ws)
        ws.give(m_lo, m_hi)
    tail, upper = ws.take(shape, 2, np.bool_)
    np.less_equal(idx, _TAIL_CELLS, out=tail)
    np.greater_equal(idx, _GRID.size - _TAIL_CELLS, out=upper)
    tail |= upper
    ends = np.nonzero(tail)
    ws.give(tail, upper)
    if ends[0].size:  # most tiles hit no tail cell
        v, k, v_lo, v_hi = u[ends], idx[ends], r_lo[ends], r_hi[ends]
        a, b = lo[ends], k * _CELL
        theta[ends] = np.where(
            k <= _TAIL_CELLS,
            _lerp(np.cbrt(v), np.cbrt(v_lo), np.cbrt(v_hi), a, b),
            _lerp(np.cbrt(1.0 - v), np.cbrt(1.0 - v_hi), np.cbrt(1.0 - v_lo), b, a),
        )
    ws.give(r_lo, r_hi)
    [hi] = ws.take(shape)
    np.subtract(idx, 2.0, out=lo)  # foot of the cell below, or 0
    np.maximum(lo, 0.0, out=lo)
    lo *= _CELL
    np.add(idx, 1.0, out=hi)  # top of the cell above, or pi
    np.minimum(hi, _GRID.size - 1, out=hi)
    hi *= _CELL
    ws.give(idx)
    theta = _newton(theta, u, lo, hi, series, ws)
    if m_lo is None:
        theta = _newton(theta, u, lo, hi, series, ws)
    if ends[0].size:  # the tail cells' second step; u = 0 and u = 1 bracket there
        last = theta[ends]
        if m_lo is not None:  # a column series' factors are (rows, 1) columns
            cut = series if np.ndim(series.fac) < 2 else series[ends[0], 0]
            last = _newton(last, v, lo[ends], hi[ends], cut)
        theta[ends] = np.where(v == 0.0, 0.0, np.where(v == 1.0, math.pi, last))
    ws.give(lo, hi)
    return theta


def quantile(measure, u):
    """Inverse of cdf: a 4097-point guide-table bracket, a cubic Hermite start
    and one Newton step; a cube-root start and two steps in the 32 cells at
    each end.

    |cdf(quantile(u)) - u| <= 1e-15 for every u in [0, 1], and for u in
    [1e-11, 1 - 1e-5] the angle is within 1e-12 rad of the root.
    quantile(0) = 0 and quantile(1) = pi exactly.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("u must lie in [0, 1]")
    u_flat = np.atleast_1d(u_arr).ravel()
    series = _measure_series(measure)
    table, slopes = _grid_rows(series)
    ws = _Workspace(u_flat.shape)
    bracket = _bracket(table, *_guide(table), 0, u_flat, slopes, ws)
    theta = _invert(u_flat, series, *bracket, ws=ws)
    return theta.reshape(u_arr.shape) if u_arr.shape else theta[0]


@dataclass
class _Inverter:
    """Bracket tables and series buckets of the smooth sampler.

    Ideals come sorted by norm, and the series length never rises with the
    norm, so each run of norms sharing a series length is a contiguous range
    of ideal rows.  Ideal row j reads cdf, guide and slope row rows[j] on
    _GRID: its norm's own row up to _SHARED_Q, the last row (the limit law's)
    past it, from ideal row `shared` on.  buckets list (k0, k1, series) per
    run, split at `shared`: ideal rows k0..k1 - 1 with their own series
    factors as (k, 1) columns that broadcast over members, inverted in tiles
    of about _TILE cells.  Rows before `shared` start from the slopes 1/f of
    their own cdf and take one Newton step, the rest two (_invert).  walk is
    the longest that a guide row needs.
    """

    rows: np.ndarray
    buckets: list
    cdf_table: np.ndarray
    guide: np.ndarray
    walk: int
    slopes: np.ndarray
    shared: int


def _inverter(qs, counts, runs) -> _Inverter:
    """Inverter for the ascending distinct norms qs and their runs
    (_norm_runs); counts[i] ideals have norm qs[i]."""
    own = int(np.searchsorted(qs, _SHARED_Q, side="right"))
    # cdf, guide and slope rows of the norms up to _SHARED_Q in chunks of
    # about _TILE cells, to bound the temporaries, then the limit law's row
    step = max(1, _TILE // _GRID.size)
    chunks = []
    for i0, i1, s in runs:
        for a in range(i0, min(i1, own), step):
            b = min(a + step, i1, own)
            chunks.append((a, b, s[a - i0 : b - i0]))
    chunks.append((own, own + 1, _Series()))
    table, slopes = np.empty((own + 1, _GRID.size)), np.empty((own + 1, _GRID.size))
    guide, walk = np.empty(table.shape, dtype=np.int32), 0
    ws = _Workspace((step, _GRID.size))
    for a, b, s in chunks:
        rows = _grid_rows(s, ws)
        table[a:b], slopes[a:b] = rows
        ws.give(*rows)
        guide[a:b], w = _guide(table[a:b])
        walk = max(walk, w)
    # every thread reads the tables
    table.flags.writeable = guide.flags.writeable = slopes.flags.writeable = False
    norm_of = np.repeat(np.arange(counts.size), counts)
    first = np.concatenate([[0], np.cumsum(counts)])  # first ideal row of each norm
    shared = int(first[own])
    buckets = [
        (k0, k1, s[norm_of[k0:k1] - i0])
        for i0, i1, s in runs
        for k0, k1 in ((first[i0], min(first[i1], shared)), (max(first[i0], shared), first[i1]))
        if k0 < k1
    ]
    return _Inverter(np.minimum(norm_of, own), buckets, table, guide, walk, slopes, shared)


def _angles(inv: _Inverter, rows: slice, series, u: np.ndarray, ws: _Workspace):
    """Angles for the uniforms u of the ideal rows `rows` of one bucket, whose
    series factors are `series`; rows before inv.shared read their slopes."""
    slopes = inv.slopes if rows.start < inv.shared else None
    bracket = _bracket(inv.cdf_table, inv.guide, inv.walk, inv.rows[rows, None], u, slopes, ws)
    return _invert(u, series, *bracket, ws=ws)

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
(_cdf_series, by Clenshaw's recurrence over sin 2k theta) and one inverter
(_invert).  Its start reads a table of the quantile in g(u) =
(1 + cbrt u - cbrt(1 - u))/2, in which it is analytic on [0, 1] and linear
near both ends, where the cdf is cubic: 128 cells uniform in g, in each a
cubic in the cell fraction (_angle_table).  Newton steps follow, with sin
theta and cos theta by angle addition from a node of the 4097-node _GRID
(_sin_cos_near), not from libm; cdf, density and the table build keep
libm's.  The sampler's tables (_inverter) hold the own rows of the norms
up to _SHARED_Q = 1e4, which take one Newton step, and one shared row, the
limit law's, for every norm past it, whose own two steps close the O(1/q)
gap.  The series factors of a norm q are built once,
from the scalar power q^{-n} (_powers): for one measure, or for a column of
ascending norms split into runs that share a series length (_norm_runs).
The inverter leaves |cdf(theta) - u| <= 1e-15 for every u in [0, 1], and
theta within 1e-12 rad of the root for u in [1e-11, 1 - 1e-5] (at most
5.1e-13 measured).  Nearer the ends the cdf's rounding moves the root by
more than that: near theta = 0 about 1e-20 against a density of 2e-8 at u =
1e-12, up to 1.3e-12 rad below u = 3.5e-12.

Every kernel of the inverter (_guide_map, _invert, _newton, _sin_cos_near,
_density, _cdf_series) writes into the arrays of a _Workspace, flat buffers
reused by liveness, with every arithmetic step in the order of the plain
expression it replaces.  The smooth sampler keeps one workspace per block
and inverts one tile of ideal rows at a time (_angles), so a tile allocates
nothing; cdf, density and quantile call the same kernels on a workspace
sized to their input.

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
# Grid of the Newton step's angle addition (_sin_cos_near), and its cell width.
_GRID = np.linspace(0.0, math.pi, 4097)
_GRID.flags.writeable = False
_CELL = math.pi / (_GRID.size - 1)
_GRID_SIN, _GRID_COS = np.sin(_GRID), np.cos(_GRID)
# Cells of a start table (_angle_table), uniform in g = _guide_map(u); in each
# the angle is a polynomial of degree _DEGREE in the cell fraction, fitted at
# the Chebyshev nodes _FRACTIONS (_FIT takes the node values to its
# coefficients).  The start lies within 4.4e-10 rad of the root.
_CELLS = 128
_DEGREE = 3
_FRACTIONS = (1.0 - np.cos((2 * np.arange(_DEGREE + 1) + 1) * math.pi / (2 * _DEGREE + 2))) / 2
_FIT = np.linalg.inv(_FRACTIONS[:, None] ** np.arange(_DEGREE + 1))
# Newton steps that take the node angles of a start table to the cdf's rounding.
_NODE_STEPS = 7
# Norms past this start from one shared row, the limit law's table: every
# local cdf lies within about 0.21/q of the limit law's, so each start lies
# within a _GRID cell of the root; x = 1e4 keeps every norm's own row.
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


def _guide_map(u, ws: _Workspace):
    """g(u) = (1 + cbrt u - cbrt(1 - u))/2, flat in the cubic tails of every cdf."""
    shape = np.shape(u)
    g, tmp = ws.take(shape, 2)
    np.cbrt(u, out=g)
    g += 1.0
    g -= np.cbrt(np.subtract(1.0, u, out=tmp), out=tmp)
    g *= 0.5
    ws.give(tmp)
    return g


def _angle_table(series: list) -> np.ndarray:
    """Start tables of the quantile in g = _guide_map(u), one row per norm of
    the series listed (each of one norm or a column of norms), as an array
    (_DEGREE + 1, rows, _CELLS) of the coefficients of each cell's
    polynomial in its cell fraction, lowest first.

    g(1 - u) = 1 - g(u) and every cdf here is symmetric about pi/2, so the
    angles at the nodes past g = 1/2 are pi minus those below it.  Those
    below it solve cdf(theta) = u at the u that g maps to the node: with
    a = cbrt u, b = cbrt(1 - u) and e = 2g - 1, s = a + b solves s^3 + 3 e^2
    s = 4 (Cardano).  Every density is increasing on [0, pi/2], so each cdf
    is convex there: from the start theta = cbrt(1.5 pi u), the limit law's
    root to leading order, a Newton step clipped to pi/2 lands at or above
    the root, and every later one descends to it.  _NODE_STEPS steps reach
    the rounding of the cdf from the farthest start, q = 2 near theta = 0.
    """
    g = (np.arange(_CELLS // 2)[:, None] + _FRACTIONS).ravel() / _CELLS
    e = 2.0 * g - 1.0
    r = np.sqrt(4.0 + e**6)
    u = ((np.cbrt(2.0 + r) - np.cbrt(e**6 / (2.0 + r)) + e) / 2.0) ** 3
    rows = []
    for s in series:
        theta = np.cbrt(1.5 * math.pi * u) + np.zeros(np.shape(s.coeffs[-1]))
        for _ in range(_NODE_STEPS):
            sin_t, cos_t = np.sin(theta), np.cos(theta)
            step = _cdf_series(theta, sin_t, cos_t, s) - u
            step /= _density(sin_t, cos_t, s)
            theta = np.minimum(theta - step, math.pi / 2)
        half = theta.reshape(-1, _CELLS // 2, _DEGREE + 1)
        rows.append(np.concatenate([half, math.pi - half[:, ::-1, ::-1]], axis=1))
    values = np.concatenate(rows)
    table = np.zeros((_DEGREE + 1,) + values.shape[:-1])
    for m, weights in enumerate(_FIT):  # one fixed order of adds, no BLAS
        for j, w in enumerate(weights):
            table[m] += w * values[..., j]
    return table


def _sin_cos_near(theta, node, ws: _Workspace):
    """sin theta and cos theta for theta within 3 _CELL of the _GRID nodes
    `node` (intp indices), by angle addition from the nodes' tabled sine S
    and cosine C: with d = theta - node _CELL, sin theta = S cos d + C sin d
    and cos theta = C cos d - S sin d, where sin d = d (1 - d^2/6 + d^4/120)
    and cos d = 1 - d^2/2 + d^4/24.  For |d| <= 3 _CELL the first dropped
    term is below 2^-60 of the kept one, so both lie within 2.2e-16 of libm's
    values.  Both come on buffers of ws."""
    d, d2, p, s_j, c_j = ws.take(theta.shape, 5)
    np.multiply(node, _CELL, out=d)  # node i of _GRID is i _CELL bit for bit
    np.subtract(theta, d, out=d)
    np.multiply(d, d, out=d2)
    np.multiply(d2, 1.0 / 120.0, out=p)  # sin d
    p -= 1.0 / 6.0
    p *= d2
    p += 1.0
    p *= d
    np.multiply(d2, 1.0 / 24.0, out=d)  # cos d
    d -= 0.5
    d *= d2
    d += 1.0
    np.take(_GRID_SIN, node, mode="clip", out=s_j)
    np.take(_GRID_COS, node, mode="clip", out=c_j)
    sin_t, cos_t = d2, d
    np.multiply(s_j, d, out=sin_t)
    cos_t *= c_j
    c_j *= p
    sin_t += c_j
    s_j *= p
    cos_t -= s_j
    ws.give(p, s_j, c_j)
    return sin_t, cos_t


def _newton(theta, u, node, hi, series: _Series, ws: _Workspace):
    """One Newton step on cdf(theta) = u, in place, clipped to [node _CELL,
    hi] and skipped where the density is below 1e-12.  theta lies within 3
    _CELL above the _GRID nodes `node`, whose tabled sine and cosine give
    its own (_sin_cos_near)."""
    shape = theta.shape
    sin_t, cos_t = _sin_cos_near(theta, node, ws)
    dens = _density(sin_t, cos_t, series, ws)
    step = _cdf_series(theta, sin_t, cos_t, series, ws)
    step -= u
    [skip] = ws.take(shape, 1, np.bool_)
    np.logical_not(np.greater(dens, 1e-12, out=skip), out=skip)  # np.where's test, negated
    np.maximum(dens, 1e-12, out=dens)
    step /= dens
    np.copyto(step, 0.0, where=skip)
    theta -= step
    np.multiply(node, _CELL, out=dens)  # the lower bound
    np.maximum(theta, dens, out=theta)  # np.clip's bits but for NaN and -0.0, about 4x faster
    np.minimum(theta, hi, out=theta)
    ws.give(sin_t, cos_t, dens, step, skip)
    return theta


def _invert(table: np.ndarray, rows, u, series: _Series, steps: int, ws: _Workspace):
    """Quantiles of u under `series`: a start from the rows `rows` of the
    start tables `table` (_angle_table), which broadcast against u, then
    `steps` Newton steps (_newton).  The start is the polynomial of cell
    floor(_CELLS g) at the cell fraction of g = _guide_map(u), from _DEGREE +
    1 gathers and _DEGREE Horner steps.  Each Newton step is clipped to the
    _GRID cell of the start and its two neighbours, inside [0, pi], and reads
    the sine and cosine of the lowest of their nodes; u = 0 maps to 0 and
    u = 1 to pi exactly.  Every gather takes mode="clip", which writes into
    its out directly (mode="raise" buffers it); the indices lie in range.
    The angles come on a buffer of ws."""
    shape = u.shape
    g = _guide_map(u, ws)
    g *= _CELLS
    at, node = ws.take(shape, 2, np.intp)
    np.copyto(at, g, casting="unsafe")  # truncates, as astype(np.intp)
    np.minimum(at, _CELLS - 1, out=at)  # g = 1 lies in the last cell
    g -= at
    at += rows * _CELLS
    flat = table.reshape(_DEGREE + 1, -1)
    theta, hi = ws.take(shape, 2)
    np.take(flat[-1], at, mode="clip", out=theta)
    for coeffs in flat[-2::-1]:
        theta *= g
        np.take(coeffs, at, mode="clip", out=hi)
        theta += hi
    ws.give(g, at)
    np.multiply(theta, 1.0 / _CELL, out=hi)
    np.copyto(node, hi, casting="unsafe")  # the start's cell
    node -= 1  # foot of the cell below, or node 0
    np.maximum(node, 0, out=node)
    np.add(node, 3.0, out=hi)  # top of the cell above, or pi
    np.minimum(hi, _GRID.size - 1, out=hi)
    hi *= _CELL
    for _ in range(steps):
        theta = _newton(theta, u, node, hi, series, ws)
    [end] = ws.take(shape, 1, np.bool_)
    np.copyto(theta, 0.0, where=np.equal(u, 0.0, out=end))
    np.copyto(theta, math.pi, where=np.equal(u, 1.0, out=end))
    ws.give(node, hi, end)
    return theta


def quantile(measure, u):
    """Inverse of cdf: a start from the measure's cubic table in g(u)
    (_angle_table) and one Newton step.

    |cdf(quantile(u)) - u| <= 1e-15 for every u in [0, 1], and for u in
    [1e-11, 1 - 1e-5] the angle is within 1e-12 rad of the root.
    quantile(0) = 0 and quantile(1) = pi exactly.
    """
    u_arr = np.asarray(u, dtype=np.float64)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("u must lie in [0, 1]")
    u_flat = np.atleast_1d(u_arr).ravel()
    series = _measure_series(measure)
    theta = _invert(_angle_table([series]), 0, u_flat, series, 1, _Workspace(u_flat.shape))
    return theta.reshape(u_arr.shape) if u_arr.shape else theta[0]


@dataclass
class _Inverter:
    """Start tables and series buckets of the smooth sampler.

    Ideals come sorted by norm, and the series length never rises with the
    norm, so each run of norms sharing a series length is a contiguous range
    of ideal rows.  Ideal row j starts from table row rows[j]
    (_angle_table): its norm's own row up to _SHARED_Q, the last row (the
    limit law's) past it, from ideal row `shared` on.  buckets list (k0, k1,
    series) per run, split at `shared`: ideal rows k0..k1 - 1 with their own
    series factors as (k, 1) columns that broadcast over members, inverted
    one tile at a time.  Rows before `shared` take one Newton
    step, the rest two (_angles).
    """

    rows: np.ndarray
    buckets: list
    table: np.ndarray
    shared: int


def _inverter(qs, counts, runs) -> _Inverter:
    """Inverter for the ascending distinct norms qs and their runs
    (_norm_runs); counts[i] ideals have norm qs[i]."""
    own = int(np.searchsorted(qs, _SHARED_Q, side="right"))
    table = _angle_table([s[: own - i0] for i0, _, s in runs if i0 < own] + [_Series()])
    table.flags.writeable = False  # every thread reads it
    norm_of = np.repeat(np.arange(counts.size), counts)
    first = np.concatenate([[0], np.cumsum(counts)])  # first ideal row of each norm
    shared = int(first[own])
    buckets = [
        (k0, k1, s[norm_of[k0:k1] - i0])
        for i0, i1, s in runs
        for k0, k1 in ((first[i0], min(first[i1], shared)), (max(first[i0], shared), first[i1]))
        if k0 < k1
    ]
    return _Inverter(np.minimum(norm_of, own), buckets, table, shared)


def _angles(inv: _Inverter, rows: slice, series, u: np.ndarray, ws: _Workspace):
    """Angles for the uniforms u of the ideal rows `rows` of one bucket, whose
    series factors are `series`: one Newton step on own rows, two on shared."""
    steps = 1 if rows.start < inv.shared else 2
    return _invert(inv.table, inv.rows[rows, None], u, series, steps, ws)

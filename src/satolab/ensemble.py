"""Independent-angle Monte Carlo model of a vertical family of forms.

Each ensemble member draws one angle per prime ideal of norm up to x,
independently across ideals and members, with the angle at a place of norm q
distributed by the local measure for that q.  The member statistic is either
a count of angles inside an arc (indicator mode) or a sum of a periodized
smooth weight of the normalized angle t = theta/pi (smooth mode).

Determinism contract: every variate is a pure function of
(seed, member_index, ideal_position), whatever tile draws it.  The indicator
counts an ideal by one test of the raw word against the cut points of F(a)
and F(b), built once per context (rng._range_test); the smooth statistic
inverts the uniforms from the local measures' start tables
(measures._angles).  Of the sampling, this module keeps only the tile loops
(_indicator_values, _member_values).

Both statistics keep one memory rule: a block holds tile buffers of a fixed
number of cells and one float64 total per member at any x.  A smooth tile
is ideal rows x members, 2 _TILE cells (32 rows of a 2,048-member block),
and every stage of it (the RNG words, the start, the Newton steps, the cdf
series, smooth_weight and the group sums) writes into one workspace
(measures._Workspace) with out=, so a tile allocates only its rows' table
offsets (and np.interp's results for a custom phi).  A smooth block peaks
at 11 buffers of 512 KiB, 5.5 MiB.
The workspace belongs to one _member_values call, so to one block on one
thread.  Each group of _ROWS ideal rows from its bucket's first row adds its
per-member weight sum to the totals in row order; _ROWS fixes that order.
An indicator tile is members x ideal rows, so only the member keys
broadcast, as one column, against contiguous rows of counter words and cut
points.  Its block allocates two uint64 buffers and one bool buffer of one
tile once, 0.53 MiB at most (by tracemalloc, with numpy's own buffers, 0.50
MiB for 2,048 members at x = 1e5 and 0.57 MiB at 1e6).  Its counts are whole
numbers, exact in float64 below 2^53, so they add in any order.  _TILE only
sizes tiles; member values go into an array indexed by member and only then
into moments, so reports are bit-identical under any blocking, tiling or
thread count.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .measures import (
    _angles,
    _cdf_norms,
    _expectations,
    _Inverter,
    _inverter,
    _local_tail_length,
    _norm_runs,
    _Workspace,
)
from .number_field import FieldSpec, LevelSpec, _exact_sum, norm_counts
from .rng import _derive, _range_test, member_keys, uniforms_at
from .selberg import ArcInterval, mu_infty_interval

__all__ = [
    "EnsembleConfig",
    "IndicatorStatistic",
    "MomentReport",
    "SmoothSpec",
    "SmoothStatistic",
    "gaussian_moment",
    "member_statistic",
    "run_ensemble",
    "smooth_weight",
]

# Members per work item; it moves no bit of the output.
_BLOCK = 2048
# Cells per cache-sized tile whose uniforms a sampler draws and consumes
# together; it moves no bit of the output.
_TILE = 2**15
# Ideal rows per group added into the member totals, from each bucket's first
# row; it fixes the summation order, so it moves the last bits of smooth output.
_ROWS = 16
_GAUSS_TAIL_LOG = 34.6  # exp(-34.6) ~ 9e-16, keeps the dropped tail < 1e-12
# Most shifts |m| a periodization may sum: past about 52 the gaussian weight
# is flat in double precision, as exp(-pi^2/(lam M^2)) underflows.
_MAX_WINDOW = 64


@dataclass(frozen=True)
class SmoothSpec:
    """Even rapidly-decaying weight Phi to be periodized.

    kind "gaussian" uses Phi(u) = exp(-lam u^2); kind "custom" interpolates a
    table of (u, value) samples on u >= 0, extended evenly and vanishing past
    the last knot, so its periodization truncates exactly.
    """

    kind: str = "gaussian"
    lam: float = 1.0
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("gaussian", "custom"):
            raise ConfigError("statistic.phi.kind", "expected 'gaussian' or 'custom'")
        if self.kind == "gaussian":
            lam = float(self.lam)
            if not math.isfinite(lam) or lam <= 0.0:
                raise ConfigError("statistic.phi.lambda", "decay rate must be positive")
            object.__setattr__(self, "lam", lam)
        else:
            knots = tuple((float(u), float(v)) for u, v in self.table)
            if len(knots) < 2:
                raise ConfigError("statistic.phi.table", "need at least two knots")
            us = [u for u, _ in knots]
            if us[0] != 0.0 or any(b <= a for a, b in zip(us, us[1:])):
                raise ConfigError(
                    "statistic.phi.table", "knots must start at 0 and increase"
                )
            if not all(math.isfinite(v) for _, v in knots):
                raise ConfigError("statistic.phi.table", "values must be finite")
            object.__setattr__(self, "table", knots)

    def phi_values(self, u, out=None):
        """Phi(u), vectorized; even in u by construction.  The gaussian forms
        in out when given; np.interp, which has no out, returns a new array."""
        uu = np.asarray(u, dtype=np.float64)
        if self.kind == "gaussian":
            out = np.multiply(-self.lam, uu, out=np.empty_like(uu) if out is None else out)
            out *= uu
            return np.exp(out, out=out)[()]
        us = np.array([k[0] for k in self.table])
        vs = np.array([k[1] for k in self.table])
        return np.interp(np.abs(uu, out=out), us, vs, right=0.0)


@dataclass(frozen=True)
class IndicatorStatistic:
    """Count of angles falling in the arc."""

    interval: ArcInterval

    def __post_init__(self):
        if not isinstance(self.interval, ArcInterval):
            raise ConfigError("statistic.interval", "expected an ArcInterval")


@dataclass(frozen=True)
class SmoothStatistic:
    """Sum of the periodized weight phi_M(theta/pi) over ideals."""

    phi: SmoothSpec
    M: float

    def __post_init__(self):
        if not isinstance(self.phi, SmoothSpec):
            raise ConfigError("statistic.phi", "expected a SmoothSpec")
        m = float(self.M)
        if not math.isfinite(m) or m < 1.0:
            raise ConfigError("statistic.M", "periodization scale must be >= 1")
        _truncation_window(self.phi, m)
        object.__setattr__(self, "M", m)


@dataclass(frozen=True)
class EnsembleConfig:
    """Full description of one Monte Carlo run."""

    field: FieldSpec
    level: LevelSpec
    x: float
    size: int
    seed: int
    statistic: object
    max_moment: int = 6

    def __post_init__(self):
        if not isinstance(self.field, FieldSpec):
            raise ConfigError("field", "expected a FieldSpec")
        if not isinstance(self.level, LevelSpec):
            raise ConfigError("level", "expected a LevelSpec")
        x = float(self.x)
        if not math.isfinite(x) or x < 2.0:
            raise ConfigError("x", "norm bound must be finite and >= 2")
        object.__setattr__(self, "x", x)
        if not isinstance(self.size, (int, np.integer)) or self.size < 1:
            raise ConfigError("size", "ensemble size must be a positive integer")
        object.__setattr__(self, "size", int(self.size))
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigError("seed", "seed must be an integer")
        object.__setattr__(self, "seed", int(self.seed))
        if not isinstance(self.statistic, (IndicatorStatistic, SmoothStatistic)):
            raise ConfigError("statistic", "expected indicator or smooth statistic")
        if not isinstance(self.max_moment, (int, np.integer)) or not (
            1 <= self.max_moment <= 12
        ):
            raise ConfigError("max_moment", "moment order cap must lie in 1..12")
        object.__setattr__(self, "max_moment", int(self.max_moment))


@dataclass(frozen=True)
class MomentReport:
    """Standardized-moment summary of one ensemble run.

    empirical_moments and ks_statistic use the limit-law standardization
    (center pi_L mu, scale sqrt(pi_L var)); the model_centered_* fields use
    the exact finite-x model mean instead of the limiting center, removing
    the O(loglog x) drift while keeping the same scale.  Histogram counts
    plus underflow and overflow always sum to size.  The fields before the
    histogram are in the order report.json prints them.
    """

    pi_L_x: int
    size: int
    center: float
    scale: float
    mean_model: float
    variance_model: float
    gaussian_targets: tuple
    empirical_moments: tuple
    standard_errors: tuple
    ks_statistic: float
    model_centered_moments: tuple
    model_centered_standard_errors: tuple
    model_centered_ks: float
    underflow: int
    overflow: int
    histogram_edges: tuple
    histogram_counts: tuple


def _truncation_window(spec: SmoothSpec, big_m: float) -> int:
    """Shifts |m| <= win for smooth_weight; a ConfigError past _MAX_WINDOW."""
    if spec.kind == "gaussian":
        key, reach, pad = "statistic.phi.lambda", math.sqrt(_GAUSS_TAIL_LOG / spec.lam) / big_m, 0
    else:  # compact support, plus one shift
        key, reach, pad = "statistic.phi.table", spec.table[-1][0] / big_m, 1
    if reach > _MAX_WINDOW - pad:
        msg = f"periodization needs over {_MAX_WINDOW} shifts at M = {big_m:g}"
        raise ConfigError(key, msg + "; raise M or narrow phi")
    return max(1, math.ceil(reach) + pad)


def smooth_weight(spec: SmoothSpec, big_m: float, t, ws: _Workspace = None):
    """Periodized weight phi_M(t) = sum over m of Phi(M (t + m)).

    The window |m| <= m_max keeps the dropped tail below 1e-12 uniformly for
    t in [0, 1]; the custom kind has compact support so its tail is exactly
    zero.  A window past _MAX_WINDOW is a ConfigError.  Vectorized in t; the
    sum and its two temporaries are on buffers of ws when given.
    """
    m_val = float(big_m)
    if not math.isfinite(m_val) or m_val < 1.0:
        raise ValueError("periodization scale M must be >= 1")
    tt = np.asarray(t, dtype=np.float64)
    win = _truncation_window(spec, m_val)
    ws = _Workspace(tt.shape) if ws is None else ws
    acc, shifted, phi = ws.take(tt.shape, 3)
    acc.fill(0.0)
    for m in range(-win, win + 1):
        np.add(tt, m, out=shifted)
        shifted *= m_val
        acc += spec.phi_values(shifted, out=phi)
    ws.give(shifted, phi)
    return acc if tt.shape else float(acc)


def gaussian_moment(r: int) -> float:
    """Moments of the standard normal: 0 odd, r!/(2^{r/2} (r/2)!) even."""
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError("moment order must be a nonnegative integer")
    if r % 2 == 1:
        return 0.0
    half = r // 2
    return float(math.factorial(r) // (2**half * math.factorial(half)))


@dataclass
class _Context:
    """What the sampler needs of one (field, level, x, statistic).

    An indicator member counts the ideal at row i of words, low and width,
    the rows that rng._range_test keeps, when (w - low[i]) mod 2^64 <=
    width[i] for its word w there.  A smooth member inverts through
    `inverter` and weighs by `spec` at scale big_m.
    """

    pi_L_x: int
    center: float
    scale: float
    mean_model: float
    variance_model: float
    words: np.ndarray = None
    low: np.ndarray = None
    width: np.ndarray = None
    inverter: _Inverter = None
    spec: SmoothSpec = None
    big_m: float = 0.0


def _smooth_profile(spec: SmoothSpec, big_m: float, n_max: int):
    """Expansion coefficients of phi_M(theta/pi) and its square in U_{2n},
    n = 0..n_max, exact in double precision, and the variance of phi_M under
    the limit law: coef_g[0] - coef_f[0]^2, read as 0.0 below 1e-12 coef_g[0],
    where it is the rounding noise of a weight flat in double precision.

    U_{2n}(cos theta) sin^2 theta = (cos 2n theta - cos (2n + 2) theta)/2, so
    coef_f[n] = c[n] - c[n + 1] and coef_g[n] = b[n] - b[n + 1], where c[k] and
    b[k] integrate phi_M(t) and phi_M(t)^2 against cos(2 pi k t) over [0, 1].

    Gaussian, by Poisson summation: c[k] = sqrt(pi/lam)/M exp(-pi^2 k^2/s) with
    s = lam M^2.  Pairing the shifts m, m' of phi_M^2 by d = m - m' gives
    phi_M^2(t) = sum_d exp(-s d^2/2) psi(t + d/2), with psi the periodization of
    exp(-2 lam u^2), so b[k] = sqrt(pi/(2 lam))/M exp(-pi^2 k^2/(2 s)) times
    sum_d (-1)^{kd} exp(-s d^2/2).  The window bound keeps s >= 34.6/64^2, so
    the d-sum has at most 420 terms before it underflows.

    Custom: phi_M is linear between its breakpoints, the knots u_j/M mod 1 and
    their mirror images; 8 Gauss-Legendre nodes on each piece, cut to width at
    most 1/(4 max(n_max + 1, 64)), leave under 1e-19 relative.  No node falls
    on a breakpoint, so a jump at the last knot is taken by its one-sided
    limits.  Up to n_max = 63, past every series length, the cuts do not
    depend on n_max, so coef_f[0] and coef_g[0] are the same bits for any n_max.
    """
    k = np.arange(n_max + 2)
    if spec.kind == "gaussian":
        s = spec.lam * big_m * big_m
        c = math.sqrt(math.pi / spec.lam) / big_m * np.exp(-(math.pi**2 / s) * k * k)
        d = np.arange(1, math.ceil(math.sqrt(1490.0 / s)) + 1)  # exp(-745) underflows
        w = np.exp(-0.5 * s * d * d)
        even, odd = 1.0 + 2.0 * math.fsum(w), 1.0 + 2.0 * math.fsum(np.where(d % 2, -w, w))
        b = math.sqrt(0.5 * math.pi / spec.lam) / big_m * np.exp(-(0.5 * math.pi**2 / s) * k * k)
        b = b * np.where(k % 2, odd, even)
    else:
        # imported here: numpy.polynomial adds 0.7 MB to every process
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(8)
        knots = np.array([u for u, _ in spec.table]) / big_m % 1.0
        even_cuts = np.linspace(0.0, 1.0, 4 * max(n_max + 1, 64) + 1)
        cuts = np.unique(np.concatenate([knots, 1.0 - knots, even_cuts]))
        mid, half = (cuts[1:] + cuts[:-1]) / 2, (cuts[1:] - cuts[:-1]) / 2
        t = (mid[:, None] + half[:, None] * nodes).ravel()
        phi = smooth_weight(spec, big_m, t)
        wf = (half[:, None] * weights).ravel() * phi
        cosines = np.cos((2.0 * math.pi) * k[:, None] * t)
        # row sums add pairwise, where a matrix product adds in one long chain
        c, b = (cosines * wf).sum(axis=1), (cosines * (wf * phi)).sum(axis=1)
    coef_f, coef_g = c[:-1] - c[1:], b[:-1] - b[1:]
    v = max(float(coef_g[0] - coef_f[0] ** 2), 0.0)
    return coef_f, coef_g, (v if v >= 1e-12 * coef_g[0] else 0.0)


@lru_cache(maxsize=4)
def _build_context(fs, level, x, statistic) -> _Context:
    qs, counts = norm_counts(fs, x, level)
    if not qs.size:
        raise ConfigError("x", "no prime ideals of norm <= x; increase x")
    count = int(counts.sum())
    runs = _norm_runs(qs)

    if isinstance(statistic, IndicatorStatistic):
        interval = statistic.interval
        mu = mu_infty_interval(interval)
        a_u, b_u = _cdf_norms(runs, [interval.a, interval.b]).T
        mass = b_u - a_u
        words, low, width = _range_test(np.repeat(a_u, counts), np.repeat(b_u, counts))
        return _Context(
            pi_L_x=count,
            center=count * mu,
            scale=math.sqrt(count * max(mu * (1.0 - mu), 0.0)),
            mean_model=_exact_sum(counts * mass),
            variance_model=_exact_sum(counts * mass * (1.0 - mass)),
            words=words,
            low=low,
            width=width,
        )

    spec = statistic.phi
    big_m = statistic.M
    # to the series length of the smallest norm, the longest
    coef_f, coef_g, v_weight = _smooth_profile(spec, big_m, _local_tail_length(qs[0]))
    # E_q[phi_M] and E_q[phi_M^2] at every distinct norm
    m_q, s_q = _expectations(coef_f, 1.0 / qs), _expectations(coef_g, 1.0 / qs)
    return _Context(
        pi_L_x=count,
        center=count * float(coef_f[0]),
        scale=math.sqrt(count * v_weight),
        mean_model=_exact_sum(counts * m_q),
        variance_model=_exact_sum(counts * (s_q - m_q * m_q)),
        inverter=_inverter(qs, counts, runs),
        spec=spec,
        big_m=big_m,
    )


def _context(config: EnsembleConfig) -> _Context:
    return _build_context(config.field, config.level, config.x, config.statistic)


def _add_groups(total: np.ndarray, phi: np.ndarray, ws: _Workspace):
    """Add one tile's weights phi (members x rows) into total: each group of
    _ROWS rows sums its values, then the groups add in row order, through
    the running adds of a cumsum."""
    members, width = phi.shape
    groups, rest = divmod(width, _ROWS)
    full = groups * _ROWS
    sums, run = ws.take((members, 1 + groups + (rest > 0)), 2)
    sums[:, 0] = total
    np.sum(phi[:, :full].reshape(members, groups, _ROWS), axis=2, out=sums[:, 1 : 1 + groups])
    if rest:
        np.sum(phi[:, full:], axis=1, out=sums[:, -1])
    np.cumsum(sums, axis=1, out=run)
    total[:] = run[:, -1]
    ws.give(sums, run)


def _indicator_values(ctx: _Context, keys: np.ndarray) -> np.ndarray:
    """Indicator counts for the members keyed by `keys`, in tiles of members
    x ideal rows: each tile adds its rows' counts, whole and exact in
    float64 below 2^53, to the totals.  Only the keys broadcast, as one
    column, against contiguous rows of counter words, L and W; a tile has
    at most _TILE cells, on three buffers allocated once."""
    words, low, width = ctx.words, ctx.low, ctx.width
    members, rows = keys.size, words.size
    total = np.zeros(members)
    if not rows:
        return total
    m, r = max(1, min(members, _TILE // rows)), min(rows, _TILE)
    bits, tmp = np.empty((2, m, r), dtype=np.uint64)
    inside, count = np.empty((m, r), dtype=np.bool_), np.empty(m, np.min_scalar_type(r))
    for i in range(0, members, m):
        key = keys[i : i + m, None]
        n = key.shape[0]
        for a in range(0, rows, r):
            s = slice(a, min(a + r, rows))
            w = s.stop - s.start
            word, hit = _derive(key, words[s], bits[:n, :w], tmp[:n, :w]), inside[:n, :w]
            word -= low[s]
            np.less_equal(word, width[s], out=hit)
            total[i : i + n] += np.add.reduce(hit.view(np.uint8), axis=1, out=count[:n])
    return total


def _member_values(ctx: _Context, keys: np.ndarray) -> np.ndarray:
    """Statistics for the members keyed by `keys`.  The indicator counts by
    _indicator_values; the smooth statistic goes one tile of ideal rows x
    members at a time, every tile on one workspace of the largest tile's
    size."""
    inv, members = ctx.inverter, keys.size
    if inv is None:
        return _indicator_values(ctx, keys)
    total, row = np.zeros(members), keys[None, :]
    # 2 _TILE cells a tile: half the numpy calls of a block, each of which
    # hands the interpreter lock across when blocks run on two threads
    step = max(1, 2 * _TILE // (_ROWS * members)) * _ROWS
    ws = _Workspace((step, members))
    for k0, k1, series in inv.buckets:
        for a in range(k0, k1, step):
            s = slice(a, min(a + step, k1))
            shape = (s.stop - s.start, members)
            u, bits = ws.take(shape, 2)
            uniforms_at(row, np.arange(s.start, s.stop)[:, None], u, bits.view(np.uint64))
            ws.give(bits)
            theta = _angles(inv, s, series[a - k0 : s.stop - k0], u, ws)
            # t = theta/pi one contiguous row per member, for the group sums
            [t] = ws.take(shape[::-1])
            np.multiply(theta.T, 1.0 / math.pi, out=t)
            ws.give(u, theta)
            phi = smooth_weight(ctx.spec, ctx.big_m, t, ws)
            _add_groups(total, phi, ws)
            ws.give(t, phi)
    return total


def member_statistic(config: EnsembleConfig, member_index: int) -> float:
    """Statistic of one member; a pure function of (seed, member_index)."""
    if not 0 <= int(member_index) < config.size:
        raise ValueError("member_index must lie in [0, size)")
    ctx = _context(config)
    keys = member_keys(config.seed, np.asarray([int(member_index)], dtype=np.uint64))
    return float(_member_values(ctx, keys)[0])


def _jackknife_se(values: np.ndarray) -> float:
    """Delete-one jackknife error of the sample mean, in its closed form
    std/sqrt(n) with the n-1 convention; 0.0 below two values."""
    n = values.size
    return float(np.std(values, ddof=1)) / math.sqrt(n) if n >= 2 else 0.0


def _ks_to_normal(y: np.ndarray) -> float:
    """Two-sided sup distance between the empirical cdf and the normal cdf."""
    ys = np.sort(y)
    n = ys.size
    # the normal cdf 0.5 erfc(-y/sqrt 2), within an ulp of scipy.special.ndtr,
    # through lists of 2^16 values at a time
    root2, gap, step = math.sqrt(2.0), 0.0, 2**16
    for a in range(0, n, step):
        f = np.array([0.5 * math.erfc(-v / root2) for v in ys[a : a + step].tolist()])
        i = np.arange(a, a + f.size)
        gap = max(gap, float(np.max((i + 1) / n - f)), float(np.max(f - i / n)))
    return gap


def run_ensemble(config: EnsembleConfig, threads: int = 1) -> MomentReport:
    """Sample the full ensemble and summarize standardized moments.

    The member loop may run on any number of threads; per-member values are
    computed independently and written into one array indexed by member, so
    the report is bit-identical for a fixed seed regardless of scheduling.
    """
    if config.size < 100:
        raise ConfigError("size", "moment reports require size >= 100")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    ctx = _context(config)
    if not ctx.scale > 0.0:
        raise ConfigError(
            "statistic", "statistic is degenerate: zero variance under the limit law"
        )
    total = config.size
    values = np.empty(total, dtype=np.float64)

    def fill(span):
        i0, i1 = span
        keys = member_keys(config.seed, np.arange(i0, i1, dtype=np.uint64))
        values[i0:i1] = _member_values(ctx, keys)

    spans = [(i, min(i + _BLOCK, total)) for i in range(0, total, _BLOCK)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, spans))

    y = (values - ctx.center) / ctx.scale
    y_model = (values - ctx.mean_model) / ctx.scale
    orders = range(1, config.max_moment + 1)
    # each power once, for its moment and for that moment's error
    (moments, errors), (m_moments, m_errors) = (
        zip(*((float(np.mean(p)), _jackknife_se(p)) for p in (z**r for r in orders)))
        for z in (y, y_model)
    )
    edges = np.linspace(-5.0, 5.0, 61)
    counts = np.histogram(y, bins=edges)[0]
    return MomentReport(
        empirical_moments=moments,
        standard_errors=errors,
        gaussian_targets=tuple(gaussian_moment(r) for r in orders),
        ks_statistic=_ks_to_normal(y),
        histogram_edges=tuple(float(e) for e in edges),
        histogram_counts=tuple(int(c) for c in counts),
        underflow=int(np.count_nonzero(y < -5.0)),
        overflow=int(np.count_nonzero(y > 5.0)),
        pi_L_x=ctx.pi_L_x,
        mean_model=ctx.mean_model,
        variance_model=ctx.variance_model,
        center=ctx.center,
        scale=ctx.scale,
        model_centered_moments=m_moments,
        model_centered_standard_errors=m_errors,
        model_centered_ks=_ks_to_normal(y_model),
        size=total,
    )

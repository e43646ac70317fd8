"""Ensemble sampler: oracles against the bisection quantile, model-mean
identities, determinism contracts, and the trace-identity closed form."""
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import stats

from oracles import bisection_quantile, searchsorted_bracket, trace_identity_check
from satolab import ensemble
from satolab.chebyshev import simpson_quadrature
from satolab.ensemble import (
    EnsembleConfig,
    IndicatorStatistic,
    SmoothSpec,
    SmoothStatistic,
    _context,
    _jackknife_se,
    _ks_to_normal,
    _member_values,
    _smooth_profile,
    gaussian_moment,
    member_statistic,
    run_ensemble,
    smooth_weight,
)
from satolab.errors import ConfigError
from satolab.measures import (
    _GRID,
    _SHARED_Q,
    LocalMeasure,
    _Workspace,
    _angles,
    _bracket,
    _cdf_norms,
    _guide,
    _inverter,
    _measure_series,
    _norm_runs,
    cdf,
    density,
    quantile,
)
from satolab.number_field import (
    FieldSpec,
    LevelSpec,
    enumerate_prime_ideals,
    norm_counts,
    split_prime,
)
from satolab.rng import _range_test, counter_words, member_keys, uniform_matrix, uniforms_at
from satolab.selberg import ArcInterval

Q5 = FieldSpec.real_quadratic(5)
NO_LEVEL = LevelSpec.empty()
QUARTER_ARC = ArcInterval(math.pi / 4, math.pi / 2)


def _indicator_config(x=1000.0, size=400, seed=20260816, interval=QUARTER_ARC):
    return EnsembleConfig(
        field=Q5,
        level=NO_LEVEL,
        x=x,
        size=size,
        seed=seed,
        statistic=IndicatorStatistic(interval),
    )


def _member_oracle(config, member_index, weight=None):
    """Member statistic recomputed through the bisection quantile."""
    ideals = enumerate_prime_ideals(config.field, config.x, config.level)
    key = member_keys(config.seed, np.asarray([member_index]))[0]
    u = uniforms_at(key, np.arange(len(ideals)))
    total = 0.0
    for j, ideal in enumerate(ideals):
        theta = float(bisection_quantile(LocalMeasure(ideal.norm), u[j]))
        if weight is None:
            stat = config.statistic
            total += 1.0 if stat.interval.a <= theta <= stat.interval.b else 0.0
        else:
            total += weight(theta)
    return total


def test_member_statistic_full_arc_counts_everything():
    # indicator over the whole angle range fires on every ideal
    cfg = _indicator_config(x=300.0, size=100, interval=ArcInterval(0.0, math.pi))
    count = len(enumerate_prime_ideals(Q5, 300.0))
    for i in (0, 7, 99):
        assert member_statistic(cfg, i) == float(count)


def test_member_statistic_vanishing_arc():
    tiny = ArcInterval(math.pi / 2, math.pi / 2 + 1e-12)
    cfg = _indicator_config(x=500.0, size=200, interval=tiny)
    assert all(member_statistic(cfg, i) == 0.0 for i in range(32))


def test_member_statistic_matches_quantile_oracle():
    cfg = _indicator_config(x=1000.0, size=120)
    for i in (0, 3, 57, 119):
        assert member_statistic(cfg, i) == _member_oracle(cfg, i)


def test_smooth_member_matches_quantile_oracle():
    spec = SmoothSpec(kind="gaussian", lam=1.0)
    cfg = EnsembleConfig(
        field=Q5,
        level=NO_LEVEL,
        x=500.0,
        size=150,
        seed=3,
        statistic=SmoothStatistic(phi=spec, M=4.0),
    )
    for i in (0, 11, 149):
        want = _member_oracle(
            cfg, i, weight=lambda th: float(smooth_weight(spec, 4.0, th / math.pi))
        )
        # fast table inversion vs 42-step bisection, accumulated over ideals
        assert member_statistic(cfg, i) == pytest.approx(want, abs=1e-9)


def test_member_values_independent_of_batching():
    def smooth(phi, x, size):
        statistic = SmoothStatistic(phi=phi, M=4.0)
        return EnsembleConfig(
            field=Q5, level=NO_LEVEL, x=x, size=size, seed=20260816, statistic=statistic
        )

    gaussian = SmoothSpec(kind="gaussian", lam=1.0)
    custom = SmoothSpec(kind="custom", table=((0.0, 1.0), (0.5, 0.4), (1.0, 0.0)))
    small = ((0, 1), (1, 10), (10, 37), (37, 64))
    # x = 3e4 spans several series buckets and the shared row past _SHARED_Q
    large = ((0, 1), (1, 77), (77, 299), (299, 300))
    cases = (
        (_indicator_config(size=64), small, (41,)),
        (smooth(gaussian, 400.0, 64), small, (41,)),
        (smooth(gaussian, 3e4, 300), large, (0, 76, 77, 298, 299)),
        (smooth(custom, 3e4, 300), large, (0, 76, 77, 298, 299)),
    )
    for cfg, batches, members in cases:
        ctx = _context(cfg)
        keys = member_keys(cfg.seed, np.arange(cfg.size, dtype=np.uint64))
        whole = _member_values(ctx, keys)
        pieces = np.concatenate([_member_values(ctx, keys[a:b]) for a, b in batches])
        assert np.array_equal(whole, pieces), cfg
        for i in members:
            assert member_statistic(cfg, i) == whole[i], (cfg, i)


def _unit_inverter(qs):
    """Inverter for one ideal at each of the ascending norms qs."""
    return _inverter(qs, np.ones(qs.size, dtype=int), _norm_runs(qs))


def _invert_matrix(inv, up):
    """Angles of a whole ideal-major uniform matrix, one bucket at a time."""
    theta = np.empty_like(up)
    for k0, k1, series in inv.buckets:
        u = up[k0:k1]
        theta[k0:k1] = _angles(inv, slice(k0, k1), series, u, _Workspace(u.shape))
    return theta


def _worst_angle_error(x, members):
    """The inverter at norm bound x, and the largest |inverted angle - bisection
    quantile| over `members` members."""
    cfg = EnsembleConfig(
        field=Q5,
        level=NO_LEVEL,
        x=x,
        size=100,
        seed=1,
        statistic=SmoothStatistic(phi=SmoothSpec(kind="gaussian", lam=2.0), M=2.0),
    )
    inv = _context(cfg).inverter
    ideals = enumerate_prime_ideals(Q5, x)
    keys = member_keys(cfg.seed, np.arange(members, dtype=np.uint64))
    up = uniforms_at(keys[None, :], np.arange(len(ideals))[:, None])
    theta = _invert_matrix(inv, up)
    assert np.all((theta >= 0.0) & (theta <= math.pi))
    norms = np.array([ideal.norm for ideal in ideals], dtype=np.float64)
    worst = 0.0
    for q in np.unique(norms):
        at = norms == q
        slow = bisection_quantile(LocalMeasure(q), up[at])
        worst = max(worst, float(np.max(np.abs(theta[at] - slow))))
    return inv, worst


def test_fast_inversion_agrees_with_quantile():
    inv, worst = _worst_angle_error(400.0, 40)
    assert inv.cdf_table.shape[1] == 4097
    assert worst < 1e-9


def test_invert_matrix_residual_at_rounding_level():
    # own rows: a Hermite start and one Newton step, two steps in tail cells
    qs = np.array([2.0, 4.0, 9973.0])
    inv = _unit_inverter(qs)
    assert inv.shared == qs.size
    up = np.random.default_rng(31).random((qs.size, 200_000))
    theta = _invert_matrix(inv, up)
    for q, row, u in zip(qs, theta, up):
        assert np.max(np.abs(cdf(LocalMeasure(q), row) - u)) <= 1e-15, q


def test_sampler_own_rows_are_quantile_bit_for_bit():
    # the sampler's own rows and quantile run one set of kernels, on
    # workspaces of a tile's and of the input's shape: the angles agree with ==.
    # Random u reach the 32 tail cells at about 3e-6 per end, so TAIL_US
    # joins each row: there the second step reads a column series' factors,
    # in buckets of two rows at 47, 49 and at 9967, 9973
    qs = np.array([2.0, 3.0, 4.0, 9.0, 47.0, 49.0, 9967.0, 9973.0])
    draws = np.random.default_rng(25).random((qs.size, 50_000))
    up = np.concatenate([draws, np.tile(TAIL_US, (qs.size, 1))], axis=1)
    theta = _invert_matrix(_unit_inverter(qs), up)
    for q, row, u in zip(qs, theta, up):
        assert np.array_equal(row, quantile(LocalMeasure(q), u)), q


def test_shared_row_inversion_agrees_with_quantile():
    # norms past 1e4 bracket in the limit law's row, off by up to 2.1e-5 in
    # F; their own two Newton steps keep angles at rounding level
    inv, worst = _worst_angle_error(4e4, 4)
    assert np.any(inv.rows == inv.cdf_table.shape[0] - 1)
    assert worst < 1e-12


# Tail inputs: a geometric grid in [1e-12, 1e-3], its mirror down to
# 1 - 1e-5, 400 points in [1e-11, 1e-9], where the oracle distance is
# largest, and the extreme points.  Angles are compared with the oracle only
# on [1e-11, 1 - 1e-5]: near theta = 0 the cdf's rounding, about 1e-20
# against a density of 2e-8 at u = 1e-12, moves the root by up to 1.3e-12
# below u = 3.5e-12, and by at most 7.2e-13 from 1e-11 up.
_GEOM = np.geomspace(1e-12, 1e-3, 37)
TAIL_US = np.concatenate(
    [
        _GEOM,
        1.0 - _GEOM[_GEOM >= 1e-5],
        np.geomspace(1e-11, 1e-9, 400),
        [0.0, 1e-300, 1e-17, 2.0**-53, 1.0 - 2.0**-53, 1.0],
    ]
)
_ANGLE_CHECKED = (TAIL_US >= 1e-11) & (TAIL_US <= 1.0 - 1e-5)
# Just past 1e4, where norms first read the shared limit-law row, the Newton
# start is furthest from the root.
TAIL_QS = (2.0, 3.0, 9.0, 10007.0, 1e5, 1e8)


def _tail_errors(measure, theta):
    """(max |cdf(theta) - u|, max angle error against the oracle) on TAIL_US."""
    resid = float(np.max(np.abs(cdf(measure, theta) - TAIL_US)))
    want = bisection_quantile(measure, TAIL_US[_ANGLE_CHECKED])
    return resid, float(np.max(np.abs(theta[_ANGLE_CHECKED] - want)))


def test_inversion_exact_in_the_tails():
    # in the first and last cells F ~ A theta^3; a linear start there ends two
    # Newton steps up to 4e-4 rad and 1.7e-10 in F away from the root
    for measure in [LocalMeasure(q) for q in (math.inf, *TAIL_QS)]:
        resid, err = _tail_errors(measure, quantile(measure, TAIL_US))
        assert resid <= 1e-15 and err <= 1e-12, (measure, resid, err)
    qs = np.array(TAIL_QS)
    inv = _unit_inverter(qs)
    theta = _invert_matrix(inv, np.tile(TAIL_US, (qs.size, 1)))
    assert np.all((theta >= 0.0) & (theta <= math.pi))
    for q, row in zip(qs, theta):
        resid, err = _tail_errors(LocalMeasure(q), row)
        assert resid <= 1e-15 and err <= 1e-12, (q, resid, err)


def test_guide_bracket_matches_binary_search():
    # one guide gather and the computed walk land on the binary-search cell,
    # bit for bit, at random draws, at every table node and its neighbours,
    # and at the extreme uniforms, on the own rows and on the shared row
    qs = np.array([2.0, 3.0, 9.0, 49.0, 1e5, 1e8])
    rng = np.random.default_rng(6)
    inv = _unit_inverter(qs)
    assert inv.walk <= 2
    for row, table in enumerate(inv.cdf_table):
        u = np.concatenate(
            [
                rng.random(20_000),
                table,
                np.nextafter(table, 0.0),
                np.nextafter(table, 1.0),
                [0.0, 1e-300, 2.0**-53, 1.0 - 2.0**-53, 1.0],
            ]
        )
        got = _bracket(inv.cdf_table, inv.guide, inv.walk, row, u, None, _Workspace(u.shape))
        want = searchsorted_bracket(table, u)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), row


def test_bracket_table_rows_match_scalar_cdf_and_row_guides():
    # the inverter builds its cdf table by one series pass per chunk of rows
    # and run of series lengths, and its guide rows by one bincount per
    # chunk; each row equals the scalar cdf on the grid and the guide of that
    # row alone, bit for bit (norms from 2, with 46 terms, up).  Norms up to
    # 1e4 read their own row, every larger norm the last row, the limit
    # law's cdf.  The Newton series of every ideal row, shared row or not,
    # equals that of its scalar measure bit for bit: one power path, not
    # numpy's array power, which can differ by an ulp
    qs, counts = norm_counts(Q5, 2e4)
    norms = np.repeat(qs, counts)
    inv = _inverter(qs, counts, _norm_runs(qs))
    own = qs[qs <= _SHARED_Q]
    assert inv.cdf_table.shape == (own.size + 1, _GRID.size)
    walks = []
    for q, table, guide in zip([*own, math.inf], inv.cdf_table, inv.guide):
        assert np.array_equal(table, cdf(LocalMeasure(q), _GRID)), q
        row_guide, walk = _guide(table)
        assert np.array_equal(guide, row_guide), q
        walks.append(walk)
    assert inv.walk == max(walks)
    past = norms > _SHARED_Q
    assert past.any() and np.all(inv.rows[past] == own.size)
    assert np.array_equal(qs[inv.rows[~past]], norms[~past])
    # buckets split where the shared row begins, so each takes one step rule
    assert inv.shared == np.count_nonzero(~past)
    for k0, k1, series in inv.buckets:
        assert k1 <= inv.shared or k0 >= inv.shared, (k0, k1)
        for k in range(k0, k1):
            want = _measure_series(LocalMeasure(norms[k]))
            got = series[k - k0]
            assert np.array_equal([a[0] for a in got.coeffs], want.coeffs), k
            assert (got.qp[0], got.fac[0]) == (want.qp, want.fac), k


def test_slope_rows_are_inverse_densities():
    # own rows and the shared row hold 1/f at every interior node, bit for
    # bit, and 0 at both ends, where f vanishes
    qs, counts = norm_counts(Q5, 2e4)
    inv = _inverter(qs, counts, _norm_runs(qs))
    own = qs[qs <= _SHARED_Q]
    assert inv.slopes.shape == inv.cdf_table.shape
    for q, row in zip([*own, math.inf], inv.slopes):
        assert np.array_equal(row[1:-1], 1.0 / density(LocalMeasure(q), _GRID[1:-1])), q
        assert row[0] == row[-1] == 0.0, q


@pytest.mark.parametrize("fs", [FieldSpec.rationals(), Q5])
def test_own_table_rows_monotone_with_exact_ends(fs):
    qs, counts = norm_counts(fs, 1e4)
    inv = _inverter(qs, counts, _norm_runs(qs))
    table = inv.cdf_table
    assert np.all(table[:, 0] == 0.0) and np.all(table[:, -1] == 1.0)
    assert np.all(np.diff(table, axis=1) >= 0.0)


def test_bracket_table_does_not_grow_past_the_shared_norm():
    # at x = 1e6 over sqrt5 (39,300 distinct norms) the 513-node table and
    # guide took 231 MB; now every norm past 1e4 reads one shared row, in the
    # cdf, guide and slope tables alike
    def table_bytes(x):
        qs, counts = norm_counts(Q5, x)
        inv = _inverter(qs, counts, _norm_runs(qs))
        return inv.cdf_table.nbytes + inv.guide.nbytes + inv.slopes.nbytes

    assert table_bytes(1e6) == table_bytes(1e4)


SMOOTH = SmoothStatistic(phi=SmoothSpec(kind="gaussian", lam=1.0), M=4.0)


def _block(statistic, x, members):
    """Context and member keys of one block of `members` members at norm bound x."""
    cfg = EnsembleConfig(
        field=Q5,
        level=NO_LEVEL,
        x=x,
        size=max(members, 100),
        seed=9,
        statistic=statistic,
    )
    return _context(cfg), member_keys(cfg.seed, np.arange(members, dtype=np.uint64))


def test_member_values_do_not_depend_on_tile_size(monkeypatch):
    # tiles of one ideal row, of 16 rows, and the whole block as one tile
    for statistic in (IndicatorStatistic(QUARTER_ARC), SMOOTH):
        ctx, keys = _block(statistic, 400.0, 48)
        want = _member_values(ctx, keys)
        for tile in (1, 16 * keys.size, ctx.pi_L_x * keys.size):
            monkeypatch.setattr(ensemble, "_TILE", tile)
            assert np.array_equal(_member_values(ctx, keys), want), (statistic, tile)
        monkeypatch.undo()


def test_indicator_tiles_count_as_untiled_uniforms():
    # tiles of members x ideal rows count what the uniforms at every
    # (member, ideal) count against F(a) and F(b) as floats.  At x = 1e4 a
    # tile holds 26 of 2,048 members, so the last member chunk is partial;
    # at 1e6 it holds one member and 32,768 of 78,510 rows, so the last row
    # chunk is partial
    for x, sizes in ((1e4, (1, 7, 2048)), (1e6, (1, 7))):
        qs, counts = norm_counts(Q5, x, NO_LEVEL)
        for a, b in ((math.pi / 4, math.pi / 2), (0.0, 1.0)):
            ctx, keys = _block(IndicatorStatistic(ArcInterval(a, b)), x, max(sizes))
            lo, hi = (np.repeat(f, counts) for f in _cdf_norms(_norm_runs(qs), [a, b]).T)
            # 64 members at a time, each over every ideal
            u_rows = (uniform_matrix(keys[i : i + 64], lo.size) for i in range(0, keys.size, 64))
            want = np.concatenate([np.count_nonzero((u >= lo) & (u <= hi), axis=1) for u in u_rows])
            for size in sizes:
                got = _member_values(ctx, keys[:size])
                assert np.array_equal(got, want[:size]), (x, a, b, size)


def _peak_bytes(ctx, keys):
    tracemalloc.start()
    try:
        _member_values(ctx, keys)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smooth_block_memory_stays_tile_sized():
    # one 2,048-member block at x = 1e4 holds tile-sized temporaries and one
    # total per member; whole-block uniforms and angles peaked at 116 MB, and
    # the members x pi_L output that followed them at 24 MiB
    peak = _peak_bytes(*_block(SMOOTH, 1e4, 2048))
    assert peak <= 16 * 2**20, peak / 2**20


def test_smooth_block_memory_does_not_depend_on_x():
    # 256 members at x = 1e4 (1,233 ideals) and 1e5 (9,590 ideals); a
    # members x pi_L output made these 7.4 and 23.7 MiB
    low, high = (_peak_bytes(*_block(SMOOTH, x, 256)) for x in (1e4, 1e5))
    assert abs(high - low) <= 2**20, (low / 2**20, high / 2**20)
    assert max(low, high) <= 8 * 2**20, (low / 2**20, high / 2**20)


_FAULT_PROBE = """
import resource
import numpy as np
from satolab.ensemble import EnsembleConfig, SmoothSpec, SmoothStatistic, _context, _member_values
from satolab.number_field import FieldSpec, LevelSpec
from satolab.rng import member_keys
cfg = EnsembleConfig(
    field=FieldSpec.real_quadratic(5), level=LevelSpec.empty(), x=1e4, size=4096, seed=9,
    statistic=SmoothStatistic(phi=SmoothSpec(kind="gaussian", lam=1.0), M=4.0),
)
ctx = _context(cfg)
for block in range(2):
    keys = member_keys(cfg.seed, np.arange(2048 * block, 2048 * (block + 1), dtype=np.uint64))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _member_values(ctx, keys)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_smooth_block_minor_page_faults(tmp_path):
    # a fresh process runs two 2,048-member smooth blocks at x = 1e4 and
    # counts the minor page faults of the second.  With one workspace per
    # block it reads 616 (704 at x = 1e5); when each tile allocated its
    # temporaries anew and glibc gave them back to the kernel, 23,088
    # (341,604 at x = 1e5).  The bound sits about 6x from both
    src = os.path.dirname(os.path.dirname(ensemble.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.split()[-1])
    assert faults <= 4000, faults


def test_indicator_block_memory_does_not_depend_on_x():
    # 2,048-member blocks at x = 1e5 (9,590 ideals) and 1e6 (78,510 ideals)
    # hold tile-sized words and one count per member.  When each block built
    # its own range test they peaked at 1.19 and 3.59 MiB, and the whole
    # uniform matrix at 1e5 at 450 MB
    statistic = IndicatorStatistic(QUARTER_ARC)
    low, high = (_peak_bytes(*_block(statistic, x, 2048)) for x in (1e5, 1e6))
    assert abs(high - low) <= 2**20, (low / 2**20, high / 2**20)
    assert max(low, high) <= 16 * 2**20, (low / 2**20, high / 2**20)


def test_indicator_thresholds_match_scalar_cdf():
    # the context's range test, built by one series call per series length,
    # holds the rows with K <= H for K = ceil and H = floor of the scalar cdf
    # times 2^53 at every ideal, clipped to [0, 2^53] and [-1, 2^53 - 1],
    # with L >> 11 = K and (L + W) >> 11 = H.  The arcs reach the ends of
    # [0, pi]: cdf(0) = 0, cdf(pi) = 1, a cdf below 0 near theta = 0 (cut
    # point -1), and cdf(pi - 1e-6) rounding to 1.0 (cut point 2^53)
    norms = np.array([p.norm for p in enumerate_prime_ideals(Q5, 1e5)], dtype=np.float64)
    qs, at = np.unique(norms, return_inverse=True)
    scalar = {}
    arcs = ((math.pi / 4, math.pi / 2), (0.0, 1e-9), (1e-9, math.pi), (math.pi - 1e-6, math.pi))
    for a, b in arcs:
        ctx, keys = _block(IndicatorStatistic(ArcInterval(a, b)), 1e5, 64)
        for t in (a, b):
            if t not in scalar:
                scalar[t] = [float(cdf(LocalMeasure(q), t)) for q in qs]
        want_lo = np.array([math.ceil(f * 2**53) for f in scalar[a]])[at]
        want_hi = np.array([math.floor(f * 2**53) for f in scalar[b]])[at]
        big_k, big_h = want_lo.clip(0, 2**53), want_hi.clip(-1, 2**53 - 1)
        kept = np.flatnonzero(big_k <= big_h)
        assert np.array_equal(ctx.words, counter_words(kept)), (a, b)
        assert np.array_equal((ctx.low >> np.uint64(11)).astype(np.int64), big_k[kept]), (a, b)
        top = ((ctx.low + ctx.width) >> np.uint64(11)).astype(np.int64)
        assert np.array_equal(top, big_h[kept]), (a, b)
        if b == 1e-9:
            assert want_hi.min() == -1 and kept.size < at.size
        if a == math.pi - 1e-6:
            assert np.all(want_lo == 2**53) and ctx.words.size == 0
            assert not np.any(_member_values(ctx, keys))


def test_integer_cut_points_decide_as_float_comparison():
    # on a raw 64-bit word with random low 11 bits, the range test holds
    # exactly when u = (word >> 11) 2^-53 lies in [lo, hi], for thresholds
    # on the 2^-53 grid, between grid points, below 0 and above 1, and for
    # u at and next to both thresholds, at the ends of [0, 1) and at random;
    # a row the test drops holds no u at all
    rng = np.random.default_rng(53)
    special = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53, 1.0, -1e-26, 1.0 + 2.0**-52])
    grid = np.concatenate([special, rng.random(30), rng.random(30) * (1.0 - 2.0**-40)])
    thresholds = np.concatenate([grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0)])
    lo, hi = (t.ravel() for t in np.meshgrid(thresholds, thresholds))
    words, low, width = _range_test(lo, hi)
    kept = np.flatnonzero(np.isin(counter_words(np.arange(lo.size)), words))
    assert np.array_equal(counter_words(kept), words)
    near = [np.floor(t * 2.0**53).astype(np.int64) + d for t in (lo, hi) for d in (-1, 0, 1, 2)]
    ends = [np.zeros(lo.size, np.int64), np.ones(lo.size, np.int64), np.full(lo.size, 2**53 - 1)]
    k = np.column_stack([*near, *ends, rng.integers(0, 2**53, size=(lo.size, 8))])
    k = k.clip(0, 2**53 - 1)
    raw = (k.astype(np.uint64) << np.uint64(11)) | rng.integers(0, 2048, k.shape, np.uint64)
    by_word = np.zeros(k.shape, dtype=bool)
    by_word[kept] = raw[kept] - low[:, None] <= width[:, None]
    u = k * 2.0**-53
    by_float = (u >= lo[:, None]) & (u <= hi[:, None])
    assert np.array_equal(by_word, by_float)
    assert by_word.any() and not by_word.all()


def test_exact_mean_and_variance_oracle():
    # model mean/variance are exact sums of per-ideal masses; the empirical
    # ensemble must match within 5 standard errors
    cfg = _indicator_config(x=1000.0, size=4000, seed=42)
    rep = run_ensemble(cfg)
    raw_mean = rep.center + rep.scale * rep.empirical_moments[0]
    se = math.sqrt(rep.variance_model / rep.size)
    assert abs(raw_mean - rep.mean_model) <= 5.0 * se
    raw_second = (rep.scale**2) * rep.empirical_moments[1]
    raw_var = raw_second - (raw_mean - rep.center) ** 2  # about the center
    # variance check is looser: sampling error of a variance ~ var * sqrt(2/H)
    assert abs(raw_var - rep.variance_model) <= 6.0 * rep.variance_model * math.sqrt(
        2.0 / rep.size
    )


def test_model_mean_drift_is_logarithmic():
    # |model mean - pi_L mu(I)| fitted against loglog x with small constant
    for x in (1e3, 1e4):
        cfg = _indicator_config(x=x, size=100)
        ctx = _context(cfg)
        drift = abs(ctx.mean_model - ctx.center)
        assert drift <= 5.0 * math.log(math.log(x))


def test_histogram_partitions_members():
    cfg = _indicator_config(size=700, seed=5)
    rep = run_ensemble(cfg)
    assert len(rep.histogram_edges) == 61
    assert len(rep.histogram_counts) == 60
    assert sum(rep.histogram_counts) + rep.underflow + rep.overflow == rep.size
    assert rep.histogram_edges[0] == -5.0 and rep.histogram_edges[-1] == 5.0


def test_jackknife_matches_closed_form():
    def two_pass(v):
        mean = math.fsum(v.tolist()) / v.size
        return math.sqrt(math.fsum(((v - mean) ** 2).tolist()) / (v.size - 1) / v.size)

    rng = np.random.default_rng(20260816)
    # an offset of 1e6 on 1e5 values cancels about 8 digits in a replicate mean
    for v in (rng.normal(size=501), rng.normal(size=10**5) + 1e6):
        assert _jackknife_se(v) == pytest.approx(two_pass(v), rel=1e-12)
    assert _jackknife_se(np.array([3.0])) == 0.0


def test_ks_matches_scipy():
    rng = np.random.default_rng(7)
    normal = rng.normal(size=2000)
    # past |y| = 8 the normal cdf is within 6.2e-16 of 0 or 1
    far = rng.uniform(8.0, 40.0, size=40) * np.repeat([-1.0, 1.0], 20)
    # the last one spans two chunks of the erfc pass
    for y in (normal, np.concatenate([normal, far]), rng.normal(size=2**16 + 3000)):
        want = stats.kstest(y, "norm").statistic
        assert _ks_to_normal(y) == pytest.approx(float(want), abs=1e-15)


def test_thread_count_never_changes_report():
    for statistic in (IndicatorStatistic(QUARTER_ARC), SMOOTH):
        cfg = EnsembleConfig(
            field=Q5, level=NO_LEVEL, x=2000.0, size=4500, seed=911, statistic=statistic
        )
        one = run_ensemble(cfg, threads=1)
        many = run_ensemble(cfg, threads=3)
        assert one == many, statistic


def test_gaussian_moment_recursion():
    # m_r = (r - 1) m_{r-2} for the standard normal
    prev2, prev1 = 1.0, 0.0
    for r in range(2, 13):
        want = (r - 1) * prev2
        got = gaussian_moment(r)
        if r % 2 == 0:
            assert got == want
        else:
            assert got == 0.0
        prev2, prev1 = prev1, want if r % 2 == 0 else 0.0
    with pytest.raises(ValueError):
        gaussian_moment(-1)


def test_smooth_weight_series_example():
    spec = SmoothSpec(kind="gaussian", lam=1.0)
    want = 1.0 + 2.0 * sum(math.exp(-(m**2)) for m in range(1, 9))
    assert smooth_weight(spec, 1.0, 0.0) == pytest.approx(want, abs=1e-12)
    # evenness through the periodization: phi(t) = phi(1 - t)
    for t in (0.1, 0.37, 0.5, 0.93):
        assert smooth_weight(spec, 4.0, t) == pytest.approx(
            smooth_weight(spec, 4.0, 1.0 - t), rel=1e-12
        )
    # one-period shift only moves truncated tail mass
    assert smooth_weight(spec, 4.0, 1.3) == pytest.approx(
        smooth_weight(spec, 4.0, 0.3), abs=1e-11
    )
    with pytest.raises(ValueError):
        smooth_weight(spec, 0.5, 0.2)


def test_smooth_local_mean_matches_direct_quadrature():
    # coefficient route for E_q[phi] and Var_q[phi] vs direct integration of
    # phi * density and phi^2 * density
    spec = SmoothSpec(kind="gaussian", lam=1.0)
    big_m = 4.0
    cfg = EnsembleConfig(
        field=Q5,
        level=NO_LEVEL,
        x=30.0,
        size=100,
        seed=0,
        statistic=SmoothStatistic(phi=spec, M=big_m),
    )
    ctx = _context(cfg)
    ideals = enumerate_prime_ideals(Q5, 30.0)
    theta = np.linspace(0.0, math.pi, 2**12 + 1)
    phi_vals = smooth_weight(spec, big_m, theta / math.pi)
    want_mean = want_var = 0.0
    for ideal in ideals:
        dens = density(LocalMeasure(ideal.norm), theta)
        first, second = (
            simpson_quadrature(v * dens, theta[1] - theta[0]) for v in (phi_vals, phi_vals**2)
        )
        want_mean += first
        want_var += second - first**2
    assert ctx.mean_model == pytest.approx(want_mean, abs=1e-9)
    assert ctx.variance_model == pytest.approx(want_var, abs=1e-9)


def test_custom_table_weight_periodizes_exactly():
    # triangle bump supported on |u| <= 1: compactly supported table kind
    spec = SmoothSpec(kind="custom", table=((0.0, 1.0), (1.0, 0.0)))
    assert spec.phi_values(0.25) == pytest.approx(0.75)
    assert spec.phi_values(-0.25) == pytest.approx(0.75)
    assert spec.phi_values(2.0) == 0.0
    # periodization of the triangle at M=1 telescopes to a constant
    for t in (0.0, 0.2, 0.5, 0.9):
        assert smooth_weight(spec, 1.0, t) == pytest.approx(1.0, abs=1e-12)


def _mp_profile(spec, big_m, ns):
    """[(2/pi) int_0^pi phi_M(theta/pi)^r U_2n(cos theta) sin^2 theta dtheta
    for n in ns], for r = 1 and r = 2, by mpmath quadrature split at every
    kink and jump of phi_M; U_2n(cos theta) sin theta = sin((2n + 1) theta)."""
    last = spec.table[-1][0] if spec.kind == "custom" else math.sqrt(40.0 / spec.lam)
    shifts = range(-int(last / big_m) - 2, int(last / big_m) + 3)

    @functools.lru_cache(maxsize=None)  # the quadratures share their nodes
    def phi(theta):  # the custom table is linear between knots, 0 past the last
        total = mpmath.mpf(0)
        for m in shifts:
            u = abs(big_m * (theta / mpmath.pi + m))
            if spec.kind == "gaussian":
                total += mpmath.exp(-spec.lam * u * u)
            for (u0, v0), (u1, v1) in zip(spec.table, spec.table[1:]):
                if u0 <= u <= u1:
                    total += v0 + (v1 - v0) * (u - u0) / (u1 - u0)
                    break
        return total

    cuts = {mpmath.mpf(i) / 8 for i in range(9)}
    cuts |= {mpmath.mpf(sign * u) / big_m % 1 for u, _ in spec.table for sign in (1, -1)}
    nodes = [c * mpmath.pi for c in sorted(cuts)]
    with mpmath.workdps(20):
        return [
            [
                float(2 / mpmath.pi * mpmath.quad(
                    lambda t: phi(t) ** r * mpmath.sin((2 * n + 1) * t) * mpmath.sin(t), nodes
                ))
                for n in ns
            ]
            for r in (1, 2)
        ]


@pytest.mark.parametrize(
    "spec, big_m",
    [
        (SmoothSpec(kind="gaussian", lam=1.0), 4.0),
        (SmoothSpec(kind="gaussian", lam=2.5), 7.0),
        (SmoothSpec(kind="gaussian", lam=0.5), 2.0),
        (SmoothSpec(kind="gaussian", lam=0.3), 1.0),  # flat in double precision
        # a jump of 0.25 at the last knot
        (SmoothSpec(kind="custom", table=((0.0, 1.0), (0.5, 0.5), (1.0, 0.25))), 4.0),
        # support 3/4 past 1/2, so neighbouring shifts overlap
        (SmoothSpec(kind="custom", table=((0.0, 1.0), (1.5, 0.5), (3.0, 0.2))), 4.0),
    ],
)
def test_smooth_profile_matches_mpmath(spec, big_m):
    ns = (0, 1, 9, 20)
    coef_f, coef_g, v_weight = _smooth_profile(spec, big_m, 20)
    want_f, want_g = _mp_profile(spec, big_m, ns)
    for got, want in ((coef_f[list(ns)], want_f), (coef_g[list(ns)], want_g)):
        assert got.tolist() == pytest.approx(want, rel=1e-15, abs=1e-15)
    if (spec.kind, spec.lam, big_m) == ("gaussian", 0.3, 1.0):
        # the true variance, about c_1^2 = 3e-28, is below the rounding floor
        assert v_weight == 0.0
    else:
        want_v = want_g[0] - want_f[0] ** 2
        assert v_weight == pytest.approx(want_v, rel=1e-14, abs=1e-15)
    # the U_0 coefficients are the same bits for every series length
    assert _smooth_profile(spec, big_m, 0)[0][0] == coef_f[0]
    assert _smooth_profile(spec, big_m, 46)[2] == v_weight


@pytest.mark.parametrize("fs, x", [(FieldSpec.rationals(), 20.0), (Q5, 2000.0)])
@pytest.mark.parametrize(
    "spec, big_m",
    [
        (SmoothSpec(kind="gaussian", lam=0.3), 2.0),
        (SmoothSpec(kind="gaussian", lam=1.0), 4.0),
        # coef_f peaks at n = 1 and falls slowly: every term up to n_max counts,
        # and cutting each norm's series where q^-n < 1e-14 misses the bounds
        (SmoothSpec(kind="gaussian", lam=2.5), 7.0),
        (SmoothSpec(kind="custom", table=((0.0, 1.0), (0.5, 0.5), (1.0, 0.25))), 4.0),
    ],
)
def test_smooth_model_moments_match_exact_sums(fs, x, spec, big_m):
    # mean_model and variance_model against exact rational sums over the
    # distinct norms of the same double coefficients, at exact 1/q
    ctx = ensemble._build_context(fs, NO_LEVEL, x, SmoothStatistic(spec, big_m))
    qs, counts = norm_counts(fs, x, NO_LEVEL)
    n_max = len(_measure_series(LocalMeasure(qs[0])).coeffs) - 1  # N powers, N + 1 sines
    coef_f, coef_g, _ = _smooth_profile(spec, big_m, n_max)

    def expectation(coeffs, q):
        total = Fraction(0)
        for c in coeffs[::-1].tolist():
            total = total / q + Fraction(c)
        return total

    mean = variance = second = Fraction(0)
    for q, count in zip(qs.astype(int).tolist(), counts.tolist()):
        m, s = expectation(coef_f, q), expectation(coef_g, q)
        mean += count * m
        variance += count * (s - m * m)
        second += count * s
    eps = 2.0**-52
    assert abs(Fraction(ctx.mean_model) - mean) <= 2 * eps * abs(mean)
    assert abs(Fraction(ctx.variance_model) - variance) <= 2 * eps * second


def test_custom_table_member_matches_oracle():
    spec = SmoothSpec(kind="custom", table=((0.0, 1.0), (0.5, 0.4), (1.0, 0.0)))
    cfg = EnsembleConfig(
        field=Q5,
        level=NO_LEVEL,
        x=200.0,
        size=100,
        seed=77,
        statistic=SmoothStatistic(phi=spec, M=2.0),
    )
    want = _member_oracle(
        cfg, 13, weight=lambda th: float(smooth_weight(spec, 2.0, th / math.pi))
    )
    assert member_statistic(cfg, 13) == pytest.approx(want, abs=1e-9)


def test_trace_identity_even_orders():
    cfg = _indicator_config(x=100.0, size=20000, seed=7)
    p4 = split_prime(Q5, 2)[0]
    p9 = split_prime(Q5, 3)[0]
    rep = trace_identity_check(cfg, [p4, p9], [2, 2])
    assert rep.target == pytest.approx(1.0 / 36.0, rel=1e-12)
    assert abs(rep.z_score) <= 5.0
    assert abs(rep.empirical - rep.target) <= 5.0 * rep.standard_error


def test_trace_identity_odd_order_targets_zero():
    cfg = _indicator_config(x=100.0, size=20000, seed=8)
    p4 = split_prime(Q5, 2)[0]
    p9 = split_prime(Q5, 3)[0]
    rep = trace_identity_check(cfg, [p4, p9], [2, 3])
    assert rep.target == 0.0
    assert abs(rep.z_score) <= 5.0


def test_trace_identity_empty_product():
    cfg = _indicator_config(size=500)
    rep = trace_identity_check(cfg, [], [])
    assert rep.empirical == 1.0 and rep.target == 1.0 and rep.z_score == 0.0


def test_trace_identity_rejects_bad_input():
    cfg = _indicator_config(size=500)
    p4 = split_prime(Q5, 2)[0]
    with pytest.raises(ValueError):
        trace_identity_check(cfg, [p4, p4], [2, 2])
    with pytest.raises(ValueError):
        trace_identity_check(cfg, [p4], [2, 2])
    with pytest.raises(ValueError):
        trace_identity_check(cfg, [p4], [-1])


def test_config_validation_names_fields():
    good = dict(
        field=Q5,
        level=NO_LEVEL,
        x=100.0,
        size=200,
        seed=1,
        statistic=IndicatorStatistic(QUARTER_ARC),
    )
    with pytest.raises(ConfigError, match="'x'"):
        EnsembleConfig(**{**good, "x": 1.0})
    with pytest.raises(ConfigError, match="'size'"):
        EnsembleConfig(**{**good, "size": 0})
    with pytest.raises(ConfigError, match="'seed'"):
        EnsembleConfig(**{**good, "seed": 1.5})
    with pytest.raises(ConfigError, match="'statistic'"):
        EnsembleConfig(**{**good, "statistic": QUARTER_ARC})
    with pytest.raises(ConfigError, match="'max_moment'"):
        EnsembleConfig(**{**good, "max_moment": 13})
    with pytest.raises(ConfigError, match="'statistic.phi.kind'"):
        SmoothSpec(kind="sinc")
    with pytest.raises(ConfigError, match="'statistic.phi.lambda'"):
        SmoothSpec(kind="gaussian", lam=0.0)
    with pytest.raises(ConfigError, match="'statistic.phi.table'"):
        SmoothSpec(kind="custom", table=((0.5, 1.0), (1.0, 0.0)))
    with pytest.raises(ConfigError, match="'statistic.M'"):
        SmoothStatistic(phi=SmoothSpec(), M=0.5)


def test_run_ensemble_guards():
    cfg = _indicator_config(size=99)
    with pytest.raises(ConfigError, match="'size'"):
        run_ensemble(cfg)
    with pytest.raises(ValueError):
        run_ensemble(_indicator_config(size=200), threads=0)
    full = EnsembleConfig(
        field=Q5,
        level=NO_LEVEL,
        x=100.0,
        size=200,
        seed=1,
        statistic=IndicatorStatistic(ArcInterval(0.0, math.pi)),
    )
    with pytest.raises(ConfigError, match="'statistic'"):
        run_ensemble(full)
    with pytest.raises(ValueError):
        member_statistic(_indicator_config(size=10), 10)


def test_moment_report_is_calibrated():
    # fixed-seed medium run: model-centered moments near gaussian targets
    cfg = EnsembleConfig(
        field=Q5,
        level=NO_LEVEL,
        x=2000.0,
        size=6000,
        seed=20260816,
        statistic=IndicatorStatistic(QUARTER_ARC),
        max_moment=4,
    )
    rep = run_ensemble(cfg)
    for m, s, g in zip(
        rep.model_centered_moments,
        rep.model_centered_standard_errors,
        rep.gaussian_targets,
    ):
        assert abs(m - g) <= 5.0 * s
    assert all(s > 0 for s in rep.standard_errors)
    assert rep.model_centered_ks < 0.05

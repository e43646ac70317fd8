"""Sato-Tate and local measures: densities, moments, CDFs, sampling."""
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from oracles import full_horner, horner_stops, long_double_cdf, smooth_power_coeffs, truncated_horner
from satolab.chebyshev import eval_U, simpson_quadrature
from satolab.ensemble import SmoothSpec, _smooth_profile, smooth_weight
from satolab.measures import (
    _CELL,
    _GRID,
    LocalMeasure,
    _cdf_series,
    _expectations,
    _local_tail_length,
    _measure_series,
    _norm_runs,
    _Workspace,
    cdf,
    chebyshev_moment,
    density,
    moment_quadrature,
    quantile,
)
from satolab.moments_engine import ZSeries, z_power_coeffs
from satolab.number_field import FieldSpec, LevelSpec, norm_counts
from satolab.rng import root_key, uniforms_at
from satolab.selberg import ArcInterval, to_chebyshev

MU = LocalMeasure(math.inf)
Q5 = FieldSpec.real_quadratic(5)
ARC = ArcInterval(math.pi / 4, math.pi / 2)


def sample(measure, seed: int, n: int):
    """n angles by inverse transform of the uniforms at counters 0..n-1 of
    the seed's root stream."""
    return quantile(measure, uniforms_at(root_key(seed), np.arange(n)))


def mu_infty_mass(a: float, b: float) -> float:
    return (b - a) / math.pi - (math.sin(2 * b) - math.sin(2 * a)) / (2 * math.pi)


def test_density_examples():
    assert density(MU, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert density(LocalMeasure(2), 0.0) == 0.0
    big = LocalMeasure(1e6)
    # The O(1/q) constant is |4 cos^2 theta - 1|, at most 3; on this window
    # cos^2 theta <= 0.7 so the 2e-6 relative gap holds.
    thetas = np.linspace(0.6, math.pi - 0.6, 11)
    ratio = density(big, thetas) / density(MU, thetas)
    assert np.max(np.abs(ratio - 1.0)) < 2e-6
    wide = np.linspace(0.05, math.pi - 0.05, 31)
    ratio_wide = density(big, wide) / density(MU, wide)
    assert np.max(np.abs(ratio_wide - 1.0)) < 3.01e-6


def test_density_validation():
    with pytest.raises(ValueError):
        LocalMeasure(1.5)
    with pytest.raises(ValueError):
        LocalMeasure(math.nan)
    with pytest.raises(ValueError):
        LocalMeasure(-math.inf)
    with pytest.raises(ValueError):
        density(MU, -0.2)


def test_normalization_by_quadrature():
    grid = np.linspace(0.0, math.pi, 2**13 + 1)
    step = grid[1] - grid[0]
    for q in [2, 3, 4, 5, 25, 1e6]:
        mass = simpson_quadrature(density(LocalMeasure(q), grid), step)
        assert mass == pytest.approx(1.0, abs=1e-10)
    assert simpson_quadrature(density(MU, grid), step) == pytest.approx(1.0, abs=1e-12)


def test_chebyshev_moment_closed_forms():
    assert chebyshev_moment(LocalMeasure(4), 2) == pytest.approx(0.25, rel=1e-15)
    assert chebyshev_moment(LocalMeasure(7), 3) == 0.0
    assert chebyshev_moment(LocalMeasure(5), 0) == 1.0
    assert chebyshev_moment(MU, 0) == 1.0
    assert chebyshev_moment(MU, 2) == 0.0


def test_moment_identity_against_quadrature():
    for q in [2, 3, 4, 5, 25]:
        m_ = LocalMeasure(q)
        for m in range(0, 21):
            quad = moment_quadrature(m_, m)
            assert quad == pytest.approx(chebyshev_moment(m_, m), abs=1e-9)


def test_generating_function_identity():
    # Partial sums of U_{2n} q^{-n} converge geometrically to the density
    # ratio, uniformly in theta.
    thetas = np.linspace(0.0, math.pi, 201)
    for q in [2.0, 5.0, 49.0]:
        ratio = (q + 1.0) / ((math.sqrt(q) + 1 / math.sqrt(q)) ** 2 - 4 * np.cos(thetas) ** 2)
        for N in [5, 10, 20]:
            partial = sum(eval_U(2 * n, thetas) * q ** (-n) for n in range(N + 1))
            # Tail bound: sum_{n>N} (2n+1) q^{-n} <= (2N+5)/(1-1/q)^2 q^{-N},
            # floored at roundoff noise for very small tails.
            bound = q ** (-N) * (2 * N + 5) / (1 - 1 / q) ** 2 + 1e-12
            assert np.max(np.abs(partial - ratio)) < bound


def test_weak_convergence_rate():
    thetas = np.linspace(0.0, math.pi, 501)
    for q in [1e2, 1e3, 1e4]:
        gap = np.max(np.abs(density(LocalMeasure(q), thetas) - density(MU, thetas)))
        assert gap <= 10.0 / q


def test_cdf_examples():
    assert cdf(MU, math.pi / 2) == pytest.approx(0.5, abs=1e-14)
    assert cdf(MU, math.pi / 4) == pytest.approx(0.25 - 1 / (2 * math.pi), abs=1e-14)
    for q in [2.0, 3.0, 4.0, 49.0, 9973.0, 1e5, 1e8, math.inf]:  # exact ends
        assert cdf(LocalMeasure(q), 0.0) == 0.0 and cdf(LocalMeasure(q), math.pi) == 1.0
    # symmetry about pi/2, and the limiting cdf within O(1/q) at large q
    assert cdf(LocalMeasure(2), math.pi / 2) == pytest.approx(0.5, abs=1e-12)
    big = LocalMeasure(1e6)
    for theta in (math.pi / 4, math.pi / 2):
        assert cdf(big, theta) == pytest.approx(cdf(MU, theta), abs=1e-5)


def test_cdf_matches_quadrature():
    # Independent check of the series form: cumulative Simpson integral.
    grid = np.linspace(0.0, math.pi, 2**12 + 1)
    step = grid[1] - grid[0]
    for q in [2, 3, 1000]:
        m_ = LocalMeasure(q)
        dens = density(m_, grid)
        for idx in [512, 1024, 2048, 3000]:
            quad = simpson_quadrature(dens[: idx + 1], step) if idx % 2 == 0 else None
            if quad is None:
                continue
            assert cdf(m_, grid[idx]) == pytest.approx(quad, abs=1e-10)


@pytest.mark.parametrize("q", [2.0, 3.0, 49.0, 9973.0, math.inf])
def test_cdf_series_matches_long_double(q):
    # Clenshaw's recurrence over sin(2 k theta) leaves about one rounding of
    # the result: at most 1.9e-16 at these norms
    theta = np.random.default_rng(23).random(200_000) * math.pi
    got = _cdf_series(theta, np.sin(theta), np.cos(theta), _measure_series(LocalMeasure(q)))
    err = np.max(np.abs(got.astype(np.longdouble) - long_double_cdf(q, theta)))
    assert err <= 3e-16, err


def test_cdf_monotone():
    thetas = np.linspace(0.0, math.pi, 400)
    for measure in [MU, LocalMeasure(2), LocalMeasure(17)]:
        vals = cdf(measure, thetas)
        assert np.all(np.diff(vals) >= 0.0)


def test_grid_nodes_are_cell_multiples():
    # the inverter forms its cell ends as i _CELL, not by gathers from _GRID
    assert np.array_equal(_GRID, np.arange(4097) * _CELL)


def test_quantile_roundtrip():
    us = np.linspace(0.0, 1.0, 101)
    for measure in [MU, LocalMeasure(2), LocalMeasure(9), LocalMeasure(1e5)]:
        theta = quantile(measure, us)
        assert np.all((theta >= 0.0) & (theta <= math.pi))
        assert np.max(np.abs(cdf(measure, theta) - us)) < 1e-10


@pytest.mark.parametrize("q", [2.0, 4.0, 9973.0])
def test_quantile_residual_at_rounding_level(q):
    # one Newton step from the start of the measure's cubic table in g(u)
    measure = LocalMeasure(q)
    u = np.random.default_rng(29).random(200_000)
    assert np.max(np.abs(cdf(measure, quantile(measure, u)) - u)) <= 1e-15


def test_quantile_median_symmetry():
    assert quantile(MU, 0.5) == pytest.approx(math.pi / 2, abs=1e-12)
    assert quantile(LocalMeasure(3), 0.5) == pytest.approx(math.pi / 2, abs=1e-12)


def test_workspace_give_takes_back_only_its_own_arrays():
    # every array that take() hands out, of any dtype, shape or size within
    # the cells, goes back and is handed out again on the same buffer; an
    # array that take() did not hand out is refused where it is given, with
    # the workspace's free list unchanged
    ws = _Workspace((4, 8))
    shapes = [((4, 8), np.float64), ((32,), np.uint64), ((3, 5), np.bool_), ((), np.int32),
              ((0,), np.float64), ((2, 16), np.uint8), ((8, 4), np.int64)]
    first = [ws.take(shape, 1, dtype)[0] for shape, dtype in shapes]
    bases = {id(a.base) for a in first}
    assert len(bases) == len(shapes)
    ws.give(*first)
    again = [ws.take(shape, 1, dtype)[0] for shape, dtype in shapes]
    assert {id(a.base) for a in again} == bases
    ws.give(*again)
    strangers = [np.empty((4, 8)), np.empty(32)[:8], _Workspace((4, 8)).take((4, 8))[0]]
    for a in [*strangers, again[0].base]:
        with pytest.raises(ValueError, match="take"):
            ws.give(a)
    # a refused call gives nothing back
    [mine] = ws.take((2,))
    with pytest.raises(ValueError, match="take"):
        ws.give(mine, strangers[0])
    assert len(ws._free) == len(shapes) - 1


def test_norm_runs_match_the_scalar_series_of_every_norm():
    # runs of one series length each, in order, whose rows are the scalar
    # series of their norms bit for bit: every norm up to 2e5 over Q and sqrt5
    for fs in (FieldSpec.rationals(), Q5):
        qs, _ = norm_counts(fs, 2e5, LevelSpec.empty())
        runs = _norm_runs(qs)
        assert [r[0] for r in runs] == [0] + [r[1] for r in runs[:-1]]
        assert runs[-1][1] == qs.size
        lengths = [len(s.coeffs) for _, _, s in runs]
        assert all(a > b for a, b in zip(lengths, lengths[1:])), lengths
        for i0, i1, s in runs:
            got = np.column_stack([*(c[:, 0] for c in s.coeffs), s.qp[:, 0], s.fac[:, 0]])
            assert got.shape == (i1 - i0, len(s.coeffs) + 2)
            for k, q in enumerate(qs[i0:i1].tolist()):
                one = _measure_series(LocalMeasure(q))
                want = np.array([*one.coeffs, one.qp, one.fac])
                assert got[k].tobytes() == want.tobytes(), q


def test_sample_consumes_one_uniform_per_angle():
    angles = sample(MU, 20260816, 5)
    assert angles.shape == (5,)
    assert np.array_equal(angles, sample(MU, 20260816, 5))
    # angle j inverts the uniform at counter j alone
    u = uniforms_at(root_key(20260816), np.arange(5))
    assert [quantile(MU, v) for v in u.tolist()] == angles.tolist()


def test_sample_chi_square_against_density():
    n = 10**6
    angles = sample(MU, 11, n)
    edges = np.linspace(0.0, math.pi, 51)
    observed, _ = np.histogram(angles, bins=edges)
    expected = n * np.diff(cdf(MU, edges))
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < stats.chi2.ppf(1 - 1e-3, df=len(observed) - 1)


def test_sample_local_moment_within_four_se():
    n = 10**6
    angles = sample(LocalMeasure(3), 12, n)
    vals = eval_U(2, angles)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(n)
    assert abs(mean - chebyshev_moment(LocalMeasure(3), 2)) < 4 * se


def test_sample_interval_mass_within_four_se():
    n = 10**6
    angles = sample(MU, 13, n)
    a, b = math.pi / 4, math.pi / 2
    p = mu_infty_mass(a, b)
    hits = float(np.mean((angles >= a) & (angles <= b)))
    se = math.sqrt(p * (1 - p) / n)
    assert abs(hits - p) < 4 * se


def _distinct_w(fs, x):
    """w = 1/q of the distinct norms up to x, ascending norms."""
    return 1.0 / norm_counts(fs, x, LevelSpec.empty())[0]


def _u_coeffs(c):
    """The U_m coefficients of the series with U_{2n} coefficients c."""
    full = np.zeros(2 * len(c) - 1)
    full[::2] = c
    return full


def _sum_bound(coeffs, w):
    """2^-50 sum_n |c_n| w^n at every w, from the U_m coefficients: the rest
    that the stop drops is at most 2^-60 of that sum, and Horner's own
    rounding moves each value by a few 2^-53 of it."""
    return 2.0**-50 * full_horner(np.abs(coeffs), w)


def _near_full_horner(got, coeffs, w):
    return np.all(np.abs(got - full_horner(coeffs, w)) <= _sum_bound(coeffs, w))


def test_expectations_prefix_horner_is_bitwise_full_horner():
    # Re-specified with the stop at each norm's own precision: full-length
    # Horner stays the reference within 2^-50 sum_n |c_n| w^n, and the bits
    # are those of a per-norm Horner over c_0..c_K(q).
    z = ZSeries.from_extremal(to_chebyshev(ARC, 735), "plus")
    w = _distinct_w(Q5, 1e5)
    for r in range(1, 9):
        coeffs = z_power_coeffs(z, r).coeffs
        got = _expectations(coeffs[::2], w)
        assert _near_full_horner(got, coeffs, w), r
        assert got.tolist() == truncated_horner(coeffs[::2], w), r


def test_expectations_skip_only_coefficients_that_reach_no_row():
    # over Q the smallest norm is 2, so only n <= 690 / log 2 (995) of the
    # 2,941 even coefficients of Z^8 at M = 735 reach a row; the Horner loop
    # starts there and still moves no bit
    z = ZSeries.from_extremal(to_chebyshev(ARC, 735), "plus")
    w = _distinct_w(FieldSpec.rationals(), 1e4)
    coeffs = z_power_coeffs(z, 8).coeffs
    assert coeffs[::2].size == 2941 and w[0] == 0.5
    assert np.array_equal(_expectations(coeffs[::2], w), full_horner(coeffs, w))


def test_expectations_reject_unsorted_weights():
    w = _distinct_w(Q5, 2000)
    coeffs = np.linspace(1.0, 0.0, 41)
    assert np.array_equal(_expectations(coeffs[::2], w), full_horner(coeffs, w))
    shuffled = np.random.default_rng(5).permutation(w)
    with pytest.raises(ValueError):
        _expectations(coeffs[::2], shuffled)


def _mp_expectations(c, qs):
    """sum_n c_n q^-n over every coefficient, at 40 digits, rounded once."""
    with mpmath.workdps(40):
        cs = [mpmath.mpf(float(v)) for v in c]
        return [float(mpmath.fsum(v * mpmath.mpf(q) ** -n for n, v in enumerate(cs))) for q in qs]


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_expectations_match_mpmath_on_z_powers(sign):
    qs = [2, 3, 4, 5, 101, 10007, 999983]
    w = 1.0 / np.array(qs, dtype=np.float64)
    z = ZSeries.from_extremal(to_chebyshev(ARC, 735), sign)
    for r in range(1, 9):
        coeffs = z_power_coeffs(z, r).coeffs
        got = _expectations(coeffs[::2], w)
        assert np.all(np.abs(got - _mp_expectations(coeffs[::2], qs)) <= _sum_bound(coeffs, w)), r
        assert got.tolist() == truncated_horner(coeffs[::2], w), r


def test_expectations_match_mpmath_on_smooth_profile():
    qs = [2, 3, 4, 5, 101, 10007, 999983]
    w = 1.0 / np.array(qs, dtype=np.float64)
    for spec, big_m in [(SmoothSpec(), 2.0), (SmoothSpec(lam=0.3), 4.0)]:
        for c in _smooth_profile(spec, big_m, _local_tail_length(2.0))[:2]:
            got = _expectations(c, w)
            assert np.all(np.abs(got - _mp_expectations(c, qs)) <= _sum_bound(_u_coeffs(c), w))
            assert got.tolist() == truncated_horner(c, w)


@pytest.mark.parametrize(
    "c",
    [[0.0, 0.0, 3.0, -1.0, 0.5, 1e-3, 2.0, 0.0], [0.0] * 9, [0.75], [1e-300, 1.0, 1.0]],
    ids=["j=2", "zero", "one", "tiny-c0"],
)
def test_expectations_edge_coefficients(c):
    # w[0] = 1/2 over Q, 1/4 over sqrt5; all-zero c gives rows of exact
    # zeros and one coefficient rows of exactly c_0, as the oracle does
    c = np.array(c)
    for w in (_distinct_w(FieldSpec.rationals(), 2000), _distinct_w(Q5, 2000)):
        got = _expectations(c, w)
        assert got.tolist() == truncated_horner(c, w)
        assert _near_full_horner(got, _u_coeffs(c), w)
    assert _expectations(c, np.empty(0)).shape == (0,)


def test_expectations_norms_taking_term_n_never_rise_with_n():
    # the stop at each norm's precision is a limit on log q, so the norms
    # that take term n are a prefix of the ascending norms, and the largest
    # norms stop within a few terms of the first nonzero one
    z = ZSeries.from_extremal(to_chebyshev(ARC, 735), "minus")
    w = _distinct_w(Q5, 1e5)
    for r in (1, 4, 8):
        stops = np.array(horner_stops(z_power_coeffs(z, r).coeffs[::2], w))
        assert np.all(np.diff(stops) <= 0), r
        takers = [np.count_nonzero(stops >= n) for n in range(stops[0] + 1)]
        assert all(a >= b for a, b in zip(takers, takers[1:])), r
        assert stops[-1] <= 8 < 690 / math.log(1.0 / w[-1]), r


@pytest.mark.parametrize("lam, big_m", [(0.3, 2.0), (1.0, 4.0)])
def test_expectations_of_smooth_powers_match_quadrature(lam, big_m):
    # E_q[phi_M^r] through the kernel, from U_2n coefficients taken by the
    # oracle's own quadrature, against the trapezoid rule on phi_M^r times the
    # local density: both integrands are smooth and pi-periodic
    spec = SmoothSpec(lam=lam)
    qs = np.array([2.0, 3.0, 49.0, 1009.0])
    theta = np.arange(1024) * (math.pi / 1024)
    phi = smooth_weight(spec, big_m, theta / math.pi)
    for r in range(1, 7):
        got = _expectations(smooth_power_coeffs(spec, big_m, r, 64), 1.0 / qs)
        want = [math.pi / 1024 * math.fsum(phi**r * density(LocalMeasure(q), theta)) for q in qs]
        assert np.max(np.abs(got - want)) <= 1e-12, r

"""Extremal majorant/minorant construction and Chebyshev re-expansion.

The closed-form coefficients are checked against an independent oracle:
Selberg's periodization of Beurling's function, evaluated through
trigamma closed forms on a 4(M+1)-point grid and interpolated.
"""
import math

import mpmath
import numpy as np
import pytest
from scipy.special import polygamma, zeta

from oracles import circle_poly_direct, circle_poly_long_double
from satolab.chebyshev import simpson_quadrature
from satolab.selberg import (
    ArcInterval,
    CircleInterval,
    chi_hat,
    evaluate_circle_poly,
    mu_infty_interval,
    selberg_coefficients,
    to_chebyshev,
    variance_sum,
)

QUARTER = ArcInterval(math.pi / 4, math.pi / 2)

# Oracle periodization: direct window |nu| <= 100, tails in closed form.
_WINDOW = 100
# Asymptotic expansions g(y) = 1/y + 1/y^2 - psi'(y) and h(y) = psi'(y) - 1/y
# in powers y^{-k}; the first omitted term is O(y^{-11}), negligible past the
# periodization window.
_G_COEFFS = {2: 0.5, 3: -1.0 / 6.0, 5: 1.0 / 30.0, 7: -1.0 / 42.0, 9: 1.0 / 30.0}
_H_COEFFS = {2: 0.5, 3: 1.0 / 6.0, 5: -1.0 / 30.0, 7: 1.0 / 42.0, 9: -1.0 / 30.0}


def _inverse_squares(d, keep=None):
    # row sums of d^-2, over the columns where keep holds
    d = d * d
    np.divide(1.0, d, out=d)
    if keep is not None:
        d *= keep
    return d.sum(axis=1)


def beurling_B(x, tail_terms: int = 200):
    """Beurling's majorant of sgn via the defining partial-fraction series.

    B(x) = (sin pi x / pi)^2 (2/x + sum_{n>=0}(x-n)^{-2} - sum_{n>=1}(x+n)^{-2})
    with both sums truncated tail_terms past |x|, plus midpoint
    integral-comparison corrections for the discarded tails (error
    O(tail_terms^{-3})).  Integer arguments take their limit values directly.
    Vectorized in x: arguments are sorted by truncation point and summed in
    chunks of about 2^16 terms, the terms every argument of a chunk keeps
    first, then the masked rest.
    """
    if tail_terms < 10:
        raise ValueError("tail_terms must be at least 10")
    x_arr = np.asarray(x, dtype=np.float64)
    flat = x_arr.ravel()
    n_top = np.floor(np.abs(flat)) + tail_terms
    order = np.argsort(n_top)
    out = np.empty_like(flat)
    c0 = 0
    while c0 < flat.size:
        at = order[c0 : c0 + max(1, 2**16 // (int(n_top[order[c0]]) + 1))]
        c0 += at.size
        xc, top = flat[at, None], n_top[at, None]
        n = np.arange(int(top.max()) + 1, dtype=np.float64)
        w = int(top.min()) + 1
        keep = n[w:] <= top
        with np.errstate(divide="ignore", invalid="ignore"):
            minus = _inverse_squares(xc - n[:w]) + _inverse_squares(xc - n[w:], keep)
            plus = _inverse_squares(xc + n[1:w]) + _inverse_squares(xc + n[w:], keep)
            xc, top = xc[:, 0], top[:, 0]
            bracket = 2.0 / xc + minus - plus + 1.0 / (top + 0.5 - xc) - 1.0 / (top + 0.5 + xc)
            # sin(pi x) by reduction to the nearest integer: near a zero the
            # direct product pi*x loses the relative accuracy the huge bracket
            # demands.
            s = np.sin(math.pi * (xc - np.rint(xc)))
            out[at] = (s / math.pi) ** 2 * bracket
    k = np.rint(flat)
    on_int = np.abs(flat - k) < 1e-9
    out[on_int] = np.where(k[on_int] >= 0.0, 1.0, -1.0)
    return out.reshape(x_arr.shape) if x_arr.shape else float(out[0])


def _beurling_exact(x: np.ndarray) -> np.ndarray:
    """B(x) through trigamma closed forms, elementwise on arrays.

    Three branches keep every polygamma argument >= 1/2:
      x >= 1/2:   B = 1 + 2 (sin pi x/pi)^2 (1/x + 1/x^2 - psi'(x))
      x <= -1/2:  B = -1 + 2 (sin pi x/pi)^2 (psi'(-x) - 1/(-x))
      |x| < 1/2:  B = (sin pi x/pi)^2 (2/x + 1/x^2 + psi'(1-x) - psi'(1+x))
    with limit values at integers.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    nearest = np.rint(x)
    on_int = np.abs(x - nearest) < 1e-12
    s2 = (np.sin(math.pi * (x - nearest)) / math.pi) ** 2
    pos = (x >= 0.5) & ~on_int
    neg = (x <= -0.5) & ~on_int
    mid = ~pos & ~neg & ~on_int
    if np.any(pos):
        xp = x[pos]
        out[pos] = 1.0 + 2.0 * s2[pos] * (1.0 / xp + xp**-2.0 - polygamma(1, xp))
    if np.any(neg):
        y = -x[neg]
        out[neg] = -1.0 + 2.0 * s2[neg] * (polygamma(1, y) - 1.0 / y)
    if np.any(mid):
        xm = x[mid]
        out[mid] = s2[mid] * (
            2.0 / xm + xm**-2.0 + polygamma(1, 1.0 - xm) - polygamma(1, 1.0 + xm)
        )
    out[on_int] = np.where(nearest[on_int] >= 0.0, 1.0, -1.0)
    return out


def _zeta_tail(coeffs: dict, delta: int, u: np.ndarray) -> np.ndarray:
    # sum_{nu > window} f(delta (u + nu)) for f with the given asymptotic
    # coefficients, via Hurwitz zeta: sum_nu (u+nu)^{-k} = zeta(k, W+1+u).
    base = _WINDOW + 1.0 + u
    total = np.zeros_like(u)
    for k, c in coeffs.items():
        total += c * float(delta) ** (-k) * zeta(k, base)
    return total


def _periodization_spectra(J: CircleInterval, M: int):
    """Full 4(M+1)-point spectra of the periodized S+ and S-.

    Samples S+- = sum_nu (1/2)[B(delta(x - alpha + nu)) + B(delta(beta - x - nu))]
    (and the mirrored minorant) on the grid, summing |nu| <= 100 directly and
    the tails through Hurwitz zeta values, which is exact in closed form
    because delta = M + 1 is an integer, so sin^2(pi delta (x + nu)) does
    not depend on nu.  Returns the FFT of each grid divided by its length.
    """
    delta = M + 1
    K = 4 * delta
    xs = np.arange(K, dtype=np.float64) / K
    nus = np.arange(-_WINDOW, _WINDOW + 1, dtype=np.float64)
    xa = xs[:, None] - J.alpha + nus[None, :]
    xb = xs[:, None] - J.beta + nus[None, :]
    s_plus_grid = 0.5 * (
        _beurling_exact(delta * xa).sum(axis=1)
        + _beurling_exact(-delta * xb).sum(axis=1)
    )
    s_minus_grid = -0.5 * (
        _beurling_exact(-delta * xa).sum(axis=1)
        + _beurling_exact(delta * xb).sum(axis=1)
    )
    ua = xs - J.alpha
    ub = xs - J.beta
    sin2_a = np.sin(math.pi * delta * ua) ** 2
    sin2_b = np.sin(math.pi * delta * ub) ** 2
    ga_pos = _zeta_tail(_G_COEFFS, delta, ua)
    ga_neg = _zeta_tail(_G_COEFFS, delta, -ua)
    ha_pos = _zeta_tail(_H_COEFFS, delta, ua)
    ha_neg = _zeta_tail(_H_COEFFS, delta, -ua)
    gb_pos = _zeta_tail(_G_COEFFS, delta, ub)
    gb_neg = _zeta_tail(_G_COEFFS, delta, -ub)
    hb_pos = _zeta_tail(_H_COEFFS, delta, ub)
    hb_neg = _zeta_tail(_H_COEFFS, delta, -ub)
    inv_pi2 = 1.0 / math.pi**2
    s_plus_grid += inv_pi2 * (sin2_a * (ga_pos + ha_neg) + sin2_b * (hb_pos + gb_neg))
    s_minus_grid -= inv_pi2 * (sin2_a * (ha_pos + ga_neg) + sin2_b * (gb_pos + hb_neg))
    return np.fft.fft(s_plus_grid) / K, np.fft.fft(s_minus_grid) / K


def test_interval_validation():
    with pytest.raises(ValueError):
        CircleInterval(0.3, 0.2)
    with pytest.raises(ValueError):
        CircleInterval(-0.6, 0.2)
    with pytest.raises(ValueError):
        ArcInterval(1.0, 0.5)
    with pytest.raises(ValueError):
        ArcInterval(-0.1, 0.5)
    assert QUARTER.to_circle() == CircleInterval(1 / 8, 1 / 4)


def test_chi_hat_examples():
    sym = CircleInterval(-0.25, 0.25)
    assert chi_hat(sym, 0) == pytest.approx(0.5)
    assert abs(chi_hat(sym, 2)) < 1e-15
    j = CircleInterval(0.0, 0.25)
    got = chi_hat(j, 1)
    assert got.real == pytest.approx(0.15915, abs=1e-5)
    assert got.imag == pytest.approx(-0.15915, abs=1e-5)
    # quadrature cross-check of int_J e(-t) dt
    ts = np.linspace(0.0, 0.25, 2**10 + 1)
    vals = np.exp(-2j * math.pi * ts)
    quad = simpson_quadrature(vals.real, ts[1] - ts[0]) + 1j * simpson_quadrature(
        vals.imag, ts[1] - ts[0]
    )
    assert got == pytest.approx(quad, abs=1e-10)


def test_beurling_examples():
    with pytest.raises(ValueError):
        beurling_B(1.0, tail_terms=5)
    assert beurling_B(50.5) == pytest.approx(1.0, abs=1e-3)
    assert beurling_B(7.0) == 1.0
    assert beurling_B(-3.0) == -1.0
    assert beurling_B(0.0) == 1.0


def test_beurling_majorizes_sgn():
    rng = np.random.default_rng(20260816)
    xs = rng.uniform(-20.0, 20.0, size=10**4)
    for x in xs:
        assert beurling_B(float(x)) >= math.copysign(1.0, x) - 1e-12


def test_beurling_mass():
    # int (B - sgn) over R equals 1; truncate at |x| = 200 (tail ~ 5e-4).
    half = np.linspace(0.0, 200.0, 2**15 + 1)
    step = half[1] - half[0]
    right = simpson_quadrature(_beurling_exact(half) - 1.0, step)
    left = simpson_quadrature(_beurling_exact(-half) + 1.0, step)
    assert right + left == pytest.approx(1.0, abs=1e-3)


def test_beurling_series_matches_trigamma_form():
    # The literal truncated series and the closed trigamma branches are
    # independent routes to B.
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(-30, 30, 60), [0.25, -0.25, 0.49, -0.49, 3.0001]])
    exact = _beurling_exact(xs)
    for x, ref in zip(xs, exact):
        assert beurling_B(float(x), tail_terms=500) == pytest.approx(ref, abs=1e-8)


def test_selberg_mass_defects():
    j = CircleInterval(0.0, 0.25)
    pair = selberg_coefficients(j, 10)
    assert pair.s_plus[0].real - 0.25 == pytest.approx(1 / 11, abs=1e-9)
    assert 0.25 - pair.s_minus[0].real == pytest.approx(1 / 11, abs=1e-9)
    assert pair.s_plus[0].real + pair.s_minus[0].real == pytest.approx(0.5, abs=2e-9)


def test_selberg_coefficient_closeness():
    for M in (10, 50):
        pair = selberg_coefficients(QUARTER.to_circle(), M)
        j = QUARTER.to_circle()
        for m in range(-M, M + 1):
            target = chi_hat(j, m)
            assert abs(pair.s_plus[m] - target) <= 1 / (M + 1) + 1e-9
            assert abs(pair.s_minus[m] - target) <= 1 / (M + 1) + 1e-9


def test_selberg_matches_direct_periodization():
    # Rebuild S+- by brute-force periodization (wide window, literal series)
    # and compare with the interpolated polynomial: checks construction and
    # degree truncation in one shot.
    j = CircleInterval(1 / 8, 1 / 4)
    M = 10
    delta = M + 1
    pair = selberg_coefficients(j, M)
    xs = np.linspace(-0.5, 0.5, 23)[:, None]
    nus = np.arange(-300, 301)
    plus = 0.5 * (
        beurling_B(delta * (xs - j.alpha + nus)) + beurling_B(delta * (j.beta - xs - nus))
    )
    minus = -0.5 * (
        beurling_B(delta * (j.alpha - xs - nus)) + beurling_B(delta * (xs - j.beta + nus))
    )
    for smap, terms in ((pair.s_plus, plus), (pair.s_minus, minus)):
        direct = np.array([math.fsum(row) for row in terms])
        poly = evaluate_circle_poly(smap, 23)
        assert np.max(np.abs(direct - poly)) < 3e-5


def test_closed_form_matches_periodization_oracle():
    # The periodized construction has no content beyond degree M, and
    # within it agrees with the closed form to rounding.
    for J in (QUARTER.to_circle(), CircleInterval(-0.3, 0.41)):
        for M in (10, 57, 735):
            pair = selberg_coefficients(J, M)
            K = 4 * (M + 1)
            ms = np.arange(-M, M + 1)
            for smap, spec in zip((pair.s_plus, pair.s_minus), _periodization_spectra(J, M)):
                assert np.max(np.abs(spec[M + 1 : K - M])) < 1e-12
                got = np.array([smap[m] for m in ms])
                assert np.max(np.abs(got - spec[ms % K])) <= 1e-13


def test_selberg_circle_sandwich():
    j = QUARTER.to_circle()
    pair = selberg_coefficients(j, 10)
    xs = np.linspace(-0.5, 0.5, 10**4)
    chi = ((xs >= j.alpha) & (xs <= j.beta)).astype(float)
    sp = evaluate_circle_poly(pair.s_plus, 10**4)
    sm = evaluate_circle_poly(pair.s_minus, 10**4)
    assert np.max(chi - sp) <= 1e-9
    assert np.max(sm - chi) <= 1e-9


def test_circle_poly_fft_matches_direct_sum():
    # Grids both finer and coarser than the 2M + 1 frequencies, so that
    # coefficients fold onto shared bins.
    for J in (QUARTER.to_circle(), CircleInterval(-0.3, 0.41)):
        for M, grid in ((10, 23), (10, 3), (40, 23), (40, 4097)):
            pair = selberg_coefficients(J, M)
            xs = np.linspace(-0.5, 0.5, grid)
            for smap in (pair.s_plus, pair.s_minus):
                got = evaluate_circle_poly(smap, grid)
                assert np.max(np.abs(got - circle_poly_direct(smap, xs))) < 1e-14


def test_circle_poly_fft_matches_long_double_sum():
    # At the largest accepted approx call, against exact phases summed in
    # long double, at the grid ends, every 400th point and the 41 points
    # around each end of the interval.
    grid = 16385
    j = QUARTER.to_circle()
    pair = selberg_coefficients(j, 10000)
    ends = [round((grid - 1) * (e + 0.5)) for e in (j.alpha, j.beta)]
    js = np.unique(np.concatenate(
        [np.arange(0, grid, 400), [grid - 1], *(np.arange(e - 20, e + 21) for e in ends)]
    ))
    for smap in (pair.s_plus, pair.s_minus):
        got = evaluate_circle_poly(smap, grid)[js]
        assert float(np.max(np.abs(got - circle_poly_long_double(smap, grid, js)))) < 1e-15


def _chi_hat_scalar(J, m: int) -> complex:
    # the one-m formula in Python arithmetic
    if m == 0:
        return complex(J.length)
    num = np.exp(-2j * math.pi * m * J.alpha) - np.exp(-2j * math.pi * m * J.beta)
    return complex(num / (2j * math.pi * m))


def test_chi_hat_array_matches_scalar_bits():
    ms = np.arange(-10000, 10001)
    for J in (QUARTER.to_circle(), CircleInterval(-0.3, 0.41), CircleInterval(-0.5, 0.5)):
        got = chi_hat(J, ms)
        want = np.array([_chi_hat_scalar(J, m) for m in ms.tolist()])
        assert got.tobytes() == want.tobytes()
        one = np.array([chi_hat(J, m) for m in ms.tolist()])
        assert one.tobytes() == want.tobytes()


def test_selberg_validation():
    with pytest.raises(ValueError):
        selberg_coefficients(CircleInterval(0.0, 0.25), 0)
    with pytest.raises(ValueError):
        to_chebyshev(QUARTER, 2)


def test_to_chebyshev_zeroth_coefficient():
    # The zeroth Chebyshev coefficient exceeds mu_infty(I) by about 3/(M+1):
    # twice the circle mass defect plus the shifted m=2 defect.
    for M in (10, 50):
        pair = to_chebyshev(QUARTER, M)
        gap = pair.f_plus.coeffs[0] - mu_infty_interval(QUARTER)
        assert 0.0 < gap <= 3.0 / (M + 1)


def test_to_chebyshev_arc_sandwich():
    for M in (10, 50):
        pair = to_chebyshev(QUARTER, M)
        thetas = np.linspace(0.0, math.pi, 10**4)
        chi = ((thetas >= QUARTER.a) & (thetas <= QUARTER.b)).astype(float)
        fp = pair.f_plus.evaluate(thetas)
        fm = pair.f_minus.evaluate(thetas)
        assert np.max(chi - fp) <= 1e-9
        assert np.max(fm - chi) <= 1e-9


def test_to_chebyshev_pointwise_consistency():
    # F(theta) must reproduce S(theta/2pi) + S(-theta/2pi).
    # On linspace(-1/2, 1/2, 2001) the points 1000 + i and 1000 - i are
    # +-x for x = i/2000 in [0, 1/2].
    pair = to_chebyshev(QUARTER, 12)
    thetas = 2 * math.pi * np.linspace(-0.5, 0.5, 2001)[1000:]
    for smap, series in ((pair.s_plus, pair.f_plus), (pair.s_minus, pair.f_minus)):
        values = evaluate_circle_poly(smap, 2001)
        circle = values[1000:] + values[1000::-1]
        assert np.max(np.abs(series.evaluate(thetas) - circle)) < 1e-8


def test_cosine_coefficients_near_explicit_form():
    # scr(m) = (sin mb - sin ma)/(m pi) + O(1/(M+1)); the two circle defects
    # (at +m and -m) can align, so the sharp constant is 2.
    M = 50
    pair = to_chebyshev(QUARTER, M)
    for smap in (pair.s_plus, pair.s_minus):
        for m in range(1, M + 1):
            scr = (smap[m] + smap[-m]).real
            explicit = (math.sin(m * QUARTER.b) - math.sin(m * QUARTER.a)) / (m * math.pi)
            assert abs(scr - explicit) <= 2.0 / (M + 1) + 1e-9


def test_mu_infty_interval_examples():
    assert mu_infty_interval(ArcInterval(0.0, math.pi)) == pytest.approx(1.0)
    assert mu_infty_interval(ArcInterval(0.0, math.pi / 2)) == pytest.approx(0.5)
    assert mu_infty_interval(QUARTER) == pytest.approx(0.25 + 1 / (2 * math.pi), abs=1e-12)
    quad_grid = np.linspace(QUARTER.a, QUARTER.b, 2**10 + 1)
    quad = simpson_quadrature(
        (2 / math.pi) * np.sin(quad_grid) ** 2, quad_grid[1] - quad_grid[0]
    )
    assert mu_infty_interval(QUARTER) == pytest.approx(quad, abs=1e-10)


def test_mu_infty_interval_matches_mpmath():
    # within 6 ulp of the mass of the float arc at 200 bits (5.0 ulp at most
    # measured over 20,000 arcs): short arcs at 0, at pi and inside, where
    # (b - a)/pi - (sin 2b - sin 2a)/(2 pi) loses every digit (it read 0.0
    # on [0, 1e-9]), the whole arc, and random arcs of lengths 1e-12 to pi
    short = 10.0 ** -np.arange(1, 13)
    arcs = [(0.0, b) for b in (*short, 0.5, 1e-300)]
    arcs += [(math.pi - d, math.pi) for d in (*short, 0.5, 2.0**-51)]
    arcs += [(a, a + d) for a in (0.3, 1.0, math.pi / 2, 2.5) for d in short]
    arcs += [(0.0, math.pi), (QUARTER.a, QUARTER.b)]
    rng = np.random.default_rng(36)
    for a, d in zip(rng.random(500) * math.pi, 10.0 ** rng.uniform(-12, 0.5, 500)):
        arcs.append((a, min(a + d, math.pi)))
    for a, b in arcs:
        with mpmath.workprec(200):
            x, y = mpmath.mpf(a), mpmath.mpf(b)
            want = (y - x - mpmath.sin(y - x) * mpmath.cos(x + y)) / mpmath.pi
        got = mu_infty_interval(ArcInterval(a, b))
        assert abs(got - want) <= 6 * math.ulp(float(want)), (a, b, got, float(want))


def test_variance_sum_full_interval_decay():
    # chi_[0,pi] has no higher coefficients; the extremal defect leaves
    # residual coefficients of size ~2/(M+1)^2 at even m, so the sum decays
    # like M^{-3} rather than vanishing identically.
    for M in (10, 40, 80):
        pair = to_chebyshev(ArcInterval(0.0, math.pi), M)
        vs = variance_sum(pair)
        assert 0.0 < vs.plus <= 10.0 / M**3
        assert 0.0 < vs.minus <= 10.0 / M**3


def test_variance_sum_converges_to_bernoulli_variance():
    mu = mu_infty_interval(QUARTER)
    target = mu - mu * mu
    errs = {}
    for M in (10, 80):
        vs = variance_sum(to_chebyshev(QUARTER, M))
        errs[M] = (abs(vs.plus - target), abs(vs.minus - target))
    assert errs[80][0] <= 0.5 * math.log(80) / 80
    assert errs[80][1] <= 0.5 * math.log(80) / 80
    assert errs[80][0] < errs[10][0]
    assert errs[80][1] < errs[10][1]


def test_integrated_sandwich():
    # Under dtheta/pi the defect integral telescopes to exactly 4/(M+1);
    # under d mu_infty the m=2 coefficient shift can add up to another
    # 4/(M+1).
    thetas = np.linspace(0.0, math.pi, 2**14 + 1)
    step = thetas[1] - thetas[0]
    weight = (2.0 / math.pi) * np.sin(thetas) ** 2
    for M in (10, 50):
        pair = to_chebyshev(QUARTER, M)
        diff = pair.f_plus.evaluate(thetas) - pair.f_minus.evaluate(thetas)
        lebesgue = simpson_quadrature(diff / math.pi, step)
        assert lebesgue == pytest.approx(4.0 / (M + 1), abs=1e-9)
        sato = simpson_quadrature(diff * weight, step)
        assert sato <= 8.0 / (M + 1) + 1e-6

"""Chebyshev-of-the-second-kind evaluation, products, and coefficients."""
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from oracles import linearize_product
from satolab import chebyshev
from satolab.chebyshev import (
    ChebyshevSeries,
    _convolve,
    eval_U,
    fourier_coefficient,
    series_product,
    simpson_quadrature,
)


def recurrence_oracle(n: int, x: float) -> float:
    # Exact three-term recurrence seeded with the float value of x;
    # independent of the sine-quotient path under test.  With x = num/2^e,
    # P_k = U_k(x) 2^{e k} is an integer: P_k = 2 num P_{k-1} - 4^e P_{k-2}.
    num, den = float(x).as_integer_ratio()
    e = den.bit_length() - 1
    pm1, p = 1, 2 * num
    if n == 0:
        return 1.0
    for _ in range(n - 1):
        pm1, p = p, 2 * num * p - (pm1 << (2 * e))
    return float(Fraction(p, 1 << (e * n)))


def monomial_coeffs(n: int) -> np.ndarray:
    # U_n in the monomial basis, ascending powers, built from the recurrence.
    if n == 0:
        return np.array([1.0])
    prev, cur = np.array([1.0]), np.array([0.0, 2.0])
    for _ in range(n - 1):
        nxt = np.zeros(cur.size + 1)
        nxt[1:] = 2.0 * cur
        nxt[: prev.size] -= prev
        prev, cur = cur, nxt
    return cur


def test_eval_u_trivial_values():
    assert eval_U(0, 0.7) == 1.0
    assert eval_U(2, math.pi / 2) == pytest.approx(-1.0, abs=1e-14)


def test_eval_u_matches_exact_recurrence():
    theta = 1.2345
    x = math.cos(theta)
    for n in [1, 2, 5, 17, 40]:
        assert eval_U(n, theta) == pytest.approx(recurrence_oracle(n, x), rel=1e-12)


def test_eval_u_recurrence_agreement_high_degree():
    rng = np.random.default_rng(20260816)
    thetas = rng.uniform(0.05, math.pi - 0.05, size=12)
    for n in [100, 500, 1000]:
        for t in thetas:
            want = recurrence_oracle(n, math.cos(t))
            assert eval_U(n, t) == pytest.approx(want, rel=1e-12)


def test_eval_u_endpoints_exact():
    for n in range(0, 25):
        assert eval_U(n, 0.0) == n + 1
        assert eval_U(n, math.pi) == (-1) ** n * (n + 1)


def test_eval_u_endpoints_match_recurrence():
    # the closed form at cos(theta) = +-1 gives the float recurrence's bits
    for x, theta in ((1.0, 0.0), (-1.0, math.pi)):
        pm1, p = 1.0, 2.0 * x
        assert eval_U(0, theta) == pm1
        for n in range(1, 1001):
            assert eval_U(n, theta) == p == recurrence_oracle(n, x), (x, n)
            pm1, p = p, 2.0 * x * p - pm1


def test_eval_u_near_endpoint_stable():
    # Inside the recurrence-fallback window the value must still track the
    # limit (n+1) closely.
    for t in [1e-9, 1e-7]:
        assert eval_U(6, t) == pytest.approx(7.0, rel=1e-8)
        assert eval_U(6, math.pi - t) == pytest.approx(7.0, rel=1e-8)


def test_eval_u_rejects_bad_input():
    with pytest.raises(ValueError):
        eval_U(-1, 0.5)
    with pytest.raises(ValueError):
        eval_U(2, -0.1)
    with pytest.raises(ValueError):
        eval_U(2, 3.2)
    with pytest.raises(ValueError):
        eval_U(2, math.nan)


def test_eval_u_trivial_bound():
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, math.pi, size=200)
    for n in [0, 1, 3, 10, 25]:
        vals = eval_U(n, thetas)
        assert np.all(np.abs(vals) <= n + 1 + 1e-9)


def test_linearize_product_examples():
    assert linearize_product(2, 2) == [4, 2, 0]
    assert linearize_product(7, 0) == [7]
    assert linearize_product(3, 2) == [5, 3, 1]
    assert linearize_product(2, 3) == [5, 3, 1]


def test_linearize_product_pointwise():
    rng = np.random.default_rng(123)
    xs = rng.uniform(-1.0, 1.0, size=100)
    thetas = np.arccos(xs)
    for m in range(0, 21):
        for n in range(0, 21):
            total = sum(eval_U(k, thetas) for k in linearize_product(m, n))
            direct = eval_U(m, thetas) * eval_U(n, thetas)
            assert np.max(np.abs(direct - total)) < 1e-10 * (m + 1) * (n + 1)


def test_series_product_u1_u1():
    u1 = ChebyshevSeries(np.array([0.0, 1.0]))
    prod = series_product(u1, u1)
    assert prod.coeffs == pytest.approx([1.0, 0.0, 1.0], abs=1e-14)


def test_series_product_identity():
    one = ChebyshevSeries(np.array([1.0]))
    s = ChebyshevSeries(np.array([0.3, -1.2, 0.0, 2.5]))
    for prod in (series_product(one, s), series_product(s, one)):
        assert prod.coeffs == pytest.approx(s.coeffs, abs=1e-14)


def linearization_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Term-by-term product reduction: the direct triple loop.
    out = np.zeros(a.size + b.size - 1)
    for m, ca in enumerate(a):
        for n, cb in enumerate(b):
            for k in linearize_product(m, n):
                out[k] += ca * cb
    return out


def test_series_product_matches_triple_loop():
    # Every pair of degrees up to 8, so degree 0 on either side is covered.
    rng = np.random.default_rng(42)
    for da, db in itertools.product(range(9), repeat=2):
        a = ChebyshevSeries(rng.normal(size=da + 1))
        b = ChebyshevSeries(rng.normal(size=db + 1))
        got = series_product(a, b)
        want = linearization_oracle(a.coeffs, b.coeffs)
        assert got.degree == da + db
        assert got.coeffs == pytest.approx(want, abs=1e-12)


def test_series_product_matches_monomial_oracle():
    rng = np.random.default_rng(99)
    a = ChebyshevSeries(rng.normal(size=5))
    b = ChebyshevSeries(rng.normal(size=4))
    mono_a = sum(c * np.pad(monomial_coeffs(m), (0, 4 - m)) for m, c in enumerate(a.coeffs))
    mono_b = sum(c * np.pad(monomial_coeffs(m), (0, 3 - m)) for m, c in enumerate(b.coeffs))
    mono_prod = np.polynomial.polynomial.polymul(mono_a, mono_b)
    got = series_product(a, b)
    xs = np.linspace(-0.999, 0.999, 1000)
    lhs = got.evaluate(np.arccos(xs))
    rhs = np.polynomial.polynomial.polyval(xs, mono_prod)
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_series_product_pointwise_grid():
    rng = np.random.default_rng(5)
    a = ChebyshevSeries(rng.normal(size=13))
    b = ChebyshevSeries(rng.normal(size=8))
    prod = series_product(a, b)
    thetas = np.linspace(1e-3, math.pi - 1e-3, 1000)
    lhs = prod.evaluate(thetas)
    rhs = a.evaluate(thetas) * b.evaluate(thetas)
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_series_degree_and_validation():
    s = ChebyshevSeries([1.0, 2.0, 0.0])
    assert s.degree == 2
    with pytest.raises(ValueError):
        ChebyshevSeries([])
    with pytest.raises(ValueError):
        ChebyshevSeries([1.0, math.inf])


def test_clenshaw_matches_direct_sum():
    rng = np.random.default_rng(17)
    s = ChebyshevSeries(rng.normal(size=9))
    thetas = rng.uniform(0.0, math.pi, size=50)
    direct = sum(c * eval_U(m, thetas) for m, c in enumerate(s.coeffs))
    assert s.evaluate(thetas) == pytest.approx(direct, abs=1e-11)


def test_fourier_coefficient_orthonormality_examples():
    f = lambda t: eval_U(3, t)
    assert fourier_coefficient(f, 3) == pytest.approx(1.0, abs=1e-8)
    assert fourier_coefficient(f, 2) == pytest.approx(0.0, abs=1e-8)


def indicator_coefficient_oracle(a: float, b: float, m: int) -> float:
    # (2/pi) int_a^b U_m sin^2 = (1/pi) int_a^b cos(m t) - cos((m+2) t) dt.
    if m == 0:
        return (b - a) / math.pi - (math.sin(2 * b) - math.sin(2 * a)) / (2 * math.pi)
    return (
        (math.sin(m * b) - math.sin(m * a)) / m
        - (math.sin((m + 2) * b) - math.sin((m + 2) * a)) / (m + 2)
    ) / math.pi


def test_fourier_coefficient_indicator_closed_form():
    a, b = math.pi / 4, math.pi / 2
    chi = lambda t: ((t >= a) & (t <= b)).astype(float)
    for m in [1, 2, 3, 7]:
        want = indicator_coefficient_oracle(a, b, m)
        # Simpson on a discontinuous integrand converges slowly; the closed
        # form is the oracle and quadrature is the cross-check.
        got = fourier_coefficient(chi, m, quadrature_points=2**16)
        assert got == pytest.approx(want, abs=2e-4)


def test_gram_matrix_is_identity():
    npts = 2**12
    grid = np.linspace(0.0, math.pi, 2 * npts + 1)
    step = grid[1] - grid[0]
    weight = np.sin(grid) ** 2 * (2.0 / math.pi)
    basis = np.array([eval_U(n, grid) for n in range(31)])
    gram = np.empty((31, 31))
    for i in range(31):
        for j in range(i, 31):
            gram[i, j] = gram[j, i] = simpson_quadrature(basis[i] * basis[j] * weight, step)
    assert np.max(np.abs(gram - np.eye(31))) < 1e-8


def test_fourier_coefficient_rejects_nonfinite():
    bad = lambda t: np.where(t > 1.0, np.inf, 1.0)
    with pytest.raises(ValueError):
        fourier_coefficient(bad, 0)


def test_simpson_matches_known_integral():
    grid = np.linspace(0.0, math.pi, 2**10 + 1)
    val = simpson_quadrature(np.sin(grid), grid[1] - grid[0])
    assert val == pytest.approx(2.0, abs=1e-10)


def test_simpson_splits_long_dots():
    # up to _DOT nodes the weighted sum is one np.dot bit for bit; past that
    # its pieces of _DOT terms keep within a dot's worst-case error of the
    # exact sum, in units of sum |w_i v_i|; a NaN gives NaN
    rng = np.random.default_rng(12)
    for n in (3, chebyshev._DOT - 1, chebyshev._DOT + 1, 10_001, 131_073):
        v = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
        w = np.ones(n)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        got = simpson_quadrature(v, 3.0)  # step / 3 = 1
        if n <= chebyshev._DOT:
            assert got == np.dot(w, v), n
        bound = (n + 3) * 2.0**-53 * math.fsum(np.abs(w * v).tolist())
        assert abs(got - math.fsum((w * v).tolist())) <= bound, n
    assert math.isnan(simpson_quadrature(np.array([1.0, np.nan, 1.0]), 0.3))


def test_split_convolution_matches_long_double():
    # past _DOT coefficients in both factors the shorter splits into pieces;
    # below that _convolve is np.convolve bit for bit
    rng = np.random.default_rng(13)
    for m, n in ((5, 9), (chebyshev._DOT, 20_001), (chebyshev._DOT + 1, 20_001), (20_001, 10_001)):
        a, b = rng.standard_normal(m), rng.standard_normal(n)
        got = _convolve(a, b)
        if min(m, n) <= chebyshev._DOT:
            assert np.array_equal(got, np.convolve(a, b)), (m, n)
        # within the worst-case bound of a dot of min(m, n) terms plus the
        # adds of the pieces, in units of sum |a_i b_j|
        want = np.convolve(a.astype(np.longdouble), b.astype(np.longdouble))
        bound = (min(m, n) + 3) * 2.0**-53 * np.convolve(np.abs(a), np.abs(b))
        assert np.all(np.abs(got - want) <= bound), (m, n)


_BLAS_PROBE = """
import numpy as np
from satolab.chebyshev import ChebyshevSeries, series_product, simpson_quadrature
rng = np.random.default_rng(5)
print(simpson_quadrature(rng.standard_normal(2**17 + 1), 0.5).hex())
a, b = (ChebyshevSeries(rng.standard_normal(n)) for n in (10_001, 20_001))
print(series_product(a, b).coeffs.tobytes().hex())
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot past 10,000 terms across its threads; np.dot in
    # the Simpson sum and np.convolve in series_product then gave other bits
    # on 2 threads than on 1
    src = os.path.dirname(os.path.dirname(chebyshev.__file__))
    out = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]

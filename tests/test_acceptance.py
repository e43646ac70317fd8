"""Acceptance gate: the ten binding checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The two
Monte Carlo checks standardize in two ways: with the limit-law center
pi_L mu (whose O(loglog x) finite-x drift is visible at x = 1e4) and with
the exact model mean. Moment assertions use the drift-free model-centered
standardization; for the indicator run the limit-centered moments are
asserted as well since both pass.
"""
import math
import os
import time

import numpy as np
import pytest

from oracles import linearize_product, trace_identity_check
from satolab.chebyshev import (
    eval_U,
    simpson_quadrature,
)
from satolab.cli import main as cli_main
from satolab.ensemble import (
    EnsembleConfig,
    IndicatorStatistic,
    SmoothSpec,
    SmoothStatistic,
    run_ensemble,
    smooth_weight,
)
from satolab.chebyshev import fourier_coefficient
from satolab.measures import LocalMeasure, chebyshev_moment, moment_quadrature
from satolab.moments_engine import limit_law_m, main_term_report, partitions_of
from satolab.number_field import (
    FieldSpec,
    LevelSpec,
    higher_power_sum,
    mertens_sum,
    split_prime,
)
from satolab.selberg import (
    ArcInterval,
    chi_hat,
    evaluate_circle_poly,
    mu_infty_interval,
    to_chebyshev,
    variance_sum,
)

Q5 = FieldSpec.real_quadratic(5)
ARC = ArcInterval(math.pi / 4, math.pi / 2)
SEED = 20260816


def _line(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def indicator_run():
    config = EnsembleConfig(
        field=Q5,
        level=LevelSpec.empty(),
        x=1e4,
        size=50_000,
        seed=SEED,
        statistic=IndicatorStatistic(ARC),
        max_moment=6,
    )
    start = time.perf_counter()
    report = run_ensemble(config, threads=1)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def smooth_run():
    config = EnsembleConfig(
        field=Q5,
        level=LevelSpec.empty(),
        x=1e4,
        size=50_000,
        seed=SEED,
        statistic=SmoothStatistic(phi=SmoothSpec(kind="gaussian", lam=1.0), M=4.0),
        max_moment=4,
    )
    start = time.perf_counter()
    report = run_ensemble(config, threads=1)
    return report, time.perf_counter() - start


def test_criterion_01_chebyshev_identities():
    start = time.perf_counter()
    theta = np.linspace(0.0, math.pi, 16385)
    step = theta[1] - theta[0]
    dens = (2.0 / math.pi) * np.sin(theta) ** 2
    basis = np.vstack([eval_U(m, theta) for m in range(31)])
    gram = np.empty((31, 31))
    for m in range(31):
        for n in range(m, 31):
            val = simpson_quadrature(basis[m] * basis[n] * dens, step)
            gram[m, n] = gram[n, m] = val
    gram_err = float(np.max(np.abs(gram - np.eye(31))))

    rng = np.random.default_rng(SEED)
    pts = rng.uniform(0.0, math.pi, 100)
    upts = np.vstack([eval_U(m, pts) for m in range(41)])
    lin_err = 0.0
    for m in range(21):
        for n in range(21):
            total = np.zeros_like(pts)
            for j in linearize_product(m, n):
                total += upts[j]
            lin_err = max(lin_err, float(np.max(np.abs(upts[m] * upts[n] - total))))
    took = time.perf_counter() - start
    ok = gram_err < 1e-8 and lin_err < 1e-10 and took < 5.0
    _line(
        1,
        ok,
        f"gram_err={gram_err:.2e} (<1e-8), linearization_err={lin_err:.2e} "
        f"(<1e-10), runtime={took:.2f}s (<5s)",
    )


def test_criterion_02_local_moments():
    start = time.perf_counter()
    worst = 0.0
    for q in (2, 3, 4, 5, 25):
        measure = LocalMeasure(q)
        for m in range(21):
            err = abs(moment_quadrature(measure, m) - chebyshev_moment(measure, m))
            worst = max(worst, err)
    took = time.perf_counter() - start
    ok = worst < 1e-9 and took < 10.0
    _line(2, ok, f"max quadrature error={worst:.2e} (<1e-9), runtime={took:.2f}s (<10s)")


def test_criterion_03_extremal_contract():
    start = time.perf_counter()
    theta = np.linspace(0.0, math.pi, 10_000)
    chi = ((theta >= ARC.a) & (theta <= ARC.b)).astype(np.float64)
    circle = ARC.to_circle()
    worst_sandwich = math.inf
    worst_defect = 0.0
    closeness_ok = True
    for m_deg in (10, 50):
        pair = to_chebyshev(ARC, m_deg)
        fplus = pair.f_plus.evaluate(theta)
        fminus = pair.f_minus.evaluate(theta)
        worst_sandwich = min(
            worst_sandwich,
            float(np.min(fplus - chi)),
            float(np.min(chi - fminus)),
        )
        defect = 1.0 / (m_deg + 1)
        worst_defect = max(
            worst_defect,
            abs(pair.s_plus[0].real - circle.length - defect),
            abs(pair.s_minus[0].real - circle.length + defect),
        )
        for k in range(-m_deg, m_deg + 1):
            target = chi_hat(circle, k)
            if abs(pair.s_plus[k] - target) > defect + 1e-9:
                closeness_ok = False
            if abs(pair.s_minus[k] - target) > defect + 1e-9:
                closeness_ok = False
    took = time.perf_counter() - start
    ok = worst_sandwich >= -1e-9 and worst_defect < 1e-9 and closeness_ok and took < 30.0
    _line(
        3,
        ok,
        f"sandwich_margin={worst_sandwich:.2e} (>=-1e-9), defect_err="
        f"{worst_defect:.2e} (<1e-9), closeness within 1/(M+1)+1e-9: "
        f"{closeness_ok}, runtime={took:.2f}s (<30s)",
    )


def test_criterion_04_variance_convergence():
    mass = mu_infty_interval(ARC)
    limit = mass - mass**2
    errs = {}
    for m_deg in (10, 20, 40, 80):
        sums = variance_sum(to_chebyshev(ARC, m_deg))
        errs[m_deg] = max(abs(sums.plus - limit), abs(sums.minus - limit))
    bound_ok = all(errs[m] <= 10.0 * math.log(m) / m for m in errs)
    ok = errs[80] <= errs[10] and bound_ok
    _line(
        4,
        ok,
        f"e_10={errs[10]:.4f} e_80={errs[80]:.4f} (monotone), "
        f"all e_M <= 10 log M / M: {bound_ok}",
    )


def test_criterion_05_number_field_sums():
    start = time.perf_counter()
    drifts = [mertens_sum(Q5, x) - math.log(math.log(x)) for x in (1e4, 1e5, 1e6)]
    spread = max(drifts) - min(drifts)
    growth = higher_power_sum(Q5, 1e6) - higher_power_sum(Q5, 1e4)
    took = time.perf_counter() - start
    ok = spread <= 0.2 and 0.0 <= growth <= 0.01 and took < 60.0
    _line(
        5,
        ok,
        f"mertens drift spread={spread:.4f} (<=0.2), higher-power growth="
        f"{growth:.2e} (<=0.01), runtime={took:.2f}s (<60s)",
    )


def test_criterion_06_trace_identity():
    ideals = split_prime(Q5, 2) + split_prime(Q5, 3)  # norms 4 and 9
    config = EnsembleConfig(
        field=Q5,
        level=LevelSpec.empty(),
        x=10.0,
        size=20_000,
        seed=SEED,
        statistic=IndicatorStatistic(ARC),
    )
    even = trace_identity_check(config, ideals, (2, 2))
    odd = trace_identity_check(config, ideals, (3, 2))
    even_ok = (
        abs(even.target - 1.0 / 36.0) < 1e-15 and abs(even.z_score) <= 5.0
    )
    odd_ok = odd.target == 0.0 and abs(odd.z_score) <= 5.0
    ok = even_ok and odd_ok
    _line(
        6,
        ok,
        f"m=(2,2): mean={even.empirical:.6f} target=1/36 z={even.z_score:+.2f} "
        f"(|z|<=5); m=(3,2): z={odd.z_score:+.2f} (|z|<=5, target 0)",
    )


def test_criterion_07_indicator_clt(indicator_run):
    report, took = indicator_run
    targets = report.gaussian_targets
    z_model = [
        (m - t) / se
        for m, t, se in zip(
            report.model_centered_moments, targets, report.model_centered_standard_errors
        )
    ]
    z_limit = [
        (m - t) / se
        for m, t, se in zip(report.empirical_moments, targets, report.standard_errors)
    ]
    moments_ok = max(abs(z) for z in z_model) <= 5.0 and max(
        abs(z) for z in z_limit
    ) <= 5.0
    ks_ok = report.model_centered_ks <= 0.015
    ok = moments_ok and ks_ok and took < 300.0
    _line(
        7,
        ok,
        f"model-centered max|z|={max(abs(z) for z in z_model):.2f} (<=5), "
        f"limit-centered max|z|={max(abs(z) for z in z_limit):.2f} (<=5), "
        f"model KS={report.model_centered_ks:.6f} (<=0.015; limit-centered "
        f"KS={report.ks_statistic:.6f} carries the finite-x center drift), "
        f"runtime={took:.1f}s (<300s)",
    )


def test_criterion_08_moment_pipeline():
    # exact multinomial oracle for (z1 + z2 + z3)^4
    from fractions import Fraction
    from itertools import permutations

    sites = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)]
    acc = Fraction(0)
    for part in partitions_of(4):
        block = Fraction(0)
        for tup in permutations(range(3), len(part.parts)):
            prod = Fraction(1)
            for r, idx in zip(part.parts, tup):
                prod *= sites[idx] ** r
            block += prod
        acc += part.weight * block
    oracle_ok = acc == sum(sites) ** 4

    x = 1_000_000
    m_deg = limit_law_m(Q5, x)
    pair = to_chebyshev(ARC, m_deg)
    v = variance_sum(pair).plus
    second = main_term_report(2, Q5, x, pair, sign="plus").total
    fourth = main_term_report(4, Q5, x, pair, sign="plus").total
    rel2 = abs(second / v - 1.0)
    rel4 = abs(fourth / (3.0 * v * v) - 1.0)
    odd_vals = [abs(main_term_report(n, Q5, x, pair, sign="plus").total) for n in (1, 3)]
    ok = oracle_ok and rel2 < 0.05 and rel4 < 0.05 and max(odd_vals) < 0.1
    _line(
        8,
        ok,
        f"multinomial oracle exact: {oracle_ok}; n=2 rel err={rel2:.2e} (<5%), "
        f"n=4 rel err={rel4:.2e} (<5%), odd-n max={max(odd_vals):.2e} (<0.1) "
        f"at x=1e6, M={m_deg}",
    )


def test_criterion_09_smooth_clt(smooth_run):
    spec = SmoothSpec(kind="gaussian", lam=1.0)

    def f(theta):
        return smooth_weight(spec, 4.0, theta / math.pi)

    mean_w = fourier_coefficient(f, 0)
    var_w = fourier_coefficient(lambda th: f(th) ** 2, 0) - mean_w**2
    report, took = smooth_run
    targets = report.gaussian_targets
    z_model = [
        (m - t) / se
        for m, t, se in zip(
            report.model_centered_moments, targets, report.model_centered_standard_errors
        )
    ]
    z_limit = [
        (m - t) / se
        for m, t, se in zip(report.empirical_moments, targets, report.standard_errors)
    ]
    moments_ok = max(abs(z) for z in z_model) <= 5.0
    ok = var_w >= 0.0 and moments_ok
    _line(
        9,
        ok,
        f"V_quadrature={var_w:.6f} (>=0), model-centered z="
        f"({', '.join(f'{z:+.2f}' for z in z_model)}) (|z|<=5; limit-centered "
        f"z=({', '.join(f'{z:+.2f}' for z in z_limit)}) carries the center "
        f"drift), runtime={took:.1f}s",
    )


def test_criterion_10_thread_determinism(tmp_path):
    argv_base = [
        "clt",
        "--field",
        "sqrt5",
        "--x",
        "10000",
        "--size",
        "50000",
        "--seed",
        str(SEED),
        "--interval",
        f"{ARC.a!r}",
        f"{ARC.b!r}",
    ]
    one = str(tmp_path / "t1")
    eight = str(tmp_path / "t8")
    assert cli_main(argv_base + ["--threads", "1", "--out", one]) == 0
    assert cli_main(argv_base + ["--threads", "8", "--out", eight]) == 0
    same = True
    for name in ("report.json", "histogram.csv"):
        a = open(os.path.join(one, name), "rb").read()
        b = open(os.path.join(eight, name), "rb").read()
        same = same and a == b
    _line(10, same, "threads=1 and threads=8 reports byte-identical: " f"{same}")

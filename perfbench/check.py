"""Checks of satolab's reports against the references in oracle.py.

A reference is built once per benchmark run from the workload's inputs; each
check returns a list of problems, empty when the report is right.  Import
this module after workloads.use_checkout_source().
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.stats import chi2

import oracle
import workloads
from satolab import ensemble, rng, selberg

# A moment must lie within this many standard errors of the exact one.
Z_LIMIT = 5.0
# Chi-square false-alarm rate, and the smallest expected count of a cell.
CHI2_ALPHA = 1e-6
CHI2_MIN_EXPECTED = 20.0
MODEL_RTOL = 1e-9
THEORY_ATOL = 1e-12
MEMBER_ATOL = 1e-8
SANDWICH_SLACK = 1e-9
SANDWICH_POINTS = 1 << 14


def read_clt(out_dir: str):
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(out_dir, "histogram.csv")) as fh:
        rows = list(csv.DictReader(fh))
    edges = [float(r["bin_left"]) for r in rows] + [float(rows[-1]["bin_right"])]
    counts = [int(r["count"]) for r in rows]
    return report, np.array(edges), np.array(counts)


def _rel_close(name, got, want, rtol, problems):
    if not abs(got - want) <= rtol * abs(want):
        problems.append(f"{name}: report {got!r}, reference {want!r}")


def _limit_law(values: np.ndarray) -> tuple:
    """Mean and variance of a function of theta under (2/pi) sin^2."""
    nodes, weights = oracle.gauss_nodes(0.0, math.pi, 64, 16)
    w = (2.0 / math.pi) * np.sin(nodes) ** 2 * weights
    m1 = float(w @ values(nodes))
    return m1, float(w @ values(nodes) ** 2) - m1 * m1


# ------------------------------------------------------------------- clt


def indicator_reference(spec: dict) -> dict:
    a, b = spec["interval"]
    norms = oracle.sqrt5_norms(spec["x"])
    qs, counts = np.unique(norms, return_counts=True)
    p = np.repeat(oracle.arc_mass(qs, a, b), counts)
    mu = (b - a) / math.pi - (math.sin(2 * b) - math.sin(2 * a)) / (2 * math.pi)
    return {
        "pi_L": norms.size,
        "mean": math.fsum(p.tolist()),
        "variance": math.fsum((p * (1.0 - p)).tolist()),
        "center": norms.size * mu,
        "scale": math.sqrt(norms.size * mu * (1.0 - mu)),
        "pmf": oracle.poisson_binomial_pmf(p),
    }


def smooth_reference(spec: dict, orders: int) -> dict:
    lam, big_m = spec["lam"], spec["M"]
    norms = oracle.sqrt5_norms(spec["x"])
    qs, counts = np.unique(norms, return_counts=True)
    raw = oracle.smooth_raw_moments(qs, lam, big_m, orders)
    k = (counts[:, None] * oracle.cumulants_from_raw(raw[:, :2])).sum(axis=0)
    m1, v1 = _limit_law(lambda t: oracle.periodized_gaussian(lam, big_m, t / math.pi))
    return {
        "pi_L": norms.size,
        "mean": float(k[0]),
        "variance": float(k[1]),
        "center": norms.size * m1,
        "scale": math.sqrt(norms.size * v1),
        "qs": qs,
        "counts": counts.astype(np.float64),
        "raw": raw,
    }


def _check_moments(report, exact: np.ndarray, problems):
    """Model-centred moments against the exact ones, r = 1..R.

    exact holds E[y^r] for r = 1..2R.  The report's own jackknife error of
    y^r runs low exactly when its mean does (a sample short of large |y|
    has both), so the error used is the larger of the report's and the
    exact one, sqrt((E[y^2r] - E[y^r]^2) / size).
    """
    size = report["size"]
    for r, (got, se) in enumerate(
        zip(report["model_centered_moments"], report["model_centered_standard_errors"]),
        start=1,
    ):
        se_exact = math.sqrt(max(exact[2 * r - 1] - exact[r - 1] ** 2, 0.0) / size)
        z = (got - exact[r - 1]) / max(se, se_exact)
        if not abs(z) <= Z_LIMIT:
            problems.append(f"model-centred moment {r}: {got!r} vs exact {float(exact[r - 1])!r}, z={z:.2f}")


def _check_common(spec, report, ref, problems):
    if report["size"] != spec["size"]:
        problems.append(f"size {report['size']} != {spec['size']}")
    if report["pi_L_x"] != ref["pi_L"]:
        problems.append(f"pi_L_x {report['pi_L_x']} != {ref['pi_L']}")
    _rel_close("mean_model", report["mean_model"], ref["mean"], MODEL_RTOL, problems)
    _rel_close("variance_model", report["variance_model"], ref["variance"], MODEL_RTOL, problems)
    _rel_close("center", report["center"], ref["center"], MODEL_RTOL, problems)
    _rel_close("scale", report["scale"], ref["scale"], MODEL_RTOL, problems)


def check_indicator(spec, out_dir: str, ref: dict) -> list:
    report, edges, counts = read_clt(out_dir)
    problems = []
    _check_common(spec, report, ref, problems)
    pmf = ref["pmf"]
    k = np.arange(pmf.size, dtype=np.float64)
    y = (k - report["mean_model"]) / report["scale"]
    n_mom = len(report["model_centered_moments"])
    exact = np.array([float(pmf @ y**r) for r in range(1, 2 * n_mom + 1)])
    _check_moments(report, exact, problems)

    # Bin the exact law exactly as the program bins its samples.
    y = (k - report["center"]) / report["scale"]
    probs = np.concatenate(
        [[pmf[y < -5.0].sum()], np.histogram(y, bins=edges, weights=pmf)[0], [pmf[y > 5.0].sum()]]
    )
    observed = np.concatenate([[report["underflow"]], counts, [report["overflow"]]])
    if observed.sum() != report["size"]:
        problems.append(f"histogram holds {observed.sum()} members, not {report['size']}")
    stat, cells = _chi_square(observed, probs * report["size"])
    p_value = float(chi2.sf(stat, cells - 1))
    if p_value < CHI2_ALPHA:
        problems.append(f"histogram chi-square {stat:.1f} on {cells - 1} dof, p={p_value:.2e}")
    return problems


def _chi_square(observed, expected):
    """Pearson statistic after merging neighbouring cells below the minimum."""
    obs_cells, exp_cells = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed.tolist(), expected.tolist()):
        o_acc += o
        e_acc += e
        if e_acc >= CHI2_MIN_EXPECTED:
            obs_cells.append(o_acc)
            exp_cells.append(e_acc)
            o_acc = e_acc = 0.0
    obs_cells[-1] += o_acc
    exp_cells[-1] += e_acc
    o = np.array(obs_cells)
    e = np.array(exp_cells)
    return float(np.sum((o - e) ** 2 / e)), o.size


def check_smooth(spec, out_dir: str, ref: dict) -> list:
    report, _, counts = read_clt(out_dir)
    problems = []
    _check_common(spec, report, ref, problems)
    if counts.sum() + report["underflow"] + report["overflow"] != report["size"]:
        problems.append("histogram does not hold every member")
    exact = oracle.sum_law_moments(ref["raw"], ref["counts"], report["mean_model"], report["scale"])
    _check_moments(report, exact, problems)
    return problems


def check_members(spec, ref: dict, members) -> list:
    """Recompute member statistics from scratch and compare with the program.

    The uniforms come from the pure-Python splitmix64 and must equal
    rng.uniform_matrix bit for bit; each is inverted through a CDF built by
    quadrature of the density, and phi_M is summed over the ideals.
    """
    config = workloads.ensemble_config(spec)
    inverter = oracle.LocalInverter(ref["qs"])
    rows = np.repeat(np.arange(ref["qs"].size), ref["counts"].astype(int))
    problems = []
    if inverter.total_mass_error() > 1e-13:
        problems.append(f"quadrature CDF misses unit mass by {inverter.total_mass_error():.2e}")
    for member in members:
        key = oracle.member_key(spec["seed"], member)
        program_key = int(rng.member_keys(spec["seed"], np.array([member]))[0])
        u = np.array(oracle.uniforms(key, rows.size))
        program_u = rng.uniform_matrix(np.array([key], dtype=np.uint64), rows.size)[0]
        if key != program_key or not np.array_equal(u.view(np.uint64), program_u.view(np.uint64)):
            problems.append(f"member {member}: uniforms differ from rng.uniform_matrix")
            continue
        theta = inverter.quantile(rows, u)
        want = math.fsum(oracle.periodized_gaussian(spec["lam"], spec["M"], theta / math.pi).tolist())
        got = ensemble.member_statistic(config, member)
        if not abs(got - want) <= MEMBER_ATOL:
            problems.append(f"member {member}: statistic {got!r}, recomputed {want!r}")
    return problems


# ----------------------------------------------------------------- theory


def theory_reference(spec: dict) -> dict:
    """Main terms for n = 1..8 from the program's own extremal pair, after
    checking that pair by its defining properties."""
    a, b = spec["interval"]
    x = spec["x"]
    norms = oracle.sqrt5_norms(x)
    big_m = int(math.floor(math.sqrt(norms.size) * math.log(math.log(x))))
    interval = selberg.ArcInterval(a, b)
    pair = selberg.to_chebyshev(interval, big_m)
    problems = []
    circle = interval.to_circle()
    defect = 1.0 / (big_m + 1)
    if not abs(pair.s_plus[0].real - circle.length - defect) <= 1e-9:
        problems.append("majorant mass defect is not 1/(M+1)")
    if not abs(circle.length - pair.s_minus[0].real - defect) <= 1e-9:
        problems.append("minorant mass defect is not 1/(M+1)")
    xs = np.arange(SANDWICH_POINTS) / SANDWICH_POINTS
    xs = np.where(xs >= 0.5, xs - 1.0, xs)
    chi = ((xs >= circle.alpha) & (xs <= circle.beta)).astype(np.float64)
    if np.min(oracle.circle_values(pair.s_plus, SANDWICH_POINTS) - chi) < -SANDWICH_SLACK:
        problems.append("majorant dips below the indicator")
    if np.min(chi - oracle.circle_values(pair.s_minus, SANDWICH_POINTS)) < -SANDWICH_SLACK:
        problems.append("minorant rises above the indicator")
    scr = oracle.cosine_coefficients(pair.s_plus, big_m)
    chebyshev = scr - np.append(scr[2:], [0.0, 0.0])
    return {
        "pi_L": norms.size,
        "M": big_m,
        "variance_sum": math.fsum((chebyshev[1:] ** 2).tolist()),
        "main_terms": oracle.moment_main_terms(scr, norms, max(spec["orders"])),
        "problems": problems,
    }


def check_theory(n: int, out_dir: str, ref: dict) -> list:
    with open(os.path.join(out_dir, "theory_report.json")) as fh:
        report = json.load(fh)
    problems = list(ref["problems"])
    if report["n"] != n or report["m_used"] != ref["M"] or report["pi_L_x"] != ref["pi_L"]:
        problems.append(
            f"n/M/pi_L = {report['n']}/{report['m_used']}/{report['pi_L_x']}, "
            f"expected {n}/{ref['M']}/{ref['pi_L']}"
        )
    _rel_close("variance_sum", report["variance_sum"], ref["variance_sum"], 1e-12, problems)
    want = float(ref["main_terms"][n - 1])
    if not abs(report["main_term"] - want) <= THEORY_ATOL:
        problems.append(f"main_term n={n}: report {report['main_term']!r}, reference {want!r}")
    target = math.prod(range(n - 1, 0, -2)) * ref["variance_sum"] ** (n / 2) if n % 2 == 0 else 0.0
    if not abs(report["gaussian_target"] - target) <= 1e-12 * max(abs(target), 1.0):
        problems.append(f"gaussian_target n={n}: report {report['gaussian_target']!r}, reference {target!r}")
    return problems

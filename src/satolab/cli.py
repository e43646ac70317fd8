"""Command-line front end binding the modules into reproducible runs.

Every subcommand resolves its parameters from defaults, an optional JSON
config file, and flags (flags win), writes the resolved configuration back
out as JSON, and emits JSON reports plus CSV tables. All floats are
serialized with 17 significant digits so a rerun from the resolved config
reproduces the outputs byte for byte.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .chebyshev import fourier_coefficient
from .ensemble import (
    EnsembleConfig,
    IndicatorStatistic,
    SmoothSpec,
    SmoothStatistic,
    gaussian_moment,
    run_ensemble,
    smooth_weight,
)
from .errors import ConfigError, ContractViolation
from .measures import LocalMeasure, chebyshev_moment, moment_quadrature
from .moments_engine import (
    WeightVector,
    growth_bookkeeping,
    main_term_report,
    limit_law_m,
)
from .number_field import (
    _SIEVE_CAPACITY,
    FieldSpec,
    LevelSpec,
    enumerate_prime_ideals,
    higher_power_sum,
    mertens_sum,
)
from .selberg import (
    ArcInterval,
    chi_hat,
    evaluate_circle_poly,
    mu_infty_interval,
    to_chebyshev,
    variance_sum,
)

_SANDWICH_SLACK = 1e-9


def _checked(key: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError reported as a ConfigError naming key."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _as_float(resolved: dict, key: str) -> float:
    try:
        return float(resolved[key])
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected a number, got {resolved[key]!r}")


def _as_int(resolved: dict, key: str) -> int:
    val = resolved[key]
    try:
        if isinstance(val, bool) or int(val) != float(val):
            raise ValueError
        return int(val)
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected an integer, got {val!r}")


def _norm_bound(resolved: dict, low: float) -> float:
    x = _as_float(resolved, "x")
    if not low <= x <= _SIEVE_CAPACITY:
        raise ConfigError("x", f"norm bound must lie in [{low:g}, {_SIEVE_CAPACITY:g}]")
    return x


def _as_int_list(resolved: dict, key: str) -> list:
    try:
        return [int(v) for v in resolved[key]]
    except (TypeError, ValueError):
        raise ConfigError(key, f"expected a list of integers, got {resolved[key]!r}")


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat and len(obj) <= 8:
            return "[" + ", ".join(_render_json(v) for v in obj) + "]"
        rows = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _write_json(path: str, obj) -> None:
    _write_text(path, _render_json(obj) + "\n")


def _write_csv(path: str, header, rows) -> None:
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".17g")
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _interval_from(resolved_value, degrees: bool) -> ArcInterval:
    try:
        a, b = (float(v) for v in resolved_value)
    except (TypeError, ValueError):
        raise ConfigError("interval", "expected two endpoints")
    if degrees:
        a *= math.pi / 180.0
        b *= math.pi / 180.0
    return _checked("interval", ArcInterval, a, b)


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read '{path}': {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in '{path}': {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config", "config file must hold a JSON object")
    return data


def _resolve(sub: str, defaults: dict, args, flag_names) -> dict:
    resolved = dict(defaults)
    if getattr(args, "config", None):
        for key, val in _load_config_file(args.config).items():
            if key == "subcommand":
                if val != sub:
                    raise ConfigError(
                        "subcommand", f"config file is for '{val}', not '{sub}'"
                    )
                continue
            if key not in defaults:
                raise ConfigError(key, "unknown config key")
            resolved[key] = val
    for name in flag_names:
        val = getattr(args, name, None)
        if val is not None:
            resolved[name] = val
    for key, val in resolved.items():
        if val is None:
            raise ConfigError(key, "required value missing")
    return resolved


def _out_dir(args) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _threads(args) -> int:
    val = getattr(args, "threads", None)
    if val is None:
        env = os.environ.get("SATOLAB_THREADS")
        if env is None:
            return 1
        try:
            val = int(env)
        except ValueError:
            raise ConfigError("threads", f"SATOLAB_THREADS is not an integer: '{env}'")
    if val < 1:
        raise ConfigError("threads", "thread count must be >= 1")
    return int(val)


def _echo_path(out: str) -> str:
    return os.path.join(out, "resolved_config.json")


# ---------------------------------------------------------------- approx


def _run_approx(args) -> int:
    resolved = _resolve(
        "approx",
        {"interval": None, "m": 20, "grid": 4097},
        args,
        ("interval", "m", "grid"),
    )
    interval = _interval_from(resolved["interval"], getattr(args, "degrees", False))
    m = _as_int(resolved, "m")
    if m < 3:
        raise ConfigError("m", "trigonometric degree must be >= 3")
    grid = _as_int(resolved, "grid")
    if grid < 3:
        raise ConfigError("grid", "need at least 3 sandwich check points")
    pair = to_chebyshev(interval, m)

    circle = interval.to_circle()
    xs = np.linspace(-0.5, 0.5, grid)
    chi = ((xs >= circle.alpha) & (xs <= circle.beta)).astype(np.float64)
    fp = evaluate_circle_poly(pair.s_plus, xs)
    fm = evaluate_circle_poly(pair.s_minus, xs)
    margin_plus = float(np.min(fp - chi))
    margin_minus = float(np.min(chi - fm))
    if margin_plus < -_SANDWICH_SLACK or margin_minus < -_SANDWICH_SLACK:
        raise ContractViolation(
            "sandwich violated: min(F+ - chi) = "
            f"{margin_plus:.3e}, min(chi - F-) = {margin_minus:.3e} "
            f"at M = {m} on {grid} points"
        )

    close_plus = max(
        abs(pair.s_plus[k] - chi_hat(circle, k)) for k in range(-m, m + 1)
    )
    close_minus = max(
        abs(pair.s_minus[k] - chi_hat(circle, k)) for k in range(-m, m + 1)
    )
    sums = variance_sum(pair)
    defect = 1.0 / (m + 1)
    config = {
        "subcommand": "approx",
        "interval": [interval.a, interval.b],
        "m": m,
        "grid": grid,
    }
    out = _out_dir(args)
    report = {
        "config": config,
        "mass_defect_plus": float(pair.s_plus[0].real - circle.length),
        "mass_defect_minus": float(pair.s_minus[0].real - circle.length),
        "defect_target": defect,
        "coefficient_closeness_plus": float(close_plus),
        "coefficient_closeness_minus": float(close_minus),
        "closeness_bound": defect,
        "sandwich_margin_plus": margin_plus,
        "sandwich_margin_minus": margin_minus,
        "mu_infty_mass": mu_infty_interval(interval),
        "variance_sum_plus": sums.plus,
        "variance_sum_minus": sums.minus,
    }
    _write_json(_echo_path(out), config)
    _write_json(os.path.join(out, "approx_report.json"), report)
    _write_csv(
        os.path.join(out, "approx_coefficients.csv"),
        ("m", "f_plus", "f_minus"),
        [
            (k, pair.f_plus.coeffs[k], pair.f_minus.coeffs[k])
            for k in range(m + 1)
        ],
    )
    print(
        f"approx: M={m} defect=+/-{defect:.6g} "
        f"closeness_max={max(close_plus, close_minus):.6g}"
    )
    return 0


# --------------------------------------------------------------- measures


def _run_measures(args) -> int:
    resolved = _resolve(
        "measures",
        {"q": None, "max_m": 6, "points": 4096},
        args,
        ("q", "max_m", "points"),
    )
    q = _as_float(resolved, "q")
    max_m = _as_int(resolved, "max_m")
    points = _as_int(resolved, "points")
    if max_m < 0:
        raise ConfigError("max_m", "moment order cap must be nonnegative")
    if points < 1:
        raise ConfigError("points", "need at least 1 quadrature point")
    measure = _checked("q", LocalMeasure, q)
    rows = []
    worst = 0.0
    for m in range(max_m + 1):
        exact = chebyshev_moment(measure, m)
        quad = moment_quadrature(measure, m, points)
        err = abs(exact - quad)
        worst = max(worst, err)
        rows.append((q, m, exact, quad, err))
    config = {"subcommand": "measures", "q": q, "max_m": max_m, "points": points}
    out = _out_dir(args)
    _write_json(_echo_path(out), config)
    _write_csv(
        os.path.join(out, "measures_table.csv"),
        ("q", "m", "exact", "quadrature", "abs_err"),
        rows,
    )
    _write_json(
        os.path.join(out, "measures_report.json"),
        {"config": config, "max_abs_err": worst},
    )
    print(f"measures: q={q:g} max_m={max_m} max_abs_err={worst:.3e}")
    return 0


# ----------------------------------------------------------------- primes


def _run_primes(args) -> int:
    resolved = _resolve(
        "primes",
        {"field": "rationals", "x": None, "exclude_primes": []},
        args,
        ("field", "x", "exclude_primes"),
    )
    fs = _checked("field", FieldSpec.from_name, resolved["field"])
    x = _norm_bound(resolved, 16.0)
    excl = _as_int_list(resolved, "exclude_primes")
    level = _checked("exclude_primes", LevelSpec.above_primes, fs, excl)
    ideals = enumerate_prime_ideals(fs, x, level)
    mert = mertens_sum(fs, x)
    higher = higher_power_sum(fs, x)
    config = {
        "subcommand": "primes",
        "field": resolved["field"],
        "x": x,
        "exclude_primes": excl,
    }
    out = _out_dir(args)
    report = {
        "config": config,
        "pi_L_x": len(ideals),
        "mertens_sum": mert,
        "mertens_minus_loglog": mert - math.log(math.log(x)),
        "higher_power_sum": higher,
    }
    _write_json(_echo_path(out), config)
    _write_json(os.path.join(out, "primes_report.json"), report)
    _write_csv(
        os.path.join(out, "primes_table.csv"),
        ("norm", "p", "label", "residue_degree", "split_type"),
        [(i.norm, i.p, i.label, i.f, i.split_type) for i in ideals],
    )
    print(f"primes: field={resolved['field']} x={x:g} pi_L={len(ideals)}")
    return 0


# -------------------------------------------------------------------- clt


def _statistic_echo(stat) -> dict:
    if isinstance(stat, IndicatorStatistic):
        return {
            "kind": "indicator",
            "interval": [stat.interval.a, stat.interval.b],
        }
    echo = {"kind": "smooth", "phi": stat.phi.kind, "M": float(stat.M)}
    if stat.phi.kind == "gaussian":
        echo["lam"] = float(stat.phi.lam)
    else:
        echo["omega"] = float(stat.phi.omega)
        echo["table"] = [[float(u), float(v)] for u, v in stat.phi.table]
    return echo


def _statistic_from(resolved: dict, args) -> object:
    stat = resolved["statistic"]
    if not isinstance(stat, dict):
        raise ConfigError("statistic", "expected an object")
    stat = dict(stat)
    for flag, key in (
        ("statistic", "kind"),
        ("interval", "interval"),
        ("phi", "phi"),
        ("lam", "lam"),
        ("smooth_m", "M"),
        ("omega", "omega"),
    ):
        val = getattr(args, flag, None)
        if val is not None:
            stat[key] = val
    kind = stat.get("kind", "indicator")
    if kind == "indicator":
        if "interval" not in stat:
            raise ConfigError("interval", "indicator statistic needs an interval")
        return IndicatorStatistic(
            _interval_from(stat["interval"], getattr(args, "degrees", False))
        )
    if kind == "smooth":
        phi_kind = stat.get("phi", "gaussian")
        table = stat.get("table", ())
        try:
            table = tuple((float(u), float(v)) for u, v in table)
        except (TypeError, ValueError):
            raise ConfigError("statistic.phi.table", "expected [u, value] pairs")

        def number(key, default, name):
            try:
                return float(stat.get(key, default))
            except (TypeError, ValueError):
                raise ConfigError(name, f"expected a number, got {stat[key]!r}")

        spec = SmoothSpec(
            kind=phi_kind,
            lam=number("lam", 1.0, "statistic.phi.lambda"),
            omega=number("omega", 2.0, "statistic.phi.omega"),
            table=table,
        )
        return SmoothStatistic(phi=spec, M=number("M", 4.0, "statistic.M"))
    raise ConfigError("statistic.kind", f"unknown statistic kind '{kind}'")


def _run_clt(args) -> int:
    resolved = _resolve(
        "clt",
        {
            "field": None,
            "x": None,
            "size": None,
            "seed": None,
            "max_moment": 6,
            "exclude_primes": [],
            "statistic": {},
        },
        args,
        ("field", "x", "size", "seed", "max_moment", "exclude_primes"),
    )
    fs = _checked("field", FieldSpec.from_name, resolved["field"])
    excl = _as_int_list(resolved, "exclude_primes")
    level = _checked("exclude_primes", LevelSpec.above_primes, fs, excl)
    statistic = _statistic_from(resolved, args)
    config = EnsembleConfig(
        field=fs,
        level=level,
        x=_norm_bound(resolved, 2.0),
        size=_as_int(resolved, "size"),
        seed=_as_int(resolved, "seed"),
        statistic=statistic,
        max_moment=_as_int(resolved, "max_moment"),
    )
    report = run_ensemble(config, threads=_threads(args))
    echo = {
        "subcommand": "clt",
        "field": resolved["field"],
        "x": config.x,
        "size": config.size,
        "seed": config.seed,
        "max_moment": config.max_moment,
        "exclude_primes": excl,
        "statistic": _statistic_echo(statistic),
    }
    out = _out_dir(args)
    body = {
        "config": echo,
        "pi_L_x": report.pi_L_x,
        "size": report.size,
        "center": report.center,
        "scale": report.scale,
        "mean_model": report.mean_model,
        "variance_model": report.variance_model,
        "gaussian_targets": list(report.gaussian_targets),
        "empirical_moments": list(report.empirical_moments),
        "standard_errors": list(report.standard_errors),
        "ks_statistic": report.ks_statistic,
        "model_centered_moments": list(report.model_centered_moments),
        "model_centered_standard_errors": list(report.model_centered_standard_errors),
        "model_centered_ks": report.model_centered_ks,
        "underflow": report.underflow,
        "overflow": report.overflow,
    }
    _write_json(_echo_path(out), echo)
    _write_json(os.path.join(out, "report.json"), body)
    edges = report.histogram_edges
    _write_csv(
        os.path.join(out, "histogram.csv"),
        ("bin_left", "bin_right", "count"),
        [
            (edges[i], edges[i + 1], report.histogram_counts[i])
            for i in range(len(report.histogram_counts))
        ],
    )
    print(
        f"clt: size={report.size} ks={report.ks_statistic:.6f} "
        f"model_ks={report.model_centered_ks:.6f}"
    )
    return 0


# ------------------------------------------------------------------ theory


def _run_theory(args) -> int:
    resolved = _resolve(
        "theory",
        {
            "field": "rationals",
            "x": None,
            "n": 2,
            "interval": None,
            "m": 0,
            "sign": "plus",
            "weights": [],
        },
        args,
        ("field", "x", "n", "interval", "m", "sign", "weights"),
    )
    fs = _checked("field", FieldSpec.from_name, resolved["field"])
    x = _norm_bound(resolved, 16.0)
    n = _as_int(resolved, "n")
    sign = str(resolved["sign"])
    if sign not in ("plus", "minus"):
        raise ConfigError("sign", "sign must be 'plus' or 'minus'")
    interval = _interval_from(resolved["interval"], getattr(args, "degrees", False))
    m = _as_int(resolved, "m")
    if m == 0:
        m = limit_law_m(fs, x)
    if m < 3:
        raise ConfigError("m", f"expansion degree {m} is below 3; raise M or x")
    pair = to_chebyshev(interval, m)
    rep = _checked("n", main_term_report, n, fs, x, pair, sign=sign)
    sums = variance_sum(pair)
    v = sums.plus if sign == "plus" else sums.minus
    target = gaussian_moment(n) * v ** (n / 2.0)
    weights = _as_int_list(resolved, "weights")
    growth = None
    if weights:
        wv = _checked("weights", WeightVector, ks=tuple(weights))
        g = growth_bookkeeping(x, wv, fs=fs, n=n)
        growth = {
            "degree": g.degree,
            "m_weight_rule_short": g.m_weight_rule_short,
            "m_weight_rule_full": g.m_weight_rule_full,
            "m_limit_law": g.m_limit_law,
            "pi_L_estimate": g.pi_L_estimate,
            "hypothesis_ratio": g.hypothesis_ratio,
            "log10_budget": g.log10_budget,
            "budget": g.budget,
            "within_budget": g.within_budget,
        }
    config = {
        "subcommand": "theory",
        "field": resolved["field"],
        "x": x,
        "n": n,
        "interval": [interval.a, interval.b],
        "m": m,
        "sign": sign,
        "weights": weights,
    }
    out = _out_dir(args)
    body = {
        "config": config,
        "n": n,
        "m_used": m,
        "pi_L_x": rep.pi_L_x,
        "variance_sum": v,
        "main_term": rep.total,
        "gaussian_target": target,
        "ratio": (rep.total / target) if target != 0.0 else None,
        "case_breakdown": {
            "case1": rep.case_totals[1],
            "case2": rep.case_totals[2],
            "case3": rep.case_totals[3],
        },
        "partition_terms": [
            {"parts": list(parts), "case": case, "value": value}
            for parts, case, value in rep.partition_terms
        ],
        "growth": growth,
    }
    _write_json(_echo_path(out), config)
    _write_json(os.path.join(out, "theory_report.json"), body)
    ratio_txt = "n/a" if target == 0.0 else f"{rep.total / target:.6f}"
    print(f"theory: n={n} M={m} main_term={rep.total:.6g} ratio={ratio_txt}")
    return 0


# ------------------------------------------------------------------ smooth


def _run_smooth(args) -> int:
    resolved = _resolve(
        "smooth",
        {
            "phi": "gaussian",
            "lam": 1.0,
            "omega": 2.0,
            "table": [],
            "smooth_m": 4.0,
            "points": 513,
        },
        args,
        ("phi", "lam", "omega", "smooth_m", "points"),
    )
    try:
        table = tuple((float(u), float(v)) for u, v in resolved["table"])
    except (TypeError, ValueError):
        raise ConfigError("statistic.phi.table", "expected [u, value] pairs")
    spec = SmoothSpec(
        kind=str(resolved["phi"]),
        lam=_as_float(resolved, "lam"),
        omega=_as_float(resolved, "omega"),
        table=table,
    )
    big_m = _as_float(resolved, "smooth_m")
    if not 1.0 <= big_m < math.inf:
        raise ConfigError("smooth_m", "periodization scale must be finite and >= 1")
    points = _as_int(resolved, "points")
    if points < 2:
        raise ConfigError("points", "need at least 2 profile points")
    ts = np.linspace(0.0, 1.0, points)
    profile = smooth_weight(spec, big_m, ts)

    def f(theta):
        return smooth_weight(spec, big_m, theta / math.pi)

    mean_weight = fourier_coefficient(f, 0)
    second = fourier_coefficient(lambda th: f(th) ** 2, 0)
    variance_weight = second - mean_weight**2
    config = {
        "subcommand": "smooth",
        "phi": spec.kind,
        "lam": spec.lam,
        "omega": spec.omega,
        "table": [[u, v] for u, v in spec.table],
        "smooth_m": big_m,
        "points": points,
    }
    out = _out_dir(args)
    _write_json(_echo_path(out), config)
    _write_json(
        os.path.join(out, "smooth_report.json"),
        {
            "config": config,
            "phi_at_zero": float(smooth_weight(spec, big_m, 0.0)),
            "mean_weight": mean_weight,
            "variance_weight": variance_weight,
        },
    )
    _write_csv(
        os.path.join(out, "smooth_profile.csv"),
        ("t", "phi"),
        list(zip(ts, profile)),
    )
    print(
        f"smooth: phi={spec.kind} M={big_m:g} mean={mean_weight:.6g} "
        f"variance={variance_weight:.6g}"
    )
    return 0


# ------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satolab",
        description="Numerical laboratory for angle statistics over number fields.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default: current)")

    p = sub.add_parser("approx", help="extremal majorant/minorant diagnostics")
    common(p)
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--degrees", action="store_true", help="interval in degrees")
    p.add_argument("--M", dest="m", type=int)
    p.add_argument("--grid", type=int, help="sandwich check points")

    p = sub.add_parser("measures", help="local Chebyshev moment table")
    common(p)
    p.add_argument("--q", type=float)
    p.add_argument("--max-m", dest="max_m", type=int)
    p.add_argument("--points", type=int, help="quadrature points")

    p = sub.add_parser("primes", help="prime ideal enumeration and sums")
    common(p)
    p.add_argument("--field", help="rationals or sqrtD")
    p.add_argument("--x", type=float)
    p.add_argument("--exclude-primes", dest="exclude_primes", nargs="*", type=int)

    p = sub.add_parser("clt", help="Monte Carlo ensemble run")
    common(p)
    p.add_argument("--field", help="rationals or sqrtD")
    p.add_argument("--x", type=float)
    p.add_argument("--size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-moment", dest="max_moment", type=int)
    p.add_argument("--exclude-primes", dest="exclude_primes", nargs="*", type=int)
    p.add_argument("--statistic", choices=("indicator", "smooth"))
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--degrees", action="store_true", help="interval in degrees")
    p.add_argument("--phi", choices=("gaussian", "custom"))
    p.add_argument("--lam", type=float)
    p.add_argument("--smooth-m", dest="smooth_m", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--threads", type=int)

    p = sub.add_parser("theory", help="deterministic moment main terms")
    common(p)
    p.add_argument("--field", help="rationals or sqrtD")
    p.add_argument("--x", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--interval", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--degrees", action="store_true", help="interval in degrees")
    p.add_argument("--M", dest="m", type=int, help="0 picks the limit-law degree")
    p.add_argument("--sign", choices=("plus", "minus"))
    p.add_argument("--weights", nargs="*", type=int)

    p = sub.add_parser("smooth", help="periodized weight profile and moments")
    common(p)
    p.add_argument("--phi", choices=("gaussian", "custom"))
    p.add_argument("--lam", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--smooth-m", dest="smooth_m", type=float)
    p.add_argument("--points", type=int)
    return parser


_RUNNERS = {
    "approx": _run_approx,
    "measures": _run_measures,
    "primes": _run_primes,
    "clt": _run_clt,
    "theory": _run_theory,
    "smooth": _run_smooth,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.subcommand](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

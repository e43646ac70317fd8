"""Command-line front end binding the modules into reproducible runs.

Every subcommand resolves its parameters from defaults, an optional JSON
config file, and flags (flags win), writes the resolved configuration back
out as JSON, and emits JSON reports plus CSV tables. JSON goes through
json.dumps, one list item per line; a CSV cell is the str of its value.
Either way a float prints as its shortest round-trip repr, so a rerun from
the resolved config reproduces the outputs byte for byte. One table,
_SCHEMA, lists each subcommand's keys; it builds the argument parser,
drives the resolution and range checks, and orders the resolved-config
echo.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ensemble import (
    EnsembleConfig,
    IndicatorStatistic,
    SmoothSpec,
    SmoothStatistic,
    _smooth_profile,
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
    _SPLIT_TYPES,
    FieldSpec,
    LevelSpec,
    _outside,
    higher_power_sum,
    is_prime,
    mertens_sum,
    pi_L,
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
_CSV_BLOCK = 1 << 16
_MAX_THREADS = 64  # each worker holds one sampler block's workspace


def _plain(obj):
    """obj as json.dumps takes it: numpy scalars as Python numbers, tuples
    as lists, keys as str, and nan, inf and -inf as those strings."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return str(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_csv(path: str, header, columns) -> None:
    """Write equal-length columns under header, _CSV_BLOCK rows at a time;
    each cell is the str of its value, so a float is its shortest repr."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            cells = [map(str, c[lo : lo + _CSV_BLOCK].tolist()) for c in columns]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


# ----------------------------------------------------------------- schema

_REQUIRED = object()


class _Type(NamedTuple):
    """How one kind of config value is read: coerce raises TypeError,
    ValueError or OverflowError on a malformed value, what names the form
    it expects, and flag holds the argparse settings of its flags."""

    coerce: object
    what: str
    flag: dict = {}


def _integer(v) -> int:
    """Ints and integer strings exactly, at any size; else an integral float."""
    exact = isinstance(v, int) or isinstance(v, str) and v.lstrip("+-").isdigit()
    if isinstance(v, bool) or not (exact or float(v).is_integer()):
        raise ValueError(v)
    return int(v) if exact else int(float(v))


def _arc(v) -> list:
    a, b = map(float, v)
    return [a, b]


def _field_name(v) -> str:
    FieldSpec.from_name(v)
    return v


_TEXT = _Type(str, "a string")
_FIELD_NAME = _Type(_field_name, "rationals, q, Q or sqrtD with 1 < D <= 10^12 squarefree")
_NUMBER = _Type(float, "a number", {"type": float})
_INTEGER = _Type(_integer, "an integer", {"type": int})
_INTEGERS = _Type(
    lambda v: [_integer(u) for u in v], "a list of integers", {"nargs": "*", "type": int}
)
_ARC = _Type(_arc, "two endpoints", {"nargs": 2, "type": float, "metavar": ("A", "B")})
_PAIRS = _Type(lambda v: tuple((float(u), float(w)) for u, w in v), "[u, value] pairs")


class _Key(NamedTuple):
    """One config key: check is the range predicate on the coerced value
    and msg its complaint; flag is None for a file-only key, and rows makes
    the key an object of sub-keys (clt's statistic)."""

    name: str
    type: _Type = None
    default: object = _REQUIRED
    check: object = None
    msg: str = ""
    flag: str = None
    help: str = None
    choices: tuple = None
    rows: tuple = ()


def _positive(v: float) -> bool:
    return 0.0 < v < math.inf


def _int_key(name: str, default, lo: int, hi: int, what: str, flag: str, help=None):
    """An integer key bounded to lo..hi, so that no size runs unbounded."""
    return _Key(name, _INTEGER, default, lambda v: lo <= v <= hi,
                f"{what} must lie in {lo}..{hi}", flag, help)


def _x_key(low: float) -> _Key:
    return _Key(
        "x", _NUMBER, _REQUIRED, lambda x: low <= x <= _SIEVE_CAPACITY,
        f"norm bound must lie in [{low:g}, {_SIEVE_CAPACITY:g}]", "--x",
    )


_FIELD = _Key("field", _FIELD_NAME, "rationals", flag="--field", help="rationals or sqrtD")
_EXCLUDE = _Key(
    "exclude_primes", _INTEGERS, [],
    lambda ps: all(p < 2**64 and is_prime(p) for p in ps) and len(set(ps)) == len(ps),
    "entries must be distinct rational primes below 2^64", "--exclude-primes",
)
_INTERVAL = _Key(
    "interval", _ARC, _REQUIRED, lambda ab: 0.0 <= ab[0] < ab[1] <= math.pi,
    "need 0 <= a < b <= pi", "--interval",
)
_PHI = _Key("phi", _TEXT, "gaussian", flag="--phi", choices=("gaussian", "custom"))
_LAM = _Key("lam", _NUMBER, 1.0, _positive, "decay rate must be positive", "--lam")
_TABLE = _Key("table", _PAIRS, ())
_SCALE = _Key(
    "M", _NUMBER, 4.0, lambda v: 1.0 <= v < math.inf, "periodization scale must be finite and >= 1",
    "--smooth-m",
)

# subcommand: (help, keys in echo order)
_SCHEMA = {
    "approx": ("extremal majorant/minorant diagnostics", (
        _INTERVAL,
        _int_key("m", 20, 3, 10_000, "trigonometric degree", "--M"),
        _int_key("grid", 4097, 3, 16_385, "check points", "--grid", "sandwich check points"),
    )),
    "measures": ("local Chebyshev moment table", (
        _Key("q", _NUMBER, _REQUIRED, lambda q: 2.0 <= q < math.inf,
             "local measure norm q must be finite and >= 2", "--q"),
        _int_key("max_m", 6, 0, 1000, "moment order cap", "--max-m"),
        _int_key("points", 4096, 1, 65_536, "quadrature points", "--points",
                 "Simpson rule on 2 * points panels"),
    )),
    "primes": ("prime ideal enumeration and sums", (_FIELD, _x_key(16.0), _EXCLUDE)),
    "clt": ("Monte Carlo ensemble run", (
        _FIELD._replace(default=_REQUIRED),
        _x_key(2.0),
        _int_key("size", _REQUIRED, 100, 10**7, "ensemble size", "--size"),
        _Key("seed", _INTEGER, flag="--seed"),
        _int_key("max_moment", 6, 1, 12, "moment order cap", "--max-moment"),
        _EXCLUDE,
        _Key("statistic", default={}, rows=(
            _Key("kind", _TEXT, "indicator", flag="--statistic", choices=("indicator", "smooth")),
            _INTERVAL._replace(default=None),
            _PHI, _SCALE, _LAM, _TABLE,
        )),
    )),
    "theory": ("deterministic moment main terms", (
        _FIELD,
        _x_key(16.0),
        _int_key("n", 2, 1, 8, "moment order", "--n"),
        _INTERVAL,
        _Key("m", _INTEGER, 0, lambda m: m == 0 or 3 <= m <= 10_000,
             "expansion degree must be 0 or in 3..10000", "--M", "0 picks the limit-law degree"),
        _Key("sign", _TEXT, "plus", flag="--sign", choices=("plus", "minus")),
        _Key("weights", _INTEGERS, [], lambda ks: all(k >= 4 and k % 2 == 0 for k in ks),
             "weights must be even integers >= 4", "--weights"),
    )),
    "smooth": ("periodized weight profile and moments", (
        _PHI, _LAM, _TABLE, _SCALE._replace(name="smooth_m"),
        _int_key("points", 513, 2, 10**6, "profile points", "--points"),
    )),
}


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    and _resolve read it and never change it."""
    parser = argparse.ArgumentParser(
        prog="satolab",
        description="Numerical laboratory for angle statistics over number fields.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for sub, (about, rows) in _SCHEMA.items():
        p = subparsers.add_parser(sub, help=about)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default: current)")
        for key in (k for row in rows for k in row.rows or (row,)):
            if key.flag:
                p.add_argument(key.flag, dest=key.name, help=key.help, choices=key.choices,
                               **key.type.flag)
            if key.type is _ARC:
                p.add_argument("--degrees", action="store_true", help="interval in degrees")
        if sub == "clt":
            p.add_argument("--threads", type=int, default=1)
    return parser


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


def _resolve(sub: str, args) -> dict:
    """The resolved config of a run, which is also its echo: schema
    defaults, then the config file, then flags, each value coerced and
    range-checked."""
    given = _load_config_file(args.config) if args.config else {}
    named = given.pop("subcommand", sub)
    if named != sub:
        raise ConfigError("subcommand", f"config file is for '{named}', not '{sub}'")
    return {"subcommand": sub, **_resolve_rows(_SCHEMA[sub][1], given, args, "")}


def _resolve_rows(rows, given: dict, args, prefix: str) -> dict:
    names = {key.name for key in rows}
    for name in given:
        if name not in names:
            raise ConfigError(prefix + name, "unknown config key")
    resolved = {}
    for key in rows:
        name = prefix + key.name
        val = given.get(key.name, key.default)
        if key.rows:
            if not isinstance(val, dict):
                raise ConfigError(name, "expected an object")
            resolved[key.name] = _resolve_rows(key.rows, val, args, name + ".")
            continue
        if key.flag and getattr(args, key.name) is not None:
            val = getattr(args, key.name)
            if key.type is _ARC and args.degrees:  # file values stay radians
                val = [v * (math.pi / 180.0) for v in val]
        if val is _REQUIRED:
            raise ConfigError(name, "required value missing")
        if val is not None or key.default is not None:  # None leaves an optional key unset
            try:
                val = key.type.coerce(val)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(name, f"expected {key.type.what}, got {val!r}") from None
            if key.choices and val not in key.choices:
                raise ConfigError(name, f"expected one of {', '.join(key.choices)}")
            if key.check and not key.check(val):
                raise ConfigError(name, key.msg)
        resolved[key.name] = val
    return resolved


_SMOOTH_KEYS = {"kind": "phi", "lambda": "lam", "table": "table"}  # SmoothSpec's field: key


def _smooth_statistic(values: dict, scale: str, prefix: str = "") -> SmoothStatistic:
    """The weight of a resolved phi/lam/table group at scale values[scale],
    shared by clt and smooth; its ConfigError names the key prefix + key."""
    try:
        spec = SmoothSpec(values["phi"], values["lam"], values["table"])
        return SmoothStatistic(spec, values[scale])
    except ConfigError as exc:  # statistic.phi.<field> or statistic.M
        key = _SMOOTH_KEYS.get(exc.field.rpartition(".")[2], scale)
        raise ConfigError(prefix + key, exc.message) from None


def _emit(args, config: dict, report_name: str, report: dict, table: tuple = None) -> None:
    """Write the resolved-config echo, the report (led by that echo) and,
    given as (file name, header, columns), the CSV table of one run."""
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    report = {"config": config, **report}
    for name, obj in (("resolved_config.json", config), (report_name, report)):
        with open(os.path.join(out, name), "w", newline="") as fh:
            fh.write(json.dumps(_plain(obj), indent=2) + "\n")
    if table:
        name, header, columns = table
        _write_csv(os.path.join(out, name), header, columns)


def _threads(args) -> int:
    if not 1 <= args.threads <= _MAX_THREADS:
        raise ConfigError("threads", f"thread count must lie in 1..{_MAX_THREADS}")
    return args.threads


# ---------------------------------------------------------------- approx


def _run_approx(args, config: dict) -> int:
    interval = ArcInterval(*config["interval"])
    m, grid = config["m"], config["grid"]
    pair = to_chebyshev(interval, m)

    circle = interval.to_circle()
    xs = np.linspace(-0.5, 0.5, grid)
    chi = ((xs >= circle.alpha) & (xs <= circle.beta)).astype(np.float64)
    margin_plus = float(np.min(evaluate_circle_poly(pair.s_plus, grid) - chi))
    margin_minus = float(np.min(chi - evaluate_circle_poly(pair.s_minus, grid)))
    if margin_plus < -_SANDWICH_SLACK or margin_minus < -_SANDWICH_SLACK:
        raise ContractViolation(
            "sandwich violated: min(F+ - chi) = "
            f"{margin_plus:.3e}, min(chi - F-) = {margin_minus:.3e} "
            f"at M = {m} on {grid} points"
        )

    chi_k = chi_hat(circle, np.arange(-m, m + 1))
    close_plus = float(np.max(np.abs(np.array(list(pair.s_plus.values())) - chi_k)))
    close_minus = float(np.max(np.abs(np.array(list(pair.s_minus.values())) - chi_k)))
    sums = variance_sum(pair)
    defect = 1.0 / (m + 1)
    report = {
        "mass_defect_plus": float(pair.s_plus[0].real - circle.length),
        "mass_defect_minus": float(pair.s_minus[0].real - circle.length),
        "defect_target": defect,
        "coefficient_closeness_plus": close_plus,
        "coefficient_closeness_minus": close_minus,
        "closeness_bound": defect,
        "sandwich_margin_plus": margin_plus,
        "sandwich_margin_minus": margin_minus,
        "mu_infty_mass": mu_infty_interval(interval),
        "variance_sum_plus": sums.plus,
        "variance_sum_minus": sums.minus,
    }
    coeffs = (np.arange(m + 1), pair.f_plus.coeffs[: m + 1], pair.f_minus.coeffs[: m + 1])
    _emit(args, config, "approx_report.json", report,
          ("approx_coefficients.csv", ("m", "f_plus", "f_minus"), coeffs))
    print(
        f"approx: M={m} defect=+/-{defect:.6g} "
        f"closeness_max={max(close_plus, close_minus):.6g}"
    )
    return 0


# --------------------------------------------------------------- measures


def _run_measures(args, config: dict) -> int:
    q, max_m, points = config["q"], config["max_m"], config["points"]
    measure = LocalMeasure(q)
    rows = []
    worst = 0.0
    for m in range(max_m + 1):
        exact = chebyshev_moment(measure, m)
        quad = moment_quadrature(measure, m, points)
        err = abs(exact - quad)
        worst = max(worst, err)
        rows.append((q, m, exact, quad, err))
    _emit(args, config, "measures_report.json", {"max_abs_err": worst},
          ("measures_table.csv", ("q", "m", "exact", "quadrature", "abs_err"), zip(*rows)))
    print(f"measures: q={q:g} max_m={max_m} max_abs_err={worst:.3e}")
    return 0


# ----------------------------------------------------------------- primes


def _run_primes(args, config: dict) -> int:
    fs = FieldSpec.from_name(config["field"])
    x = config["x"]
    table = _outside(fs, x, LevelSpec.above_primes(fs, config["exclude_primes"]))
    mert = mertens_sum(fs, x)
    higher = higher_power_sum(fs, x)
    report = {
        "pi_L_x": table.norm.size,
        "mertens_sum": mert,
        "mertens_minus_loglog": mert - math.log(math.log(x)),
        "higher_power_sum": higher,
    }
    columns = (*table[:4], np.array(_SPLIT_TYPES, dtype=object)[table.code])
    _emit(args, config, "primes_report.json", report,
          ("primes_table.csv", ("norm", "p", "label", "residue_degree", "split_type"), columns))
    print(f"primes: field={config['field']} x={x:g} pi_L={table.norm.size}")
    return 0


# -------------------------------------------------------------------- clt


def _run_clt(args, echo: dict) -> int:
    fs = FieldSpec.from_name(echo["field"])
    stat = echo["statistic"]
    if stat["kind"] == "indicator":
        if stat["interval"] is None:
            raise ConfigError("statistic.interval", "indicator statistic needs an interval")
        statistic = IndicatorStatistic(ArcInterval(*stat["interval"]))
        shown = ("kind", "interval")
    else:
        statistic = _smooth_statistic(stat, "M", "statistic.")
        used = ("lam",) if stat["phi"] == "gaussian" else ("table",)
        shown = ("kind", "phi", "M") + used
    echo["statistic"] = {key: stat[key] for key in shown}
    config = EnsembleConfig(
        field=fs,
        level=LevelSpec.above_primes(fs, echo["exclude_primes"]),
        x=echo["x"],
        size=echo["size"],
        seed=echo["seed"],
        statistic=statistic,
        max_moment=echo["max_moment"],
    )
    report = run_ensemble(config, threads=_threads(args))
    body = asdict(report)
    edges, counts = body.pop("histogram_edges"), body.pop("histogram_counts")
    _emit(args, echo, "report.json", body,
          ("histogram.csv", ("bin_left", "bin_right", "count"), (edges[:-1], edges[1:], counts)))
    print(
        f"clt: size={report.size} ks={report.ks_statistic:.6f} "
        f"model_ks={report.model_centered_ks:.6f}"
    )
    return 0


# ------------------------------------------------------------------ theory


def _run_theory(args, config: dict) -> int:
    fs = FieldSpec.from_name(config["field"])
    x, n, sign, weights = config["x"], config["n"], config["sign"], config["weights"]
    if config["m"] == 0:
        # the run's own count, from the ideal table that main_term_report reads
        config["m"] = limit_law_m(fs, x, pi_L(fs, x))
        if config["m"] < 3:
            raise ConfigError("m", f"limit-law degree {config['m']} is below 3; raise M or x")
    m = config["m"]
    pair = to_chebyshev(ArcInterval(*config["interval"]), m)
    rep = main_term_report(n, fs, x, pair, sign=sign)
    sums = variance_sum(pair)
    v = sums.plus if sign == "plus" else sums.minus
    target = gaussian_moment(n) * v ** (n / 2.0)
    growth = None
    if weights:
        growth = asdict(growth_bookkeeping(x, WeightVector(ks=tuple(weights)), fs=fs, n=n))
        del growth["x"], growth["n"]  # the config echo holds them
    body = {
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
    _emit(args, config, "theory_report.json", body)
    ratio_txt = "n/a" if target == 0.0 else f"{rep.total / target:.6f}"
    print(f"theory: n={n} M={m} main_term={rep.total:.6g} ratio={ratio_txt}")
    return 0


# ------------------------------------------------------------------ smooth


def _run_smooth(args, config: dict) -> int:
    statistic = _smooth_statistic(config, "smooth_m")
    spec, big_m = statistic.phi, statistic.M
    ts = np.linspace(0.0, 1.0, config["points"])
    profile = smooth_weight(spec, big_m, ts)
    (mean_weight,), _, variance_weight = _smooth_profile(spec, big_m, 0)
    report = {
        "phi_at_zero": float(smooth_weight(spec, big_m, 0.0)),
        "mean_weight": mean_weight,
        "variance_weight": variance_weight,
    }
    _emit(args, config, "smooth_report.json", report,
          ("smooth_profile.csv", ("t", "phi"), (ts, profile)))
    print(
        f"smooth: phi={spec.kind} M={big_m:g} mean={mean_weight:.6g} "
        f"variance={variance_weight:.6g}"
    )
    return 0


# ------------------------------------------------------------------- main


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
        return _RUNNERS[args.subcommand](args, _resolve(args.subcommand, args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

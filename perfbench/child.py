"""One round of a workload in a fresh process.

    python3 perfbench/child.py '<request JSON>'

The request holds the workload spec, the mode and the output directory.
In "time" mode the process imports satolab, sets up, makes the workload's
CLI calls and reports its own timings and peak memory.  In "trace" mode it
times the calls into each module's public functions instead, then makes the
CLI calls with every module function the CLI uses wrapped in a timer.  The
last line of stdout is one JSON object.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

BLOCK = 2048  # members per RNG call, the shape of one sampler block


def _clock(fn, *args, **kwargs):
    t = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t, out


def _run_calls(cli, calls):
    done = []
    for label, argv, _ in calls:
        seconds, rc = _clock(cli.main, argv)
        done.append({"label": label, "rc": rc, "s": seconds})
    return done


def time_round(spec: dict, out_dir: str) -> dict:
    workloads.use_checkout_source()
    from satolab import cli, ensemble
    from satolab.number_field import FieldSpec, enumerate_prime_ideals

    enumerate_prime_ideals(FieldSpec.real_quadratic(5), spec["x"])
    if spec["kind"] != "theory":
        ensemble.member_statistic(workloads.ensemble_config(spec), 0)
    setup = time.perf_counter() - _T0
    calls = _run_calls(cli, workloads.cli_calls(spec, out_dir))
    return {
        "setup_s": setup,
        "calls": calls,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ------------------------------------------------------------------ trace


def _probe_rng(spec, out):
    import numpy as np
    from satolab.rng import member_keys, uniform_matrix

    n_ideals = out["_pi_L"][spec["x"]]
    spent = 0.0
    for i0 in range(0, spec["size"], BLOCK):
        i1 = min(i0 + BLOCK, spec["size"])
        t = time.perf_counter()
        uniform_matrix(member_keys(spec["seed"], np.arange(i0, i1, dtype=np.uint64)), n_ideals)
        spent += time.perf_counter() - t
    out["rng.uniform_matrix_s"] = spent
    out["rng.uniforms_per_s"] = spec["size"] * n_ideals / spent


def _probe_measures(spec, out):
    import numpy as np
    from satolab.measures import LocalMeasure, cdf

    qs = np.unique(out["_norms"][spec["x"]])
    grid = np.linspace(0.0, math.pi, 4097)
    t = time.perf_counter()
    for q in qs:
        cdf(LocalMeasure(q), grid)
    spent = time.perf_counter() - t
    out["measures.cdf_table_s"] = spent
    out["measures.cdf_evals_per_s"] = qs.size * grid.size / spent


def _probe_chebyshev(spec, out):
    from satolab.chebyshev import fourier_coefficient
    from satolab.ensemble import SmoothSpec, smooth_weight

    phi = SmoothSpec(kind="gaussian", lam=spec["lam"])
    # The sampler expands phi_M and phi_M^2 in U_2n up to the longest local
    # series, whose length is set by the smallest norm (terms above 1e-14).
    n_max = int(math.floor(math.log(1e14) / math.log(min(out["_norms"][spec["x"]]))))

    def f(theta):
        return smooth_weight(phi, spec["M"], theta / math.pi)

    def f2(theta):
        return f(theta) ** 2

    t = time.perf_counter()
    for g in (f, f2):
        for n in range(n_max + 1):
            fourier_coefficient(g, 2 * n)
    out["chebyshev.fourier_coefficient_s"] = time.perf_counter() - t


def _probe_ensemble(spec, out, parallel):
    """Context, RNG and member loop on one clt spec.  The RNG is timed right
    before the one-thread run, on the same shape, so that the difference
    (the loop's own time) compares like with like."""
    from satolab import ensemble

    config = workloads.ensemble_config(spec)
    out["ensemble.context_s"], _ = _clock(ensemble.member_statistic, config, 0)
    _probe_rng(spec, out)
    runs = {}
    for threads in sorted({1, parallel, spec["threads"]}):
        runs[threads], _ = _clock(ensemble.run_ensemble, config, threads=threads)
    out["ensemble.run_s"] = runs[spec["threads"]]
    out["ensemble.self_s"] = runs[1] - out["rng.uniform_matrix_s"]
    out["ensemble.thread_speedup"] = runs[1] / runs[parallel]


def _probe_theory(spec, out):
    from satolab.moments_engine import ZSeries, limit_law_m, main_term_report, z_power_coeffs
    from satolab.number_field import FieldSpec
    from satolab.selberg import ArcInterval, to_chebyshev

    fs = FieldSpec.real_quadratic(5)
    big_m = limit_law_m(fs, spec["x"])
    out["selberg.to_chebyshev_s"], pair = _clock(to_chebyshev, ArcInterval(*spec["interval"]), big_m)
    z = ZSeries.from_extremal(pair, "plus")
    t = time.perf_counter()
    for r in spec["orders"]:
        z_power_coeffs(z, r)
    out["moments_engine.z_power_s"] = time.perf_counter() - t
    per_n = {n: _clock(main_term_report, n, fs, spec["x"], pair)[0] for n in spec["orders"]}
    out["moments_engine.main_term_s"] = math.fsum(per_n.values())
    out["moments_engine.main_term_n8_s"] = per_n[8]


def _traced_cli_calls(cli, calls):
    """CLI calls with each satolab function the CLI module calls timed;
    returns the calls and the CLI's own time outside those functions."""
    spent = [0.0]

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - t

        return wrapper

    originals = {
        name: obj
        for name, obj in vars(cli).items()
        if inspect.isfunction(obj)
        and obj.__module__.startswith("satolab.")
        and obj.__module__ != cli.__name__
    }
    for name, fn in originals.items():
        setattr(cli, name, timed(fn))
    try:
        done = _run_calls(cli, calls)
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    return done, math.fsum(c["s"] for c in done) - spent[0]


def trace_round(spec: dict, homes: dict, out_dir: str) -> dict:
    """Per-layer timings.  Layers the workload reaches are timed on its own
    inputs; the others on the inputs of the workload that reaches them
    (clt-smooth for the sampler layers, theory-moments for the expansion)."""
    workloads.use_checkout_source()
    import numpy as np
    from satolab import cli
    from satolab.number_field import FieldSpec, enumerate_prime_ideals

    fs = FieldSpec.real_quadratic(5)
    out = {"_norms": {}, "_pi_L": {}}
    for s in [spec] + list(homes.values()):
        if s["x"] in out["_norms"]:
            continue
        seconds, ideals = _clock(enumerate_prime_ideals, fs, s["x"])
        norms = np.array([ideal.norm for ideal in ideals], dtype=np.float64)
        out["_norms"][s["x"]] = norms
        out["_pi_L"][s["x"]] = norms.size
        if s is spec:
            out["number_field.enumerate_s"] = seconds
            out["number_field.ideals"] = norms.size
            out["number_field.distinct_norms"] = int(np.unique(norms).size)

    sampler = spec if spec["kind"] != "theory" else homes["clt-smooth"]
    smooth = spec if spec["kind"] == "smooth" else homes["clt-smooth"]
    theory = spec if spec["kind"] == "theory" else homes["theory-moments"]
    parallel = min(2, len(os.sched_getaffinity(0)))
    _probe_measures(smooth, out)
    _probe_chebyshev(smooth, out)
    _probe_ensemble(sampler, out, parallel)
    _probe_theory(theory, out)
    calls, out["cli.overhead_s"] = _traced_cli_calls(cli, workloads.cli_calls(spec, out_dir))
    return {"layers": {k: v for k, v in out.items() if not k.startswith("_")}, "calls": calls}


def main() -> int:
    request = json.loads(sys.argv[1])
    if request["mode"] == "trace":
        result = trace_round(request["spec"], request["homes"], request["out"])
    else:
        result = time_round(request["spec"], request["out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

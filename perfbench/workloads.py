"""The three workloads: their inputs, made from the benchmark seed, and the
satolab command lines that run them.

A spec is a plain JSON-able dict, so the runner can hand it to a fresh
child process.  The program receives only what the spec holds; the
benchmark seed itself never reaches it.
"""
from __future__ import annotations

import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

ARC = [0.7853981633974483, 1.5707963267948966]  # [pi/4, pi/2]
NAMES = ("clt-indicator", "clt-smooth", "theory-moments")
# Members of a clt run: two sampler blocks of 2048.  At this size the
# exact-law checks have a false-alarm rate near 1e-6 per run (README).
CLT_SIZE = 4096
MEMBERS_RECOMPUTED = 3


def use_checkout_source():
    """Put the checkout's src/ first on sys.path and import satolab from it.

    Exits with status 2 when the checkout holds no satolab source, so a
    copy of the benchmark alone never measures some other installed copy.
    """
    if not os.path.isfile(os.path.join(SRC, "satolab", "__init__.py")):
        _fail(f"no satolab source under {SRC}")
    sys.path.insert(0, SRC)
    import satolab

    if os.path.dirname(os.path.dirname(os.path.abspath(satolab.__file__))) != SRC:
        _fail(f"satolab was imported from {satolab.__file__}, not {SRC}")


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _program_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def make_spec(workload: str, seed: int) -> dict:
    if workload == "clt-indicator":
        return {
            "workload": workload,
            "kind": "indicator",
            "x": 1e5,
            "size": CLT_SIZE,
            "seed": _program_seed(workload, seed),
            "interval": ARC,
            "threads": 1,
        }
    if workload == "clt-smooth":
        prog_seed = _program_seed(workload, seed)
        return {
            "workload": workload,
            "kind": "smooth",
            "x": 1e4,
            "size": CLT_SIZE,
            "seed": prog_seed,
            "lam": 1.0,
            "M": 4.0,
            "threads": 2,
            "members": sorted(random.Random(prog_seed).sample(range(CLT_SIZE), MEMBERS_RECOMPUTED)),
        }
    if workload == "theory-moments":
        return {
            "workload": workload,
            "kind": "theory",
            "x": 1e6,
            "interval": ARC,
            "orders": list(range(1, 9)),
        }
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(NAMES)}")


def _num(v) -> str:
    return repr(float(v))


def cli_calls(spec: dict, out_dir: str, threads: int = None) -> list:
    """(label, argv, out) for each satolab CLI call of one round."""
    if spec["kind"] == "theory":
        return [
            (
                f"n{n}",
                ["theory", "--field", "sqrt5", "--x", _num(spec["x"]), "--interval",
                 *map(_num, spec["interval"]), "--n", str(n), "--out", os.path.join(out_dir, f"n{n}")],
                os.path.join(out_dir, f"n{n}"),
            )
            for n in spec["orders"]
        ]
    argv = ["clt", "--field", "sqrt5", "--x", _num(spec["x"]), "--size", str(spec["size"]),
            "--seed", str(spec["seed"]), "--statistic", spec["kind"]]
    if spec["kind"] == "indicator":
        argv += ["--interval", *map(_num, spec["interval"])]
    else:
        argv += ["--phi", "gaussian", "--lam", _num(spec["lam"]), "--smooth-m", _num(spec["M"])]
    argv += ["--threads", str(threads or spec["threads"]), "--out", out_dir]
    return [("clt", argv, out_dir)]


def ensemble_config(spec: dict):
    """The EnsembleConfig the CLI builds for a clt spec (equal, so it shares
    the sampler's cached context)."""
    from satolab.ensemble import EnsembleConfig, IndicatorStatistic, SmoothSpec, SmoothStatistic
    from satolab.number_field import FieldSpec, LevelSpec
    from satolab.selberg import ArcInterval

    if spec["kind"] == "indicator":
        statistic = IndicatorStatistic(ArcInterval(*spec["interval"]))
    else:
        statistic = SmoothStatistic(SmoothSpec(kind="gaussian", lam=spec["lam"]), M=spec["M"])
    return EnsembleConfig(
        field=FieldSpec.real_quadratic(5),
        level=LevelSpec.empty(),
        x=spec["x"],
        size=spec["size"],
        seed=spec["seed"],
        statistic=statistic,
    )

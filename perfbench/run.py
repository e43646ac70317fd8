"""satolab benchmark: one workload, timed in fresh processes, checked against
references computed apart from the program.

    python3 perfbench/run.py --workload clt-indicator --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  Rounds (one fresh process each) repeat
until --seconds have passed; every round makes the same CLI calls on the
same inputs.  The last line of stdout is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

# Every run must end within 180 s; rounds still running at this point
# after the start are stopped and their calls count as failed.
DEADLINE_S = 170
OUTPUT_FILES = {"clt": ("report.json", "histogram.csv"), "theory": ("theory_report.json",)}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "draws_per_s": "angles/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "number_field.enumerate_s": "s",
    "number_field.ideals": "count",
    "number_field.distinct_norms": "count",
    "rng.uniform_matrix_s": "s",
    "rng.uniforms_per_s": "1/s",
    "measures.cdf_table_s": "s",
    "measures.cdf_evals_per_s": "1/s",
    "chebyshev.fourier_coefficient_s": "s",
    "ensemble.context_s": "s",
    "ensemble.run_s": "s",
    "ensemble.self_s": "s",
    "ensemble.thread_speedup": "ratio",
    "selberg.to_chebyshev_s": "s",
    "moments_engine.z_power_s": "s",
    "moments_engine.main_term_s": "s",
    "moments_engine.main_term_n8_s": "s",
    "cli.overhead_s": "s",
}


class Checker:
    """Checks each CLI call's outputs.  The first output of each call is
    checked in full; a later one must match it byte for byte and then gets
    the same verdict."""

    def __init__(self, spec: dict, keep_root: str):
        import check

        self.spec = spec
        self.keep_root = keep_root
        self.kind = spec["kind"]
        self.first = {}
        self.problems = []
        if self.kind == "indicator":
            self.ref = check.indicator_reference(spec)
        elif self.kind == "smooth":
            self.ref = check.smooth_reference(spec, 12)
            self.problems += check.check_members(spec, self.ref, spec["members"])
        else:
            self.ref = check.theory_reference(spec)

    def outputs(self, out_dir: str) -> list:
        names = OUTPUT_FILES["theory" if self.kind == "theory" else "clt"]
        return [os.path.join(out_dir, name) for name in names]

    def __call__(self, label: str, out_dir: str) -> list:
        import check

        files = self.outputs(out_dir)
        if label in self.first:
            kept, verdict = self.first[label]
            same = all(filecmp.cmp(a, b, shallow=False) for a, b in zip(kept, files))
            return list(verdict) if same else [f"{label}: outputs differ from the first round"]
        try:
            if self.kind == "indicator":
                problems = check.check_indicator(self.spec, out_dir, self.ref)
            elif self.kind == "smooth":
                problems = check.check_smooth(self.spec, out_dir, self.ref)
            else:
                problems = check.check_theory(int(label[1:]), out_dir, self.ref)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{label}: unreadable output ({exc})"]
        keep = os.path.join(self.keep_root, label)
        os.makedirs(keep, exist_ok=True)
        self.first[label] = ([shutil.copy(f, keep) for f in files], problems)
        return list(problems)

    def thread_invariance(self, out_root: str) -> list:
        """The clt-smooth report at one thread must match the timed rounds'
        (two threads) byte for byte."""
        from satolab import cli

        out_dir = os.path.join(out_root, "one-thread")
        (_, argv, _), = workloads.cli_calls(self.spec, out_dir, threads=1)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            return ["one-thread run failed"]
        if "clt" not in self.first:
            return []
        kept, _ = self.first["clt"]
        same = all(filecmp.cmp(a, b, shallow=False) for a, b in zip(kept, self.outputs(out_dir)))
        return [] if same else ["outputs at one thread differ from two threads"]


def run_round(request: dict, timeout: float) -> tuple:
    """One fresh process; returns (wall seconds, parsed result or None)."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, child, json.dumps(request)],
            capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t, None
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return wall, None
    return wall, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    workloads.use_checkout_source()
    spec = workloads.make_spec(args.workload, args.seed)
    out_base = os.path.join(workloads.ROOT, "perfbench", "_out")
    out_root = os.path.join(out_base, f"{args.workload}-{os.getpid()}")
    try:
        return _measure(args, spec, out_root, deadline)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(out_base)


def _measure(args, spec, out_root, deadline) -> int:
    checker = Checker(spec, os.path.join(out_root, "first"))
    mode = "trace" if args.trace else "time"
    homes = {name: workloads.make_spec(name, args.seed) for name in ("clt-smooth", "theory-moments")}
    rounds = []
    attempted = failed = 0
    wrong = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        out_dir = os.path.join(out_root, "round")
        calls = workloads.cli_calls(spec, out_dir)
        request = {"mode": mode, "spec": spec, "homes": homes, "out": out_dir}
        wall, result = run_round(request, deadline - time.perf_counter())
        attempted += len(calls)
        if result is None:
            failed += len(calls)
        else:
            rounds.append((wall, result))
            for call, (label, _, call_out) in zip(result["calls"], calls):
                problems = checker(label, call_out) if call["rc"] == 0 else [f"{label}: exit {call['rc']}"]
                if call["rc"] == 0:
                    problems += checker.problems
                if problems:
                    failed += 1
                    if call["rc"] == 0:
                        wrong += problems
        shutil.rmtree(out_dir, ignore_errors=True)
    if spec["kind"] == "smooth":
        problems = checker.thread_invariance(out_root)
        if problems:
            wrong += problems
            failed = attempted
    for problem in dict.fromkeys(wrong):
        print(f"check failed: {problem}", file=sys.stderr)
    if not rounds:
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    metrics = per_layer(rounds) if args.trace else end_to_end(spec, checker.ref["pi_L"], rounds)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(spec: dict, pi_l: int, rounds: list) -> dict:
    """Medians over rounds.  draws_per_s counts angles: size x pi_L per clt
    call; on theory-moments, the pi_L angles whose law each of the calls
    integrates exactly, over the whole sweep."""
    if spec["kind"] == "theory":
        angles = len(spec["orders"]) * pi_l
    else:
        angles = spec["size"] * pi_l
    values = {
        "wall_s": [w for w, _ in rounds],
        "setup_s": [r["setup_s"] for _, r in rounds],
        "draws_per_s": [angles / sum(c["s"] for c in r["calls"]) for _, r in rounds],
        "peak_rss_mb": [r["rss_mb"] for _, r in rounds],
    }
    return {k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(rounds: list) -> dict:
    return {
        k: {"value": statistics.median(r["layers"][k] for _, r in rounds), "unit": unit}
        for k, unit in PER_LAYER_UNITS.items()
    }


if __name__ == "__main__":
    sys.exit(main())

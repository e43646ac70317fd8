"""Byte-identity replay: run one fixed set of CLI calls on two source trees
and compare every output byte for byte.

    python tools/replay.py PARENT_SRC CHANGE_SRC OUT

PARENT_SRC and CHANGE_SRC are directories that hold the satolab package
(a checkout's src/).  Each call runs once per tree, in a fresh process with
PYTHONPATH set to that tree and OUT/parent or OUT/change as its working
directory, and writes into a directory named after the call, where its
stdout, stderr and exit code are kept too.  The calls cover theory (moment
orders 1..8, the minorant, fixed degree and weights, the Ei branch of
pi_L, Q at x = 1e7, whose block sums run over 664,579 norms, sqrt13 on the
arc [0, 1], and Q at M = 10000, whose Z^2 has 10,001 U_2n coefficients),
clt (indicator with a level on one and two threads, over Q, a refused arc,
and smooth, over Q at x = 1e6 with 78,498 norms in its model sums) and
primes with levels over four fields, so they read every report that
mertens_sum, higher_power_sum, the ideal table, the local expectations
and the sampler reach.  OUT must be new or empty.  Exits 0 when both trees wrote the same
files with the same bytes; otherwise lists every path that differs or is
on one side only and exits 1.
"""
from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import time

QUARTER = ["--interval", "0.7853981633974483", "1.5707963267948966"]
CLT = ["clt", "--size", "3000", "--seed", "31"]
CALLS = {
    **{
        f"theory_sqrt5_1e6_n{n}": ["theory", "--field", "sqrt5", "--x", "1e6", *QUARTER, "--n", str(n)]
        for n in range(1, 9)
    },
    "theory_Q_1e5_M40_weights": [
        "theory", "--field", "Q", "--x", "1e5", *QUARTER, "--M", "40", "--weights", "6", "8", "10",
    ],
    "theory_sqrt5_3e6_ei": ["theory", "--field", "sqrt5", "--x", "3e6", *QUARTER, "--weights", "4", "4"],
    "theory_sqrt5_1e6_n8_minus": [
        "theory", "--field", "sqrt5", "--x", "1e6", *QUARTER, "--n", "8", "--sign", "minus",
    ],
    "theory_Q_1e7_n8": ["theory", "--field", "Q", "--x", "1e7", *QUARTER, "--n", "8"],
    "theory_sqrt13_1e6_n8_arc01": [
        "theory", "--field", "sqrt13", "--x", "1e6", "--interval", "0", "1", "--n", "8",
    ],
    "theory_Q_1e5_M10000_n2": ["theory", "--field", "Q", "--x", "1e5", *QUARTER, "--M", "10000", "--n", "2"],
    **{
        f"clt_indicator_sqrt5_1e5_level_threads{t}": [
            *CLT, "--field", "sqrt5", "--x", "1e5", *QUARTER, "--exclude-primes", "5", "11",
            "--threads", str(t),
        ]
        for t in (1, 2)
    },
    "clt_indicator_Q_1e5": [*CLT, "--field", "Q", "--x", "1e5", "--interval", "0", "1"],
    "clt_indicator_sqrt5_1e4_refused": [*CLT, "--field", "sqrt5", "--x", "1e4", "--interval", "0", "1e-9"],
    "clt_smooth_sqrt5_1e4": [
        "clt", "--size", "2048", "--seed", "31", "--field", "sqrt5", "--x", "1e4",
        "--statistic", "smooth", "--threads", "2",
    ],
    "clt_smooth_Q_2e5": [
        "clt", "--size", "1024", "--seed", "31", "--field", "Q", "--x", "2e5", "--statistic", "smooth",
    ],
    "clt_smooth_Q_1e6": [
        "clt", "--statistic", "smooth", "--field", "Q", "--x", "1e6", "--size", "100", "--seed", "31",
    ],
    "primes_sqrt5_1e6": ["primes", "--field", "sqrt5", "--x", "1e6", "--exclude-primes", "3", "5", "11"],
    "primes_sqrt2_1e5": [
        "primes", "--field", "sqrt2", "--x", "1e5", "--exclude-primes", "2", "7", "3037000493",
    ],
    "primes_Q_1e5": ["primes", "--field", "Q", "--x", "1e5", "--exclude-primes", "2", "3"],
    "primes_sqrt13_1e5": [
        "primes", "--field", "sqrt13", "--x", "1e5", "--exclude-primes", "13", "3", "17", "100003",
    ],
}
MAIN = "import sys; from satolab.cli import main; sys.exit(main(sys.argv[1:]))"


def run_tree(src: str, home: str) -> None:
    """Every call on the tree at src, each in a fresh process, into home."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for name, argv in CALLS.items():
        os.makedirs(os.path.join(home, name))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", MAIN, *argv, "--out", name],
            cwd=home, env=env, capture_output=True,
        )
        for suffix, data in (("stdout", done.stdout), ("stderr", done.stderr),
                             ("exit_code", f"{done.returncode}\n".encode())):
            with open(os.path.join(home, name, f"_{suffix}.txt"), "wb") as fh:
                fh.write(data)
        print(f"{home}: {name} exit {done.returncode} in {time.perf_counter() - start:.1f} s")


def files_under(root: str) -> set:
    return {
        os.path.relpath(os.path.join(top, f), root)
        for top, _, names in os.walk(root)
        for f in names
    }


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent_src, change_src, out = argv
    for src in (parent_src, change_src):
        if not os.path.isfile(os.path.join(src, "satolab", "cli.py")):
            print(f"{src} holds no satolab package", file=sys.stderr)
            return 2
    if os.path.exists(out) and os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    homes = os.path.join(out, "parent"), os.path.join(out, "change")
    for src, home in zip((parent_src, change_src), homes):
        run_tree(src, home)
    paths = files_under(homes[0]) | files_under(homes[1])
    differ = sorted(
        p for p in paths
        if not all(os.path.isfile(os.path.join(h, p)) for h in homes)
        or not filecmp.cmp(*(os.path.join(h, p) for h in homes), shallow=False)
    )
    for p in differ:
        print(f"differs: {p}")
    print(f"{len(paths)} files from {len(CALLS)} calls per tree, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Check that the benchmark's simulation-exact values repeat.

    python3 perfbench/check_determinism.py [--seed 11] [--other-seed 12]
        [--seconds 2] [workload ...]

For every workload (default: all four) this runs ``run.py`` twice with
one seed and once with another.  It fails unless the two same-seed runs
print the same ``sim_digest`` -- the digest of every count, delay, round
trip and bound miss of the window -- and the other seed's run passes its
output checks.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("lan_burst", "lan_secure_bulk", "mesh_rpc", "mesh_churn")


def digest(workload: str, seed: int, seconds: float) -> str:
    """Run one workload; return its sim_digest (raises on failure)."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-500:]}"
        )
    for line in completed.stdout.splitlines():
        if "sim_digest=" in line:
            return line.split("sim_digest=", 1)[1].split()[0]
    raise RuntimeError(f"{workload} seed {seed}: no sim_digest line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--other-seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        try:
            first = digest(workload, args.seed, args.seconds)
            second = digest(workload, args.seed, args.seconds)
            other = digest(workload, args.other_seed, args.seconds)
        except RuntimeError as failure:
            print(f"FAIL {failure}")
            ok = False
            continue
        same = first == second
        ok = ok and same
        print(f"{'ok  ' if same else 'FAIL'} {workload}: seed {args.seed} "
              f"{first} / {second}; seed {args.other_seed} {other}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

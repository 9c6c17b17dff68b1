#!/usr/bin/env python3
"""Run the full experiment battery and drop traces under an output directory.

Covers the 2x2 non-contraction instance, the 3x3 divergence demo at orders
0.2 and 0.4, random-ensemble fixed-point runs at orders 0.8/1.5/3/5, one
capacity run, and one market run per schedule kind.  Pass --small to shrink
the random ensembles for a quick smoke run.
"""

import argparse
import os
import sys
from pathlib import Path


def commands(root: Path, small: bool, seed: int) -> list[list[str]]:
    """The CLI argument lists of the battery, in the order they run."""
    n, d = ("8", "16") if small else ("32", "128")
    seed = str(seed)
    suite = [
        ["counterexample", "--out", str(root / "counterexample")],
        [
            "divergence-demo",
            "--iters", "60",
            "--polyak-steps", "1000",
            "--out", str(root / "divergence_demo"),
        ],
    ]
    for alpha in ("0.8", "1.5", "3", "5"):
        suite.append(
            [
                "augustin",
                "--n", n, "--d", d,
                "--alpha", alpha,
                "--iters", "60",
                "--seed", seed,
                "--out", str(root / f"augustin_alpha{alpha}"),
            ]
        )
    suite.append(
        [
            "classical",
            "--n", n, "--d", d,
            "--alpha", "1.5",
            "--iters", "60",
            "--seed", seed,
            "--out", str(root / "classical_alpha1.5"),
        ]
    )
    suite.append(
        [
            "capacity",
            "--n", "4", "--d", "2",
            "--alpha", "0.8",
            "--outer-steps", "50",
            "--seed", seed,
            "--out", str(root / "capacity"),
        ]
    )
    for schedule in ("synchronous", "round-robin", "random"):
        suite.append(
            [
                "fisher",
                "--buyers", "5", "--goods", "6",
                "--epochs", "20",
                "--schedule", schedule,
                "--seed", seed,
                "--out", str(root / f"fisher_{schedule}"),
            ]
        )
    return suite


def main() -> int:
    from augustin_lab.cli import main as cli_main

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/suite", help="output root directory")
    parser.add_argument("--small", action="store_true", help="shrink ensembles for a quick run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    root = Path(args.out)
    failures = []
    for argv in commands(root, args.small, args.seed):
        print(f"\n$ augustin-lab {' '.join(argv)}")
        code = cli_main(argv)
        if code != 0:
            failures.append((argv, code))

    if failures:
        print(f"\n{len(failures)} task(s) failed:")
        for argv, code in failures:
            print(f"  exit {code}: {' '.join(argv)}")
        return 1
    print(f"\nall tasks complete; outputs under {root}/")
    return 0


if __name__ == "__main__":
    # Pin BLAS to one thread before numpy loads, keeping a value the caller
    # set: at these sizes a threaded BLAS thrashes the cores, and problem
    # construction puts the idle ones to work instead.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.exit(main())

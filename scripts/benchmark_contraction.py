#!/usr/bin/env python3
"""Print the empirical per-sweep contraction factor against |1 - 1/alpha|,
and the paper's plain sweep against the accelerated solve.

For each order, builds a random ensemble, runs a long reference sweep, and
reports the worst observed ratio of successive Thompson distances to the
reference together with its theoretical ceiling.  Beside it stand three
counts: the plain sweeps until the O(n) certificate reaches the solver's
default stop (r <= 2 * residual_tol), the rows the solver takes with
safeguarded mixing, and the mixed points its safeguard rejected.
"""

import argparse

import numpy as np

from augustin_lab.augustin import (
    DEFAULT_RESIDUAL_TOL,
    certificate,
    contraction_factor,
    initial_state,
    petz_augustin_step,
    solve_petz_augustin,
)
from augustin_lab.divergences import AugustinProblem
from augustin_lab.linalg import random_density_ensemble, thompson_metric_psd


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--d", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument(
        "--alphas", type=float, nargs="+", default=[0.6, 0.8, 1.5, 3.0, 5.0]
    )
    args = parser.parse_args()

    print(f"n={args.n} d={args.d} seed={args.seed}")
    print(
        f"{'order':>8} {'ceiling':>10} {'worst ratio':>12} {'steps used':>11} "
        f"{'plain sweeps':>13} {'solver rows':>12} {'rejected':>9}"
    )
    for alpha in args.alphas:
        states = random_density_ensemble(args.seed, args.n, args.d)
        problem = AugustinProblem.create(states, np.full(args.n, 1 / args.n), alpha)
        state = initial_state(problem, np.eye(args.d, dtype=complex) / args.d)
        trajectory = [state]
        for _ in range(args.steps):
            state = petz_augustin_step(problem, state)
            trajectory.append(state)
        ref = trajectory[-1]
        ref_power = ref.power * ref.trace ** (alpha - 1.0)
        distances = []
        for s in trajectory:
            dist = thompson_metric_psd(ref_power, s.power)
            if dist < 1e-6:
                break
            distances.append(dist)
        ratios = [distances[t + 1] / distances[t] for t in range(len(distances) - 1)]
        plain = next(
            (
                s.step
                for s in trajectory[1:]
                if certificate(problem, s) <= 2.0 * DEFAULT_RESIDUAL_TOL
            ),
            None,
        )
        report = solve_petz_augustin(problem, max_iter=args.steps)
        print(
            f"{alpha:8.2f} {contraction_factor(alpha):10.4f} "
            f"{max(ratios):12.6f} {len(ratios):11d} "
            f"{'-' if plain is None else plain:>13} {len(report.iterates) - 1:12d} "
            f"{report.rejected_mixes:9d}"
        )


if __name__ == "__main__":
    main()

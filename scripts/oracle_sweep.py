#!/usr/bin/env python3
"""Sweep seeded random models: junction-tree solver vs brute-force backward induction.

Prints per-bucket worst relative errors and timing.  Exits nonzero on any
disagreement beyond 1e-9 relative.
"""

import argparse
import time

from idjt import brute_force, compile_diagram, rollout, solve
from idjt.randmodels import random_model


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", type=int, default=200)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--heuristic", choices=["min-fill", "min-weight"], default="min-fill")
    args = parser.parse_args()

    t0 = time.perf_counter()
    worst_meu = worst_policy = 0.0
    worst_seed = None
    for i in range(args.models):
        seed = args.seed0 + i
        model = random_model(seed, structural_zeros=seed % 2 == 1)
        tree, *_ = compile_diagram(model, heuristic=args.heuristic)
        result = solve(tree, model)
        ref = brute_force(model)
        achieved = rollout(model, list(result.policies))
        e1, e2 = rel_err(result.meu, ref.meu), rel_err(achieved, ref.meu)
        if max(e1, e2) > max(worst_meu, worst_policy):
            worst_seed = seed
        worst_meu = max(worst_meu, e1)
        worst_policy = max(worst_policy, e2)
    elapsed = time.perf_counter() - t0

    print(f"models: {args.models}  heuristic: {args.heuristic}  time: {elapsed:.1f}s")
    print(f"worst meu rel err:    {worst_meu:.3e}  (seed {worst_seed})")
    print(f"worst policy rel err: {worst_policy:.3e}")
    ok = worst_meu <= 1e-9 and worst_policy <= 1e-9
    print("agreement" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

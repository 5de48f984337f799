#!/usr/bin/env python3
"""Reproduce the headline covertness experiments.

Runs the warden's best-threshold error search across slot lengths for the
three constructions (uniform jam power over AWGN, constant jam power over a
one-block faded link, constant jam power over a four-block faded link) and
writes one curve.csv per construction.

Full-scale run (10k trials per hypothesis, the acceptance setting):

    python scripts/covertness_experiments.py --trials 10000 --out results/
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from covertsim import harness, model  # noqa: E402


def build_scenarios():
    awgn = model.Scenario(
        slots=model.SlotStructure(n=1000, M=1, p=0.5),
        jammer=model.JammerStrategy(kind=model.UNIFORM_PER_SLOT, power=1.0),
    )
    fading = model.Scenario(
        slots=model.SlotStructure(n=400, M=1, p=0.5),
        channels=model.Channels(aw="awgn", ab="awgn", jw="fading", jb="awgn"),
        jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=1.0),
    )
    multi = model.Scenario(
        slots=model.SlotStructure(n=400, M=4, p=0.5),
        channels=model.Channels(aw="awgn", ab="awgn", jw="fading", jb="awgn"),
        jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=1.0),
    )
    return {
        "awgn_uniform": (awgn, [1000, 10_000]),
        "fading_m1": (fading, [400, 1600, 6400]),
        "fading_m4": (multi, [400, 1600, 6400]),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--trials", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    for name, (scenario, n_list) in build_scenarios().items():
        curve = harness.covertness_curve(scenario, args.eps, n_list, args.trials, args.seed)
        path = os.path.join(args.out, f"curve_{name}.csv")
        harness.write_curve_csv(path, curve)
        print(f"{name} (P_f = {curve.scenario['P_f']:g}):")
        for row in curve.rows:
            print(f"  n={row.n:>6}  min(P_FA+P_MD) = {row.min_sum:.4f} "
                  f"[{row.ci_lo:.4f}, {row.ci_hi:.4f}]")
        print(f"  -> {path}")


if __name__ == "__main__":
    main()

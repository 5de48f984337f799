#!/usr/bin/env python3
"""Certify the structural properties the detectors rely on.

Checks, in order: likelihood-ratio ordering of the mixing distributions,
monotonicity of every log LRT variant, the per-block factorization of the
multi-block statistic, and the Monte Carlo mass of the decision-boundary
neighborhood against its analytic bound.  Exits 1 when any ordering or
monotonicity check fails or the boundary roots disagree with the corner test
or fail to resolve.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from covertsim import detectors, theory  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--draws", type=int, default=5000)
    ap.add_argument("--grid-points", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    ok = True

    zeta, sw2 = 1.0, 1.0
    sa_awgn, sa_fading = zeta * args.eps / 4.0, zeta * args.eps / 8.0

    print("likelihood-ratio order of the mixing families:")
    pairs = {
        "uniform windows": (
            theory.uniform_logdensity(0.0, zeta),
            theory.uniform_logdensity(sa_awgn, sa_awgn + zeta),
            np.linspace(1e-6, sa_awgn + 1.2 * zeta, 2001),
        ),
        "shifted exponentials": (
            theory.shifted_exponential_logdensity(0.0, zeta),
            theory.shifted_exponential_logdensity(sa_fading, zeta),
            np.linspace(1e-6, 12.0, 2001),
        ),
        "gamma scale family": (
            theory.gamma_logdensity(8.0, sw2),
            theory.gamma_logdensity(8.0, sw2 + sa_fading),
            np.linspace(1e-3, 80.0, 2001),
        ),
    }
    for name, (d0, d1, grid) in pairs.items():
        rep = theory.check_lr_order(d0, d1, grid)
        ok &= rep.passed
        print(f"  {name:22s} {'PASS' if rep.passed else 'FAIL'} "
              f"(worst step {rep.worst_violation:.2e})")

    print("log-LRT monotonicity:")
    grid = theory.GridSpec(points=args.grid_points)
    configs = {
        "uniform mixture": detectors.LrtConfig(
            variant=detectors.AWGN_UNIFORM, n=100, M=1, sigma_w2=sw2,
            zeta=zeta, sigma_a2=sa_awgn, log_gamma=0.0),
        "single block": detectors.LrtConfig(
            variant=detectors.M1_EXPONENTIAL, n=100, M=1, sigma_w2=sw2,
            zeta=zeta, sigma_a2=sa_fading, log_gamma=0.0),
        "four blocks": detectors.LrtConfig(
            variant=detectors.MBLOCK_PRODUCT, n=400, M=4, sigma_w2=sw2,
            zeta=zeta, sigma_a2=sa_fading, log_gamma=0.0),
    }
    for name, cfg in configs.items():
        for rep in theory.check_lrt_monotone(cfg, grid):
            ok &= rep.passed
            print(f"  {name:22s} axis {rep.axis}: "
                  f"{'PASS' if rep.passed else 'FAIL'} "
                  f"(worst step {rep.worst_violation:.2e})")

    print("boundary-region mass (two blocks):")
    cfg = detectors.LrtConfig(
        variant=detectors.MBLOCK_PRODUCT, n=200, M=2, sigma_w2=sw2,
        zeta=zeta, sigma_a2=sa_fading, log_gamma=0.0)
    delta = theory.delta_for_boundary_mass(args.eps, 2, zeta)
    region = theory.estimate_boundary_mass(
        cfg, delta, cfg.log_gamma, args.draws, args.seed)
    print(f"  delta = {delta:g}, mass = {region.mass:.4f} "
          f"[{region.ci[0]:.4f}, {region.ci[1]:.4f}], "
          f"analytic bound = {region.analytic_bound:g}, "
          f"root cross-check mismatches = {region.spot_mismatches}, "
          f"failures = {region.failures}")
    ok &= region.spot_mismatches == 0 and region.failures == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

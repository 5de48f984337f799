"""Command-line front end: parse a scenario config, run an experiment, emit
CSV/JSON artifacts.

Exit codes: 0 success, 2 usage or config problem (any ValueError, such as an
out-of-range argument or an artifact that cannot be written), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__, detectors, harness, model, theory, throughput
from .model import ConfigError
from .numerics import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write(args, scenario, digest, artifacts, **extra):
    """Write each artifact into --out under its file name, then manifest.json.

    A (header, rows) pair becomes a CSV whose rows are streamed, with
    full-precision cells (str of a Python or numpy float is its shortest
    round-tripping repr, of a numpy integer its digits); anything else is
    written as JSON.  The manifest names the run and lists the artifacts.  A
    file that cannot be written is a ConfigError.
    """
    manifest = {
        "command": args.command,
        "scenario": scenario.to_dict(),
        "seed": args.seed,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config_sha256": digest,
        "outputs": sorted(artifacts),
        **extra,
    }
    for name, body in {**artifacts, "manifest.json": manifest}.items():
        path = os.path.join(args.out, name)
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                if isinstance(body, tuple):
                    header, rows = body
                    fh.write(",".join(header) + "\n")
                    for row in rows:
                        fh.write(",".join(map(str, row)) + "\n")
                else:
                    json.dump(body, fh, indent=2)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _parse_list(text, convert, name):
    """The comma-separated items of text, blanks skipped, each converted."""
    try:
        values = [convert(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {name} list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"{name} list is empty")
    return values


def _add_common(p):
    p.add_argument("config", help="scenario config (JSON)")
    p.add_argument("--seed", type=int, default=0, help="run seed (default: 0)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; must be >= 1 and changes nothing")


def cmd_covertness(args, scenario, digest):
    n_list = [scenario.slots.n] if args.n_list is None else sorted(_parse_list(args.n_list, int, "n"))
    P_f, rows = harness.covertness_curve(scenario, args.eps, n_list, args.trials, args.seed)
    _write(args, scenario, digest, {"curve.csv": (
        ["n", "threshold", "min_sum", "ci_lo", "ci_hi"],
        [(n, r.threshold, r.sum, *r.ci_sum) for n, r in rows],
    )}, epsilon=args.eps, trials=args.trials, P_f=P_f)
    for n, r in rows:
        lo, hi = r.ci_sum
        print(f"n={n}: min(P_FA+P_MD)={r.sum:.4f} "
              f"[{lo:.4f}, {hi:.4f}] at threshold {r.threshold:.6g}")
    return EXIT_OK


def cmd_roc(args, scenario, digest):
    if args.grid_points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {args.grid_points}")
    cfg = detectors.config_for_scenario(scenario)
    ss = harness.collect_statistics(scenario, cfg, args.trials, args.seed)
    # quantiles of the sorted pooled statistics, ties kept, so two statistics
    # that become equal move only the thresholds taken at them
    pooled = np.sort(np.concatenate([ss.stats_h0, ss.stats_h1]))
    points = min(args.grid_points, len(pooled))
    grid = pooled[np.linspace(0, len(pooled) - 1, points).astype(int)]
    rates = harness.sweep_thresholds(ss, grid)
    _write(args, scenario, digest, {"roc.csv": (
        ["threshold", "p_fa", "p_md", "ci_fa_lo", "ci_fa_hi", "ci_md_lo", "ci_md_hi"],
        [(r.threshold, r.p_fa, r.p_md, *r.ci_fa, *r.ci_md) for r in rates],
    )}, trials=args.trials, statistic=ss.kind)
    print(f"wrote {len(rates)} operating points to {os.path.join(args.out, 'roc.csv')}")
    return EXIT_OK


def cmd_check(args, scenario, digest):
    cfg = detectors.config_for_scenario(scenario)
    results = theory.structural_checks(cfg, theory.GridSpec(points=args.grid_points))
    for name, rep in results.items():
        print(f"{name}: {'PASS' if rep.passed else 'FAIL'}"
              f" (worst {rep.worst_violation:.3e})")
    report = {name: dataclasses.asdict(rep) for name, rep in results.items()}
    for entry in report.values():  # strict JSON has no NaN or infinity
        if not math.isfinite(entry["worst_violation"]):
            entry["worst_violation"] = None
    _write(args, scenario, digest, {"check.json": {"variant": cfg.variant, "checks": report}})
    if not all(rep.passed for rep in results.values()):
        raise NumericalError("one or more structural checks failed")
    return EXIT_OK


# boundary.csv's rows become Python numbers this many draws at a time
_CSV_SLICE = 512


def _boundary_rows(region):
    """boundary.csv's rows, one slice of draws converted at a time, so that
    no list of every draw is held."""
    for start in range(0, len(region.draw_x), _CSV_SLICE):
        xs = region.draw_x[start:start + _CSV_SLICE].tolist()
        hits = region.draw_in_region[start:start + _CSV_SLICE].tolist()
        for i, (x, hit) in enumerate(zip(xs, hits), start):
            yield (i, *x, int(hit))


def cmd_boundary(args, scenario, digest):
    cfg = detectors.config_for_scenario(scenario)
    delta = theory.delta_for_boundary_mass(args.eps, cfg.M, cfg.zeta)
    region = theory.estimate_boundary_mass(cfg, delta, cfg.log_gamma, args.draws, args.seed)
    header = ["draw"] + [f"x{m + 1}" for m in range(cfg.M)] + ["in_region"]
    _write(args, scenario, digest, {
        "boundary.csv": (header, _boundary_rows(region)),
        "boundary.json": {
            "M": cfg.M, "n": cfg.n, "delta": delta,
            "log_gamma": cfg.log_gamma, "draws": args.draws,
            "failures": region.failures, "mass": region.mass,
            "ci": list(region.ci), "analytic_bound": region.analytic_bound,
            "spot_checks": region.spot_checks,
            "spot_mismatches": region.spot_mismatches,
        },
    }, delta=delta, draws=args.draws)
    print(f"boundary mass {region.mass:.4f} "
          f"[{region.ci[0]:.4f}, {region.ci[1]:.4f}], bound {region.analytic_bound:.4f}")
    if region.failures or region.spot_mismatches:
        raise NumericalError(
            f"the statistic fell along {region.failures} spot-check axes and"
            f" {region.spot_mismatches} draws disagreed with the corner sign test"
        )
    return EXIT_OK


def cmd_capacity(args, scenario, digest):
    pf_values = [scenario.P_f] if args.pf_list is None else _parse_list(args.pf_list, float, "P_f")
    n = scenario.slots.n
    # with_updates validates each P_f; one set of fading draws serves them all
    pf_values = [model.with_updates(scenario, P_f=pf).P_f for pf in pf_values]
    rates = throughput.outage_capacities(scenario, args.outage, args.samples, args.seed,
                                         pf_values)
    rows = [(pf, scenario.jammer.power, args.outage, rate, throughput.covert_bits(n, rate))
            for pf, rate in zip(pf_values, rates)]
    _write(args, scenario, digest,
           {"capacity.csv": (["P_f", "P_j", "outage_prob", "R", "bits"], rows)},
           samples=args.samples, n=n)
    for pf, pj, q, rate, bits in rows:
        print(f"P_f={pf:g}: R={rate:.6g} bits/symbol, {bits} bits in n={n}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="covertsim",
        description="Covert communication simulations with an uninformed jammer",
    )
    parser.add_argument("--version", action="version", version=f"covertsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("covertness", help="best-detector error sums across slot lengths")
    _add_common(p)
    p.add_argument("--eps", type=float, default=0.1, help="covertness target")
    p.add_argument("--n-list", default=None, help="comma-separated slot lengths")
    p.add_argument("--trials", type=int, default=harness.DEFAULT_TRIALS,
                   help="Monte Carlo trials per hypothesis")
    p.set_defaults(fn=cmd_covertness)

    p = sub.add_parser("roc", help="threshold sweep on a shared sample set")
    _add_common(p)
    p.add_argument("--trials", type=int, default=harness.DEFAULT_TRIALS)
    p.add_argument("--grid-points", type=int, default=101,
                   help="operating points (quantiles of the pooled statistics)")
    p.set_defaults(fn=cmd_roc)

    p = sub.add_parser("check", help="likelihood-ratio order and monotonicity checks")
    _add_common(p)
    p.add_argument("--grid-points", type=int, default=400,
                   help="grid resolution for the monotonicity scan")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("boundary", help="decision-boundary neighborhood mass (M > 1)")
    _add_common(p)
    p.add_argument("--eps", type=float, default=0.1,
                   help="target mass; sets delta = eps*zeta/(2M)")
    p.add_argument("--draws", type=int, default=10_000)
    p.set_defaults(fn=cmd_boundary)

    p = sub.add_parser("capacity", help="outage capacity and covert bit counts")
    _add_common(p)
    p.add_argument("--outage", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=100_000, help="fading draws")
    p.add_argument("--pf-list", default=None, help="comma-separated transmit powers")
    p.set_defaults(fn=cmd_capacity)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out!r}: {exc.strerror}") from exc
        return args.fn(args, *model.load_scenario(args.config))
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

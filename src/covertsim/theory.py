"""Numerical certification of the structural properties the detectors rely
on: likelihood-ratio ordering of the mixing distributions, monotonicity of
the log LRTs, and the mass of the decision-boundary neighborhood under the
multi-block detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import detectors, synth
from .model import ConfigError
from .numerics import wilson_interval

# a step of the log likelihood ratio (relative, for the LRTs) below -_TOL
# fails an ordering or monotonicity check
_TOL = 1e-9


# ---------------------------------------------------------------------------
# likelihood-ratio order


@dataclass(frozen=True)
class GridCheck:
    """Result of checking that a quantity is nondecreasing along a grid.

    ``worst_violation`` is the first most negative step, or 0.0 when no step
    fell (a NaN step falls); ``worst_at`` is the grid point where that step
    ends, or None.  The check passes when the step is at least -_TOL.
    """

    passed: bool
    worst_violation: float
    worst_at: Optional[float]


@dataclass(frozen=True)
class LogDensity:
    """A log density with explicit support bounds.

    ``fn`` is only consulted strictly inside (lo, hi); outside, the density
    is zero and the log density minus infinity.
    """

    fn: Callable
    lo: float
    hi: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        inside = (x > self.lo) & (x < self.hi)
        if np.any(inside):
            out[inside] = self.fn(x[inside])
        return out if out.shape else float(out)


def uniform_logdensity(lo, hi):
    if hi <= lo:
        raise ValueError("need hi > lo")
    level = -math.log(hi - lo)
    return LogDensity(fn=lambda x: np.full(np.shape(x), level), lo=lo, hi=hi)


def shifted_exponential_logdensity(shift, mean):
    if mean <= 0:
        raise ValueError("mean must be positive")
    return LogDensity(
        fn=lambda x: -math.log(mean) - (x - shift) / mean, lo=shift, hi=math.inf
    )


def gamma_logdensity(k, s):
    if k <= 0:
        raise ValueError(f"shape must be positive, got {k}")
    if s <= 0:
        raise ValueError("scale must be positive")
    return LogDensity(
        fn=lambda x: (k - 1.0) * np.log(x) - x / s - math.lgamma(k) - k * np.log(s),
        lo=0.0, hi=math.inf,
    )


def gaussian_logdensity(mu, var):
    if var <= 0:
        raise ValueError("variance must be positive")
    c = -0.5 * math.log(2.0 * math.pi * var)
    return LogDensity(
        fn=lambda x: c - 0.5 * (x - mu) ** 2 / var, lo=-math.inf, hi=math.inf
    )


def check_lr_order(density0, density1, grid):
    """Verify the likelihood-ratio order density0 <= density1 on a grid.

    The log ratio log f1 - log f0 must be nondecreasing across the grid.
    Points where both densities vanish are outside the union of supports and
    are skipped; where only f0 vanishes the ratio is +inf, where only f1
    vanishes it is -inf (the extended-ratio convention, under which the
    ordering is still checkable).  A step between equal ratios, inf to inf
    included, is 0; the worst step is the first most negative one.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be 1-D and strictly increasing")
    l0 = np.broadcast_to(density0(grid), grid.shape)
    l1 = np.broadcast_to(density1(grid), grid.shape)
    keep = (l0 > -np.inf) | (l1 > -np.inf)
    l0, l1, xs = l0[keep], l1[keep], grid[keep]
    ratio = np.where(l0 == -np.inf, np.inf, np.where(l1 == -np.inf, -np.inf, l1 - l0))
    with np.errstate(invalid="ignore"):  # inf - inf, overwritten with 0
        steps = np.where(ratio[1:] == ratio[:-1], 0.0, np.diff(ratio))
    return _verdict(xs, steps)


def _verdict(xs, steps):
    """The GridCheck of the steps between the values at grid points xs."""
    i = int(np.argmin(steps)) if steps.size else 0  # a NaN step is the argmin
    if not steps.size or steps[i] >= 0:
        return GridCheck(True, 0.0, None)
    worst = float(steps[i])
    return GridCheck(worst >= -_TOL, worst, float(xs[i + 1]))


# ---------------------------------------------------------------------------
# LRT monotonicity


@dataclass(frozen=True)
class GridSpec:
    """Geometric grid in average power per sample (z over sample count),
    from 0.1 to 10."""

    points: int

    def values(self):
        return np.geomspace(0.1, 10.0, self.points)


def _statistic(cfg, X):
    """``detectors.log_lr`` at a (rows, M) array X of normalized block powers
    (block powers k*X), at the configured signal power."""
    return detectors.log_lr(cfg, cfg.block_size * X, np.ones(X.shape))


def check_lrt_monotone(cfg, grid):
    """Monotonicity checks for one detector configuration, one per axis: the
    statistic along a geometric grid of normalized powers in its last block,
    the others pinned at their typical scale sigma_w2 + zeta (over AWGN
    links, M = 1, the total power).  The statistic is symmetric in the
    blocks, so every axis gives this scan.  Each step is taken relative to
    max(1, |v_i|, |v_{i+1}|) of the values it joins.
    """
    if grid.points < 2:
        raise ValueError("a monotonicity scan needs a grid of at least 2 points")
    xs = grid.values()
    X = np.full((xs.size, cfg.M), cfg.sigma_w2 + cfg.zeta)
    X[:, -1] = xs
    scan = _statistic(cfg, X)
    scale = np.maximum(1.0, np.maximum(np.abs(scan[:-1]), np.abs(scan[1:])))
    return [_verdict(xs, np.diff(scan) / scale)] * cfg.M


def structural_checks(cfg, grid):
    """Every structural check of one detector configuration, by name: the
    likelihood-ratio order of each density pair in the table, then one
    ``check_lrt_monotone`` entry per axis.  The Gaussian control pair is not
    ordered, so its entry passes when its order check fails."""
    sa, zeta, sw2 = cfg.sigma_a2, cfg.zeta, cfg.sigma_w2
    if sa <= 0:
        raise ConfigError("structural checks need a positive signal power (set P_f > 0)")
    # (name, density0, density1, grid, ordered)
    table = (
        ("lr_order_uniform_window",
         uniform_logdensity(0.0, zeta), uniform_logdensity(sa, sa + zeta),
         np.linspace(1e-6 * zeta, sa + zeta * 1.5, 1501), True),
        ("lr_order_shifted_exponential",
         shifted_exponential_logdensity(0.0, zeta), shifted_exponential_logdensity(sa, zeta),
         np.linspace(1e-6 * zeta, 10.0 * zeta + sa, 1501), True),
        ("lr_order_gamma_scales",
         gamma_logdensity(4.0, sw2), gamma_logdensity(4.0, sw2 + sa + 0.5 * zeta),
         np.linspace(1e-3, 40.0, 1501), True),
        ("lr_order_gaussian_control_fails",
         gaussian_logdensity(0.0, 1.0), gaussian_logdensity(0.0, 4.0),
         np.linspace(-6.0, 6.0, 1201), False),
    )
    results = {}
    for name, density0, density1, xs, ordered in table:
        rep = check_lr_order(density0, density1, xs)
        results[name] = replace(rep, passed=rep.passed == ordered)
    for axis, rep in enumerate(check_lrt_monotone(cfg, grid)):
        results[f"lrt_monotone_axis{axis}"] = rep
    return results


# ---------------------------------------------------------------------------
# boundary curve and boundary-region mass


def delta_for_boundary_mass(epsilon, M, zeta):
    """Half-width making the boundary-region mass bound equal epsilon.

    The per-block power-plus-noise density is a shifted exponential whose
    supremum is 1/zeta, and the union-bound mass of the boundary region is
    at most 2*M*delta*sup f, so delta = epsilon*zeta/(2*M).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if M < 1:
        raise ValueError("M must be >= 1")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    return epsilon * zeta / (2.0 * M)


def _axis_crossings(cfg, X, delta, log_gamma):
    """Single-axis sign tests for a (rows, M) array of normalized block
    powers.  Entry (i, m) moves only block m of row i, to max(x - d, 0) and
    to x + d with d = delta(1 - 1e-9), and evaluates the statistic there.
    Returns (hit, broken): hit where the statistic crosses log_gamma between
    the two points, which for a statistic nondecreasing along the axis holds
    exactly when a boundary root lies within d; broken where it falls along
    the axis instead, or is NaN at either point.
    """
    d = delta * (1.0 - 1e-9)
    rows, M = X.shape

    def moved(V):
        # row (m, i) is row i of X with block m at V[i, m]
        Y = np.repeat(X[None], M, axis=0)
        Y[range(M), :, range(M)] = V.T
        return _statistic(cfg, Y.reshape(M * rows, M)).reshape(M, rows).T

    lo = moved(np.clip(X - d, 0.0, None))
    hi = moved(X + d)
    hit = (lo < log_gamma) & (log_gamma < hi)
    broken = ~(lo - hi <= _TOL * np.maximum(1.0, np.abs(hi)))
    return hit, broken


@dataclass
class BoundaryRegion:
    """Monte Carlo estimate of the decision-boundary neighborhood mass."""

    failures: int
    mass: float
    ci: tuple
    analytic_bound: float
    spot_checks: int
    spot_mismatches: int
    draw_x: np.ndarray
    draw_in_region: np.ndarray


def estimate_boundary_mass(cfg, delta, log_gamma, draws, seed, spot_checks=100):
    """Estimate P(jam-power-plus-noise vector lies within delta of the
    decision boundary) for the multi-block detector.

    Draws the per-block received jam powers i.i.d. exponential with mean
    zeta, adds the noise floor, and tests membership with the corner sign
    test: by componentwise monotonicity, the max-metric delta-cube around x
    meets the boundary iff the log LRT changes sign between the cube's
    lower and upper corners.  A subset of draws is cross-checked against
    single-axis sign tests: a draw with a boundary root within delta on any
    one axis that the corner test misses counts in spot_mismatches, and an
    axis along which the statistic falls counts in failures, for the caller
    to gate on.
    """
    if cfg.variant != detectors.MBLOCK_PRODUCT or cfg.M < 2:
        raise ConfigError("boundary mass needs a multi-block fading config (M > 1)")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    x = synth.substream(seed, 0, synth.BOUNDARY).exponential(cfg.zeta, (draws, cfg.M))
    x += cfg.sigma_w2

    # the statistic at the lower corner of each draw's delta-cube, and at the
    # upper corner only where the lower one lies below log_gamma: no other
    # draw can be in the region.  Each row is computed alone, so the subset
    # gets the bytes it would get in the full batch.
    below = _statistic(cfg, np.clip(x - delta, 0.0, None)) < log_gamma
    in_region = np.zeros(draws, dtype=bool)
    in_region[below] = log_gamma < _statistic(cfg, x[below] + delta)
    hits = int(np.count_nonzero(in_region))
    mass = hits / draws
    ci = wilson_interval(hits, draws)

    # cross-check the corner test against single-axis crossings: a root
    # within delta on any single axis certifies membership, so every such
    # draw must also test positive (the converse does not hold; the cube can
    # meet the boundary diagonally without any single-axis crossing).
    n_spot = max(0, min(spot_checks, draws))
    hit, broken = _axis_crossings(cfg, x[:n_spot], delta, log_gamma)
    failures = int(np.count_nonzero(broken))
    mismatches = int(np.count_nonzero(hit.any(axis=1) & ~in_region[:n_spot]))

    return BoundaryRegion(
        failures=failures, mass=mass, ci=ci,
        analytic_bound=2.0 * cfg.M * delta / cfg.zeta,
        spot_checks=n_spot, spot_mismatches=mismatches,
        draw_x=x, draw_in_region=in_region,
    )

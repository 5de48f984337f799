"""Monte Carlo estimation of the warden's error probabilities.

Each hypothesis draws the block powers of all its trials at once, from the
substreams that ``synth.sample_block_powers`` assigns to its trials.
Threshold sweeps and the best-threshold search run on a shared sample set
(common random numbers), so the reported operating curves are exactly
monotone rather than monotone in expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import detectors, model, synth
from .model import ConfigError
from .numerics import bisect_monotone, wilson_interval

DEFAULT_TRIALS = 10_000


@dataclass(frozen=True)
class ErrorRates:
    """False alarm and missed detection estimates at one threshold."""

    p_fa: float
    p_md: float
    ci_fa: tuple
    ci_md: tuple
    threshold: float

    @property
    def sum(self):
        return self.p_fa + self.p_md

    @property
    def ci_sum(self):
        return (self.ci_fa[0] + self.ci_md[0], self.ci_fa[1] + self.ci_md[1])


@dataclass(frozen=True)
class MinErrorResult:
    """Error rates re-estimated on held-out trials at the best empirical
    threshold (rates.threshold)."""

    rates: ErrorRates


# ---------------------------------------------------------------------------
# statistic gathering


@dataclass
class SampleSet:
    """Shared per-hypothesis statistics for one (scenario, cfg, seed)."""

    stats_h0: np.ndarray
    stats_h1: np.ndarray
    kind: str  # "power" (z/n) or "loglr"
    cfg: detectors.LrtConfig

    @property
    def lrt_gamma_threshold(self):
        """The statistic's value where the LRT crosses log gamma, computed on
        each read: for "power", lrt_power_threshold over a bracket about the
        samples, over n (+-inf stays +-inf)."""
        cfg = self.cfg
        if self.kind == "loglr":
            return cfg.log_gamma
        z_all = np.concatenate([self.stats_h0, self.stats_h1]) * cfg.n
        lo = max(float(z_all.min()) * 0.5, 1e-9 * cfg.n * cfg.sigma_w2)
        return lrt_power_threshold(cfg, lo, float(z_all.max()) * 2.0) / cfg.n


def _check_match(scenario, cfg):
    want = detectors.config_for_scenario(scenario)
    differ = [f.name for f in fields(want) if getattr(cfg, f.name) != getattr(want, f.name)]
    if differ:
        raise ConfigError(f"detector does not match scenario: {', '.join(differ)} differ")


def lrt_power_threshold(cfg, z_lo, z_hi):
    """Total power z* where a one-block log LRT crosses log gamma.

    Returns +inf when log gamma exceeds the LRT everywhere on the bracket
    (the test never fires) and -inf when it is below it everywhere.
    """
    if cfg.M > 1:
        raise ConfigError("the power threshold form applies to one-block configs (M = 1)")
    f = lambda z: detectors.log_lr(cfg, z[:, None])
    return bisect_monotone(f, cfg.log_gamma, z_lo, z_hi, tol=1e-9)


def collect_statistics(scenario, cfg, trials, seed):
    """Per-trial detector statistics for `trials` H0 trials and `trials`
    H1 trials, deterministic in (seed, trial index): the power z/n when M = 1
    and there is no genie, where a power threshold is the LRT, else log L."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_match(scenario, cfg)
    b0, h0 = synth.sample_block_powers(scenario, synth.H0, trials, seed)
    b1, h1 = synth.sample_block_powers(scenario, synth.H1, trials, seed)
    if cfg.M > 1 or cfg.genie:
        s0, s1 = detectors.log_lr(cfg, b0, h0), detectors.log_lr(cfg, b1, h1)
        return SampleSet(s0, s1, kind="loglr", cfg=cfg)
    z0, z1 = detectors.ltr_sum(b0), detectors.ltr_sum(b1)  # total power over every block
    return SampleSet(z0 / cfg.n, z1 / cfg.n, kind="power", cfg=cfg)


# ---------------------------------------------------------------------------
# error rates


def _rates_at(stats_h0, stats_h1, threshold):
    fa = int(np.count_nonzero(stats_h0 > threshold))
    md = int(np.count_nonzero(stats_h1 <= threshold))
    n0, n1 = len(stats_h0), len(stats_h1)
    return ErrorRates(
        p_fa=fa / n0, p_md=md / n1,
        ci_fa=wilson_interval(fa, n0), ci_md=wilson_interval(md, n1),
        threshold=float(threshold),
    )


def sweep_thresholds(samples, grid):
    """ErrorRates per threshold on one shared sample set.

    With a common sample set the false-alarm counts are exactly nonincreasing
    and the miss counts exactly nondecreasing along the sorted grid.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("threshold grid is empty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("threshold grid must be sorted ascending")
    return [_rates_at(samples.stats_h0, samples.stats_h1, thr) for thr in grid]


def _best_threshold(s0, s1):
    # the error counts change only at sample values, so the samples and -inf
    # (declare H1 always) cover every distinct operating point; duplicates
    # tie, so the first minimum is the smallest minimizing value either way
    cands = np.sort(np.concatenate([s0, s1, [-math.inf]]))
    s0s, s1s = np.sort(s0), np.sort(s1)
    n0, n1 = len(s0s), len(s1s)
    fa = n0 - np.searchsorted(s0s, cands, side="right")
    md = np.searchsorted(s1s, cands, side="right")
    return float(cands[int(np.argmin(fa / n0 + md / n1))])


def willie_min_error(scenario, cfg, trials, seed):
    """Search every empirical threshold for the minimum P_FA + P_MD, then
    re-estimate at the winner on held-out trials to remove the selection
    bias of the empirical minimum.
    """
    ss = collect_statistics(scenario, cfg, trials, seed)
    n_search = trials - trials // 2
    s0_search, s0_hold = ss.stats_h0[:n_search], ss.stats_h0[n_search:]
    s1_search, s1_hold = ss.stats_h1[:n_search], ss.stats_h1[n_search:]
    thr = _best_threshold(s0_search, s1_search)
    if len(s0_hold) == 0:  # too few trials to hold anything out
        s0_hold, s1_hold = s0_search, s1_search
    return MinErrorResult(rates=_rates_at(s0_hold, s1_hold, thr))


def covertness_curve(scenario, epsilon, n_list, trials, seed):
    """Best-threshold error sums across slot lengths at one constant covert
    power chosen by the selection recipe for this scenario.  Returns P_f and
    one (n, ErrorRates) pair per slot length."""
    n_list = list(n_list)
    if n_list != sorted(n_list):
        raise ValueError("n list must be sorted ascending")
    P_f = model.select_covert_params(scenario, epsilon).P_f
    base = model.with_updates(scenario, P_f=P_f)
    rows = []
    for n in n_list:
        sc = model.with_updates(base, n=n)
        cfg = detectors.config_for_scenario(sc)
        rows.append((sc.slots.n, willie_min_error(sc, cfg, trials, seed).rates))
    return base.P_f, rows

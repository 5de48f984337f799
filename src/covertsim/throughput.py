"""Receiver-side performance: SINR, outage capacity, and covert bit counts.

Reliability is asserted through capacity formulas over fading draws, not a
decoder; the constructions fix a per-symbol power that does not shrink with
the slot length, so any positive outage rate scales the bit count linearly.
"""

from __future__ import annotations

import math

import numpy as np

from .model import FADING, path_gain

_SINR_RNG_SALT = 0x51A7


def sinr_samples(scenario, samples, seed):
    """Vector of SINR draws over the receiver-side fading.

    AWGN links count as |h|^2 = 1.  The jammer contributes at its strategy
    power (the per-slot maximum for the uniform strategy, which lower-bounds
    the SINR).
    """
    rng = np.random.Generator(np.random.Philox(key=[int(seed) % 2**64, _SINR_RNG_SALT]))
    g = scenario.geometry

    def link_gain(link):
        if getattr(scenario.channels, link) == FADING:
            re = rng.standard_normal(samples)
            im = rng.standard_normal(samples)
            return 0.5 * (re**2 + im**2)
        return np.ones(samples)

    gain_ab = link_gain("ab")
    gain_jb = link_gain("jb")
    signal = gain_ab * scenario.P_f * path_gain(g.d_ab, g.alpha)
    interference = gain_jb * scenario.jammer.power * path_gain(g.d_jb, g.alpha)
    return signal / (interference + scenario.noise.sigma_b2)


def outage_capacity(scenario, outage_prob, samples, seed):
    """Empirical outage capacity in bits per symbol.

    Takes the order statistic at index ceil(outage_prob * samples) of
    log2(1 + SINR) over fading draws; with all-AWGN receiver links the
    distribution is degenerate and the closed-form rate comes back exactly.
    Rounds down rather than interpolating, so the reported rate is
    conservative.  The product is rounded to 9 decimals before the ceiling,
    so binary rounding (0.07 * 10000 = 700.0000000000001) cannot push the
    index up by one; an index below 1 reads the smallest draw.
    """
    if not 0.0 < outage_prob < 1.0:
        raise ValueError("outage_prob must lie in (0, 1)")
    if samples < 1000:
        raise ValueError("need at least 1000 fading draws")
    gammas = sinr_samples(scenario, samples, seed)
    rates = np.sort(np.log2(1.0 + gammas))
    idx = max(1, math.ceil(round(outage_prob * samples, 9)))
    return float(rates[idx - 1])


def covert_bits(n, rate):
    """Bits conveyed in n channel uses at the given rate: floor(n * rate)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    return int(math.floor(n * rate))

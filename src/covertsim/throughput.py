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


def _link_gain(rng, fading, out, scratch):
    """|h|^2 per draw into out: 0.5 * (re**2 + im**2) for a faded link, with
    im drawn into scratch, and 1 for an AWGN link."""
    if not fading:
        out.fill(1.0)
        return
    np.square(rng.standard_normal(out=out), out=out)
    out += np.square(rng.standard_normal(out=scratch), out=scratch)
    out *= 0.5


def sinr_samples(scenario, samples, seed):
    """Vector of SINR draws over the receiver-side fading.

    AWGN links count as |h|^2 = 1.  The jammer contributes at its strategy
    power (the per-slot maximum for the uniform strategy, which lower-bounds
    the SINR).  Every step runs in place, in the order of the expression
    gain_ab * P_f * g_ab / (gain_jb * P_j * g_jb + sigma_b2), so the draws
    keep their bits; the call holds at most three float64 arrays of length
    samples, 24 bytes per draw, and returns one of them.
    """
    rng = np.random.Generator(np.random.Philox(key=[int(seed) % 2**64, _SINR_RNG_SALT]))
    g, ch = scenario.geometry, scenario.channels
    signal, interference, scratch = (np.empty(samples) for _ in range(3))
    _link_gain(rng, ch.ab == FADING, signal, scratch)
    signal *= scenario.P_f
    signal *= path_gain(g.d_ab, g.alpha)
    _link_gain(rng, ch.jb == FADING, interference, scratch)
    interference *= scenario.jammer.power
    interference *= path_gain(g.d_jb, g.alpha)
    interference += scenario.noise.sigma_b2
    signal /= interference
    return signal


def outage_capacity(scenario, outage_prob, samples, seed):
    """Empirical outage capacity in bits per symbol.

    Takes the order statistic at index ceil(outage_prob * samples) of
    log2(1 + SINR) over fading draws; with all-AWGN receiver links the
    distribution is degenerate and the closed-form rate comes back exactly.
    Rounds down rather than interpolating, so the reported rate is
    conservative.  The product is rounded to 9 decimals before the ceiling,
    so binary rounding (0.07 * 10000 = 700.0000000000001) cannot push the
    index up by one; an index below 1 reads the smallest draw.  The rates
    overwrite the SINR draws in place and a partition, not a sort, places
    the order statistic, so the call peaks at sinr_samples' 24 bytes per
    draw.
    """
    if not 0.0 < outage_prob < 1.0:
        raise ValueError("outage_prob must lie in (0, 1)")
    if samples < 1000:
        raise ValueError("need at least 1000 fading draws")
    rates = sinr_samples(scenario, samples, seed)
    rates += 1.0
    np.log2(rates, out=rates)
    idx = max(1, math.ceil(round(outage_prob * samples, 9)))
    rates.partition(idx - 1)
    return float(rates[idx - 1])


def covert_bits(n, rate):
    """Bits conveyed in n channel uses at the given rate: floor(n * rate)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    return int(math.floor(n * rate))

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
# |h_jb|^2 is drawn this many at a time into a scratch of 128 KB
_SLICE = 16_384


def _sinr_per_power(scenario, samples, seed):
    """SINR draws per unit transmit power, g_ab |h_ab|^2 / (g_jb P_j |h_jb|^2
    + sigma_b2), in one float64 array of length samples.

    |h|^2 is a standard-exponential draw on a faded link and 1 on an AWGN
    one.  |h_jb|^2 follows |h_ab|^2 in the stream, _SLICE draws at a time in
    a scratch; sliced draws have the bytes of one long draw.  The jammer
    counts at its strategy power (the per-slot maximum for the uniform
    strategy, which lower-bounds the SINR).
    """
    rng = np.random.Generator(np.random.Philox(key=[int(seed) % 2**64, _SINR_RNG_SALT]))
    g, ch = scenario.geometry, scenario.channels
    sinr = rng.standard_exponential(samples) if ch.ab == FADING else np.ones(samples)
    sinr *= path_gain(g.d_ab, g.alpha)
    scratch = np.empty(min(_SLICE, samples))
    for start in range(0, samples, _SLICE):
        part = sinr[start:start + _SLICE]
        jam = scratch[:part.size]
        if ch.jb == FADING:
            rng.standard_exponential(out=jam)
        else:
            jam.fill(1.0)
        jam *= scenario.jammer.power
        jam *= path_gain(g.d_jb, g.alpha)
        jam += scenario.noise.sigma_b2
        part /= jam
    return sinr


def outage_capacities(scenario, outage_prob, samples, seed, pf_values):
    """Empirical outage capacity in bits per symbol at each transmit power
    in pf_values, all over one set of fading draws.

    Takes the order statistic at index ceil(outage_prob * samples) of
    log2(1 + SINR) over fading draws; with all-AWGN receiver links the
    distribution is degenerate and the closed-form rate comes back exactly.
    Rounds down rather than interpolating, so the reported rate is
    conservative.  The product is rounded to 9 decimals before the ceiling,
    so binary rounding (0.07 * 10000 = 700.0000000000001) cannot push the
    index up by one; an index below 1 reads the smallest draw.  One partition
    of the draws serves every P_f, since x -> log2(1 + P_f x) is
    nondecreasing in floating point: each rate is the one a partition of
    P_f times the draws gives, bit for bit, at 8 bytes per draw for any number
    of powers.
    """
    if not 0.0 < outage_prob < 1.0:
        raise ValueError("outage_prob must lie in (0, 1)")
    if samples < 1000:
        raise ValueError("need at least 1000 fading draws")
    sinr = _sinr_per_power(scenario, samples, seed)
    idx = max(1, math.ceil(round(outage_prob * samples, 9)))
    sinr.partition(idx - 1)
    return [float(np.log2(1.0 + pf * sinr[idx - 1])) for pf in pf_values]


def outage_capacity(scenario, outage_prob, samples, seed):
    """Empirical outage capacity in bits per symbol at scenario.P_f, the
    one-power case of outage_capacities."""
    return outage_capacities(scenario, outage_prob, samples, seed, [scenario.P_f])[0]


def covert_bits(n, rate):
    """Bits conveyed in n channel uses at the given rate: floor(n * rate)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    return int(math.floor(n * rate))

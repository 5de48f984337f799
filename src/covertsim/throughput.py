"""Receiver-side performance: SINR, outage capacity, and covert bit counts.

Reliability is asserted through capacity formulas over fading draws, not a
decoder; the constructions fix a per-symbol power that does not shrink with
the slot length, so any positive outage rate scales the bit count linearly.
"""

from __future__ import annotations

import math

import numpy as np

from . import synth
from .model import path_gain

# draws are made, and yielded, this many at a time: 128 KB per buffer
_SLICE = 16_384


def _sinr_slices(scenario, samples, seed):
    """SINR draws per unit transmit power, g_ab |h_ab|^2 / (g_jb P_j |h_jb|^2
    + sigma_b2), _SLICE at a time in one reused float64 buffer; a consumer
    that keeps a slice must copy it.

    |h_ab|^2 and |h_jb|^2 are synth.power_gains of substream(seed, 0,
    FADE_AB) and substream(seed, 0, FADE_JB), each read from its start, slice
    by slice, so the draws have the bytes of one long draw per link.  The
    jammer counts at its strategy power (the per-slot maximum for the uniform
    strategy, which lower-bounds the SINR).
    """
    ab_rng, jb_rng = (synth.substream(seed, 0, p) for p in (synth.FADE_AB, synth.FADE_JB))
    g, ch = scenario.geometry, scenario.channels
    gain_ab, gain_jb = path_gain(g.d_ab, g.alpha), path_gain(g.d_jb, g.alpha)
    sinr = np.empty(min(_SLICE, samples))
    jam = np.empty_like(sinr)
    for start in range(0, samples, _SLICE):
        part = synth.power_gains(ch.ab, ab_rng, sinr[:samples - start])
        part *= gain_ab
        scratch = synth.power_gains(ch.jb, jb_rng, jam[:samples - start])
        scratch *= scenario.jammer.power
        scratch *= gain_jb
        scratch += scenario.noise.sigma_b2
        part /= scratch
        yield part


def outage_capacities(scenario, outage_prob, samples, seed, pf_values):
    """Empirical outage capacity in bits per symbol at each transmit power
    in pf_values, all over one set of fading draws.

    Takes the order statistic at index ceil(outage_prob * samples) of
    log2(1 + SINR) over fading draws; with all-AWGN receiver links the
    distribution is degenerate and the closed-form rate comes back exactly.
    Rounds down rather than interpolating, so the reported rate is
    conservative.  The product is rounded to 9 decimals before the ceiling,
    so binary rounding (0.07 * 10000 = 700.0000000000001) cannot push the
    index up by one; an index below 1 reads the smallest draw.  One selection
    of the draws serves every P_f, since x -> log2(1 + P_f x) is
    nondecreasing in floating point: each rate is the one a partition of
    P_f times the draws gives, bit for bit.

    Only the idx smallest draws are kept: a buffer of min(samples, idx +
    max(idx, _SLICE)) floats takes each slice, and when the next does not
    fit, a partition at idx - 1 keeps the first idx, which hold the idx
    smallest of all draws so far.  That is 8 * (idx + max(idx, _SLICE))
    bytes plus two 128 KB slices for any number of powers, and O(samples)
    work.
    """
    if not 0.0 < outage_prob < 1.0:
        raise ValueError("outage_prob must lie in (0, 1)")
    if samples < 1000:
        raise ValueError("need at least 1000 fading draws")
    idx = max(1, math.ceil(round(outage_prob * samples, 9)))
    held = np.empty(min(samples, idx + max(idx, _SLICE)))
    filled = 0
    for part in _sinr_slices(scenario, samples, seed):
        if filled + part.size > held.size:
            held[:filled].partition(idx - 1)
            filled = idx
        held[filled:filled + part.size] = part
        filled += part.size
    held[:filled].partition(idx - 1)
    return [float(np.log2(1.0 + pf * held[idx - 1])) for pf in pf_values]


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

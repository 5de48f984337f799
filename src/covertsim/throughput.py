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
# imaginary parts are drawn this many at a time into a scratch of 128 KB
_IM_SLICE = 16_384


def _link_gain(rng, fading, out):
    """|h|^2 per draw into out: 0.5 * (re**2 + im**2) for a faded link and 1
    for an AWGN link.  The real parts go into out; the imaginary parts follow
    them in the stream, drawn _IM_SLICE at a time into a small scratch, so
    the draws keep their bits and no second full-length array is held."""
    if not fading:
        out.fill(1.0)
        return
    np.square(rng.standard_normal(out=out), out=out)
    scratch = np.empty(min(_IM_SLICE, out.size))
    for start in range(0, out.size, _IM_SLICE):
        part = out[start:start + _IM_SLICE]
        im = scratch[:part.size]
        part += np.square(rng.standard_normal(out=im), out=im)
    out *= 0.5


def _receiver_draws(scenario, samples, seed):
    """(gain_ab, interference): Bob's |h_ab|^2 draws and the interference
    plus noise gain_jb * P_j * path gain + sigma_b2 over the same draws, in
    place, 16 bytes per draw."""
    rng = np.random.Generator(np.random.Philox(key=[int(seed) % 2**64, _SINR_RNG_SALT]))
    g, ch = scenario.geometry, scenario.channels
    gain, interference = np.empty(samples), np.empty(samples)
    _link_gain(rng, ch.ab == FADING, gain)
    _link_gain(rng, ch.jb == FADING, interference)
    interference *= scenario.jammer.power
    interference *= path_gain(g.d_jb, g.alpha)
    interference += scenario.noise.sigma_b2
    return gain, interference


def _sinr_in_place(scenario, P_f, signal, interference):
    """signal * P_f * g_ab / interference, written into signal."""
    signal *= P_f
    signal *= path_gain(scenario.geometry.d_ab, scenario.geometry.alpha)
    signal /= interference
    return signal


def sinr_samples(scenario, samples, seed):
    """Vector of SINR draws over the receiver-side fading.

    AWGN links count as |h|^2 = 1.  The jammer contributes at its strategy
    power (the per-slot maximum for the uniform strategy, which lower-bounds
    the SINR).  Every step runs in place, in the order of the expression
    gain_ab * P_f * g_ab / (gain_jb * P_j * g_jb + sigma_b2), so the draws
    keep their bits; the call holds two float64 arrays of length samples,
    16 bytes per draw, and returns one of them.
    """
    gain, interference = _receiver_draws(scenario, samples, seed)
    return _sinr_in_place(scenario, scenario.P_f, gain, interference)


def outage_capacities(scenario, outage_prob, samples, seed, pf_values):
    """Empirical outage capacity in bits per symbol at each transmit power
    in pf_values, all over one set of fading draws.

    Takes the order statistic at index ceil(outage_prob * samples) of
    log2(1 + SINR) over fading draws; with all-AWGN receiver links the
    distribution is degenerate and the closed-form rate comes back exactly.
    Rounds down rather than interpolating, so the reported rate is
    conservative.  The product is rounded to 9 decimals before the ceiling,
    so binary rounding (0.07 * 10000 = 700.0000000000001) cannot push the
    index up by one; an index below 1 reads the smallest draw.  Each rate is
    the one sinr_samples' draws give for that P_f, bit for bit.  The rates
    overwrite the SINR draws in place and a partition, not a sort, places
    the order statistic, so one P_f peaks at 16 bytes per draw; several hold
    one more array, a copy of the gains for every P_f but the last.
    """
    if not 0.0 < outage_prob < 1.0:
        raise ValueError("outage_prob must lie in (0, 1)")
    if samples < 1000:
        raise ValueError("need at least 1000 fading draws")
    gain, interference = _receiver_draws(scenario, samples, seed)
    idx = max(1, math.ceil(round(outage_prob * samples, 9)))

    def rate(sinr, P_f):
        _sinr_in_place(scenario, P_f, sinr, interference)
        sinr += 1.0
        np.log2(sinr, out=sinr)
        sinr.partition(idx - 1)
        return float(sinr[idx - 1])

    # every P_f but the last works on a copy, freed as soon as its rate is read
    last = len(pf_values) - 1
    return [rate(gain if i == last else gain.copy(), pf) for i, pf in enumerate(pf_values)]


def outage_capacity(scenario, outage_prob, samples, seed):
    """Empirical outage capacity in bits per symbol at scenario.P_f, the
    one-power case of outage_capacities: it peaks at 16 bytes per draw."""
    return outage_capacities(scenario, outage_prob, samples, seed, [scenario.P_f])[0]


def covert_bits(n, rate):
    """Bits conveyed in n channel uses at the given rate: floor(n * rate)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    return int(math.floor(n * rate))

"""Random generation of the warden's observation of the slot of interest.

``sample_block_powers`` draws the per-block received powers, all that the
detectors read, from their exact law; ``synthesize_willie_slot`` builds the
waveform behind that law and is kept as the reference the sampler is tested
against.  Every random draw in the package, the receiver's fading and the
boundary-mass draws included, comes from ``substream``: each (trial,
purpose) pair owns a Philox substream of the seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .model import FADING, UNIFORM_PER_SLOT, path_gain

H0 = "H0"
H1 = "H1"

# Substream purposes.  The values are part of the reproducibility contract,
# so they keep the gaps left by retired purposes rather than being renumbered.
CODEWORD = 0
JAMMER = 1
FADE_AW = 2
FADE_JW = 4
NOISE_W = 6
FADE_AB = 7
FADE_JB = 8
BOUNDARY = 9

# The trial index whose substreams each hypothesis's sampled block powers
# are drawn from, also part of the contract: H0 and H1 share none.
_FIRST_TRIAL = {H0: 0, H1: 1 << 32}

_KEY_SALT = 0x9E3779B97F4A7C15


@functools.cache
def _key_seed():
    # a seed sequence handing Philox its key, so that a build gathers no OS
    # entropy; made on first use, as naming numpy.random at import loads it
    class KeySeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key
    return KeySeed


def substream(seed, trial, purpose):
    """Independent Generator for one (trial, purpose) pair.

    The pair goes into the high words of the 256-bit Philox counter, with
    the word between them held at 0 so that every stream keeps its values
    across releases; the generator itself only ever advances the low word,
    so substreams cannot overlap.  Seed and trial are taken modulo 2**64.
    Each call builds a new generator, so no two calls share state.
    """
    bitgen = np.random.Philox(
        _key_seed()(np.array([int(seed) % 2**64, _KEY_SALT], dtype=np.uint64)),
        counter=np.array([0, int(trial) % 2**64, 0, purpose], dtype=np.uint64),
    )
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class TrialRng:
    """The (seed, trial) pair of one Monte Carlo trial; ``stream(purpose)``
    is a new ``substream(seed, trial, purpose)`` on every call."""

    seed: int
    trial: int

    def stream(self, purpose):
        return substream(self.seed, self.trial, purpose)


def power_gains(kind, rng, out):
    """A link's |h|^2 written into out and returned: standard exponential
    draws from rng on a faded link, 1 on an AWGN one.  Sliced draws into
    consecutive parts of one buffer have the bytes of one long draw."""
    if kind == FADING:
        return rng.standard_exponential(out=out)
    out.fill(1.0)
    return out


def _complex_normal(rng, variance, size):
    """i.i.d. circularly-symmetric complex Gaussians with E|X|^2 = variance.

    Real and imaginary parts are each N(0, variance/2); the real block is
    drawn before the imaginary block so the draw order is part of the
    reproducibility contract.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    out = np.empty(size, dtype=np.complex128)
    out.real = rng.standard_normal(size)
    out.imag = rng.standard_normal(size)
    out *= math.sqrt(variance / 2.0)
    return out


@dataclass
class Latents:
    """Hidden channel state recorded for oracle checks only.

    Detectors must never read these; they exist so tests can condition on
    the true jam power P_t and the fading draws by link ("jw", "aw").  The
    per-block jam power at the warden is P_t |h_jw|^2 d_jw**-alpha, which a
    test forms from the two.
    """

    jam_power: float = 0.0
    fading: dict = field(default_factory=dict)


@dataclass
class Observation:
    """The warden's complex samples of one slot plus its hidden channel state."""

    samples: np.ndarray
    M: int
    latents: Latents


def synthesize_willie_slot(scenario, hypothesis, rng):
    """Warden-side observation of the slot of interest: noise, jamming at slot
    power P_t (uniform per slot: drawn before the jam samples) and, under H1,
    codeword symbols of variance P_f.  A faded link holds one coefficient,
    E|h|^2 = 1, over each block's n/M samples."""
    if hypothesis not in (H0, H1):
        raise ValueError(f"hypothesis must be {H0} or {H1}")
    n, M = scenario.slots.n, scenario.slots.M
    g = scenario.geometry

    latents = Latents()
    samples = _complex_normal(rng.stream(NOISE_W), scenario.noise.sigma_w2, n)

    jam_rng = rng.stream(JAMMER)
    if scenario.jammer.kind == UNIFORM_PER_SLOT:
        p_t = float(jam_rng.uniform(0.0, scenario.jammer.power))
    else:  # constant power; the scenario has validated the kind
        p_t = float(scenario.jammer.power)
    jam = _complex_normal(jam_rng, p_t, n)
    latents.jam_power = p_t
    jam_amp = math.sqrt(path_gain(g.d_jw, g.alpha))
    if scenario.channels.jw == FADING:
        h_jam = _complex_normal(rng.stream(FADE_JW), 1.0, M)
        latents.fading["jw"] = h_jam
        samples += jam_amp * np.repeat(h_jam, n // M) * jam
    else:
        samples += jam_amp * jam

    if scenario.channels.aw == FADING:
        # the channel fades whether or not it carries a signal; record it so
        # genie-style checks can condition on the same draw under H0
        latents.fading["aw"] = _complex_normal(rng.stream(FADE_AW), 1.0, M)
    if hypothesis == H1:
        f = _complex_normal(rng.stream(CODEWORD), scenario.P_f, n)
        tx_amp = math.sqrt(path_gain(g.d_aw, g.alpha))
        if scenario.channels.aw == FADING:
            samples += tx_amp * np.repeat(latents.fading["aw"], n // M) * f
        else:
            samples += tx_amp * f

    return Observation(samples=samples, M=M, latents=latents)


def sample_block_powers(scenario, hypothesis, trials, seed):
    """Block powers of `trials` warden observations, shape (trials, M), and
    |h_aw|^2 of the same shape when that link fades (drawn under H0 too, for
    genie statistics), else None.

    Given the jam power P_t and the fading, Z_m = v_m * Gamma(n/M, 1) exactly,
    with v_m = sigma_w2 + g_jw |h_jw,m|^2 P_t + [H1] g_aw |h_aw,m|^2 P_f.  Each
    purpose is drawn once from substream(seed, trial0, purpose), with trial0
    = 0 under H0 and 2**32 under H1 so that the hypotheses share no
    substream; row t is trial t.
    """
    if hypothesis not in (H0, H1):
        raise ValueError(f"hypothesis must be {H0} or {H1}")
    trial0 = _FIRST_TRIAL[hypothesis]
    M = scenario.slots.M
    g = scenario.geometry
    shape = (trials, M)

    if scenario.jammer.kind == UNIFORM_PER_SLOT:
        p_t = substream(seed, trial0, JAMMER).uniform(0.0, scenario.jammer.power, trials)
    else:  # constant power; the scenario has validated the kind
        p_t = np.full(trials, float(scenario.jammer.power))
    hjw2 = power_gains(scenario.channels.jw, substream(seed, trial0, FADE_JW), np.empty(shape))
    v = scenario.noise.sigma_w2 + hjw2 * (p_t[:, None] * path_gain(g.d_jw, g.alpha))
    haw2 = power_gains(scenario.channels.aw, substream(seed, trial0, FADE_AW), np.empty(shape))
    if hypothesis == H1:
        v = v + haw2 * scenario.sigma_a2
    blocks = substream(seed, trial0, NOISE_W).standard_gamma(scenario.slots.n // M, shape) * v
    return blocks, haw2 if scenario.channels.aw == FADING else None

"""Random generation of the warden's observation of the slot of interest.

``sample_block_powers`` draws the per-block received powers, all that the
detectors read, from their exact law; ``synthesize_willie_slot`` builds the
waveform behind that law and is kept as the reference the sampler is tested
against.  Every (trial, purpose) pair owns a Philox substream of the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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

_KEY_SALT = 0x9E3779B97F4A7C15
_U64 = np.uint64


def substream(seed, trial, purpose):
    """Independent Generator for one (trial, purpose) pair.

    The pair goes into the high words of the 256-bit Philox counter, with
    the word between them held at 0 so that every stream keeps its values
    across releases; the generator itself only ever advances the low word,
    so substreams cannot overlap.
    """
    bitgen = np.random.Philox(
        counter=[_U64(0), _U64(int(trial) % 2**64), _U64(0), _U64(purpose)],
        key=[_U64(int(seed) % 2**64), _U64(_KEY_SALT)],
    )
    return np.random.Generator(bitgen)


@dataclass(frozen=True)
class TrialRng:
    """Hands out the per-purpose substreams of one Monte Carlo trial.

    Every stream is the same owned generator, built on the first call and
    re-keyed in place after that, drawing what ``substream(seed, trial,
    purpose)`` draws.  So a stream is valid only until the next ``stream()``
    call on the same TrialRng: consume one purpose before asking for the next.
    """

    seed: int
    trial: int
    _gen: Optional[np.random.Generator] = field(default=None, init=False, compare=False,
                                                repr=False)
    _fresh: Optional[dict] = field(default=None, init=False, compare=False, repr=False)

    def stream(self, purpose):
        if self._gen is None:
            gen = substream(self.seed, self.trial, purpose)
            object.__setattr__(self, "_gen", gen)
            # its counter, key and empty buffer; only the purpose word changes
            object.__setattr__(self, "_fresh", gen.bit_generator.state)
        else:
            self._fresh["state"]["counter"][3] = purpose
            self._gen.bit_generator.state = self._fresh
        return self._gen


def _complex_normal(rng, variance, size):
    """i.i.d. circularly-symmetric complex Gaussians with E|X|^2 = variance.

    Real and imaginary parts are each N(0, variance/2); the real block is
    drawn before the imaginary block so the draw order is part of the
    reproducibility contract.
    """
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if variance == 0.0:
        return np.zeros(size, dtype=np.complex128)
    scale = math.sqrt(variance / 2.0)
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return scale * (re + 1j * im)


def generate_codeword(n, P_f, rng):
    """Codeword symbols: i.i.d. complex Gaussian with per-symbol variance P_f."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _complex_normal(rng, P_f, n)


def generate_jammer_slot(strategy, n, rng):
    """One slot of jamming: returns (slot power P_t, n complex samples).

    Uniform-per-slot draws P_t ~ Uniform[0, power] first, then the samples;
    constant-power uses P_t = power always.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if strategy.kind == UNIFORM_PER_SLOT:
        p_t = float(rng.uniform(0.0, strategy.power))
    else:  # constant power; the strategy has validated the kind
        p_t = float(strategy.power)
    return p_t, _complex_normal(rng, p_t, n)


def sample_fading(M, rng):
    """Per-block fading coefficients: i.i.d. complex Gaussian, E|h|^2 = 1."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return _complex_normal(rng, 1.0, M)


@dataclass
class Latents:
    """Hidden channel state recorded for oracle checks only.

    Detectors must never read these; they exist so tests can condition on
    the true jam power and fading draws.
    """

    jam_power: float = 0.0
    fading: dict = field(default_factory=dict)
    sigma_j2: Optional[np.ndarray] = None


@dataclass
class Observation:
    """The warden's complex samples of one slot plus its hidden channel state."""

    samples: np.ndarray
    M: int
    latents: Latents


def _expand_blocks(h, n, M):
    # sample i (1-based) lives in block floor((i-1)*M/n) + 1
    return np.repeat(h, n // M)


def synthesize_willie_slot(scenario, hypothesis, rng):
    """Warden-side observation of the slot of interest."""
    if hypothesis not in (H0, H1):
        raise ValueError(f"hypothesis must be {H0} or {H1}")
    n = scenario.slots.n
    M = scenario.slots.M
    g = scenario.geometry

    latents = Latents()
    samples = _complex_normal(rng.stream(NOISE_W), scenario.noise.sigma_w2, n)

    p_t, jam = generate_jammer_slot(scenario.jammer, n, rng.stream(JAMMER))
    latents.jam_power = p_t
    jam_amp = math.sqrt(path_gain(g.d_jw, g.alpha))
    if scenario.channels.jw == FADING:
        h_jam = sample_fading(M, rng.stream(FADE_JW))
        latents.fading["jw"] = h_jam
        samples += jam_amp * _expand_blocks(h_jam, n, M) * jam
        latents.sigma_j2 = p_t * np.abs(h_jam) ** 2 * path_gain(g.d_jw, g.alpha)
    else:
        samples += jam_amp * jam

    if hypothesis == H1:
        f = generate_codeword(n, scenario.P_f, rng.stream(CODEWORD))
        tx_amp = math.sqrt(path_gain(g.d_aw, g.alpha))
        if scenario.channels.aw == FADING:
            h_tx = sample_fading(M, rng.stream(FADE_AW))
            latents.fading["aw"] = h_tx
            samples += tx_amp * _expand_blocks(h_tx, n, M) * f
        else:
            samples += tx_amp * f
    elif scenario.channels.aw == FADING:
        # the channel fades whether or not it carries a signal; record it so
        # genie-style checks can condition on the same draw under H0
        latents.fading["aw"] = sample_fading(M, rng.stream(FADE_AW))

    return Observation(samples=samples, M=M, latents=latents)


def sample_block_powers(scenario, hypothesis, trials, seed, trial0):
    """Block powers of `trials` warden observations, shape (trials, M), and
    |h_aw|^2 of the same shape when that link fades (drawn under H0 too, for
    genie statistics), else None.

    Given the jam power P_t and the fading, Z_m = v_m * Gamma(n/M, 1) exactly,
    with v_m = sigma_w2 + g_jw |h_jw,m|^2 P_t + [H1] g_aw |h_aw,m|^2 P_f.  Each
    purpose is drawn once from substream(seed, trial0, purpose); row t is
    trial t.
    """
    if hypothesis not in (H0, H1):
        raise ValueError(f"hypothesis must be {H0} or {H1}")
    M = scenario.slots.M
    g = scenario.geometry
    shape = (trials, M)

    def power_gains(link, purpose):
        # |h|^2 per block: standard exponential on a faded link, 1 otherwise
        if getattr(scenario.channels, link) == FADING:
            return substream(seed, trial0, purpose).standard_exponential(shape)
        return np.ones(shape)

    if scenario.jammer.kind == UNIFORM_PER_SLOT:
        p_t = substream(seed, trial0, JAMMER).uniform(0.0, scenario.jammer.power, trials)
    else:  # constant power; the scenario has validated the kind
        p_t = np.full(trials, float(scenario.jammer.power))
    v = scenario.noise.sigma_w2 + power_gains("jw", FADE_JW) * (
        p_t[:, None] * path_gain(g.d_jw, g.alpha)
    )
    haw2 = power_gains("aw", FADE_AW)
    if hypothesis == H1:
        v = v + haw2 * (scenario.P_f * path_gain(g.d_aw, g.alpha))
    blocks = substream(seed, trial0, NOISE_W).standard_gamma(scenario.slots.n // M, shape) * v
    return blocks, haw2 if scenario.channels.aw == FADING else None

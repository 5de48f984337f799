"""The warden's detectors: sufficient statistics and the mixture likelihood
ratio tests.  Over AWGN links the statistic is a uniform-window mixture of
the total power; over a faded jammer link with M >= 1 blocks it is the
left-to-right sum of the per-block terms ``log_lrt_block_term``.

All likelihood ratios are handled as logarithms and compared against
log(gamma) with gamma = P(H0)/P(H1); the raw ratio overflows for slot lengths
beyond a hundred samples or so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AWGN, AWGN_UNIFORM, MBLOCK_PRODUCT, ConfigError, detector_variant
from .numerics import log_integral_block, log_power_integral


@dataclass(frozen=True)
class LrtConfig:
    """Parameters of one detector instance.

    ``sigma_a2`` is the common per-block signal power; the genie
    configuration scales it by per-trial |h_aw|^2 gains (see ``log_lr``).
    """

    variant: str
    n: int
    M: int
    sigma_w2: float
    zeta: float
    sigma_a2: float
    log_gamma: float
    genie: bool = False

    def __post_init__(self):
        if self.variant not in (AWGN_UNIFORM, MBLOCK_PRODUCT):
            raise ConfigError(f"unknown detector variant {self.variant}")
        if self.n < 1 or self.M < 1 or self.n % self.M:
            raise ConfigError("need M >= 1 dividing n")
        if self.variant == AWGN_UNIFORM and self.M != 1:
            raise ConfigError(f"{self.variant} requires M = 1")
        if self.sigma_w2 <= 0 or self.zeta <= 0:
            raise ConfigError("sigma_w2 and zeta must be positive")
        if not (math.isfinite(self.sigma_a2) and self.sigma_a2 >= 0):
            raise ConfigError("sigma_a2 must be nonnegative and finite")
        if self.genie and self.variant == AWGN_UNIFORM:
            raise ConfigError("the genie configuration applies to faded signal links only")

    @property
    def block_size(self):
        return self.n // self.M


def config_for_scenario(scenario):
    """The detector configuration for the variant ``model.detector_variant``
    picks (its ConfigError for a scenario with none); the scenario fixes every
    field.  A faded transmitter-to-warden link gives the genie configuration:
    the warden is granted the fading coefficients, which only strengthens a
    covertness claim."""
    variant = detector_variant(scenario)
    slots = scenario.slots
    p = slots.p
    return LrtConfig(
        variant=variant,
        n=slots.n,
        M=1 if variant != MBLOCK_PRODUCT else slots.M,
        sigma_w2=scenario.noise.sigma_w2,
        zeta=scenario.zeta,
        sigma_a2=scenario.sigma_a2,
        log_gamma=math.log((1.0 - p) / p),
        genie=scenario.channels.aw != AWGN,
    )


def ltr_sum(values):
    """Left-to-right sum along the last axis, of at least one column.
    np.add.accumulate is sequential by definition, so a row sums alike alone
    or in a batch; a batch of rows keeps its shape even when empty."""
    out = np.add.accumulate(np.asarray(values, dtype=float), axis=-1)[..., -1]
    return float(out) if out.ndim == 0 else out


def block_powers(obs):
    """Per-block power sums Z_m over the observation's samples, one per block
    of the structure the observation was generated with.

    Sums run left to right within each block, so that repeated runs and the
    total/block decomposition are reproducible bit for bit.
    """
    return ltr_sum((obs.samples.real**2 + obs.samples.imag**2).reshape(obs.M, -1))


def total_power(obs):
    """Total received power: the left-to-right sum of the per-block sums.

    Defined through the observation's own block structure so that
    sum(block_powers(obs)) == total_power(obs) holds exactly.
    """
    return ltr_sum(block_powers(obs))


def log_lrt_block_term(z, k, sigma_w2, sigma_a2, zeta):
    """Per-block log likelihood ratio under the exponential jam-power prior.

    sigma_a2/zeta + log I - log (J + I) = sigma_a2/zeta - softplus(log J - log I)

    with I = int_{sigma_w2+sigma_a2}^inf and J = int_{sigma_w2}^{sigma_w2+sigma_a2}
    of v^-k e^{-z/v} e^{-v/zeta} dv.  The softplus is nonnegative, so the term
    never exceeds its supremum sigma_a2/zeta, and sigma_a2 = 0 gives exactly
    0.  Vectorized over z; sigma_a2 broadcasts against z.
    """
    log_j = log_integral_block(z, k, sigma_w2, zeta, width=sigma_a2)
    log_i = log_integral_block(z, k, sigma_w2 + sigma_a2, zeta)
    return sigma_a2 / zeta - np.logaddexp(0.0, log_j - log_i)


def log_lrt_awgn(z, cfg):
    """Log LRT for the uniform jam-power construction over AWGN links.

    Both hypotheses mix Gamma(n, sigma_w2 + theta) laws of the total power
    over a uniform theta, on [0, zeta] or, with the signal, on [sigma_a2,
    sigma_a2 + zeta]; the normalisers cancel in the ratio.  Vectorized over z.
    """
    if cfg.variant != AWGN_UNIFORM:
        raise ConfigError(f"config variant is {cfg.variant}, expected {AWGN_UNIFORM}")
    return (log_power_integral(z, cfg.n, cfg.sigma_w2 + cfg.sigma_a2, cfg.zeta, 0.0)
            - log_power_integral(z, cfg.n, cfg.sigma_w2, cfg.zeta, 0.0))


def log_lrt_m1(z, cfg):
    """Log LRT for the faded jammer link with M = 1: its one block term at
    the configured signal power.  Vectorized over z."""
    if cfg.variant != MBLOCK_PRODUCT or cfg.M != 1:
        raise ConfigError(f"expected {MBLOCK_PRODUCT} with M = 1, got {cfg.variant} with M = {cfg.M}")
    return log_lrt_block_term(z, cfg.n, cfg.sigma_w2, cfg.sigma_a2, cfg.zeta)


def log_lrt_mblock(Z, cfg, sigma_a2=None):
    """Log LRT for the faded jammer link over cfg.M blocks, M = 1 included.

    The likelihoods factor over blocks, so the log ratio is the left-to-right
    sum over blocks of ``log_lrt_block_term``, each block with shape n/M.
    ``Z`` is one length-M block power vector or a (trials, M) array of them,
    with one statistic per row; ``sigma_a2`` broadcasts against ``Z``.
    """
    if cfg.variant == AWGN_UNIFORM:
        raise ConfigError(f"config variant is {cfg.variant}, expected a faded jammer link")
    Z = np.asarray(Z, dtype=float)
    if Z.ndim not in (1, 2) or Z.shape[-1] != cfg.M:
        raise ConfigError(f"expected length-{cfg.M} block power vectors, got shape {Z.shape}")
    sa = np.asarray(cfg.sigma_a2 if sigma_a2 is None else sigma_a2, dtype=float)
    return ltr_sum(log_lrt_block_term(Z, cfg.block_size, cfg.sigma_w2, sa, cfg.zeta))


def log_lr(cfg, blocks, haw2=None):
    """Per-row log LRT of a (rows, cfg.M) array of block powers: the
    uniform-window mixture of the total power over AWGN links, the block-term
    sum of ``log_lrt_mblock`` over a faded jammer link.

    ``haw2`` holds the matching |h_aw|^2 gains.  It is read only under the
    genie configuration, which scales sigma_a2 by it, and must then be given.
    """
    if cfg.genie and haw2 is None:
        raise ConfigError("the genie configuration needs the |h_aw|^2 gains")
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 2 or blocks.shape[1] != cfg.M:
        raise ConfigError(f"expected a (rows, {cfg.M}) block power array, got shape {blocks.shape}")
    if cfg.variant == AWGN_UNIFORM:
        return log_lrt_awgn(blocks[:, 0], cfg)
    return log_lrt_mblock(blocks, cfg, sigma_a2=haw2 * cfg.sigma_a2 if cfg.genie else None)

"""The warden's detectors: sufficient statistics and the mixture likelihood
ratio test, kept as a logarithm against log(gamma), gamma = P(H0)/P(H1), as
the raw ratio overflows beyond a hundred samples or so.  Both constructions
mix over one truncated exponential jam-power law TE(r, w) per block, whose
term is ``block_lr``: TE(0, zeta) over AWGN links, the total power being the
one block, and TE(1/zeta, inf) in each block of a faded jammer link.
``log_lr`` sums the blocks; the four ``log_lrt_*`` are adapters over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AWGN, AWGN_UNIFORM, MBLOCK_PRODUCT, ConfigError, detector_variant
from .numerics import log_power_integral


@dataclass(frozen=True)
class LrtConfig:
    """Parameters of one detector instance.  ``sigma_a2`` is the common
    per-block signal power, which the genie configuration scales by per-trial
    |h_aw|^2 gains (see ``log_lr``)."""

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

    @property
    def jam_law(self):
        """(scale, w) of ``block_lr``'s law: TE(0, zeta) or TE(1/zeta, inf)."""
        return (math.inf, self.zeta) if self.variant == AWGN_UNIFORM else (self.zeta, math.inf)


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


def block_lr(z, k, sigma_w2, sigma_a2, scale, w):
    """Per-block log LR under the jam-power law TE(1/scale, w), density
    e^(-theta/scale) on [0, w]: sigma_a2/scale + K(sigma_w2 + sigma_a2, w) -
    K(sigma_w2, w) with K(a, w) = log_power_integral(z, k, a, w, 1/scale).  On
    w = inf it is sigma_a2/scale - softplus(log J - log I), J = K(sigma_w2,
    sigma_a2) and I = K(sigma_w2 + sigma_a2, inf), so never above sigma_a2/scale
    (a quotient, as sigma_a2/zeta is) and 0 at sigma_a2 = 0.  Vectorized over
    z; sigma_a2 broadcasts against z."""
    if sigma_w2 <= 0 or scale <= 0:
        raise ValueError("sigma_w2 and scale must be positive")
    r = 1.0 / scale
    if w == math.inf:
        log_j = log_power_integral(z, k, sigma_w2, sigma_a2, r)
        log_i = log_power_integral(z, k, sigma_w2 + sigma_a2, w, r)
        return sigma_a2 / scale - np.logaddexp(0.0, log_j - log_i)
    return sigma_a2 / scale + (log_power_integral(z, k, sigma_w2 + sigma_a2, w, r)
                               - log_power_integral(z, k, sigma_w2, w, r))


def log_lrt_block_term(z, k, sigma_w2, sigma_a2, zeta):
    """``block_lr`` under a faded jammer link's law TE(1/zeta, inf)."""
    return block_lr(z, k, sigma_w2, sigma_a2, zeta, math.inf)


def log_lrt_awgn(z, cfg):
    """``block_lr`` of the total power z under AWGN links' law TE(0, zeta)."""
    if cfg.variant != AWGN_UNIFORM:
        raise ConfigError(f"config variant is {cfg.variant}, expected {AWGN_UNIFORM}")
    return block_lr(z, cfg.n, cfg.sigma_w2, cfg.sigma_a2, *cfg.jam_law)


def log_lrt_m1(z, cfg):
    """``block_lr`` of the one block of a faded jammer link with M = 1."""
    if cfg.variant != MBLOCK_PRODUCT or cfg.M != 1:
        raise ConfigError(f"expected {MBLOCK_PRODUCT} with M = 1, got {cfg.variant} with M = {cfg.M}")
    return block_lr(z, cfg.n, cfg.sigma_w2, cfg.sigma_a2, *cfg.jam_law)


def log_lrt_mblock(Z, cfg):
    """``log_lr``'s block sum over a faded jammer link at cfg.sigma_a2, for
    one length-M block power vector or a (trials, M) array."""
    if cfg.variant == AWGN_UNIFORM:
        raise ConfigError(f"config variant is {cfg.variant}, expected a faded jammer link")
    Z = np.asarray(Z, dtype=float)
    if Z.ndim not in (1, 2) or Z.shape[-1] != cfg.M:
        raise ConfigError(f"expected length-{cfg.M} block power vectors, got shape {Z.shape}")
    return ltr_sum(block_lr(Z, cfg.block_size, cfg.sigma_w2, cfg.sigma_a2, *cfg.jam_law))


def log_lr(cfg, blocks, haw2=None):
    """Per-row log LRT of a (rows, cfg.M) array of block powers: the
    left-to-right sum of ``block_lr`` under ``cfg.jam_law``.  ``haw2`` holds
    the matching |h_aw|^2 gains; only the genie configuration reads them, to
    scale sigma_a2, and then they must be given."""
    if cfg.genie and haw2 is None:
        raise ConfigError("the genie configuration needs the |h_aw|^2 gains")
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 2 or blocks.shape[1] != cfg.M:
        raise ConfigError(f"expected a (rows, {cfg.M}) block power array, got shape {blocks.shape}")
    sa = haw2 * cfg.sigma_a2 if cfg.genie else cfg.sigma_a2
    return ltr_sum(block_lr(blocks, cfg.block_size, cfg.sigma_w2, sa, *cfg.jam_law))

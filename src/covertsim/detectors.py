"""The warden's detectors: sufficient statistics and the mixture likelihood
ratio tests for the three constructions (uniform jam power over an AWGN link,
constant jam power over a one-block faded link, constant jam power over a
multi-block faded link).

All likelihood ratios are handled as logarithms and compared against
log(gamma) with gamma = P(H0)/P(H1); the raw ratio overflows for slot lengths
beyond a hundred samples or so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.interpolate import PchipInterpolator

from .model import AWGN, FADING, UNIFORM_PER_SLOT, ConfigError, Scenario
from .numerics import (
    DEFAULT_SPEC,
    NumericalError,
    QuadratureSpec,
    log_integral_block,
    log_mixture_density_uniform,
)

AWGN_UNIFORM = "awgn_uniform"
M1_EXPONENTIAL = "m1_exponential"
MBLOCK_PRODUCT = "mblock_product"


@dataclass(frozen=True)
class LrtConfig:
    """Parameters of one detector instance.

    ``sigma_a2`` may be a per-block array for the genie configuration where
    the warden knows the transmitter-side fading and sees a different signal
    power in each block.
    """

    variant: str
    n: int
    M: int
    sigma_w2: float
    zeta: float
    sigma_a2: Union[float, np.ndarray]
    log_gamma: float
    genie: bool = False
    spec: QuadratureSpec = DEFAULT_SPEC

    def __post_init__(self):
        if self.variant not in (AWGN_UNIFORM, M1_EXPONENTIAL, MBLOCK_PRODUCT):
            raise ConfigError(f"unknown detector variant {self.variant}")
        if self.n < 1 or self.M < 1 or self.n % self.M:
            raise ConfigError("need M >= 1 dividing n")
        if self.variant in (AWGN_UNIFORM, M1_EXPONENTIAL) and self.M != 1:
            raise ConfigError(f"{self.variant} requires M = 1")
        if self.sigma_w2 <= 0 or self.zeta <= 0:
            raise ConfigError("sigma_w2 and zeta must be positive")
        if np.any(np.asarray(self.sigma_a2) < 0):
            raise ConfigError("sigma_a2 must be nonnegative")
        if self.genie and self.variant == AWGN_UNIFORM:
            raise ConfigError("the genie configuration applies to faded signal links only")

    @property
    def block_size(self):
        return self.n // self.M


def config_for_scenario(scenario: Scenario, genie=None, spec=DEFAULT_SPEC):
    """Build the matching detector configuration for a scenario.

    ``genie=None`` resolves automatically: a faded transmitter-to-warden link
    forces the genie configuration, in which the warden is granted the fading
    coefficients (conceding extra knowledge only strengthens a covertness
    claim).
    """
    ch = scenario.channels
    slots = scenario.slots
    if scenario.jammer.kind == UNIFORM_PER_SLOT:
        if ch.jw != AWGN or ch.aw != AWGN:
            raise ConfigError(
                "uniform per-slot jam power is analyzed with AWGN links on the warden side"
            )
        variant = AWGN_UNIFORM
    elif ch.jw == FADING:
        variant = M1_EXPONENTIAL if slots.M == 1 else MBLOCK_PRODUCT
    else:
        raise ConfigError(
            "constant jam power over an AWGN jammer link gives the warden a known "
            "noise floor; no covert detector variant is defined for it"
        )
    if genie is None:
        genie = ch.aw == FADING
    if genie and ch.aw != FADING:
        raise ConfigError("genie configuration requires a faded transmitter-to-warden link")
    p = slots.p
    return LrtConfig(
        variant=variant,
        n=slots.n,
        M=1 if variant != MBLOCK_PRODUCT else slots.M,
        sigma_w2=scenario.noise.sigma_w2,
        zeta=scenario.zeta,
        sigma_a2=scenario.sigma_a2,
        log_gamma=math.log((1.0 - p) / p),
        genie=genie,
        spec=spec,
    )


def _sample_powers(samples):
    return samples.real**2 + samples.imag**2


def _ltr_sum(values):
    # left-to-right summation; np.add.accumulate is sequential by definition
    if len(values) == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def block_powers(obs, M):
    """Per-block power sums Z_m over the observation's samples.

    Sums run left to right within each block, so that repeated runs and the
    total/block decomposition are reproducible bit for bit.  M must match the
    block structure the observation was generated with.
    """
    n = obs.samples.shape[0]
    if M < 1 or n % M:
        raise ConfigError(f"M={M} does not divide n={n}")
    if M != obs.M:
        raise ConfigError(f"observation was generated with M={obs.M}, not {M}")
    p = _sample_powers(obs.samples).reshape(M, n // M)
    return np.add.accumulate(p, axis=1)[:, -1]


def total_power(obs):
    """Total received power: the left-to-right sum of the per-block sums.

    Defined through the observation's own block structure so that
    sum(block_powers(obs, obs.M)) == total_power(obs) holds exactly.
    """
    return _ltr_sum(block_powers(obs, obs.M))


def log_lrt_block_term(z, k, sigma_w2, sigma_a2, zeta, spec=DEFAULT_SPEC):
    """Per-block log likelihood ratio under the exponential jam-power prior.

    sigma_a2/zeta + log int_{sigma_w2+sigma_a2}^inf v^-k e^{-z/v} e^{-v/zeta} dv
                  - log int_{sigma_w2}^inf            v^-k e^{-z/v} e^{-v/zeta} dv
    """
    return (
        sigma_a2 / zeta
        + log_integral_block(z, k, sigma_w2 + sigma_a2, zeta, spec)
        - log_integral_block(z, k, sigma_w2, zeta, spec)
    )


def log_lrt_awgn(z, cfg):
    """Log LRT for the uniform jam-power construction over AWGN links.

    Both hypothesis densities are uniform mixtures of Gamma(n, sigma_w2 +
    theta) laws for the total power; the signal shifts the mixing window from
    [0, zeta] to [sigma_a2, sigma_a2 + zeta].
    """
    if cfg.variant != AWGN_UNIFORM:
        raise ConfigError(f"config variant is {cfg.variant}, expected {AWGN_UNIFORM}")
    sa = float(np.asarray(cfg.sigma_a2))
    num = log_mixture_density_uniform(
        z, cfg.n, cfg.sigma_w2, sa, sa + cfg.zeta, cfg.zeta, cfg.spec
    )
    den = log_mixture_density_uniform(
        z, cfg.n, cfg.sigma_w2, 0.0, cfg.zeta, cfg.zeta, cfg.spec
    )
    return num - den


def log_lrt_m1(z, cfg, sigma_a2=None):
    """Log LRT for the one-block faded jammer link (exponential power prior).

    ``sigma_a2`` overrides the configured signal power; the genie
    configuration passes |h|^2 * sigma_a2 here.
    """
    if cfg.variant != M1_EXPONENTIAL:
        raise ConfigError(f"config variant is {cfg.variant}, expected {M1_EXPONENTIAL}")
    sa = float(np.asarray(cfg.sigma_a2)) if sigma_a2 is None else float(sigma_a2)
    return log_lrt_block_term(z, cfg.n, cfg.sigma_w2, sa, cfg.zeta, cfg.spec)


def log_lrt_mblock(Z, cfg, sigma_a2=None):
    """Log LRT for the multi-block faded jammer link.

    The joint likelihoods factor over blocks, so the log ratio is the
    prefactor sum(sigma_a2_m)/zeta plus the difference of the per-block
    integral sums, each block with shape n/M.
    """
    if cfg.variant != MBLOCK_PRODUCT:
        raise ConfigError(f"config variant is {cfg.variant}, expected {MBLOCK_PRODUCT}")
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (cfg.M,):
        raise ConfigError(f"expected a length-{cfg.M} block power vector, got shape {Z.shape}")
    sa = np.broadcast_to(
        np.asarray(cfg.sigma_a2 if sigma_a2 is None else sigma_a2, dtype=float), (cfg.M,)
    )
    k = cfg.block_size
    prefactor = float(np.sum(sa / cfg.zeta))
    top = float(np.sum([
        log_integral_block(zm, k, cfg.sigma_w2 + sam, cfg.zeta, cfg.spec)
        for zm, sam in zip(Z, sa)
    ]))
    bottom = float(np.sum([
        log_integral_block(zm, k, cfg.sigma_w2, cfg.zeta, cfg.spec) for zm in Z
    ]))
    return (prefactor + top) - bottom


class BlockLrtTable:
    """Monotone interpolant of the per-block log LRT term on a power range.

    Built for batch evaluation in Monte Carlo runs: exact quadrature at a
    dense geometric grid of block powers, monotonicity-preserving cubic
    interpolation in between, and a build-time self check against the direct
    quadrature path.  Queries outside the table range fall back to direct
    quadrature.
    """

    def __init__(self, k, sigma_w2, sigma_a2, zeta, z_lo, z_hi, nodes=2000,
                 spec=DEFAULT_SPEC, check_points=8, check_tol=1e-6):
        if z_hi <= z_lo:
            raise ValueError("need z_hi > z_lo")
        self.k = k
        self.sigma_w2 = sigma_w2
        self.sigma_a2 = sigma_a2
        self.zeta = zeta
        self.spec = spec
        lo = max(z_lo, 1e-9 * k * sigma_w2) / 1.001
        hi = z_hi * 1.001
        grid = np.geomspace(lo, hi, nodes)
        vals = np.array([
            log_lrt_block_term(z, k, sigma_w2, sigma_a2, zeta, spec) for z in grid
        ])
        diffs = np.diff(vals)
        scale = np.maximum(1.0, np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])))
        worst = float(np.min(diffs / scale)) if sigma_a2 > 0 else 0.0
        if worst < -1e-9:
            raise NumericalError(
                f"block LRT table is not monotone (worst relative step {worst:.2e})"
            )
        self.z_lo = grid[0]
        self.z_hi = grid[-1]
        self._interp = PchipInterpolator(np.log(grid), vals, extrapolate=False)
        self._self_check(check_points, check_tol)

    def _self_check(self, points, tol):
        rng = np.random.Generator(np.random.Philox(key=[2024, 7]))
        zs = np.exp(rng.uniform(math.log(self.z_lo), math.log(self.z_hi), size=points))
        for z in zs:
            direct = log_lrt_block_term(z, self.k, self.sigma_w2, self.sigma_a2,
                                        self.zeta, self.spec)
            interp = float(self._interp(math.log(z)))
            if abs(direct - interp) > tol * max(1.0, abs(direct)):
                raise NumericalError(
                    f"block LRT table self check failed at z={z:g}: "
                    f"table {interp!r} vs direct {direct!r}"
                )

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty(z.shape)
        inside = (z >= self.z_lo) & (z <= self.z_hi)
        if np.any(inside):
            out[inside] = self._interp(np.log(z[inside]))
        for idx in np.nonzero(~inside)[0]:
            out[idx] = log_lrt_block_term(
                z[idx], self.k, self.sigma_w2, self.sigma_a2, self.zeta, self.spec
            )
        return float(out[0]) if scalar else out


def table_for_config(cfg, z_lo, z_hi, nodes=2000):
    """Block-term table matching an MBLOCK_PRODUCT configuration."""
    sa = np.asarray(cfg.sigma_a2)
    if sa.ndim != 0:
        raise ConfigError("per-block sigma_a2 cannot be tabulated; use the direct path")
    return BlockLrtTable(
        cfg.block_size, cfg.sigma_w2, float(sa), cfg.zeta, z_lo, z_hi,
        nodes=nodes, spec=cfg.spec,
    )

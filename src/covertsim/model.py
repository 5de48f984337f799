"""Scenario configuration: geometry, slot structure, channel kinds, jammer
strategy, the one switch deciding which construction a scenario is
(``detector_variant``), and the recipes that pick its covert transmit power.

All values are per-complex-sample energies/variances in consistent (arbitrary)
units.  A scenario is an immutable value object; derived quantities such as
the jam power density at the warden (``zeta``) and the transmitter's received
power at the warden (``sigma_a2``) are recomputed from the primary fields so
they can never drift out of sync.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields, replace

AWGN = "awgn"
FADING = "fading"
_CHANNEL_KINDS = (AWGN, FADING)

UNIFORM_PER_SLOT = "uniform_per_slot"
CONSTANT_POWER = "constant_power"
_JAMMER_KINDS = (UNIFORM_PER_SLOT, CONSTANT_POWER)

LINKS = ("aw", "ab", "jw", "jb")

AWGN_UNIFORM = "awgn_uniform"
MBLOCK_PRODUCT = "mblock_product"


class ConfigError(ValueError):
    """Raised when a scenario or config file violates an invariant."""


def path_gain(d, alpha):
    """Power gain d**(-alpha) of a distance-d link.

    Amplitude gain is the square root of this value.
    """
    if not (math.isfinite(d) and d > 0):
        raise ConfigError(f"distance must be positive and finite, got {d}")
    if not (math.isfinite(alpha) and alpha >= 2):
        raise ConfigError(f"path-loss exponent must be finite and >= 2, got {alpha}")
    try:
        gain = float(d) ** (-float(alpha))
    except OverflowError:
        raise ConfigError(f"path gain of distance {d} at alpha {alpha} overflows a float") from None
    if gain < sys.float_info.min:  # zero or subnormal
        raise ConfigError(f"path gain of distance {d} at alpha {alpha} underflows a float")
    return gain


@dataclass(frozen=True)
class Geometry:
    """Node distances and the common path-loss exponent."""

    d_aw: float = 1.0
    d_ab: float = 1.0
    d_jw: float = 1.0
    d_jb: float = 1.0
    alpha: float = 2.0

    def __post_init__(self):
        for name in ("d_aw", "d_ab", "d_jw", "d_jb"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ConfigError(f"{name} must be positive and finite")
            # rejects a bad alpha, and a gain out of float range
            path_gain(getattr(self, name), self.alpha)


@dataclass(frozen=True)
class SlotStructure:
    """Samples per slot, fading blocks per slot, transmit prior."""

    n: int = 1000
    M: int = 1
    p: float = 0.5

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if self.M < 1 or self.n % self.M != 0:
            raise ConfigError(f"M={self.M} must divide n={self.n}")
        if not 0.0 < self.p < 1.0:
            raise ConfigError("p must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class Channels:
    """Channel kind per link: transmitter->warden/receiver, jammer->warden/receiver."""

    aw: str = AWGN
    ab: str = AWGN
    jw: str = AWGN
    jb: str = AWGN

    def __post_init__(self):
        for link in LINKS:
            kind = getattr(self, link)
            if kind not in _CHANNEL_KINDS:
                raise ConfigError(f"channel kind for {link} must be one of {_CHANNEL_KINDS}")


@dataclass(frozen=True)
class JammerStrategy:
    """Either a fresh Uniform[0, power] variance per slot, or a constant variance.

    Zero power is permitted so jammer-free baselines can be synthesized; the
    covert constructions and detector configs require positive power and
    check it where they need it.
    """

    kind: str = UNIFORM_PER_SLOT
    power: float = 1.0

    def __post_init__(self):
        if self.kind not in _JAMMER_KINDS:
            raise ConfigError(f"jammer kind must be one of {_JAMMER_KINDS}")
        if not (math.isfinite(self.power) and self.power >= 0):
            raise ConfigError("jammer power must be nonnegative and finite")


@dataclass(frozen=True)
class NoiseLevels:
    sigma_w2: float = 1.0
    sigma_b2: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.sigma_w2, self.sigma_b2)):
            raise ConfigError("noise variances must be positive and finite")


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description; immutable and safe to share."""

    geometry: Geometry = Geometry()
    slots: SlotStructure = SlotStructure()
    channels: Channels = Channels()
    jammer: JammerStrategy = JammerStrategy()
    noise: NoiseLevels = NoiseLevels()
    P_f: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.P_f) and self.P_f >= 0):
            raise ConfigError("P_f must be nonnegative and finite")
        for name, product in (("zeta", "jammer.power * d_jw"), ("sigma_a2", "P_f * d_aw")):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} = {product}**-alpha overflows a float")

    @property
    def zeta(self):
        """Jam power density at the warden: jam power / d_jw**alpha."""
        return self.jammer.power * path_gain(self.geometry.d_jw, self.geometry.alpha)

    @property
    def sigma_a2(self):
        """Transmit power received at the warden: P_f / d_aw**alpha."""
        return self.P_f * path_gain(self.geometry.d_aw, self.geometry.alpha)

    def to_dict(self):
        d = asdict(self)
        return {
            **d["geometry"], **d["slots"], **d["noise"],
            "jammer": d["jammer"], "channels": d["channels"], "P_f": self.P_f,
        }

    @staticmethod
    def from_dict(data):
        try:
            # a config with several faults reports the first in this order
            geometry = _section(Geometry, data)
            slots = _section(SlotStructure, data)
            noise = _section(NoiseLevels, data)
            jammer = _section(JammerStrategy, data["jammer"], "jammer.")
            channels = _section(Channels, data["channels"], "channels.")
            return Scenario(
                geometry=geometry, slots=slots, channels=channels,
                jammer=jammer, noise=noise, P_f=_number(data, "P_f"),
            )
        except KeyError as exc:
            raise ConfigError(f"missing scenario field: {exc.args[0]}") from exc
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed scenario value: {exc}") from exc

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("scenario config must be a JSON object")
        return Scenario.from_dict(data)


def _number(data, key, owner=""):
    """data[key] as a float; a bool, a string, any other non-number and an
    integer too large for a float are rejected."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{owner}{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{owner}{key} is too large for a float") from None


def _whole(data, key, owner=""):
    """data[key] as an int; a fractional value is rejected, not truncated."""
    value = _number(data, key, owner)
    if not value.is_integer():
        raise ConfigError(f"{owner}{key} must be a whole number, got {data[key]!r}")
    return int(value)


def _section(cls, data, owner=""):
    """A cls with each field read from data by its declared type (float,
    int or str); other keys are ignored, so older configs that carry a slot
    count "T" still load."""
    readers = {"float": _number, "int": _whole, "str": lambda d, key, owner: str(d[key])}
    return cls(**{f.name: readers[f.type](data, f.name, owner) for f in fields(cls)})


def load_scenario(path):
    """The scenario in a config file and the SHA-256 of the bytes parsed,
    read once so that the hash describes exactly what was loaded."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return Scenario.from_json(raw), hashlib.sha256(raw).hexdigest()


def save_scenario(scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario.to_json() + "\n")


@dataclass(frozen=True)
class CovertParams:
    """Output of a covert-power selection recipe: the received-power budget
    ``sigma_a2`` at the warden and the transmit power ``P_f`` realizing it."""

    sigma_a2: float
    P_f: float


def _recipe(epsilon, zeta, d_aw, alpha, share):
    """The budget sigma_a2 = share*zeta*epsilon at the warden and the
    transmit power that path_gain(d_aw, alpha) turns into it."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not zeta > 0:
        raise ConfigError("zeta must be positive")
    sigma_a2 = zeta * epsilon * share
    return CovertParams(sigma_a2, sigma_a2 / path_gain(d_aw, alpha))


def select_covert_params_awgn(epsilon, zeta, d_aw, alpha):
    """Covert power selection for the uniform-jam-power construction.

    Picks sigma_a2 = zeta*epsilon/4: with a concentration half-width
    delta = zeta*epsilon/8, the probability that the detection threshold
    lands in the ambiguous power band is at most (sigma_a2 + 2*delta)/zeta =
    epsilon/2.
    """
    return _recipe(epsilon, zeta, d_aw, alpha, 0.25)


def select_covert_params_fading(epsilon, zeta, d_aw, alpha):
    """Covert power selection for the constant-power jammer over a faded link.

    The jam power at the warden is exponential with mean zeta, so the recipe
    halves the uniform construction's budget: sigma_a2 = zeta*epsilon/8.
    """
    return _recipe(epsilon, zeta, d_aw, alpha, 0.125)


def detector_variant(scenario):
    """The scenario's construction, which fixes both its detector and its
    covert-power recipe: ``AWGN_UNIFORM``, uniform jam power over AWGN
    warden-side links, or ``MBLOCK_PRODUCT``, a constant-power jammer over a
    faded jammer-to-warden link with any M >= 1 blocks (``slots.M``).  Any
    other scenario raises ConfigError."""
    ch = scenario.channels
    if scenario.jammer.kind == UNIFORM_PER_SLOT:
        if ch.jw != AWGN or ch.aw != AWGN:
            raise ConfigError(
                "uniform per-slot jam power is analyzed with AWGN links on the warden side"
            )
        return AWGN_UNIFORM
    if ch.jw == FADING:
        return MBLOCK_PRODUCT
    raise ConfigError(
        "constant jam power over an AWGN jammer link gives the warden a known "
        "noise floor; no covert detector variant is defined for it"
    )


def select_covert_params(scenario, epsilon):
    """The uniform recipe for ``AWGN_UNIFORM``; for a faded jammer link over
    M blocks the fading recipe at epsilon/M, i.e. sigma_a2 = zeta*epsilon/(8M).
    A scenario with no ``detector_variant`` raises its ConfigError.  As n
    grows the warden's error floor is exp(-M*sigma_a2/zeta), or
    (1 + sigma_a2/zeta)**-M when it knows the signal fading; both stay at or
    above 1 - epsilon.  The budget zeta*epsilon/8 that ignores M falls below
    it at large M (at epsilon = 0.1, from M = 9 on)."""
    g = scenario.geometry
    if detector_variant(scenario) == AWGN_UNIFORM:
        return select_covert_params_awgn(epsilon, scenario.zeta, g.d_aw, g.alpha)
    return select_covert_params_fading(
        epsilon / scenario.slots.M, scenario.zeta, g.d_aw, g.alpha
    )


def with_updates(scenario, n=None, P_f=None):
    """Return a copy of the scenario with slot size / power replaced, each
    checked as a config file's field is (a whole n, no bools)."""
    slots = scenario.slots if n is None else replace(scenario.slots, n=_whole({"n": n}, "n"))
    P_f = scenario.P_f if P_f is None else _number({"P_f": P_f}, "P_f")
    return replace(scenario, slots=slots, P_f=P_f)

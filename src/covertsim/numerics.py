"""Log-domain density evaluation, adaptive quadrature for the mixture
likelihoods, monotone root finding, and binomial confidence intervals.

Everything here works on logarithms of positive quantities.  The likelihood
ratios downstream span hundreds of orders of magnitude once the slot length
reaches a few hundred samples, so no routine in this module ever exponentiates
an unshifted exponent.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln, ndtri


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class QuadratureError(NumericalError):
    pass


class BisectionError(NumericalError):
    pass


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive Gauss-Legendre integrator.

    ``rel_tol`` bounds the estimated relative error of the integral.
    ``max_subdivisions`` caps the number of panel splits before the
    integrator gives up.  ``initial_panels`` sets the uniform panel count
    overlaid on the peak-centred seeds.  ``tail_log_drop`` is the truncation
    rule for improper integrals: the seeded panels stop once the log
    integrand has fallen this many nats below its peak, and the remaining
    tail is covered by a single closing panel.
    """

    rel_tol: float = 1e-10
    max_subdivisions: int = 4000
    initial_panels: int = 8
    tail_log_drop: float = 60.0

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1 or self.initial_panels < 1:
            raise ValueError("panel counts must be positive")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class LogDensity:
    """A log density with explicit support bounds.

    ``fn`` is only consulted strictly inside (lo, hi); outside, the density
    is zero and the log density minus infinity.
    """

    fn: Callable
    lo: float
    hi: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, -np.inf)
        inside = (x > self.lo) & (x < self.hi)
        if np.any(inside):
            out[inside] = self.fn(x[inside])
        return out if out.shape else float(out)


def log_gamma_density(z, k, s):
    """log of the Gamma(shape k, scale s) density at z (z >= 0).

    Vectorized over z and s.  z = 0 gives -inf for k > 1, -log(s) for k = 1.
    """
    if k <= 0:
        raise ValueError(f"shape must be positive, got {k}")
    z_arr = np.asarray(z, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    if np.any(z_arr < 0):
        raise ValueError("z must be nonnegative")
    if np.any(s_arr <= 0):
        raise ValueError("scale must be positive")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (k - 1.0) * np.log(z_arr) - z_arr / s_arr - gammaln(k) - k * np.log(s_arr)
    if k == 1.0:
        # 0 * log(0) produced NaN exactly at z = 0
        zero = np.broadcast_to(z_arr == 0.0, np.broadcast_shapes(z_arr.shape, s_arr.shape))
        if np.any(zero):
            fixed = -z_arr / s_arr - gammaln(k) - k * np.log(s_arr)
            out = np.where(zero, np.broadcast_to(fixed, out.shape), out)
    return out if np.ndim(out) else float(out)


# 15-point Gauss-Legendre rule, the workhorse panel rule.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(15)
_GL_LOGW = np.log(_GL_W)


def _panel_estimate(log_f, a, b):
    """log of the 15-point Gauss-Legendre estimate of int_a^b exp(log_f)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_X
    vals = log_f(x) + _GL_LOGW
    m = np.max(vals)
    if not np.isfinite(m):
        return -math.inf
    return float(m + math.log(np.sum(np.exp(vals - m))) + math.log(half))


def _log_abs_diff(la, lb):
    """log |exp(la) - exp(lb)| without leaving the log domain."""
    if la == lb:
        return -math.inf
    hi, lo = max(la, lb), min(la, lb)
    if hi == -math.inf:
        return -math.inf
    if lo == -math.inf:
        return hi
    return hi + math.log(-math.expm1(lo - hi))


def adaptive_log_quad(log_f, breakpoints, spec=DEFAULT_SPEC, what=""):
    """log of int exp(log_f(u)) du over the union of [b_i, b_{i+1}] panels.

    Panels are refined by bisection, worst estimated error first, until the
    summed panel error drops below rel_tol times the integral.  log_f must
    accept a numpy array and may return -inf where the integrand underflows.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.size < 2 or np.any(np.diff(pts) <= 0):
        raise ValueError("breakpoints must be strictly increasing with >= 2 entries")

    # Panel record: (a, b, log_whole, log_left, log_right).  The refined
    # value is logaddexp(left, right); whole is the single-panel estimate
    # used for the error measure.
    heap = []
    tag = itertools.count()
    shift = None
    total_val = 0.0
    total_err = 0.0

    def make_panel(a, b, log_whole):
        mid = 0.5 * (a + b)
        left = _panel_estimate(log_f, a, mid)
        right = _panel_estimate(log_f, mid, b)
        refined = np.logaddexp(left, right)
        err = _log_abs_diff(refined, log_whole)
        return (a, b, float(refined), left, right, err)

    panels = []
    for a, b in zip(pts[:-1], pts[1:]):
        panels.append(make_panel(a, b, _panel_estimate(log_f, a, b)))

    finite = [p[2] for p in panels if p[2] > -math.inf]
    if not finite:
        return -math.inf
    shift = max(finite)

    for p in panels:
        total_val += math.exp(p[2] - shift)
        total_err += math.exp(p[5] - shift) if p[5] > -math.inf else 0.0
        heapq.heappush(heap, (-p[5], next(tag), p))

    splits = 0
    while total_err > spec.rel_tol * total_val:
        if splits >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge after {splits} subdivisions"
                f" (relative error ~{total_err / max(total_val, 1e-300):.2e},"
                f" target {spec.rel_tol:.1e}){' in ' + what if what else ''}"
            )
        neg_err, _, (a, b, refined, left, right, err) = heapq.heappop(heap)
        if err == -math.inf or (b - a) < 1e-14 * max(1.0, abs(a)):
            # Nothing refinable is left but the budget is unmet.
            raise QuadratureError(
                f"quadrature stalled on panel [{a}, {b}]"
                f"{' in ' + what if what else ''}"
            )
        total_val -= math.exp(refined - shift)
        total_err -= math.exp(err - shift)
        mid = 0.5 * (a + b)
        for child in (make_panel(a, mid, left), make_panel(mid, b, right)):
            total_val += math.exp(child[2] - shift)
            total_err += math.exp(child[5] - shift) if child[5] > -math.inf else 0.0
            heapq.heappush(heap, (-child[5], next(tag), child))
        splits += 2
        if not math.isfinite(total_val):
            # a refined panel dwarfing every seeded panel means the peak
            # seeding failed; better to stop than to return garbage
            raise QuadratureError(
                f"panel bookkeeping overflowed on [{a}, {b}]"
                f"{' in ' + what if what else ''}"
            )

    if total_val <= 0.0:
        return -math.inf
    return shift + math.log(total_val)


def _merge_breakpoints(lo, hi, seeds, uniform_panels):
    pts = set(float(np.clip(s, lo, hi)) for s in seeds)
    pts.update(np.linspace(lo, hi, uniform_panels + 1).tolist())
    out = sorted(pts)
    merged = [out[0]]
    scale = max(abs(lo), abs(hi), 1e-30)
    for p in out[1:]:
        if p - merged[-1] > 1e-13 * scale:
            merged.append(p)
    if merged[-1] < hi:
        merged.append(hi)
    return merged


def log_integral_block(z, k, v0, zeta, spec=DEFAULT_SPEC):
    """log of int_{v0}^inf v**(-k) * exp(-z/v) * exp(-v/zeta) dv.

    This is the building block of the fading-jammer likelihoods: the scale
    variable v is the per-sample received power, averaged over an exponential
    jam-power prior with mean zeta, above the floor v0.

    The improper upper limit is removed by the substitution
    v = v0 + zeta*u/(1-u), which maps [v0, inf) onto [0, 1) and makes the
    exponential tail polynomially flat in u.  The integrand exponent is
    evaluated in shifted log form, so k up to 1e6 is fine.
    """
    if z < 0:
        raise ValueError(f"z must be nonnegative, got {z}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if v0 <= 0 or zeta <= 0:
        raise ValueError("v0 and zeta must be positive")
    z = float(z)
    k = float(k)
    v0 = float(v0)
    zeta = float(zeta)

    def log_phi(v):
        # exponent of the integrand in the original variable
        if z == 0.0:
            return -k * np.log(v) - v / zeta
        return -k * np.log(v) - z / v - v / zeta

    # Interior maximum of the exponent: v*^2/zeta + k*v* - z = 0
    # (from d/dv of the exponent), clamped to the lower limit.
    disc = (k * zeta) ** 2 + 4.0 * zeta * z
    v_star = 0.5 * (-k * zeta + math.sqrt(disc))
    v_star = max(v_star, v0)
    curv = k / v_star**2 - 2.0 * z / v_star**3
    if curv < 0.0:
        width = 1.0 / math.sqrt(-curv)
    else:
        slope = -k / v_star + z / v_star**2 - 1.0 / zeta
        width = 1.0 / max(abs(slope), 1.0 / zeta)
    width = min(width, 10.0 * zeta + v_star)

    # Map scale tracking the peak location keeps the transformed integrand
    # well conditioned even when z puts the peak far above v0.
    scale = max(zeta, v_star - v0 + width)

    def log_f(u):
        t = 1.0 - u
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            v = v0 + scale * u / t
            out = log_phi(v) + math.log(scale) - 2.0 * np.log(t)
        out = np.where(t <= 0.0, -np.inf, out)
        return out

    peak_log = float(log_phi(np.asarray(v_star)))
    seeds_v = [v0, v_star]
    step = width
    v = v_star
    while v - step > v0 * (1 + 1e-12):
        v -= step
        seeds_v.append(v)
        step *= 2.0
    v = v_star
    step = width
    while True:
        v += step
        seeds_v.append(v)
        step *= 2.0
        if float(log_phi(np.asarray(v))) < peak_log - spec.tail_log_drop or len(seeds_v) > 80:
            break

    def u_of(vv):
        return (vv - v0) / (vv - v0 + scale)

    seeds_u = [u_of(vv) for vv in seeds_v if vv >= v0]
    pts = _merge_breakpoints(0.0, 1.0, seeds_u, spec.initial_panels)
    return adaptive_log_quad(
        log_f, pts, spec, what=f"block integral (z={z:g}, k={k:g}, v0={v0:g}, zeta={zeta:g})"
    )


def log_mixture_density_uniform(z, n, sigma_w2, theta_lo, theta_hi, zeta_width,
                                spec=DEFAULT_SPEC):
    """log mixture density of the total power z under a uniform power prior.

    Computes log[(1/zeta_width) * int_{theta_lo}^{theta_hi}
    GammaPdf(z; shape n, scale sigma_w2 + theta) dtheta]: the density of a
    total-power statistic over n complex samples whose extra per-sample
    power theta is uniform on [theta_lo, theta_hi] with density
    1/zeta_width.
    """
    if not theta_hi > theta_lo >= 0:
        raise ValueError("need theta_hi > theta_lo >= 0")
    if zeta_width <= 0:
        raise ValueError("zeta_width must be positive")
    if sigma_w2 <= 0:
        raise ValueError("sigma_w2 must be positive")
    if z < 0:
        raise ValueError("z must be nonnegative")
    z = float(z)

    def log_f(theta):
        return log_gamma_density(z, n, sigma_w2 + theta)

    # Gamma density peaks in the scale parameter at scale = z/n.
    theta_star = min(max(z / n - sigma_w2, theta_lo), theta_hi)
    width = (sigma_w2 + theta_star) / math.sqrt(n)
    seeds = []
    for j in (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0):
        seeds.append(theta_star + j * width)
    pts = _merge_breakpoints(theta_lo, theta_hi, seeds, spec.initial_panels)
    val = adaptive_log_quad(
        log_f, pts, spec,
        what=f"uniform mixture (z={z:g}, n={n:g}, window=[{theta_lo:g},{theta_hi:g}])",
    )
    return val - math.log(zeta_width)


def bisect_monotone(f, target, bracket, tol, max_iter=200):
    """Solve f(x) = target for nondecreasing f on the bracket.

    Returns x with |f(x) - target| <= tol, or None when the target lies
    outside [f(a), f(b)].  Raises BisectionError if f(a) > f(b) (broken
    monotonicity contract) or if the residual cannot be resolved.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise ValueError("bracket must satisfy a < b")
    fa, fb = f(a), f(b)
    if fa > fb:
        raise BisectionError(f"f is not nondecreasing on the bracket: f({a})={fa} > f({b})={fb}")
    if target < fa or target > fb:
        return None
    if abs(fa - target) <= tol:
        return a
    if abs(fb - target) <= tol:
        return b
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm - target) <= tol:
            return mid
        if fm < target:
            a = mid
        else:
            b = mid
        if (b - a) <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
    raise BisectionError(
        f"bisection stalled at [{a}, {b}] with residual {abs(f(0.5 * (a + b)) - target):.3e} > {tol:.3e}"
    )


def wilson_interval(successes, trials, confidence):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    zq = float(ndtri(0.5 + confidence / 2.0))
    p = successes / trials
    z2 = zq * zq
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = zq * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)

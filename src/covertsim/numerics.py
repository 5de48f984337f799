"""Log-domain density evaluation, one batched quadrature kernel for the
mixture likelihoods, scalar monotone root finding, and binomial confidence
intervals.

Everything here works on logarithms of positive quantities.  The likelihood
ratios downstream span hundreds of orders of magnitude once the slot length
reaches a few hundred samples, so no routine in this module ever exponentiates
an unshifted exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class QuadratureError(NumericalError):
    pass


class BisectionError(NumericalError):
    pass


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
    with np.errstate(divide="ignore", invalid="ignore"):  # z**0 = 1 holds at z = 0 too
        log_z_power = 0.0 if k == 1 else (k - 1.0) * np.log(z_arr)
        out = log_z_power - z_arr / s_arr - math.lgamma(k) - k * np.log(s_arr)
    return out if np.ndim(out) else float(out)


# Gauss-Legendre panels in t = log v.  Each row climbs the ladder of _PANELS,
# 2 * _PANELS and 4 * _PANELS panels, stops at the first level that agrees
# with the level below to _REL_TOL and returns that level's value; a row
# unresolved at the top raises.  Six is the fewest panels that keep every
# row the CLI sends off the top level, with margin.  The window closes
# _TAIL_DROP nats below the peak.  Nodes measure the concave exponent from
# its maximum on the limits (the peak, clipped to them), so it is at most 0
# up to rounding and a rule sums its exp times the weights with no other
# shift.  Rows go through in batches of _BATCH, set-up (peak, limits, width,
# window edges) and ladder on the same rows: enough to spread numpy's
# per-call cost, few enough that a call's one node workspace, three buffers
# at the middle level for one batch (3 x 384 rows x 180 nodes x 8 bytes,
# about 1.66 MB), stays in a 2 MB L2 cache; every rule writes into it in
# place, so no batch faults in fresh pages.  The top level fits in it unless
# more than half a batch climbs, and those rows get one of their own.  The
# 15-point rule is written out as literals, each the shortest repr of
# np.polynomial.legendre.leggauss(15) and so the same bits (a test holds
# them to it): computing it at import would load numpy.polynomial and run an
# eigensolve in every process, about 1.35 MB of resident memory and 3 ms,
# for fifteen fixed numbers.
_GL_X = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_GL_W = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
_PANELS = 6
_REL_TOL = 1e-10
_TAIL_DROP = 60.0
_BATCH = 384


def _exponent_drop(s, k, p, q, out=None, scratch=None):
    """phi(t0 + s) - phi(t0) for phi(t) = (1-k) t - z e^-t - r e^t, where
    p = z e^-t0 and q = r e^t0; cancellation-free near the peak.  Written
    into out, with scratch as the expm1 buffer, when they are given."""
    out = np.multiply(1.0 - k, s, out=out)
    scratch = np.expm1(np.negative(s, out=scratch), out=scratch)
    out -= np.multiply(p, scratch, out=scratch)
    out -= np.multiply(q, np.expm1(s, out=scratch), out=scratch)
    return out


def _window_edges(k, p, q, width, lo_limit, hi_limit):
    """The window (lo, hi) in s around the peak.  Each edge starts at
    width*sqrt(2*_TAIL_DROP) or the integration limit, whichever is sooner,
    then doubles (up to the limit) while the exponent there is within
    _TAIL_DROP nats of the peak, or halves while it is already that far down
    at half the distance, so a near-flat exponent that falls off a cliff
    ends at the cliff; by concavity it only falls further out.  Both sides,
    at the edge and at half of it, search in one loop over the rows stacked
    four times, the lower side negated; a row still open after 64 steps (a
    NaN row never closes) raises."""
    rows = len(p)
    side = np.repeat((-1.0, 1.0, -0.5, 0.5), rows)
    limit = np.concatenate((-lo_limit, hi_limit))
    p, q = np.concatenate((p, p, p, p)), np.concatenate((q, q, q, q))
    u = np.minimum(math.sqrt(2.0 * _TAIL_DROP) * np.concatenate((width, width)), limit)
    for _ in range(64):
        closed = _exponent_drop(side * np.concatenate((u, u)), k, p, q) <= -_TAIL_DROP
        grow = (u != limit) & ~closed[: 2 * rows]
        shrink = closed[2 * rows :]
        if not (grow | shrink).any():
            return -u[:rows], u[rows:]
        u = np.where(grow, np.minimum(2.0 * u, limit), np.where(shrink, 0.5 * u, u))
    raise QuadratureError("quadrature window did not close")


def _panel_rule(panels, lo, hi, k, p, q, work):
    """log of the composite Gauss-Legendre estimate of int_lo^hi exp(drop)
    per row, each row summed on its own, in C-contiguous views of the three
    buffers of work: the nodes, the exponent (then its weighted exp), scratch.
    Rows that do not fit in work get a workspace of their own."""
    rows, nodes = len(lo), panels * _GL_X.size
    if rows * nodes > work[0].size:
        work = tuple(np.empty(rows * nodes) for _ in range(3))
    s, vals, scratch = (buf[: rows * nodes].reshape(rows, nodes) for buf in work)
    h = (hi - lo) / panels
    centres = lo[:, None] + h[:, None] * (np.arange(panels) + 0.5)
    by_panel = s.reshape(rows, panels, _GL_X.size)
    np.multiply(0.5 * h[:, None, None], _GL_X, out=by_panel)
    by_panel += centres[:, :, None]
    _exponent_drop(s, k, p[:, None], q[:, None], vals, scratch)
    np.exp(vals, out=vals)
    weighted = vals.reshape(rows, panels, _GL_X.size)
    weighted *= _GL_W
    return np.log(0.5 * h) + np.log(vals.sum(axis=1))


def _log_power_integral_rows(z, k, a, w, r, work):
    """One batch: the per-row set-up, then the panel ladder in work."""
    den = (k - 1.0) + np.sqrt((k - 1.0) ** 2 + 4.0 * r * z)
    peak = np.where(den > 0, 2.0 * z / den, np.where(z > 0, np.inf, 0.0))
    v0 = np.clip(peak, a, a + w)
    c = v0 - a
    p, q = z / v0, r * v0
    # the limits in t relative to the peak; c is exact when v0 is near a
    lo_limit, hi_limit = np.log1p(-c / v0), np.log1p((w - c) / v0)
    width = np.minimum(1.0 / np.sqrt(p + q), 1.0 / np.abs((1.0 - k) + p - q))
    width = np.minimum(width, hi_limit - lo_limit)
    lo, hi = _window_edges(k, p, q, width, lo_limit, hi_limit)
    value = np.empty(len(z))
    # the rows still climbing, their window, and their last estimate
    idx, b_lo, b_hi, b_p, b_q, last = np.arange(len(z)), lo, hi, p, q, None
    for panels in (_PANELS, 2 * _PANELS, 4 * _PANELS):
        est = _panel_rule(panels, b_lo, b_hi, k, b_p, b_q, work)
        if last is not None:
            value[idx] = est
            # written so that NaN counts as unresolved
            climb = ~(np.abs(np.expm1(last - est)) <= _REL_TOL)
            if not climb.any():
                return (1.0 - k) * np.log(v0) - p - q + value
            idx, b_lo, b_hi, b_p, b_q, est = (
                x[climb] for x in (idx, b_lo, b_hi, b_p, b_q, est))
        last = est
    i = idx[0]
    raise QuadratureError(f"quadrature unresolved after doubling the panels (z={z[i]:g},"
                          f" k={k:g}, a={a[i]:g}, w={w:g}, r={r:g})")


def _log_power_integral(z, k, a, w, r):
    """log of int_a^(a+w) v**-k * exp(-z/v - r*v) dv, elementwise over z and a.

    z >= 0, k >= 1, a > 0, w > 0 (finite when r = 0), r >= 0; a narrow range
    keeps its accuracy as no rounded a + w enters the limits.  With v = e^t
    the exponent is strictly concave; panels sit around its analytic peak.
    Rows go through in batches of _BATCH, each row still computed alone, so
    a z gives the same bytes in any batch; one node workspace, sized for the
    middle level of one batch (or of all rows, if fewer), serves every batch,
    so working memory does not grow with the batch beyond the output.  It
    silences floating-point warnings once: infinite limits, z = 0 and
    overflowing tails are handled by value, and a NaN row raises.
    """
    z, a = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(a, dtype=float))
    out = np.empty(z.shape)
    flat_z, flat_a, flat_out = z.ravel(), a.ravel(), out.reshape(-1)
    size = min(_BATCH, flat_z.size) * 2 * _PANELS * _GL_X.size
    work = tuple(np.empty(size) for _ in range(3))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, flat_z.size, _BATCH):
            part = slice(start, start + _BATCH)
            flat_out[part] = _log_power_integral_rows(
                flat_z[part], float(k), flat_a[part], float(w), float(r), work
            )
    return out


def log_integral_block(z, k, v0, zeta):
    """log of int_{v0}^inf v**(-k) * exp(-z/v) * exp(-v/zeta) dv.

    This is the building block of the fading-jammer likelihoods: the scale
    variable v is the per-sample received power, averaged over an exponential
    jam-power prior with mean zeta, above the floor v0.  Vectorized over z;
    v0 broadcasts against z.  k up to 1e6 is fine.
    """
    z_arr = np.asarray(z, dtype=float)
    if (z_arr < 0).any():
        raise ValueError(f"z must be nonnegative, got {z}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if (np.asarray(v0) <= 0).any() or zeta <= 0:
        raise ValueError("v0 and zeta must be positive")
    out = _log_power_integral(z_arr, k, v0, math.inf, 1.0 / zeta)
    return out if out.ndim else float(out)


def log_mixture_density_uniform(z, n, sigma_w2, theta_lo, theta_hi, zeta_width):
    """log mixture density of the total power z under a uniform power prior.

    Computes log[(1/zeta_width) * int_{theta_lo}^{theta_hi}
    GammaPdf(z; shape n, scale sigma_w2 + theta) dtheta]: the density of a
    total-power statistic over n complex samples whose extra per-sample
    power theta is uniform on [theta_lo, theta_hi] with density
    1/zeta_width.  Vectorized over z.
    """
    if not theta_hi > theta_lo >= 0:
        raise ValueError("need theta_hi > theta_lo >= 0")
    if zeta_width <= 0:
        raise ValueError("zeta_width must be positive")
    if sigma_w2 <= 0:
        raise ValueError("sigma_w2 must be positive")
    z_arr = np.asarray(z, dtype=float)
    if (z_arr < 0).any():
        raise ValueError("z must be nonnegative")
    # GammaPdf(z; n, v) = z**(n-1) v**-n exp(-z/v) / Gamma(n), with v = sigma_w2 + theta
    with np.errstate(divide="ignore"):  # z**0 = 1 holds at z = 0 too
        log_z_power = 0.0 if n == 1 else (n - 1.0) * np.log(z_arr)
    out = (
        log_z_power - math.lgamma(n) - math.log(zeta_width)
        + _log_power_integral(z_arr, n, sigma_w2 + theta_lo, theta_hi - theta_lo, 0.0)
    )
    return out if out.ndim else float(out)


def bisect_monotone(f, target, lo, hi, tol):
    """Solve f(x) = target for a nondecreasing scalar f on [lo, hi]: f(lo) and
    f(hi) first, then at most 200 midpoints until |f(x) - target| <= tol.
    Returns -inf or +inf when the target lies below f(lo) or above f(hi);
    raises BisectionError when f falls (or is NaN) or the bracket stalls.
    """
    a, b = float(lo), float(hi)
    if not a < b:
        raise ValueError("the bracket must satisfy lo < hi")
    fa, fb = f(a), f(b)
    if not fa <= fb:
        raise BisectionError(f"f falls across the bracket [{a}, {b}]")
    if not fa <= target <= fb:
        return -math.inf if target < fa else math.inf
    for x, fx in ((a, fa), (b, fb)):
        if abs(fx - target) <= tol:
            return x
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm - target) <= tol:
            return mid
        a, b = (mid, b) if fm < target else (a, mid)
        if b - a <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
    raise BisectionError(f"bisection for f = {target} did not resolve on [{a}, {b}]")


# the 0.975 quantile of the standard normal distribution, to double precision
_Z975 = 1.9599639845400536


def wilson_interval(successes, trials):
    """95 % Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z2 = _Z975 * _Z975
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z975 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)

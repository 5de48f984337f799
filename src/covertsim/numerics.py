"""Log-domain density evaluation, one batched quadrature kernel for the
mixture likelihoods, rowwise bisection for monotone roots, and binomial
confidence intervals.

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


# Gauss-Legendre panels in t = log v.  Each row climbs a ladder of 3, 6, 12
# and 24 panels (_PANELS times 1, 2, 4, 8) and returns the first level that
# agrees with the one below, at _COARSE_TOL for 6 against 3 panels and at
# _REL_TOL above; a row unresolved at 24 raises.  Where the 3- and 6-panel
# values agree to 1e-6, the 6-panel value was within 7e-13 of a 48-panel one
# for every k from 30 (1.7e-13 from k = 100), on a sweep of z/k from 1e-4 to
# 1e4, lower limits from 1e-4 to 100, jam means from 1e-3 to 1e4 and windows
# from 1e-9 wide to infinite.  No row the CLI sends has them further apart
# than 3.1e-7; accepting at 1e-8 would send a fifth to a third of those rows
# up.  Flatter exponents converge later: at k = 4 the two agreed to 4.5e-7
# with the 6-panel value 1.9e-9 off, so rows below _COARSE_MIN_K start at 6
# panels and accept at _REL_TOL.  The 24-panel level stays: on a sweep of k
# from 1 to 1e6, 683 rows at k = 2 to 10 need it.  The window closes
# _TAIL_DROP nats below the peak.  Nodes measure the concave exponent from its
# maximum on the limits (the peak, clipped to them), so it is at most 0 up to
# rounding and a rule sums its exp times the weights with no other shift.
# Rows go through in batches of _BATCH, set-up (peak, limits, width, window
# edges) and ladder on the same rows, enough to spread numpy's per-call cost.
# Every rule streams its panels one at a time, in place, through a call's one
# node workspace, three buffers of _BATCH x 15 doubles (138 KB, far inside a
# 2 MB L2 cache) viewed as 15 x rows, so every level and climbing subset fits
# and no batch faults in fresh pages.  A panel sums its nodes in a fixed tree
# and adds to a running total, left to right, not by numpy's pairwise sum,
# whose order follows the array's shape, so a row's bytes do not depend on its
# batch or on _BATCH.  The 15-point rule
# is written out as literals, each the shortest repr of
# np.polynomial.legendre.leggauss(15) and so the same bits (a test holds them
# to it): computing it at import would load numpy.polynomial and run an
# eigensolve in every process, about 1.35 MB of resident memory and 3 ms, for
# fifteen fixed numbers.
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
_PANELS = 3
_COARSE_TOL = 1e-6
_COARSE_MIN_K = 50
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
    at the edge and at half of it, search in one loop over one (4, rows)
    array of probes: u holds the (lower, upper) edges as (2, rows), the
    (4, 1) side column negates the lower side and halves the last two, and p
    and q broadcast along the rows; a row still open after 64 steps (a NaN
    row never closes) raises."""
    side = np.array([[-1.0], [1.0], [-0.5], [0.5]])
    limit = np.stack((-lo_limit, hi_limit))
    u = np.minimum(math.sqrt(2.0 * _TAIL_DROP) * width, limit)
    for _ in range(64):
        closed = _exponent_drop(side * np.concatenate((u, u)), k, p, q) <= -_TAIL_DROP
        grow = (u != limit) & ~closed[:2]
        shrink = closed[2:]
        if not (grow | shrink).any():
            return -u[0], u[1]
        u = np.where(grow, np.minimum(2.0 * u, limit), np.where(shrink, 0.5 * u, u))
    raise QuadratureError("quadrature window did not close")


def _panel_rule(panels, lo, hi, k, p, q, work):
    """log of the composite Gauss-Legendre estimate of int_lo^hi exp(drop)
    per row, one panel at a time through the buffers of work (nodes, the
    exponent then its weighted exp, scratch) viewed as (15, rows); the sums
    follow a fixed tree and order, as set out above."""
    rows, size = len(lo), _GL_X.size
    h = (hi - lo) / panels
    s, vals, scratch = (buf[: size * rows].reshape(size, rows) for buf in work)
    offsets = _GL_X[:, None] * (0.5 * h)
    total = np.zeros(rows)
    for panel in range(panels):
        np.add(offsets, lo + h * (panel + 0.5), out=s)
        _exponent_drop(s, k, p, q, vals, scratch)
        np.exp(vals, out=vals)
        vals *= _GL_W[:, None]
        # nodes 8-14 onto 0-6, 4-7 onto 0-3, 2-3 onto 0-1, then 1 onto 0
        vals[:7] += vals[8:]
        vals[:4] += vals[4:8]
        vals[:2] += vals[2:4]
        total += np.add(vals[0], vals[1], out=vals[0])
    return np.log(0.5 * h) + np.log(total)


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
    ladder, tol = (_PANELS, 2 * _PANELS, 4 * _PANELS, 8 * _PANELS), _COARSE_TOL
    if k < _COARSE_MIN_K:
        ladder, tol = ladder[1:], _REL_TOL
    for panels in ladder:
        est = _panel_rule(panels, b_lo, b_hi, k, b_p, b_q, work)
        if last is not None:
            value[idx] = est
            # written so that NaN counts as unresolved and an empty window's
            # -inf as resolved
            climb = (est != last) & ~(np.abs(np.expm1(last - est)) <= tol)
            if not climb.any():
                return (1.0 - k) * np.log(v0) - p - q + value
            idx, b_lo, b_hi, b_p, b_q, est = (
                x[climb] for x in (idx, b_lo, b_hi, b_p, b_q, est))
            tol = _REL_TOL
        last = est
    i = idx[0]
    raise QuadratureError(f"quadrature unresolved after doubling the panels (z={z[i]:g},"
                          f" k={k:g}, a={a[i]:g}, w={w[i]:g}, r={r:g})")


def _log_power_integral(z, k, a, w, r):
    """log of int_a^(a+w) v**-k * exp(-z/v - r*v) dv, elementwise over z, a and w.

    z >= 0, k >= 1, a > 0, w >= 0 (finite when r = 0), r >= 0; a narrow range
    keeps its accuracy as no rounded a + w enters the limits, and w = 0 gives
    -inf.  With v = e^t
    the exponent is strictly concave; panels sit around its analytic peak.
    Rows go through in batches of _BATCH, each row still computed alone, so
    a z gives the same bytes in any batch; one node workspace of three
    _BATCH x 15 buffers, which each rule fills one panel at a time, serves
    every batch and ladder level, so working memory does not grow with the
    batch beyond the output.  It
    silences floating-point warnings once: infinite limits, z = 0 and
    overflowing tails are handled by value, and a NaN row raises.
    """
    z, a, w = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (z, a, w)))
    out = np.empty(z.shape)
    # reshape keeps a broadcast scalar a view where ravel would copy it
    flat_z, flat_a, flat_w, flat_out = (x.reshape(-1) for x in (z, a, w, out))
    work = tuple(np.empty(_BATCH * _GL_X.size) for _ in range(3))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, flat_z.size, _BATCH):
            part = slice(start, start + _BATCH)
            flat_out[part] = _log_power_integral_rows(
                flat_z[part], float(k), flat_a[part], flat_w[part], float(r), work
            )
    return out


def log_integral_block(z, k, v0, zeta, width=math.inf):
    """log of int_{v0}^{v0+width} v**(-k) * exp(-z/v) * exp(-v/zeta) dv.

    This is the building block of the fading-jammer likelihoods: the scale
    variable v is the per-sample received power, averaged over an exponential
    jam-power prior with mean zeta, above the floor v0.  Vectorized over z;
    v0 and width broadcast against z, and width = 0 gives -inf.  k up to 1e6
    is fine.
    """
    z_arr = np.asarray(z, dtype=float)
    if (z_arr < 0).any():
        raise ValueError(f"z must be nonnegative, got {z}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if (np.asarray(v0) <= 0).any() or zeta <= 0:
        raise ValueError("v0 and zeta must be positive")
    if (np.asarray(width) < 0).any():
        raise ValueError("width must be nonnegative")
    out = _log_power_integral(z_arr, k, v0, width, 1.0 / zeta)
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
    """Solve f(x) = target row by row, f nondecreasing on each row's [lo, hi];
    target, lo and hi broadcast to the rows, and f maps one point per row to
    one value per row, a finished row at its lower end.  Each row: f(lo) and
    f(hi), then up to 200 midpoints until |f(x) - target| <= tol; -inf or
    +inf if the target is below f(lo) or above f(hi).  BisectionError names
    the first row where f falls (or is NaN) or stalls.  Scalars give a float.
    """
    rows = np.broadcast_arrays(target, lo, hi)
    target, a, b = (np.array(x, dtype=float).reshape(-1) for x in rows)
    if not (a < b).all():
        raise ValueError("the bracket must satisfy lo < hi")
    fa, fb = f(a), f(b)
    if not (fa <= fb).all():
        i = np.argmin(fa <= fb)
        raise BisectionError(f"f falls across the bracket [{a[i]}, {b[i]}] in row {i}")
    root = np.where(target < fa, -np.inf, np.inf)
    done, stall = ~((fa <= target) & (target <= fb)), np.zeros(a.shape, bool)
    for x, fx in ((a, fa), (b, fb)):
        hit = ~done & (np.abs(fx - target) <= tol)
        root[hit], done = x[hit], done | hit
    for _ in range(200):
        if done.all() or stall.any():
            break
        mid = np.where(done, a, 0.5 * (a + b))
        fm = f(mid)
        hit = ~done & (np.abs(fm - target) <= tol)
        root[hit], done = mid[hit], done | hit
        low = ~done & (fm < target)
        a, b = np.where(low, mid, a), np.where(done | low, b, mid)
        stall = ~done & (b - a <= 1e-15 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    if not done.all():
        i = np.argmax(stall if stall.any() else ~done)
        raise BisectionError(
            f"bisection for f = {target[i]} did not resolve on [{a[i]}, {b[i]}] in row {i}")
    return root.reshape(rows[0].shape) if rows[0].ndim else float(root[0])


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

import dataclasses
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covertsim import detectors, theory
from covertsim.model import ConfigError
from covertsim.numerics import NumericalError, QuadratureError
from covertsim.theory import LogDensity

from test_detectors import awgn_cfg, m1_cfg, mblock_cfg


class TestLogDensity:
    def test_support_mask(self):
        d = LogDensity(fn=lambda x: np.zeros(np.shape(x)), lo=0.0, hi=2.0)
        out = d(np.array([-1.0, 1.0, 3.0]))
        assert out[0] == -math.inf and out[1] == 0.0 and out[2] == -math.inf

    def test_scalar_call(self):
        d = LogDensity(fn=lambda x: -x, lo=0.0, hi=math.inf)
        assert d(2.0) == -2.0


class TestGammaLogDensity:
    def test_against_high_precision(self):
        with mp.workdps(40):
            expected = float(mp.log(mp.mpf(5) ** 2 * mp.e ** mp.mpf("-2.5") / (mp.gamma(3) * 2**3)))
        assert theory.gamma_logdensity(3.0, 2.0)(5.0) == pytest.approx(expected, rel=1e-14)

    def test_mode_location(self):
        k, s = 3.0, 2.0
        mode = s * (k - 1.0)
        eps = 1e-4
        d = theory.gamma_logdensity(k, s)
        assert d(mode) > d(mode - eps)
        assert d(mode) > d(mode + eps)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            theory.gamma_logdensity(0.0, 1.0)
        with pytest.raises(ValueError):
            theory.gamma_logdensity(2.0, 0.0)

    @given(
        z=st.floats(0.01, 50.0), k=st.floats(0.5, 30.0), s=st.floats(0.05, 20.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_mpmath(self, z, k, s):
        with mp.workdps(30):
            expected = float(
                (k - 1) * mp.log(z) - mp.mpf(z) / s - mp.log(mp.gamma(k)) - k * mp.log(s)
            )
        got = theory.gamma_logdensity(k, s)(z)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestLrOrder:
    def test_uniform_windows_ordered(self):
        # the two mixing laws of the uniform jam-power construction
        sa, zeta = 0.025, 1.0
        grid = np.linspace(1e-6, sa + zeta * 1.2, 2001)
        rep = theory.check_lr_order(
            theory.uniform_logdensity(0.0, zeta),
            theory.uniform_logdensity(sa, sa + zeta),
            grid,
        )
        assert rep.passed

    def test_shifted_exponentials_ordered(self):
        sa, zeta = 0.0125, 1.0
        grid = np.linspace(1e-6, 12.0, 2001)
        rep = theory.check_lr_order(
            theory.shifted_exponential_logdensity(0.0, zeta),
            theory.shifted_exponential_logdensity(sa, zeta),
            grid,
        )
        assert rep.passed

    def test_gamma_scale_family_ordered(self):
        grid = np.linspace(1e-3, 60.0, 2001)
        rep = theory.check_lr_order(
            theory.gamma_logdensity(5.0, 1.0),
            theory.gamma_logdensity(5.0, 1.35),
            grid,
        )
        assert rep.passed

    def test_equal_mean_gaussians_not_ordered(self):
        grid = np.linspace(-6.0, 6.0, 1201)
        rep = theory.check_lr_order(
            theory.gaussian_logdensity(0.0, 1.0),
            theory.gaussian_logdensity(0.0, 4.0),
            grid,
        )
        assert not rep.passed
        assert rep.worst_violation < -0.01

    def test_mean_shifted_gaussians_ordered(self):
        grid = np.linspace(-8.0, 8.0, 1201)
        rep = theory.check_lr_order(
            theory.gaussian_logdensity(0.0, 1.0),
            theory.gaussian_logdensity(0.5, 1.0),
            grid,
        )
        assert rep.passed

    @pytest.mark.parametrize("d0, d1, grid", [
        (theory.uniform_logdensity(0.0, 1.0), theory.uniform_logdensity(0.3, 1.3),
         np.linspace(-0.5, 2.0, 401)),
        (theory.uniform_logdensity(0.0, 1.0), theory.uniform_logdensity(2.0, 3.0),
         np.linspace(-0.5, 3.5, 401)),
        (theory.uniform_logdensity(2.0, 3.0), theory.uniform_logdensity(0.0, 1.0),
         np.linspace(-0.5, 3.5, 401)),
        (theory.shifted_exponential_logdensity(0.5, 1.0),
         theory.shifted_exponential_logdensity(0.0, 1.0), np.linspace(-1.0, 6.0, 301)),
        (theory.gaussian_logdensity(0.0, 1.0), theory.gaussian_logdensity(0.0, 4.0),
         np.linspace(-6.0, 6.0, 1201)),
    ], ids=["overlapping", "disjoint", "disjoint_reversed", "shifted_back", "gaussian"])
    def test_matches_pointwise_reference(self, d0, d1, grid):
        # the extended-ratio scan, one point at a time
        worst, worst_at, prev = 0.0, None, None
        for x, a, b in zip(grid, d0(grid), d1(grid)):
            if a == -math.inf and b == -math.inf:
                continue
            r = math.inf if a == -math.inf else -math.inf if b == -math.inf else b - a
            if prev is not None and prev != r and r - prev < worst:
                worst, worst_at = r - prev, float(x)
            prev = r
        rep = theory.check_lr_order(d0, d1, grid)
        assert (rep.passed, rep.worst_violation, rep.worst_at) == (
            worst >= -1e-9, worst, worst_at)

    def test_nan_step_fails(self):
        # a log density that is NaN at one grid point makes two NaN steps;
        # a NaN step falls, and the first one is the worst
        grid = np.linspace(-1.0, 1.0, 5)
        d0 = theory.gaussian_logdensity(0.0, 1.0)
        d1 = LogDensity(
            fn=lambda x: np.where(x == 0.0, np.nan, d0(x)), lo=-math.inf, hi=math.inf,
        )
        rep = theory.check_lr_order(d0, d1, grid)
        assert not rep.passed
        assert math.isnan(rep.worst_violation)
        assert rep.worst_at == 0.0

    def test_grid_validation(self):
        d = theory.gaussian_logdensity(0.0, 1.0)
        with pytest.raises(ValueError):
            theory.check_lr_order(d, d, np.array([1.0]))
        with pytest.raises(ValueError):
            theory.check_lr_order(d, d, np.array([1.0, 0.5]))


class TestLrtMonotone:
    def test_uniform_mixture_detector(self):
        rep, = theory.check_lrt_monotone(awgn_cfg(n=100), theory.GridSpec(points=250))
        assert rep.passed
        assert rep.worst_violation >= -1e-9

    def test_single_block_detector(self):
        rep, = theory.check_lrt_monotone(m1_cfg(n=100), theory.GridSpec(points=250))
        assert rep.passed

    def test_genie_scanned_at_configured_power(self):
        cfg, grid = m1_cfg(n=100), theory.GridSpec(points=250)
        genie = dataclasses.replace(cfg, genie=True)
        assert theory.check_lrt_monotone(genie, grid) == theory.check_lrt_monotone(cfg, grid)

    def test_multi_block_axes(self):
        grid = theory.GridSpec(points=120)
        reports = theory.check_lrt_monotone(mblock_cfg(n=300, M=3), grid)
        assert len(reports) == 3
        # every axis rises, so no step fell and no grid point is named
        assert all(r == theory.GridCheck(True, 0.0, None) for r in reports)

    @pytest.mark.parametrize("cfg", [awgn_cfg(n=100), m1_cfg(n=100), mblock_cfg(n=300, M=3)],
                             ids=["awgn", "m1", "m3"])
    @pytest.mark.parametrize("wavy", [False, True], ids=["shipped", "wavy"])
    def test_matches_pointwise_reference(self, cfg, wavy, monkeypatch):
        # the relative-step scan, one point at a time; "wavy" swaps in a block
        # term, the AWGN statistic's one block included, that falls between
        # its rises
        if wavy:
            monkeypatch.setattr(detectors, "block_lr",
                                lambda z, k, *args: np.sin(4.0 * z / k) + z / k)
        grid = theory.GridSpec(points=150)
        xs = grid.values()
        if cfg.variant == detectors.AWGN_UNIFORM:
            values = detectors.log_lr(cfg, (xs * cfg.n)[:, None]).tolist()
        else:
            k = cfg.block_size
            *moved, pinned = detectors.log_lrt_block_term(
                k * np.append(xs, cfg.sigma_w2 + cfg.zeta), k, cfg.sigma_w2, cfg.sigma_a2,
                cfg.zeta).tolist()
            others = sum([pinned] * (cfg.M - 1))  # left to right
            values = [t + others for t in moved]
        worst, worst_at = 0.0, None
        for x, a, b in zip(xs[1:].tolist(), values, values[1:]):
            step = (b - a) / max(1.0, abs(a), abs(b))
            if step < worst:
                worst, worst_at = step, x
        want = theory.GridCheck(worst >= -1e-9, worst, worst_at)
        assert theory.check_lrt_monotone(cfg, grid) == [want] * cfg.M
        assert want.passed != wavy

    @pytest.mark.parametrize("cfg", [awgn_cfg(n=100), m1_cfg(n=100), mblock_cfg(n=300, M=3)],
                             ids=["awgn", "m1", "m3"])
    def test_two_point_rising_scan(self, cfg):
        reports = theory.check_lrt_monotone(cfg, theory.GridSpec(points=2))
        assert reports == [theory.GridCheck(True, 0.0, None)] * cfg.M

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_every_axis_gives_the_same_scan(self, M):
        # the statistic is symmetric in the blocks, so moving any one of them
        # with the others pinned must give the same report, bit for bit
        reports = theory.check_lrt_monotone(mblock_cfg(n=1200, M=M), theory.GridSpec(points=400))
        assert len(reports) == M
        assert all(r == reports[0] for r in reports)


def scalar_boundary_root(cfg, x_others, log_gamma, tol=1e-10, max_expand=25):
    """A per-draw, per-axis root finder with its scalar bisection inlined:
    the oracle the single-axis sign tests must agree with.  None means no
    root, including a broken bisection contract."""
    k = cfg.block_size
    sa = float(np.asarray(cfg.sigma_a2))

    def term(z):
        return detectors.log_lrt_block_term(z, k, cfg.sigma_w2, sa, cfg.zeta)

    offset = detectors.ltr_sum(term(k * np.asarray(x_others, dtype=float)))

    def f(x):
        return term(k * x) + offset

    sup_f = sa / cfg.zeta + offset
    if log_gamma >= sup_f - 1e-7 * max(1.0, abs(sup_f)):
        return None
    a, b = 0.0, cfg.sigma_w2 + cfg.zeta
    expansions = 0
    while f(b) < log_gamma:
        b *= 2.0
        expansions += 1
        if expansions > max_expand:
            return None
    fa, fb = f(a), f(b)
    if fa > fb or not fa <= log_gamma <= fb:
        return None
    if abs(fa - log_gamma) <= tol:
        return a
    if abs(fb - log_gamma) <= tol:
        return b
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm - log_gamma) <= tol:
            return mid
        if fm < log_gamma:
            a = mid
        else:
            b = mid
        if (b - a) <= 1e-15 * max(1.0, abs(a), abs(b)):
            return None
    return None


def spot_draws(cfg, rows, seed):
    rng = np.random.default_rng(seed)
    return cfg.sigma_w2 + rng.exponential(cfg.zeta, size=(rows, cfg.M))


def lrt_along_axis(cfg, X, m, x_m):
    """log_lrt_mblock of each row of X with its block m moved to x_m."""
    Y = np.array(X, dtype=float)
    Y[:, m] = x_m
    return detectors.log_lrt_mblock(cfg.block_size * Y, cfg)


class TestBoundaryRoot:
    """Whether a boundary root lies within delta of a draw along one axis,
    as the single-axis sign tests of the boundary-mass spot checks see it."""

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_root_sits_on_boundary(self, M):
        # the sign tests evaluate the warden's statistic itself, so every hit
        # brackets log gamma under log_lrt_mblock's left-to-right block sum
        cfg = mblock_cfg(n=100 * M, M=M)
        X = spot_draws(cfg, 40, seed=1)
        delta = 0.1
        hit, broken = theory._axis_crossings(cfg, X, delta, cfg.log_gamma)
        assert hit.any(axis=0).all() and not broken.any()
        d = delta * (1.0 - 1e-9)
        for m in range(cfg.M):
            rows = X[hit[:, m]]
            assert np.all(lrt_along_axis(cfg, rows, m, rows[:, m] - d) < cfg.log_gamma)
            assert np.all(lrt_along_axis(cfg, rows, m, rows[:, m] + d) > cfg.log_gamma)

    def test_axis_exchangeability(self):
        cfg = mblock_cfg(n=200, M=2)
        x = np.linspace(1.0, 2.5, 31)
        hit, broken = theory._axis_crossings(cfg, np.stack([x, x], axis=1), 0.05, cfg.log_gamma)
        assert np.array_equal(hit[:, 0], hit[:, 1]) and not broken.any()
        assert hit[:, 0].any() and not hit[:, 0].all()

    def test_unattainably_low_target(self):
        cfg = mblock_cfg(n=200, M=2)
        term = detectors.log_lrt_block_term(
            0.0, cfg.block_size, cfg.sigma_w2, cfg.sigma_a2, cfg.zeta
        )
        floor = term + detectors.log_lrt_block_term(
            cfg.block_size * 1.3, cfg.block_size, cfg.sigma_w2, cfg.sigma_a2, cfg.zeta
        )
        hit, broken = theory._axis_crossings(cfg, np.array([[1.0, 1.3]]), 0.05, floor - 5.0)
        assert not hit.any() and not broken.any()

    def test_unattainably_high_target(self):
        cfg = mblock_cfg(n=200, M=2)
        hit, broken = theory._axis_crossings(cfg, np.array([[1.0, 1.3]]), 0.05, 10.0)
        assert not hit.any() and not broken.any()

    @pytest.mark.parametrize("M, rows", [(2, 30), (3, 16)])
    def test_matches_scalar_oracle(self, M, rows):
        cfg = mblock_cfg(n=100 * M, M=M)
        X = spot_draws(cfg, rows, seed=M)
        oracle = np.array([
            [np.nan if r is None else r
             for r in (scalar_boundary_root(cfg, np.delete(x, m), cfg.log_gamma)
                       for m in range(M))]
            for x in X
        ])
        for scale in (1.0, 4.0):
            delta = scale * theory.delta_for_boundary_mass(0.1, M, cfg.zeta)
            hit, broken = theory._axis_crossings(cfg, X, delta, cfg.log_gamma)
            want = np.abs(oracle - X) < delta * (1.0 - 1e-9)
            assert not broken.any()
            # both outcomes occur, so entry-by-entry equality is not vacuous
            assert want.any() and not want.all()
            assert np.array_equal(hit, want)

    def test_row_alone_equals_batch(self):
        cfg = mblock_cfg(n=300, M=3)
        X = spot_draws(cfg, 12, seed=5)
        batch = theory._axis_crossings(cfg, X, 0.1, cfg.log_gamma)
        for i in (0, 4, 11):
            alone = theory._axis_crossings(cfg, X[i:i + 1], 0.1, cfg.log_gamma)
            assert all(np.array_equal(a, b[i:i + 1]) for a, b in zip(alone, batch))

    def test_no_rows(self):
        hit, broken = theory._axis_crossings(mblock_cfg(n=200, M=2), np.empty((0, 2)), 0.05, 0.0)
        assert hit.shape == broken.shape == (0, 2)


class TestBoundaryDelta:
    def test_reference_values(self):
        assert theory.delta_for_boundary_mass(0.1, 2, 1.0) == pytest.approx(0.025)
        assert theory.delta_for_boundary_mass(0.1, 4, 2.0) == pytest.approx(0.025)

    def test_density_supremum_behind_the_formula(self):
        # the jam-power-plus-noise density peaks at the noise floor, at 1/zeta
        for zeta, sw2 in [(1.0, 1.0), (2.0, 0.5)]:
            d = theory.shifted_exponential_logdensity(sw2, zeta)
            xs = np.linspace(sw2 + 1e-9, sw2 + 8 * zeta, 4001)
            vals = np.exp(d(xs))
            assert vals.max() == pytest.approx(1.0 / zeta, rel=1e-6)
            assert np.argmax(vals) == 0

    def test_vanishing_epsilon(self):
        assert theory.delta_for_boundary_mass(1e-9, 2, 1.0) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            theory.delta_for_boundary_mass(0.0, 2, 1.0)
        with pytest.raises(ValueError):
            theory.delta_for_boundary_mass(0.1, 0, 1.0)


class TestBoundaryMass:
    def test_mass_within_analytic_bound(self):
        cfg = mblock_cfg(n=200, M=2)
        delta = theory.delta_for_boundary_mass(0.1, 2, cfg.zeta)
        region = theory.estimate_boundary_mass(
            cfg, delta, cfg.log_gamma, draws=2500, seed=21, spot_checks=40,
        )
        hw = (region.ci[1] - region.ci[0]) / 2.0
        assert region.mass <= region.analytic_bound + hw
        assert region.spot_mismatches == 0
        assert region.failures == 0
        assert region.spot_checks == 40

    def test_spot_check_failures_counted(self, monkeypatch):
        # a per-block term that falls along every axis breaks every spot
        # check; the corner test reads the same term, and with it falling no
        # lower corner lies below an upper one, so nothing is in the region
        cfg = mblock_cfg(n=200, M=2)
        monkeypatch.setattr(detectors, "block_lr", lambda z, *args: -z)
        region = theory.estimate_boundary_mass(
            cfg, 0.025, cfg.log_gamma, draws=50, seed=3, spot_checks=8
        )
        assert region.failures == 8 * cfg.M
        assert region.spot_mismatches == 0

    def test_nan_spot_checks_counted(self, monkeypatch):
        # a statistic NaN only on the upper spot-check points: lo - hi is NaN,
        # which counts as broken on every axis of every spot-checked draw
        cfg = mblock_cfg(n=200, M=2)
        real = theory._statistic

        def nan_above(cfg, X):
            out = real(cfg, X)
            return np.where(X.max(axis=1) > 50.0, np.nan, out)

        monkeypatch.setattr(theory, "_statistic", nan_above)
        X = np.array([[1.0, 1.3], [1.2, 100.0]])
        hit, broken = theory._axis_crossings(cfg, X, 0.05, cfg.log_gamma)
        assert broken.tolist() == [[False, False], [True, True]]
        assert not hit[1].any()

    def test_kernel_failure_in_spot_checks_raises(self, monkeypatch):
        # the kernel fails only when the spot checks call it: the corner test
        # evaluates both corners, then the spot checks' error propagates
        real, calls = detectors.block_lr, []

        def failing(*args):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not theory._axis_crossings.__code__:
                frame = frame.f_back
            calls.append(frame is not None)
            if frame is not None:
                raise QuadratureError("quadrature window did not close")
            return real(*args)

        monkeypatch.setattr(detectors, "block_lr", failing)
        with pytest.raises(NumericalError):
            theory.estimate_boundary_mass(
                mblock_cfg(n=200, M=2), 0.025, 0.0, draws=20, seed=1, spot_checks=5
            )
        assert calls == [False, False, True]

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError):
            theory.estimate_boundary_mass(mblock_cfg(n=200, M=2), delta, 0.0, 10, 1)

    def test_shrinking_neighborhood_empties(self):
        cfg = mblock_cfg(n=200, M=2)
        region = theory.estimate_boundary_mass(
            cfg, 1e-7, cfg.log_gamma, draws=1500, seed=4, spot_checks=10
        )
        assert region.mass <= 0.002

    def test_membership_flags_match_direct_evaluation(self):
        cfg = mblock_cfg(n=200, M=2)
        region = theory.estimate_boundary_mass(
            cfg, 0.025, cfg.log_gamma, draws=300, seed=9, spot_checks=10,
        )
        k = cfg.block_size
        for i in range(0, 60, 3):
            x = region.draw_x[i]
            lo = detectors.log_lrt_mblock(np.clip(x - 0.025, 0, None) * k, cfg)
            hi = detectors.log_lrt_mblock((x + 0.025) * k, cfg)
            assert bool(region.draw_in_region[i]) == (lo < cfg.log_gamma < hi)

    @pytest.mark.parametrize("M, draws", [(2, 2000), (4, 400)])
    def test_upper_corner_short_circuit_matches_both_corners(self, M, draws):
        # mblock_cfg(n=100 * M, M) is the detector of configs/fading_m{M}.json;
        # the reference evaluates both corners of every draw
        cfg = mblock_cfg(n=100 * M, M=M)
        delta = theory.delta_for_boundary_mass(0.1, M, cfg.zeta)
        k = cfg.block_size
        regions = {
            log_gamma: theory.estimate_boundary_mass(
                cfg, delta, log_gamma, draws, seed=1, spot_checks=0
            )
            for log_gamma in (0.0, -0.05, -1e9)
        }
        x = regions[0.0].draw_x
        lo = detectors.log_lrt_mblock(k * np.clip(x - delta, 0.0, None), cfg)
        hi = detectors.log_lrt_mblock(k * (x + delta), cfg)
        for log_gamma, region in regions.items():
            want = (lo < log_gamma) & (log_gamma < hi)
            assert np.array_equal(region.draw_in_region, want)
            # -1e9 leaves the upper-corner subset empty
            assert want.any() == (log_gamma != -1e9)

    def test_rejects_scalar_variants(self):
        with pytest.raises(ConfigError):
            theory.estimate_boundary_mass(m1_cfg(), 0.01, 0.0, 100, 1)

    def test_genie_evaluated_at_configured_power(self):
        # the genie configuration is read only with per-trial gains; the
        # boundary has none and takes the statistic at the configured power
        cfg = mblock_cfg(n=200, M=2)
        genie = dataclasses.replace(cfg, genie=True)
        delta = theory.delta_for_boundary_mass(0.1, cfg.M, cfg.zeta)
        a, b = (theory.estimate_boundary_mass(c, delta, cfg.log_gamma, 1000, seed=5,
                                              spot_checks=50) for c in (cfg, genie))
        assert (a.mass, a.ci, a.failures, a.spot_checks, a.spot_mismatches) == (
            b.mass, b.ci, b.failures, b.spot_checks, b.spot_mismatches)
        assert a.draw_x.tobytes() == b.draw_x.tobytes()
        assert a.draw_in_region.tobytes() == b.draw_in_region.tobytes()
        assert 0 < a.mass and a.spot_checks == 50

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from covertsim import detectors, model, synth
from covertsim.detectors import (
    AWGN_UNIFORM,
    MBLOCK_PRODUCT,
    LrtConfig,
    block_lr,
    block_powers,
    config_for_scenario,
    log_lrt_awgn,
    log_lrt_block_term,
    log_lrt_m1,
    log_lrt_mblock,
    total_power,
)
from covertsim.model import ConfigError
from covertsim.numerics import log_power_integral
from covertsim.synth import H0, Latents, Observation, TrialRng

from conftest import awgn_scenario, fading_scenario, mp_log_kernel


def make_obs(samples, M=1):
    samples = np.asarray(samples, dtype=np.complex128)
    return Observation(samples=samples, M=M, latents=Latents())


def awgn_cfg(n=100, sigma_a2=0.025, zeta=1.0, sigma_w2=1.0, log_gamma=0.0):
    return LrtConfig(
        variant=AWGN_UNIFORM, n=n, M=1, sigma_w2=sigma_w2, zeta=zeta,
        sigma_a2=sigma_a2, log_gamma=log_gamma,
    )


def m1_cfg(n=100, sigma_a2=0.0125, zeta=1.0, sigma_w2=1.0, log_gamma=0.0):
    return LrtConfig(
        variant=MBLOCK_PRODUCT, n=n, M=1, sigma_w2=sigma_w2, zeta=zeta,
        sigma_a2=sigma_a2, log_gamma=log_gamma,
    )


def mblock_cfg(n=200, M=2, sigma_a2=0.0125, zeta=1.0, sigma_w2=1.0, log_gamma=0.0):
    return LrtConfig(
        variant=MBLOCK_PRODUCT, n=n, M=M, sigma_w2=sigma_w2, zeta=zeta,
        sigma_a2=sigma_a2, log_gamma=log_gamma,
    )


class TestSufficientStats:
    def test_zero_samples(self):
        assert total_power(make_obs(np.zeros(8))) == 0.0

    def test_single_sample(self):
        assert total_power(make_obs([3.0 + 4.0j])) == 25.0

    def test_block_decomposition_exact(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=96) + 1j * rng.normal(size=96)
        obs = make_obs(samples, M=4)
        bp = block_powers(obs)
        assert bp.shape == (4,)
        assert float(np.add.accumulate(bp)[-1]) == total_power(obs)

    def test_single_block_equals_total(self):
        rng = np.random.default_rng(8)
        obs = make_obs(rng.normal(size=32) + 1j * rng.normal(size=32), M=1)
        bp = block_powers(obs)
        assert bp.tolist() == [total_power(obs)]

    def test_zero_block_vector(self):
        assert block_powers(make_obs(np.zeros(12), M=3)).tolist() == [0.0, 0.0, 0.0]

    def test_conditional_power_scaling(self):
        # known slot power: E[z] = n * (sigma_w2 + u * zeta)
        sc = awgn_scenario(n=200, P_f=0.0)
        trials = 10_000
        vals = np.empty(trials)
        for t in range(trials):
            obs = synth.synthesize_willie_slot(sc, H0, TrialRng(51, t))
            u = obs.latents.jam_power / sc.jammer.power
            vals[t] = total_power(obs) / (sc.slots.n * (1.0 + u * sc.zeta))
        assert abs(vals.mean() - 1.0) < 0.01


class TestAwgnLrt:
    def test_null_signal_gives_zero(self):
        cfg = awgn_cfg(sigma_a2=0.0)
        for z in (30.0, 100.0, 170.0, 400.0):
            assert log_lrt_awgn(z, cfg) == 0.0

    def test_extreme_power_signs(self):
        cfg = awgn_cfg(n=100)
        high = log_lrt_awgn(5 * cfg.n * (cfg.sigma_w2 + cfg.zeta), cfg)
        low = log_lrt_awgn(cfg.n * cfg.sigma_w2, cfg)
        assert high > 0.0
        assert high > low

    def test_against_brute_force_mixture(self):
        # 1e6-point trapezoid over the mixing variable, in log space
        n, sw2, zeta, sa, z = 4, 1.0, 1.0, 0.25, 4.0

        def brute(lo, hi):
            theta = np.linspace(lo, hi, 1_000_001)
            log_f = (
                (n - 1) * math.log(z) - z / (sw2 + theta)
                - math.lgamma(n) - n * np.log(sw2 + theta)
            )
            m = log_f.max()
            return m + math.log(np.trapezoid(np.exp(log_f - m), theta)) - math.log(zeta)

        expected = brute(sa, sa + zeta) - brute(0.0, zeta)
        got = log_lrt_awgn(z, awgn_cfg(n=n, sigma_a2=sa, zeta=zeta, sigma_w2=sw2))
        assert got == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    def test_large_n_matches_mpmath(self, n):
        # the ratio of the two window integrals of v^-n e^(-z/v), each by
        # mp quadrature, where the oracles above stop at n = 4 and C8's at 12
        cfg = awgn_cfg(n=n)
        sw2, sa, zeta = cfg.sigma_w2, cfg.sigma_a2, cfg.zeta
        for ratio in (1.0, 1.2, 1.6, 1.9):
            z = ratio * n
            want = float(mp_log_kernel(z, n, sw2 + sa, zeta, 0.0)
                         - mp_log_kernel(z, n, sw2, zeta, 0.0))
            assert abs(log_lrt_awgn(z, cfg) - want) <= 1e-10 * max(1.0, abs(want)), ratio

    def test_zero_power_is_the_ratio_of_power_laws(self):
        # z = 0 leaves int v^-n dv over each window; no log z term is formed
        # to cancel, so the ratio is finite
        n, lo = 100, 1.025
        want = (-(n - 1) * math.log(lo) + math.log1p(-(lo / (lo + 1.0)) ** (n - 1))
                - math.log1p(-(2.0 ** -(n - 1))))
        assert log_lrt_awgn(0.0, awgn_cfg(n=n)) == pytest.approx(want, rel=1e-12)

    def test_variant_guard(self):
        with pytest.raises(ConfigError):
            log_lrt_awgn(1.0, m1_cfg())


class TestM1Lrt:
    def test_null_signal_gives_zero(self):
        cfg = m1_cfg(sigma_a2=0.0)
        for z in (10.0, 100.0, 1000.0):
            assert log_lrt_m1(z, cfg) == 0.0

    def test_limit_approached_from_below(self):
        cfg = m1_cfg(n=100, sigma_a2=0.0125)
        limit = 0.0125 / cfg.zeta
        z_huge = 100.0 * cfg.n * (cfg.sigma_w2 + cfg.zeta)
        val = log_lrt_m1(z_huge, cfg)
        assert val <= limit + 1e-9
        assert val >= limit - 1e-6
        assert log_lrt_m1(0.3 * z_huge, cfg) <= val + 1e-12

    def test_monotone_on_grid(self):
        cfg = m1_cfg(n=50)
        zs = np.geomspace(0.1, 10.0, 150) * cfg.n
        vals = np.array([log_lrt_m1(z, cfg) for z in zs])
        diffs = np.diff(vals)
        scale = np.maximum(1.0, np.abs(vals[:-1]))
        assert (diffs / scale).min() >= -1e-9


class TestBlockTerm:
    """The per-block term sigma_a2/zeta - softplus(log J - log I)."""

    @pytest.mark.parametrize("k", [100, 3200, 1e4, 1e6])
    def test_never_exceeds_its_supremum(self, k):
        # z/k up to 1e3, where the term sits at its supremum to the last bits
        z = k * np.geomspace(0.5, 1e3, 2000)
        term = log_lrt_block_term(z, k, 1.0, 0.00625, 1.0)
        assert np.all(term <= 0.00625)

    def test_multi_block_statistic_never_exceeds_its_supremum(self):
        # M = 2 at n = 6400 under H0, where most rows sit at the ceiling
        cfg = mblock_cfg(n=6400, M=2, sigma_a2=0.00625)
        rng = np.random.default_rng(7)
        k = cfg.block_size
        Z = (cfg.sigma_w2 + rng.exponential(cfg.zeta, (2000, 2))) * rng.gamma(k, 1.0, (2000, 2))
        assert np.all(log_lrt_mblock(Z, cfg) <= cfg.M * cfg.sigma_a2 / cfg.zeta)

    @pytest.mark.filterwarnings("error")
    def test_finite_under_a_vanishing_jammer(self):
        # zeta = 1e-9: each log integral is about -1e9, the term about -0.008
        k = 100
        z = k * np.geomspace(0.5, 1e3, 200)
        term = log_lrt_block_term(z, k, 1.0, 0.00625, 1e-9)
        assert np.all(np.isfinite(term)) and np.all(term <= 0.00625 / 1e-9)

    def test_zero_signal_power_gives_exactly_zero(self):
        # an empty window J: softplus(-inf) = 0, row by row under per-row powers
        z = 100.0 * np.geomspace(0.1, 10.0, 50)
        sa = np.where(np.arange(50) % 2, 0.0125, 0.0)
        term = log_lrt_block_term(z, 100, 1.0, sa, 1.0)
        assert np.all(term[sa == 0] == 0.0) and np.all(term[sa > 0] != 0.0)

    @pytest.mark.parametrize("z", [100.0, 120.0, 135.0, 150.0])
    def test_deficit_matches_mpmath(self, z):
        # sigma_a2 = 1e-48 keeps the deficit log(1 + J/I), from about 1e-47
        # down to 4e-52, above the rounding of sigma_a2/zeta - term
        k, sa = 100, 1e-48
        got = sa - log_lrt_block_term(z, k, 1.0, sa, 1.0)
        with mp.workdps(100):
            log_j = mp_log_kernel(z, k, 1.0, sa, 1.0, dps=100)
            log_i = mp_log_kernel(z, k, 1 + mp.mpf(sa), mp.inf, 1.0, dps=100)
            want = float(mp.log1p(mp.exp(log_j - log_i)))
        assert abs(got / want - 1.0) <= 1e-12


class TestBlockLr:
    """block_lr on the truncated exponential family TE(1/scale, w)."""

    @pytest.mark.parametrize("scale, w", [(math.inf, 1.0), (1.0, math.inf), (0.5, 2.0)],
                             ids=["uniform", "exponential", "truncated"])
    @pytest.mark.parametrize("x", [0.5, 1.5, 4.0])
    def test_matches_the_mixture_ratio_in_mpmath(self, scale, w, x):
        # the ratio of the two hypotheses' mixtures over the jam power theta,
        # their Gamma(k) factors in z cancelled
        k, sw2, sa = 8, 1.0, 0.3
        z = k * x

        def log_mixture(floor):
            def f(theta):
                v = floor + theta
                return mp.exp(-theta / scale - z / v) * v**-k
            return mp.log(mp.quad(f, [0, 1, 4, w] if w == math.inf else [0, w]))

        with mp.workdps(30):
            want = float(log_mixture(sw2 + sa) - log_mixture(sw2))
        assert block_lr(z, k, sw2, sa, scale, w) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("sw2, scale", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_a_nonpositive_floor_or_scale(self, sw2, scale):
        with pytest.raises(ValueError):
            block_lr(10.0, 8, sw2, 0.1, scale, math.inf)


class TestMBlockLrt:
    def test_single_block_reduces_exactly(self):
        c1 = m1_cfg(n=100)
        cb = mblock_cfg(n=100, M=1)
        for z in (40.0, 130.0, 260.0):
            assert log_lrt_mblock([z], cb) == log_lrt_m1(z, c1)

    def test_permutation_invariance(self):
        cfg = mblock_cfg(n=200, M=2)
        assert log_lrt_mblock([80.0, 150.0], cfg) == log_lrt_mblock([150.0, 80.0], cfg)

    def test_additivity_of_block_terms(self):
        cfg = mblock_cfg(n=200, M=2)
        k = cfg.block_size
        for pair in ([90.0, 140.0], [60.0, 60.0], [110.0, 310.0]):
            whole = log_lrt_mblock(pair, cfg)
            parts = sum(
                log_lrt_block_term(z, k, cfg.sigma_w2, cfg.sigma_a2, cfg.zeta)
                for z in pair
            )
            assert abs(whole - parts) <= 1e-12 * max(1.0, abs(whole))

    @pytest.mark.parametrize("genie", [False, True], ids=["plain", "genie"])
    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_log_lr_is_the_left_to_right_block_term_sum(self, M, genie):
        cfg = m1_cfg(n=400) if M == 1 else mblock_cfg(n=400, M=M)
        cfg = dataclasses.replace(cfg, genie=genie)
        rng = np.random.default_rng(31)
        Z = cfg.block_size * rng.uniform(0.5, 3.0, size=(50, M))
        haw2 = rng.exponential(size=(50, M))
        sa = haw2 * cfg.sigma_a2 if genie else cfg.sigma_a2
        terms = log_lrt_block_term(Z, cfg.block_size, cfg.sigma_w2, sa, cfg.zeta)
        assert detectors.log_lr(cfg, Z, haw2).tobytes() == detectors.ltr_sum(terms).tobytes()

    def test_per_block_signal_powers(self):
        # per-block signal powers reach the statistic as the genie's gains
        cfg = mblock_cfg(n=200, M=2, sigma_a2=0.0125)
        Z = np.array([[100.0, 120.0]])
        uniform = log_lrt_mblock(Z[0], cfg)
        vector = detectors.log_lr(_genie(cfg), Z, np.ones((1, 2)))[0]
        assert vector == pytest.approx(uniform, abs=1e-14)
        skew = detectors.log_lr(_genie(cfg), Z, np.array([[4.0, 0.0]]))[0]
        assert skew != pytest.approx(uniform, abs=1e-6)

    def test_shape_guard(self):
        with pytest.raises(ConfigError):
            log_lrt_mblock([1.0, 2.0, 3.0], mblock_cfg(n=200, M=2))

    def test_no_rows(self):
        assert log_lrt_mblock(np.empty((0, 4)), mblock_cfg(n=400, M=4)).shape == (0,)


def _genie(cfg):
    return dataclasses.replace(cfg, genie=True)


def _two_path_reference(cfg, Z, sa):
    """The statistic as the two variant paths formed it before ``block_lr``:
    the uniform window's two kernel rows of the total power, or the
    left-to-right sum of the exponential prior's J/I softplus terms."""
    if cfg.variant == AWGN_UNIFORM:
        return (log_power_integral(Z[:, 0], cfg.n, cfg.sigma_w2 + sa, cfg.zeta, 0.0)
                - log_power_integral(Z[:, 0], cfg.n, cfg.sigma_w2, cfg.zeta, 0.0))
    r = 1.0 / cfg.zeta
    log_j = log_power_integral(Z, cfg.block_size, cfg.sigma_w2, sa, r)
    log_i = log_power_integral(Z, cfg.block_size, cfg.sigma_w2 + sa, math.inf, r)
    return detectors.ltr_sum(sa / cfg.zeta - np.logaddexp(0.0, log_j - log_i))


class TestLogLr:
    """log_lr is each variant's own log LRT, and the formula its variant
    path used before the one block_lr, bit for bit."""

    @pytest.mark.parametrize("rows", [7, 0])
    @pytest.mark.parametrize("cfg, direct", [
        (awgn_cfg(n=100), lambda Z, g, cfg: log_lrt_awgn(Z[:, 0], cfg)),
        (awgn_cfg(n=100, sigma_a2=0.0), lambda Z, g, cfg: log_lrt_awgn(Z[:, 0], cfg)),
        (m1_cfg(n=100), lambda Z, g, cfg: log_lrt_m1(Z[:, 0], cfg)),
        (m1_cfg(n=100, sigma_a2=0.0), lambda Z, g, cfg: log_lrt_m1(Z[:, 0], cfg)),
        (_genie(m1_cfg(n=100, zeta=0.7)),
         lambda Z, g, cfg: log_lrt_block_term(
             Z[:, 0], cfg.n, cfg.sigma_w2, g[:, 0] * cfg.sigma_a2, cfg.zeta)),
        (mblock_cfg(n=200, M=2), lambda Z, g, cfg: log_lrt_mblock(Z, cfg)),
        (_genie(mblock_cfg(n=200, M=2, zeta=0.7)),
         lambda Z, g, cfg: detectors.ltr_sum(log_lrt_block_term(
             Z, cfg.block_size, cfg.sigma_w2, g * cfg.sigma_a2, cfg.zeta))),
    ], ids=["awgn", "awgn_no_signal", "m1", "m1_no_signal", "m1_genie", "mblock",
            "mblock_genie"])
    def test_matches_variant(self, cfg, direct, rows):
        rng = np.random.default_rng(23)
        Z = cfg.block_size * rng.uniform(0.5, 3.0, size=(rows, cfg.M))
        haw2 = rng.exponential(size=(rows, cfg.M))
        if rows:
            Z[0, 0] = 0.0  # z = 0
            haw2[1, 0] = 0.0  # a genie row with no signal in its first block
        got = detectors.log_lr(cfg, Z, haw2)
        want = direct(Z, haw2, cfg)
        before = _two_path_reference(cfg, Z, haw2 * cfg.sigma_a2 if cfg.genie else cfg.sigma_a2)
        assert got.shape == (rows,) and got.tobytes() == want.tobytes() == before.tobytes()
        assert np.isfinite(got).all()

    def test_genie_needs_gains(self):
        with pytest.raises(ConfigError):
            detectors.log_lr(_genie(m1_cfg()), np.full((3, 1), 100.0))

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (3, 1, 1)])
    def test_rejects_a_batch_of_the_wrong_width(self, shape):
        with pytest.raises(ConfigError):
            detectors.log_lr(awgn_cfg(n=100), np.full(shape, 100.0))


class TestThresholdInversion:
    def test_bisection_matches_grid_scan(self):
        from covertsim.harness import lrt_power_threshold

        cfg = m1_cfg(n=50, log_gamma=0.0)
        zs = np.linspace(10.0, 600.0, 4001)
        vals = log_lrt_m1(zs, cfg)
        grid_best = zs[np.argmin(np.abs(vals - cfg.log_gamma))]
        root = lrt_power_threshold(cfg, zs[0], zs[-1])
        assert abs(root - grid_best) <= (zs[1] - zs[0])


class TestConfigDispatch:
    def test_uniform_jammer_maps_to_mixture_detector(self):
        cfg = config_for_scenario(awgn_scenario(n=500, P_f=0.025, p=0.3))
        assert cfg.variant == AWGN_UNIFORM
        assert cfg.n == 500
        assert cfg.sigma_a2 == pytest.approx(0.025)
        assert cfg.log_gamma == pytest.approx(math.log(0.7 / 0.3))

    def test_single_block_fading(self):
        # one block is the M = 1 case of the faded construction, not a third one
        cfg = config_for_scenario(fading_scenario(n=400, M=1))
        assert cfg.variant == MBLOCK_PRODUCT and cfg.M == 1 and not cfg.genie

    def test_multi_block_fading(self):
        cfg = config_for_scenario(fading_scenario(n=400, M=4))
        assert cfg.variant == MBLOCK_PRODUCT and cfg.M == 4

    def test_faded_signal_link_forces_genie(self):
        cfg = config_for_scenario(fading_scenario(n=400, M=1, aw="fading"))
        assert cfg.genie

    def test_unsupported_combinations(self):
        sc = model.Scenario(
            jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=1.0),
        )
        with pytest.raises(ConfigError):
            config_for_scenario(sc)  # constant power over AWGN link

    @pytest.mark.parametrize("M", [1, 2, 4])
    @pytest.mark.parametrize("aw", [model.AWGN, model.FADING])
    @pytest.mark.parametrize("jw", [model.AWGN, model.FADING])
    @pytest.mark.parametrize("kind", [model.UNIFORM_PER_SLOT, model.CONSTANT_POWER])
    def test_recipe_and_detector_share_one_switch(self, kind, jw, aw, M):
        sc = model.Scenario(
            geometry=model.Geometry(d_aw=1.5, d_jw=1.2),
            slots=model.SlotStructure(n=400, M=M),
            channels=model.Channels(aw=aw, jw=jw),
            jammer=model.JammerStrategy(kind=kind, power=2.0),
        )
        try:
            cfg = config_for_scenario(sc)
        except ConfigError as exc:
            # the recipe rejects the scenario too, with the detector's message
            with pytest.raises(ConfigError) as got:
                model.select_covert_params(sc, 0.1)
            assert str(got.value) == str(exc)
            return
        args = (sc.zeta, sc.geometry.d_aw, sc.geometry.alpha)
        uniform = model.select_covert_params_awgn(0.1, *args)
        # the parameters chosen where a detector exists are unchanged
        want = uniform if kind == model.UNIFORM_PER_SLOT and jw == model.AWGN else (
            model.select_covert_params_fading(0.1 / M, *args))
        got = model.select_covert_params(sc, 0.1)
        assert got == want
        assert (got == uniform) == (cfg.variant == AWGN_UNIFORM)
        # the warden is granted the signal fading exactly when there is some
        assert cfg.genie == (aw == model.FADING)

    def test_variant_requires_single_block(self):
        # the uniform-window detector reads the total power: one block only
        with pytest.raises(ConfigError, match="requires M = 1"):
            LrtConfig(variant=AWGN_UNIFORM, n=100, M=2, sigma_w2=1.0,
                      zeta=1.0, sigma_a2=0.0, log_gamma=0.0)

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown detector variant"):
            LrtConfig(variant="exponential", n=100, M=1, sigma_w2=1.0,
                      zeta=1.0, sigma_a2=0.0, log_gamma=0.0)

    @pytest.mark.parametrize("cfg", [awgn_cfg(), mblock_cfg(n=200, M=2)],
                             ids=["awgn_uniform", "mblock_M2"])
    def test_m1_statistic_needs_one_faded_block(self, cfg):
        with pytest.raises(ConfigError, match="with M = 1"):
            log_lrt_m1(100.0, cfg)

    @pytest.mark.parametrize("sigma_a2", [-0.1, math.nan, math.inf])
    def test_signal_power_must_be_finite_and_nonnegative(self, sigma_a2):
        with pytest.raises(ConfigError):
            LrtConfig(variant=MBLOCK_PRODUCT, n=100, M=1, sigma_w2=1.0,
                      zeta=1.0, sigma_a2=sigma_a2, log_gamma=0.0)

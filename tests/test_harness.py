import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covertsim import detectors, model, synth
from covertsim.harness import (
    SampleSet,
    _best_threshold,
    _rates_at,
    collect_statistics,
    covertness_curve,
    lrt_power_threshold,
    sweep_thresholds,
    willie_min_error,
)
from covertsim.model import ConfigError

from conftest import awgn_scenario, fading_scenario


def sample_set(sc, trials, seed):
    return collect_statistics(sc, detectors.config_for_scenario(sc), trials, seed)


class TestErrorRates:
    def test_blind_detector_floor(self):
        ss = sample_set(awgn_scenario(n=64, P_f=0.0), trials=200, seed=1)
        (rates,) = sweep_thresholds(ss, [math.inf])
        assert rates.p_fa == 0.0 and rates.p_md == 1.0
        assert rates.sum == 1.0

    def test_null_signal_sum_is_one(self):
        ss = sample_set(awgn_scenario(n=64, P_f=0.0), trials=2000, seed=2)
        (rates,) = sweep_thresholds(ss, [1.3])
        assert abs(rates.sum - 1.0) < 0.06
        assert rates.ci_fa[0] <= rates.p_fa <= rates.ci_fa[1]
        assert rates.ci_md[0] <= rates.p_md <= rates.ci_md[1]

    def test_deterministic_for_a_seed(self):
        sc = awgn_scenario(n=128, P_f=0.025)
        cfg = detectors.config_for_scenario(sc)
        a = collect_statistics(sc, cfg, trials=300, seed=7)
        b = collect_statistics(sc, cfg, trials=300, seed=7)
        assert a.stats_h0.tobytes() == b.stats_h0.tobytes()
        assert a.stats_h1.tobytes() == b.stats_h1.tobytes()
        assert a.lrt_gamma_threshold == b.lrt_gamma_threshold
        assert sweep_thresholds(a, [1.2]) == sweep_thresholds(b, [1.2])

    def test_needs_a_trial(self):
        sc = awgn_scenario(n=64, P_f=0.025)
        with pytest.raises(ValueError):
            collect_statistics(sc, detectors.config_for_scenario(sc), trials=0, seed=1)

    def test_scenario_detector_mismatch(self):
        sc = awgn_scenario(n=64, P_f=0.025)
        other = detectors.config_for_scenario(awgn_scenario(n=128, P_f=0.025))
        with pytest.raises(ConfigError):
            collect_statistics(sc, other, trials=10, seed=1)

    def test_mismatched_signal_power(self):
        sc = awgn_scenario(n=64, P_f=0.025)
        cfg = detectors.config_for_scenario(model.with_updates(sc, P_f=0.5))
        with pytest.raises(ConfigError):
            collect_statistics(sc, cfg, trials=10, seed=1)

    @pytest.mark.parametrize("aw, M, field, value", [
        ("awgn", 1, "variant", detectors.AWGN_UNIFORM),  # uniform detector, faded jammer link
        ("awgn", 1, "n", 128),
        ("awgn", 2, "M", 4),
        ("awgn", 1, "sigma_w2", 2.0),
        ("awgn", 1, "zeta", 0.5),
        ("awgn", 1, "sigma_a2", math.nextafter(0.0125, 1.0)),  # one ulp off
        ("awgn", 1, "log_gamma", 5.0),
        ("awgn", 1, "genie", True),   # a genie the scenario does not grant
        ("fading", 2, "genie", False),  # a blind warden on a faded signal link
    ])
    def test_every_field_must_match_exactly(self, aw, M, field, value):
        sc = fading_scenario(n=64, M=M, P_f=0.0125, aw=aw)
        cfg = dataclasses.replace(detectors.config_for_scenario(sc), **{field: value})
        with pytest.raises(ConfigError, match=f": {field} differ"):
            collect_statistics(sc, cfg, trials=10, seed=1)

    @pytest.mark.parametrize("M", [1, 2, 4])
    @pytest.mark.parametrize("aw", [model.AWGN, model.FADING])
    def test_power_statistic_exactly_for_one_block_without_genie(self, aw, M):
        # a threshold on the received power is the LRT only with one block and
        # no signal fading granted to the warden; otherwise the statistic is log L
        sc = fading_scenario(n=64, M=M, P_f=0.0125, aw=aw)
        cfg = detectors.config_for_scenario(sc)
        ss = collect_statistics(sc, cfg, trials=5, seed=1)
        assert (ss.kind == "power") == (cfg.M == 1 and not cfg.genie)
        assert ss.kind in ("power", "loglr")

    def test_power_threshold_refuses_several_blocks(self):
        cfg = detectors.config_for_scenario(fading_scenario(n=64, M=2))
        with pytest.raises(ConfigError, match="one-block"):
            lrt_power_threshold(cfg, 1.0, 1000.0)


class TestSweep:
    def test_extreme_thresholds(self):
        ss = sample_set(awgn_scenario(n=64), trials=100, seed=3)
        rates = sweep_thresholds(ss, [-math.inf, math.inf])
        assert rates[0].p_fa == 1.0 and rates[0].p_md == 0.0
        assert rates[1].p_fa == 0.0 and rates[1].p_md == 1.0

    def test_monotone_staircase_exact(self):
        ss = sample_set(awgn_scenario(n=64), trials=400, seed=4)
        rates = sweep_thresholds(ss, np.linspace(0.3, 3.5, 41))
        fa = [r.p_fa for r in rates]
        md = [r.p_md for r in rates]
        assert all(a >= b for a, b in zip(fa, fa[1:]))
        assert all(a <= b for a, b in zip(md, md[1:]))

    def test_grid_validation(self):
        ss = sample_set(awgn_scenario(n=64), trials=10, seed=1)
        with pytest.raises(ValueError):
            sweep_thresholds(ss, [])
        with pytest.raises(ValueError):
            sweep_thresholds(ss, [2.0, 1.0])

    def test_tie_goes_to_null(self):
        # a statistic equal to the threshold decides H0: no false alarm
        # under H0, a miss under H1
        rates = _rates_at(np.array([1.0, 2.0]), np.array([1.0, 3.0]), 1.0)
        assert rates.p_fa == 0.5 and rates.p_md == 0.5
        ss = SampleSet(stats_h0=np.array([2.0, 1.0]), stats_h1=np.array([3.0, 1.0]),
                       kind="power", cfg=None)
        assert sweep_thresholds(ss, [1.0]) == [rates]

    @given(stat=st.floats(-100, 100), thresholds=st.lists(
        st.floats(-150, 150), min_size=2, max_size=30, unique=True))
    def test_single_flip_across_thresholds(self, stat, thresholds):
        # one trial decides H1 below its statistic and H0 from it upward
        ss = SampleSet(stats_h0=np.array([stat]), stats_h1=np.array([stat]),
                       kind="power", cfg=None)
        decides_h1 = [r.p_fa == 1.0 for r in sweep_thresholds(ss, sorted(thresholds))]
        flips = sum(1 for a, b in zip(decides_h1, decides_h1[1:]) if a != b)
        assert flips <= 1
        if flips == 1:
            assert decides_h1[0] and not decides_h1[-1]

    def test_infinite_statistic(self):
        rates = _rates_at(np.array([math.inf]), np.array([5.0]), 100.0)
        assert rates.p_fa == 1.0 and rates.p_md == 1.0
        rates = _rates_at(np.array([5.0]), np.array([5.0]), math.inf)
        assert rates.p_fa == 0.0 and rates.p_md == 1.0


class TestMinError:
    def test_null_signal_floor(self):
        sc = awgn_scenario(n=64, P_f=0.0)
        cfg = detectors.config_for_scenario(sc)
        res = willie_min_error(sc, cfg, trials=2000, seed=5)
        assert res.rates.sum > 0.9

    def test_blatant_signal_detected(self):
        # received power ten times the whole noise-plus-jam budget
        sc = awgn_scenario(n=1000, P_f=20.0)
        cfg = detectors.config_for_scenario(sc)
        res = willie_min_error(sc, cfg, trials=500, seed=6)
        assert res.rates.sum < 0.05

    def test_error_floor_does_not_degrade_with_slot_length(self):
        sc = awgn_scenario(n=200, P_f=0.025)
        small = willie_min_error(sc, detectors.config_for_scenario(sc), 3000, seed=8)
        sc2 = model.with_updates(sc, n=2000)
        large = willie_min_error(sc2, detectors.config_for_scenario(sc2), 3000, seed=8)
        assert large.rates.sum >= small.rates.sum - 0.03

    def test_best_threshold_is_a_search_sample_and_brute_force_minimum(self):
        sc = awgn_scenario(n=200, P_f=0.025)
        cfg = detectors.config_for_scenario(sc)
        res = willie_min_error(sc, cfg, trials=400, seed=9)
        ss = collect_statistics(sc, cfg, 400, 9)
        assert math.isfinite(ss.lrt_gamma_threshold)
        s0, s1 = ss.stats_h0[:200], ss.stats_h1[:200]
        rng = np.random.default_rng(9)
        # the real search half, then coarse samples full of ties
        for s0, s1 in [(s0, s1)] + [
            (rng.normal(0.0, 1.0, 40).round(1), rng.normal(0.5, 1.0, 30).round(1))
            for _ in range(50)
        ]:
            thr = _best_threshold(s0, s1)
            assert thr == -math.inf or thr in s0 or thr in s1
            sums = {
                t: np.count_nonzero(s0 > t) / s0.size + np.count_nonzero(s1 <= t) / s1.size
                for t in [-math.inf, *s0, *s1]
            }
            brute = min(sums.values())
            assert sums[thr] == brute
            # among tied minimizers, the smallest value
            assert thr == min(t for t, v in sums.items() if v == brute)
        assert res.rates.threshold == _best_threshold(ss.stats_h0[:200], ss.stats_h1[:200])


class TestCovertnessCurve:
    def test_rows_and_power_held_constant(self):
        sc = awgn_scenario(n=64)
        P_f, rows = covertness_curve(sc, 0.1, [64, 128], trials=300, seed=11)
        assert [n for n, _ in rows] == [64, 128]
        assert P_f == pytest.approx(0.025)
        for _, rates in rows:
            lo, hi = rates.ci_sum
            assert lo <= rates.sum <= hi

    def test_sixteen_block_curve_stays_covert(self):
        # at n = 1,024,000 the best detector sits near its large-n floor
        # exp(-M sigma_a2/zeta), which the recipe keeps above 1 - epsilon
        sc = fading_scenario(n=1_024_000, M=16)
        _, [(_, rates)] = covertness_curve(sc, 0.1, [1_024_000], trials=4000, seed=5)
        assert rates.ci_sum[1] >= 0.9

    def test_unsorted_n_list_rejected(self):
        with pytest.raises(ValueError):
            covertness_curve(awgn_scenario(), 0.1, [128, 64], trials=10, seed=1)

    def test_fractional_slot_length_rejected(self):
        with pytest.raises(ConfigError, match="n must be a whole number"):
            covertness_curve(awgn_scenario(), 0.1, [1000.7], trials=10, seed=1)
        _, [(n, _)] = covertness_curve(awgn_scenario(n=64), 0.1, [64.0], trials=10, seed=1)
        assert type(n) is int and n == 64


class TestStatisticsCollection:
    """The statistics are the detector evaluated on the sampler's draws."""

    def test_power_statistic_matches_observations(self):
        sc = awgn_scenario(n=64, P_f=0.025)
        cfg = detectors.config_for_scenario(sc)
        ss = collect_statistics(sc, cfg, trials=5, seed=16)
        for hyp, stats in ((synth.H0, ss.stats_h0), (synth.H1, ss.stats_h1)):
            blocks, haw2 = synth.sample_block_powers(sc, hyp, 5, 16)
            assert haw2 is None
            assert np.array_equal(stats, blocks[:, 0] / sc.slots.n)

    def test_power_statistic_sums_every_awgn_block(self):
        # uniform jam power over AWGN links keeps the scalar detector even
        # when the slot is split into blocks; the statistic is the total power
        sc = dataclasses.replace(awgn_scenario(n=64), slots=model.SlotStructure(n=64, M=2))
        cfg = detectors.config_for_scenario(sc)
        assert cfg.variant == detectors.AWGN_UNIFORM and cfg.M == 1
        ss = collect_statistics(sc, cfg, trials=5, seed=16)
        for hyp, stats in ((synth.H0, ss.stats_h0), (synth.H1, ss.stats_h1)):
            blocks, _ = synth.sample_block_powers(sc, hyp, 5, 16)
            assert blocks.shape == (5, 2)
            want = detectors._ltr_sum(blocks) / sc.slots.n
            assert stats.tobytes() == want.tobytes()

    def test_mblock_statistic_matches_direct_lrt(self):
        sc = fading_scenario(n=64, M=2, P_f=0.0125)
        cfg = detectors.config_for_scenario(sc)
        ss = collect_statistics(sc, cfg, trials=30, seed=17)
        for hyp, stats in ((synth.H0, ss.stats_h0), (synth.H1, ss.stats_h1)):
            blocks, _ = synth.sample_block_powers(sc, hyp, 30, 17)
            assert stats[3] == detectors.log_lrt_mblock(blocks[3], cfg)

    def test_mblock_deterministic_for_a_seed(self):
        sc = fading_scenario(n=64, M=2, P_f=0.0125)
        cfg = detectors.config_for_scenario(sc)
        a = collect_statistics(sc, cfg, trials=60, seed=18)
        b = collect_statistics(sc, cfg, trials=60, seed=18)
        assert a.stats_h0.tobytes() == b.stats_h0.tobytes()
        assert a.stats_h1.tobytes() == b.stats_h1.tobytes()

    def test_mblock_genie_statistic_scales_block_powers(self):
        sc = fading_scenario(n=64, M=2, P_f=0.0125, aw="fading")
        cfg = detectors.config_for_scenario(sc)
        assert cfg.genie and cfg.variant == detectors.MBLOCK_PRODUCT
        ss = collect_statistics(sc, cfg, trials=8, seed=19)
        for hyp, stats in ((synth.H0, ss.stats_h0), (synth.H1, ss.stats_h1)):
            blocks, haw2 = synth.sample_block_powers(sc, hyp, 8, 19)
            direct = detectors.log_lrt_mblock(
                blocks[2], cfg, sigma_a2=haw2[2] * float(np.asarray(cfg.sigma_a2)),
            )
            assert stats[2] == direct

    def test_m1_genie_statistic_scales_signal_power(self):
        sc = fading_scenario(n=64, M=1, P_f=0.0125, aw="fading")
        cfg = detectors.config_for_scenario(sc)
        ss = collect_statistics(sc, cfg, trials=8, seed=20)
        blocks, haw2 = synth.sample_block_powers(sc, synth.H1, 8, 20)
        direct = detectors.log_lrt_block_term(
            blocks[5, 0], cfg.n, cfg.sigma_w2, haw2[5, 0] * cfg.sigma_a2, cfg.zeta,
        )
        assert ss.stats_h1[5] == direct

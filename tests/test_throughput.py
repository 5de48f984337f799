import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from covertsim import model, synth, throughput

from conftest import awgn_scenario, fading_scenario


def bob_fading():
    configs = Path(__file__).resolve().parent.parent / "configs"
    return model.load_scenario(configs / "bob_fading.json")


def sinr_draws(scenario, samples, seed):
    """SINR draws at the scenario's transmit power, from copies of the
    slices _sinr_slices yields in its one reused buffer."""
    slices = [part.copy() for part in throughput._sinr_slices(scenario, samples, seed)]
    return np.concatenate(slices) * scenario.P_f


def reference_sinr(scenario, samples, seed):
    """The out-of-place expression that _sinr_slices evaluates in place, each
    faded link drawing its |h|^2 in one long standard-exponential draw from
    its own substream, FADE_AB or FADE_JB, at P_f."""
    g = scenario.geometry

    def link_gain(link, purpose):
        if getattr(scenario.channels, link) == model.FADING:
            return synth.substream(seed, 0, purpose).standard_exponential(samples)
        return np.ones(samples)

    gain_ab = link_gain("ab", synth.FADE_AB)
    gain_jb = link_gain("jb", synth.FADE_JB)
    interference = gain_jb * scenario.jammer.power * model.path_gain(g.d_jb, g.alpha)
    per_power = gain_ab * model.path_gain(g.d_ab, g.alpha) / (interference + scenario.noise.sigma_b2)
    return scenario.P_f * per_power


def traced_peak(fn, *args):
    """The peak of memory traced while fn(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSinr:
    @pytest.mark.parametrize("seed", [1, 11])
    @pytest.mark.parametrize("scenario", [
        pytest.param(bob_fading, id="bob_fading"),
        pytest.param(awgn_scenario, id="awgn"),
        pytest.param(lambda: fading_scenario(ab="fading", jb="awgn"), id="mixed_ab"),
        pytest.param(lambda: fading_scenario(ab="awgn", jb="fading"), id="mixed_jb"),
    ])
    def test_in_place_pipeline_keeps_bytes(self, scenario, seed):
        sc = scenario()
        # part of one slice, two full slices and a short one, and many slices
        for samples in (throughput._SLICE // 3, 2 * throughput._SLICE + 3, 100_001):
            got = sinr_draws(sc, samples, seed)
            want = reference_sinr(sc, samples, seed)
            assert got.tobytes() == want.tobytes()
            rates = np.sort(np.log2(1.0 + want))
            idx = math.ceil(round(0.05 * samples, 9)) - 1
            assert throughput.outage_capacity(sc, 0.05, samples, seed) == rates[idx]

    @pytest.mark.parametrize("samples", [1000, 2 * throughput._SLICE + 3])
    def test_each_link_draws_samples_once(self, monkeypatch, samples):
        # both receiver links fade: each generator ends where one long draw
        # of samples leaves a fresh substream of its purpose, so the slices
        # cost 2 * samples exponential draws in all
        made, substream = {}, synth.substream

        def recording(seed, trial, purpose):
            made[purpose] = substream(seed, trial, purpose)
            return made[purpose]

        monkeypatch.setattr(throughput.synth, "substream", recording)
        for _ in throughput._sinr_slices(bob_fading(), samples, 3):
            pass
        monkeypatch.undo()
        assert sorted(made) == [synth.FADE_AB, synth.FADE_JB]
        for purpose, rng in made.items():
            fresh = synth.substream(3, 0, purpose)
            fresh.standard_exponential(samples)
            # counter, key and buffer: the state holds small arrays
            assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)

    def test_ab_draws_do_not_depend_on_jb_fading(self):
        # with the jammer silent the SINR is g_ab |h_ab|^2 P_f / sigma_b2
        # whatever jb is, so equal bytes mean equal |h_ab|^2 draws
        both, ab_only = (fading_scenario(P_f=0.0125, ab="fading", jb=jb, P_j=0.0)
                         for jb in ("fading", "awgn"))
        for samples in (1000, throughput._SLICE + 1):
            got = sinr_draws(both, samples, 5)
            assert got.tobytes() == sinr_draws(ab_only, samples, 5).tobytes()

    def test_silent_transmitter(self):
        sc = awgn_scenario(P_f=0.0)
        assert np.all(sinr_draws(sc, 100, 1) == 0.0)

    def test_reference_ratio(self):
        # all-AWGN receiver links: every draw is the closed-form SINR
        sc = awgn_scenario(P_f=0.025, P_max=1.0)
        assert sinr_draws(sc, 100, 1) == pytest.approx(np.full(100, 0.0125))

    def test_jammer_free_reduction(self):
        sc = model.Scenario(
            geometry=model.Geometry(d_ab=2.0, alpha=3.0),
            jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=0.0),
            P_f=0.4,
        )
        assert sinr_draws(sc, 100, 1) == pytest.approx(
            np.full(100, 0.4 / 2.0**3 / 1.0))

    def test_fading_coefficients_scale(self):
        # jammer off and a faded transmitter link: the SINR draws are the
        # AWGN value times |h|^2, a unit-mean exponential
        sc = fading_scenario(P_f=0.0125, ab="fading", jb="fading", P_j=0.0)
        n = 100_000
        gains = sinr_draws(sc, n, 4) / 0.0125
        assert abs(gains.mean() - 1.0) < 4.0 / math.sqrt(n)
        assert abs(np.mean(gains > math.log(2.0)) - 0.5) < 0.01


class TestOutageCapacity:
    def test_degenerate_awgn_rate_exact(self):
        sc = awgn_scenario(P_f=0.025)
        r = throughput.outage_capacity(sc, 0.05, 1000, seed=1)
        assert r == math.log2(1.0 + 0.0125)

    @pytest.mark.parametrize("seed", [1, 7, 2**63 + 5])
    @pytest.mark.parametrize("ab, jb", [
        ("fading", "fading"), ("fading", "awgn"), ("awgn", "fading"), ("awgn", "awgn")])
    def test_selection_matches_full_sort(self, ab, jb, seed):
        # the held buffer never flushes, flushes once, or flushes often: each
        # rate is the full sort's order statistic of the reference stream,
        # bit for bit, at every power
        sc = fading_scenario(P_f=1.0, ab=ab, jb=jb)
        pf_values = [0.0, 0.0125, 0.1, 3.0]
        slice_ = throughput._SLICE
        for samples in (1000, slice_ - 1, slice_ + 1, 2 * slice_ + 3, 100_001):
            per_power = reference_sinr(sc, samples, seed)
            rates = [np.sort(np.log2(1.0 + pf * per_power)) for pf in pf_values]
            for q in (1e-16, 0.05, 0.5, 0.999999):
                idx = max(1, math.ceil(round(q * samples, 9)))
                got = throughput.outage_capacities(sc, q, samples, seed, pf_values)
                assert got == [r[idx - 1] for r in rates], (samples, q)

    def test_silent_transmitter_rate_zero(self):
        sc = fading_scenario(P_f=0.0, ab="fading", jb="fading")
        assert throughput.outage_capacity(sc, 0.05, 1000, seed=1) == 0.0

    @pytest.mark.parametrize("q", [0.01, 0.05, 0.2])
    def test_quantile_matches_independent_oracle(self, q):
        sc = fading_scenario(P_f=0.0125, ab="fading", jb="fading")
        n = 1_000_000
        r = throughput.outage_capacity(sc, q, n, seed=5)
        # independent implementation with its own generator
        rng = np.random.default_rng(987654321)
        gain_ab = rng.exponential(1.0, n)
        gain_jb = rng.exponential(1.0, n)
        gamma = gain_ab * 0.0125 / (gain_jb * 1.0 + 1.0)
        oracle = np.quantile(np.log2(1.0 + gamma), q)
        assert r == pytest.approx(oracle, rel=0.02)
        # exact law with Exp(1) gains: P(SINR <= s) = 1 - e^(-s b) / (1 + s a),
        # a = P_j g_jb / (P_f g_ab), b = sigma_b2 / (P_f g_ab); the empirical
        # quantile's CDF value lies within 4 binomial standard errors of q
        g = sc.geometry
        signal = sc.P_f * model.path_gain(g.d_ab, g.alpha)
        a = sc.jammer.power * model.path_gain(g.d_jb, g.alpha) / signal
        b = sc.noise.sigma_b2 / signal
        s = 2.0**r - 1.0
        cdf = 1.0 - math.exp(-s * b) / (1.0 + s * a)
        assert abs(cdf - q) <= 4.0 * math.sqrt(q * (1.0 - q) / n)

    def test_index_not_pushed_up_by_binary_rounding(self):
        # 0.07 * 10000 is 700.0000000000001 in binary; the 700th order
        # statistic is the one asked for
        sc = fading_scenario(P_f=0.0125, ab="fading", jb="fading")
        rates = np.sort(np.log2(1.0 + sinr_draws(sc, 10_000, 4)))
        assert throughput.outage_capacity(sc, 0.07, 10_000, seed=4) == rates[699]

    def test_tiny_outage_reads_smallest_draw(self):
        # q * samples below 1 asks for the first order statistic, however
        # small q is; it never wraps round to the largest draw
        sc = fading_scenario(P_f=0.0125, ab="fading", jb="fading")
        rates = np.sort(np.log2(1.0 + sinr_draws(sc, 100_000, 1)))
        tiny = throughput.outage_capacity(sc, 1e-16, 100_000, seed=1)
        assert tiny == throughput.outage_capacity(sc, 1e-5, 100_000, seed=1) == rates[0]

    def test_positive_whenever_power_positive(self):
        sc = fading_scenario(P_f=0.0125, ab="fading", jb="fading")
        assert throughput.outage_capacity(sc, 0.05, 5000, seed=3) > 0.0

    def test_monotone_in_transmit_and_jam_power(self):
        base = fading_scenario(P_f=0.0125, ab="fading", jb="fading")
        seeds_shared = 11
        r0 = throughput.outage_capacity(base, 0.1, 20_000, seed=seeds_shared)
        stronger = model.with_updates(base, P_f=0.05)
        r1 = throughput.outage_capacity(stronger, 0.1, 20_000, seed=seeds_shared)
        assert r1 >= r0
        louder_jam = model.Scenario(
            geometry=base.geometry, slots=base.slots, channels=base.channels,
            jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=4.0),
            noise=base.noise, P_f=base.P_f,
        )
        r2 = throughput.outage_capacity(louder_jam, 0.1, 20_000, seed=seeds_shared)
        assert r2 <= r0

    def test_invariant_to_slot_length(self):
        sc = fading_scenario(P_f=0.0125, ab="fading", jb="fading")
        r_small = throughput.outage_capacity(model.with_updates(sc, n=400), 0.05, 5000, seed=2)
        r_large = throughput.outage_capacity(model.with_updates(sc, n=6400), 0.05, 5000, seed=2)
        assert r_small == r_large

    def test_peak_memory_per_draw(self):
        # the idx + max(idx, _SLICE) smallest-draw buffer and two slices, for
        # one power and for several, however many draws stream past; a fixed
        # 64 KB covers the generators and the scalars.  A warm-up call first
        # pays the generator state numpy allocates lazily on the first draw
        # in a process.
        sc = bob_fading()
        throughput.outage_capacity(sc, 0.05, 1000, 1)
        for samples in (200_000, 2_000_000):
            idx = math.ceil(round(0.05 * samples, 9))
            bound = 8 * (idx + max(idx, throughput._SLICE)) + 16 * throughput._SLICE + 64 * 1024
            assert traced_peak(throughput.outage_capacity, sc, 0.05, samples, 1) <= bound
            peak = traced_peak(throughput.outage_capacities, sc, 0.05, samples, 1,
                               [0.01, 0.02, 0.05])
            assert peak <= bound

    @pytest.mark.parametrize("seed", [1, 11])
    def test_several_powers_share_one_draw_set(self, seed):
        # each power reads the rate a call of its own gives, bit for bit
        sc = bob_fading()
        pf_values = [0.01, 0.0, sc.P_f, 0.05]
        got = throughput.outage_capacities(sc, 0.07, 20_001, seed, pf_values)
        want = [throughput.outage_capacity(model.with_updates(sc, P_f=pf), 0.07, 20_001, seed)
                for pf in pf_values]
        assert got == want

    def test_preconditions(self):
        sc = awgn_scenario()
        with pytest.raises(ValueError):
            throughput.outage_capacity(sc, 0.0, 1000, 1)
        with pytest.raises(ValueError):
            throughput.outage_capacity(sc, 0.05, 999, 1)


class TestCovertBits:
    def test_zero_rate(self):
        assert throughput.covert_bits(1000, 0.0) == 0

    def test_reference(self):
        assert throughput.covert_bits(1000, 0.5) == 500

    def test_linear_scaling(self):
        assert throughput.covert_bits(2000, 0.5) == 2 * throughput.covert_bits(1000, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            throughput.covert_bits(0, 0.5)
        with pytest.raises(ValueError):
            throughput.covert_bits(10, -0.1)

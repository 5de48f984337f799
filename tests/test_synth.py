import math
import types

import numpy as np
import pytest

from covertsim import detectors, model, synth
from covertsim.synth import H0, H1, TrialRng

from conftest import awgn_scenario, fading_scenario

PURPOSES = [synth.CODEWORD, synth.JAMMER, synth.FADE_AW, synth.FADE_JW, synth.NOISE_W,
            synth.FADE_AB, synth.FADE_JB, synth.BOUNDARY]


def _quiet_waveform(n, hypothesis, jammer=None, P_f=0.0, seed=7, trial=0):
    """One synthesized slot over AWGN links with the noise floor all but off
    (variance 1e-30), so its samples carry only the jamming and, under H1,
    the codeword."""
    sc = model.Scenario(
        slots=model.SlotStructure(n=n, M=1, p=0.5),
        jammer=jammer or model.JammerStrategy(kind=model.CONSTANT_POWER, power=0.0),
        noise=model.NoiseLevels(sigma_w2=1e-30, sigma_b2=1.0),
        P_f=P_f,
    )
    return sc, synth.synthesize_willie_slot(sc, hypothesis, TrialRng(seed, trial))


def _codeword(n, P_f):
    # the H1 samples over a silent jammer, divided by the link amplitude
    sc, obs = _quiet_waveform(n, H1, P_f=P_f)
    return obs.samples / math.sqrt(model.path_gain(sc.geometry.d_aw, sc.geometry.alpha))


def _latents(sc, trials, seed=13):
    return [synth.synthesize_willie_slot(sc, H0, TrialRng(seed, t)).latents
            for t in range(trials)]


def _jam_power_at_warden(sc, lat):
    # the per-block jam power P_t |h_jw|^2 g_jw, in the synthesizer's order
    return lat.jam_power * np.abs(lat.fading["jw"]) ** 2 * model.path_gain(
        sc.geometry.d_jw, sc.geometry.alpha)


def _jammer_fading(M, trials):
    # the jammer link's coefficients of `trials` slots, one row per slot
    return np.array([lat.fading["jw"] for lat in _latents(fading_scenario(n=M, M=M), trials)])


class TestComplexNormal:
    def test_real_block_drawn_before_imaginary(self, rng):
        twin = np.random.Generator(np.random.Philox(key=[1234, 99]))
        x = synth._complex_normal(rng, 2.0, 5)
        re, im = twin.standard_normal(5), twin.standard_normal(5)
        assert x.tobytes() == (1.0 * (re + 1j * im)).tobytes()

    def test_negative_variance_rejected(self, rng):
        with pytest.raises(ValueError):
            synth._complex_normal(rng, -1.0, 4)


class TestCodeword:
    def test_zero_power_is_silent(self):
        sc = awgn_scenario(n=100, P_f=0.0)
        h1 = synth.synthesize_willie_slot(sc, H1, TrialRng(5, 0))
        h0 = synth.synthesize_willie_slot(sc, H0, TrialRng(5, 0))
        assert h1.samples.tobytes() == h0.samples.tobytes()

    def test_empirical_power(self):
        f = _codeword(100_000, 0.025)
        mean_power = np.mean(np.abs(f) ** 2)
        assert 0.025 * 0.98 <= mean_power <= 0.025 * 1.02

    def test_circular_symmetry(self):
        n = 100_000
        f = _codeword(n, 1.0)
        corr = np.mean(f.real * f.imag) / np.mean(np.abs(f) ** 2)
        assert abs(corr) < 3.0 / math.sqrt(n)


class TestJammer:
    def test_constant_power(self):
        latents = _latents(fading_scenario(n=4, M=1, P_j=1.0), 50)
        assert [lat.jam_power for lat in latents] == [1.0] * 50

    def test_uniform_slot_power_mean(self):
        sc = awgn_scenario(n=1, P_max=2.0)
        powers = np.array([lat.jam_power for lat in _latents(sc, 20_000)])
        assert abs(powers.mean() - 1.0) < 0.02
        assert powers.min() >= 0.0 and powers.max() <= 2.0

    def test_zero_power_budget_silent(self):
        jammer = model.JammerStrategy(kind=model.UNIFORM_PER_SLOT, power=0.0)
        _, obs = _quiet_waveform(64, H0, jammer=jammer)
        assert obs.latents.jam_power == 0.0
        # the noise floor alone, replayed from its substream
        noise = synth._complex_normal(synth.substream(7, 0, synth.NOISE_W), 1e-30, 64)
        assert np.array_equal(obs.samples, noise)

    def test_uniform_draw_precedes_the_samples(self):
        # the slot power and then the samples come from the JAMMER substream
        jammer = model.JammerStrategy(kind=model.UNIFORM_PER_SLOT, power=3.0)
        sc, obs = _quiet_waveform(16, H0, jammer=jammer, seed=9, trial=2)
        replay = synth.substream(9, 2, synth.JAMMER)
        p_t = replay.uniform(0.0, 3.0)
        g = synth._complex_normal(replay, p_t, 16)
        amp = math.sqrt(model.path_gain(sc.geometry.d_jw, sc.geometry.alpha))
        assert obs.latents.jam_power == p_t
        assert np.allclose(obs.samples, amp * g, rtol=0, atol=1e-12)

    def test_sample_variance_tracks_slot_power(self):
        jammer = model.JammerStrategy(kind=model.CONSTANT_POWER, power=3.0)
        sc, obs = _quiet_waveform(100_000, H0, jammer=jammer)
        g = obs.samples / math.sqrt(model.path_gain(sc.geometry.d_jw, sc.geometry.alpha))
        assert abs(np.mean(np.abs(g) ** 2) - 3.0) < 0.06


class TestFading:
    def test_unit_mean_power(self):
        h = _jammer_fading(100, 1000)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02

    def test_exponential_median(self):
        h = _jammer_fading(100, 1000)
        assert abs(np.mean(np.abs(h) ** 2 > math.log(2.0)) - 0.5) < 0.01

    def test_cross_block_independence(self):
        trials = 4000
        draws = np.abs(_jammer_fading(4, trials)) ** 2
        c = np.corrcoef(draws.T)
        off_diag = c[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 3.0 / math.sqrt(trials)


def _noise_only_scenario(n=256):
    return model.Scenario(
        slots=model.SlotStructure(n=n, M=1, p=0.5),
        jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=0.0),
        P_f=0.0,
    )


class TestWillieSlot:
    def test_noise_floor_only(self):
        sc = _noise_only_scenario()
        powers = [
            detectors.total_power(synth.synthesize_willie_slot(sc, H0, TrialRng(5, t))) / sc.slots.n
            for t in range(400)
        ]
        assert abs(np.mean(powers) - sc.noise.sigma_w2) < 0.02

    def test_awgn_h1_conditional_variance(self):
        sc = awgn_scenario(n=100, P_f=0.025)
        trials = 10_000
        ratios = np.empty(trials)
        gain = model.path_gain(sc.geometry.d_jw, sc.geometry.alpha)
        for t in range(trials):
            obs = synth.synthesize_willie_slot(sc, H1, TrialRng(17, t))
            cond_var = sc.sigma_a2 + obs.latents.jam_power * gain + sc.noise.sigma_w2
            ratios[t] = detectors.total_power(obs) / sc.slots.n / cond_var
        assert abs(ratios.mean() - 1.0) < 4.0 / math.sqrt(trials * sc.slots.n)

    def test_fading_blocks_conditional_power(self):
        sc = fading_scenario(n=64, M=2, P_f=0.0)
        trials = 4000
        ratios = []
        for t in range(trials):
            obs = synth.synthesize_willie_slot(sc, H0, TrialRng(23, t))
            bp = detectors.block_powers(obs)
            cond = sc.noise.sigma_w2 + _jam_power_at_warden(sc, obs.latents)
            ratios.extend(bp / (sc.slots.n / 2) / cond)
        assert abs(np.mean(ratios) - 1.0) < 4.0 / math.sqrt(trials * sc.slots.n)

    def test_fading_constant_within_block(self):
        sc = fading_scenario(n=8, M=2)
        obs = synth.synthesize_willie_slot(sc, H0, TrialRng(3, 0))
        h = obs.latents.fading["jw"]
        assert h.shape == (2,)
        assert h[0] != h[1]

    def test_block_structure_of_received_signal(self):
        # with the noise floor off, dividing out the jam waveform (replayed
        # from its substream) must recover a per-block-constant coefficient
        sc = model.Scenario(
            slots=model.SlotStructure(n=12, M=3, p=0.5),
            channels=model.Channels(aw="awgn", ab="awgn", jw="fading", jb="awgn"),
            jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=1.0),
            noise=model.NoiseLevels(sigma_w2=1e-30, sigma_b2=1.0),
            P_f=0.0,
        )
        rng = TrialRng(29, 4)
        obs = synth.synthesize_willie_slot(sc, H0, rng)
        g = synth._complex_normal(rng.stream(synth.JAMMER), sc.jammer.power, 12)
        ratio = obs.samples / g
        per_block = ratio.reshape(3, 4)
        assert np.allclose(per_block, per_block[:, :1], atol=1e-9)
        assert np.allclose(per_block[:, 0], obs.latents.fading["jw"], atol=1e-9)

    def test_large_slot_conditional_moment(self):
        sc = awgn_scenario(n=10_000, P_f=0.025)
        obs = synth.synthesize_willie_slot(sc, H1, TrialRng(37, 0))
        gain = model.path_gain(sc.geometry.d_jw, sc.geometry.alpha)
        cond = sc.sigma_a2 + obs.latents.jam_power * gain + sc.noise.sigma_w2
        mean_power = detectors.total_power(obs) / sc.slots.n
        assert abs(mean_power / cond - 1.0) < 4.0 / math.sqrt(sc.slots.n)

    def test_transmitter_term_only_under_h1(self):
        # H1 adds the codeword replayed from its own substream; everything
        # else in the trial is the same draw under both hypotheses
        sc = awgn_scenario(n=64, P_f=4.0)
        base = TrialRng(11, 41)
        h1 = synth.synthesize_willie_slot(sc, H1, base)
        h0 = synth.synthesize_willie_slot(sc, H0, base)
        f = synth._complex_normal(base.stream(synth.CODEWORD), sc.P_f, 64)
        assert not np.array_equal(h1.samples, h0.samples)
        assert np.allclose(h1.samples - h0.samples, f, atol=1e-12)

    @pytest.mark.parametrize("sc, want", [
        (awgn_scenario(n=64), {
            H0: ("0x1.08956d9f7c934p+0", "0x1.867faaa4a4dc6p-5"),
            H1: ("0x1.1c8aa3814f130p+0", "0x1.33498eca8c49ap-5"),
            "jam_power": "0x1.4d7f73096a0f2p-2", "fading": {}, "sigma_j2": None}),
        (fading_scenario(n=64, M=4), {
            H0: ("0x1.85ff0dad46401p-1", "-0x1.c37d51439f0e2p-3"),
            H1: ("0x1.a2389173e7eb3p-1", "-0x1.d23308a9581c0p-3"),
            "jam_power": "0x1.0000000000000p+0",
            "fading": {"jw": ("-0x1.aa930b867568dp-5", "0x1.fb4a5a6c6634ep-1")},
            "sigma_j2": "0x1.f80332bc4a963p-1"}),
        (fading_scenario(n=64, M=2, aw="fading"), {
            H0: ("0x1.620ac309920a2p+0", "0x1.0e8cf5b710752p-4"),
            H1: ("0x1.57a68ce6d1ecap+0", "0x1.2ebbf1554d2b0p-3"),
            "jam_power": "0x1.0000000000000p+0",
            "fading": {"jw": ("-0x1.aa930b867568dp-5", "-0x1.1668cd7cc88b6p-4"),
                       "aw": ("-0x1.d4022aeba358ep-1", "0x1.5d3a324cd1802p+0")},
            "sigma_j2": "0x1.e07b36e70ccecp-8"}),
    ], ids=["awgn", "fading_m4", "genie_m2"])
    @pytest.mark.parametrize("hypothesis", [H0, H1])
    def test_first_row_pinned(self, sc, want, hypothesis):
        # the reference waveform's first sample and latents are part of the
        # reproducibility contract, as the block-power sampler's are
        obs = synth.synthesize_willie_slot(sc, hypothesis, TrialRng(5, 3))
        lat = obs.latents
        assert (obs.samples[0].real.hex(), obs.samples[0].imag.hex()) == want[hypothesis]
        assert lat.jam_power.hex() == want["jam_power"]
        assert {k: (v[0].real.hex(), v[0].imag.hex()) for k, v in lat.fading.items()} == want["fading"]
        sigma_j2 = _jam_power_at_warden(sc, lat)[0].hex() if "jw" in lat.fading else None
        assert sigma_j2 == want["sigma_j2"]

    def test_bad_hypothesis(self):
        with pytest.raises(ValueError):
            synth.synthesize_willie_slot(awgn_scenario(), "H2", TrialRng(0, 0))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        sc = fading_scenario(n=128, M=4, aw="fading", ab="fading")
        a = synth.synthesize_willie_slot(sc, H1, TrialRng(99, 1))
        b = synth.synthesize_willie_slot(sc, H1, TrialRng(99, 1))
        assert np.array_equal(a.samples, b.samples)
        assert a.latents.jam_power == b.latents.jam_power
        assert {k: v.tobytes() for k, v in a.latents.fading.items()} == {
            k: v.tobytes() for k, v in b.latents.fading.items()}

    def test_streams_distinct_across_trials_and_purposes(self):
        g1 = synth.substream(1, 0, synth.NOISE_W).standard_normal(4)
        g2 = synth.substream(1, 1, synth.NOISE_W).standard_normal(4)
        g3 = synth.substream(1, 0, synth.JAMMER).standard_normal(4)
        g4 = synth.substream(2, 0, synth.NOISE_W).standard_normal(4)
        assert not np.array_equal(g1, g2)
        assert not np.array_equal(g1, g3)
        assert not np.array_equal(g1, g4)

    @pytest.mark.parametrize("hypothesis", [H0, H1])
    @pytest.mark.parametrize("sc", [
        awgn_scenario(n=64),
        fading_scenario(n=64, M=4),
        fading_scenario(n=64, M=4, aw="fading"),
    ], ids=["awgn", "fading_m4", "genie"])
    def test_trial_rng_matches_fresh_substreams(self, sc, hypothesis):
        # a build from fresh substreams is the oracle, byte for byte, with
        # every word of seed and trial in use
        seed, trial = 2**63 + 5, 2**40
        fresh = types.SimpleNamespace(stream=lambda purpose: synth.substream(seed, trial, purpose))
        want = synth.synthesize_willie_slot(sc, hypothesis, fresh)
        rng = TrialRng(seed, trial)
        for _ in range(2):  # a second build from the same TrialRng repeats the first
            got = synth.synthesize_willie_slot(sc, hypothesis, rng)
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.latents.jam_power == want.latents.jam_power
            assert {k: v.tobytes() for k, v in got.latents.fading.items()} == {
                k: v.tobytes() for k, v in want.latents.fading.items()}

    def test_streams_of_one_trial_are_independent(self):
        seed, trial = 2**63 + 5, 2**40
        rng = TrialRng(seed, trial)
        jam, noise = rng.stream(synth.JAMMER), rng.stream(synth.NOISE_W)
        assert jam is not noise and jam.bit_generator is not noise.bit_generator
        jam.standard_normal(3)
        jam.integers(0, 2**32, size=3, dtype=np.uint32)  # an odd count leaves half a word
        assert jam.bit_generator.state["has_uint32"] == 1
        # drawing from one stream moves neither the other nor a later one
        for got, purpose in ((noise, synth.NOISE_W), (rng.stream(synth.JAMMER), synth.JAMMER)):
            want = synth.substream(seed, trial, purpose)
            for draw in (lambda r: r.integers(0, 2**32, size=3, dtype=np.uint32),
                         lambda r: r.standard_normal(3)):
                assert draw(got).tobytes() == draw(want).tobytes()
        # the value is the (seed, trial) pair alone
        assert rng == TrialRng(seed, trial) and hash(rng) == hash(TrialRng(seed, trial))
        assert repr(TrialRng(1, 2)) == "TrialRng(seed=1, trial=2)"

    @pytest.mark.parametrize("purpose", PURPOSES)
    def test_negative_seed_and_trial_wrap_modulo_2_64(self, purpose):
        got = synth.substream(-1, -3, purpose).standard_normal(4)
        want = synth.substream(2**64 - 1, 2**64 - 3, purpose).standard_normal(4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("purpose", PURPOSES)
    def test_matches_a_philox_built_from_counter_and_key(self, purpose):
        # numpy's own build from the counter and the key, which first seeds a
        # SeedSequence from OS entropy and then replaces its key: the same
        # state and the same draws, for seeds and trials that wrap
        for seed, trial in ((0, 0), (5, 3), (-1, -3), (2**63 + 5, 2**40),
                            (2**64 + 7, 2**65 + 1), (-2**70, 2**64)):
            want = np.random.Generator(np.random.Philox(
                counter=np.array([0, trial % 2**64, 0, purpose], dtype=np.uint64),
                key=np.array([seed % 2**64, 0x9E3779B97F4A7C15], dtype=np.uint64)))
            got = synth.substream(seed, trial, purpose)
            assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
            for draw in (lambda r: r.standard_normal(5), lambda r: r.gamma(2.5, size=5),
                         lambda r: r.integers(0, 2**62, size=5),
                         lambda r: r.integers(0, 2**32, size=3, dtype=np.uint32)):
                assert draw(got).tobytes() == draw(want).tobytes()

    def test_stream_values_pinned(self):
        # the first draws of every purpose are part of the reproducibility
        # contract: changing the counter layout or a purpose value breaks it
        first = {
            synth.CODEWORD: "0x1.650455e394716p-1",
            synth.JAMMER: "-0x1.87dfb89496bb1p-2",
            synth.FADE_AW: "-0x1.4aee94fe5a254p+0",
            synth.FADE_JW: "-0x1.2da236b26eb47p-4",
            synth.NOISE_W: "0x1.e1266cc629a86p+0",
        }
        for purpose, value in first.items():
            assert synth.substream(5, 3, purpose).standard_normal() == float.fromhex(value)


def _waveform_draws(sc, hypothesis, trials, seed):
    # the reference: block powers and |h_aw|^2 read off synthesized waveforms
    obs = [synth.synthesize_willie_slot(sc, hypothesis, TrialRng(seed, t)) for t in range(trials)]
    blocks = np.array([detectors.block_powers(o) for o in obs])
    if sc.channels.aw != model.FADING:
        return blocks, None
    return blocks, np.array([np.abs(o.latents.fading["aw"]) ** 2 for o in obs])


class TestBlockPowerSampler:
    @pytest.mark.parametrize("hypothesis", [H0, H1])
    @pytest.mark.parametrize("sc", [
        awgn_scenario(n=16, P_f=0.5),
        fading_scenario(n=16, M=1, P_f=0.5),
        fading_scenario(n=16, M=4, P_f=0.5),
        fading_scenario(n=16, M=2, P_f=0.5, aw="fading"),
    ], ids=["awgn", "fading_m1", "fading_m4", "genie_m2"])
    def test_matches_waveform_law(self, sc, hypothesis):
        # the two sides share substream ids, so they run on different seeds
        from scipy.stats import ks_2samp

        trials = 2000
        cfg = detectors.config_for_scenario(sc)
        sides = []
        for blocks, haw2 in (
            synth.sample_block_powers(sc, hypothesis, trials, seed=41),
            _waveform_draws(sc, hypothesis, trials, seed=42),
        ):
            assert (haw2 is None) == (sc.channels.aw != model.FADING)
            stat = detectors.log_lr(cfg, blocks, haw2)
            sides.append(np.column_stack([blocks, stat]))
        for col in range(sc.slots.M + 1):
            assert ks_2samp(sides[0][:, col], sides[1][:, col]).pvalue > 1e-3

    def test_rows_are_trials(self):
        sc = fading_scenario(n=64, M=2, P_f=0.5, aw="fading")
        blocks, haw2 = synth.sample_block_powers(sc, H1, 10, seed=5)
        again, haw2_again = synth.sample_block_powers(sc, H1, 10, seed=5)
        assert blocks.tobytes() == again.tobytes() and haw2.tobytes() == haw2_again.tobytes()
        prefix, haw2_prefix = synth.sample_block_powers(sc, H1, 4, seed=5)
        assert np.array_equal(prefix, blocks[:4]) and np.array_equal(haw2_prefix, haw2[:4])
        assert blocks.shape == haw2.shape == (10, 2)

    @pytest.mark.parametrize("hypothesis, awgn_row, fading_row, haw2_row", [
        (H0, ["0x1.a0b134152acaap+6"], ["0x1.095ac653f510ap+6", "0x1.b44a585477c9bp+5"],
         ["0x1.a7292dd6bd554p-2", "0x1.a2a038f270ff9p-1"]),
        (H1, ["0x1.9f28c205acd2fp+6"], ["0x1.231d26a0455f5p+5", "0x1.1277d3beb9aa1p+5"],
         ["0x1.c3e49f476b0f0p-2", "0x1.546ce016e62f7p+1"]),
    ], ids=["H0", "H1"])
    def test_first_row_pinned(self, hypothesis, awgn_row, fading_row, haw2_row):
        # each hypothesis's first trial, 0 under H0 and 2**32 under H1, is
        # part of the reproducibility contract
        blocks, haw2 = synth.sample_block_powers(awgn_scenario(n=64), hypothesis, 3, seed=5)
        assert haw2 is None
        assert [v.hex() for v in blocks[0]] == awgn_row
        sc = fading_scenario(n=64, M=2, aw="fading")
        blocks, haw2 = synth.sample_block_powers(sc, hypothesis, 3, seed=5)
        assert [v.hex() for v in blocks[0]] == fading_row
        assert [v.hex() for v in haw2[0]] == haw2_row

    def test_bad_hypothesis(self):
        with pytest.raises(ValueError):
            synth.sample_block_powers(awgn_scenario(), "H2", 3, seed=0)

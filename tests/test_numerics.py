import collections
import math
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import beta as beta_dist

from conftest import awgn_scenario, mp_log_kernel

from covertsim import cli, detectors, harness, model, numerics, theory
from covertsim.numerics import (
    BisectionError,
    NumericalError,
    QuadratureError,
    bisect_monotone,
    log_integral_block,
    log_mixture_density_uniform,
    log_power_integral,
    wilson_interval,
)


def exp1_oracle(x):
    """E1(x) by power series (x <= 1) or modified Lentz continued fraction."""
    if x <= 0:
        raise ValueError("x must be positive")
    if x <= 1.0:
        euler = 0.57721566490153286060651209008240243
        total = -euler - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            total -= term / k
            if abs(term / k) < 1e-18 * abs(total):
                break
        return total
    # E1(x) = exp(-x) * CF; CF = 1/(x+1-1/(x+3-4/(x+5-...)))
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    b = x + 1.0
    a = 1.0
    for i in range(1, 200):
        d = b + a * d
        d = tiny if d == 0 else d
        c = b + a / c
        c = tiny if c == 0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
        a = -(i * i)
        b += 2.0
    return math.exp(-x) * f


def trapezoid_log_integral(z, k, v0, zeta, points=1_000_000, v_hi=None):
    """Brute-force trapezoid for the block integral, evaluated in log space."""
    if v_hi is None:
        v_star = max(0.5 * (-k * zeta + math.sqrt((k * zeta) ** 2 + 4 * zeta * z)), v0)
        v_hi = v0 + 60.0 * zeta + 3.0 * (v_star - v0)
    v = np.linspace(v0, v_hi, points)
    log_f = -k * np.log(v) - v / zeta
    if z > 0:
        log_f = log_f - z / v
    m = log_f.max()
    return m + math.log(np.trapezoid(np.exp(log_f - m), v))


class TestLogIntegralBlock:
    def test_exponential_integral_reduction(self):
        # z = 0, k = 1 collapses to the exponential integral E1(v0/zeta)
        for v0, zeta in [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)]:
            expected = math.log(exp1_oracle(v0 / zeta))
            got = log_integral_block(0.0, 1.0, v0, zeta)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_decreasing_in_lower_limit(self):
        vals = [log_integral_block(2.0, 3.0, v0, 1.0) for v0 in (0.5, 1.0, 1.5, 2.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_against_trapezoid_oracle(self):
        got = log_integral_block(1.0, 2.0, 1.0, 1.0)
        oracle = trapezoid_log_integral(1.0, 2.0, 1.0, 1.0, v_hi=60.0)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_decreasing_in_z(self):
        zs = np.linspace(0.0, 400.0, 25)
        vals = [log_integral_block(z, 5.0, 1.0, 1.0) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_huge_exponents_stay_finite(self):
        val = log_integral_block(2e6, 1e6, 1.0, 1.0)
        assert math.isfinite(val)
        val2 = log_integral_block(0.0, 1e6, 1.0, 1.0)
        assert math.isfinite(val2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_integral_block(-1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_integral_block(1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            log_integral_block(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            log_integral_block(1.0, 2.0, 1.0, -1.0)


class TestMixtureDensity:
    def test_narrow_window_collapses_to_gamma(self):
        z, n, sw2, lo = 12.0, 10, 1.0, 0.2
        width = 1e-9
        got = log_mixture_density_uniform(z, n, sw2, lo, lo + width, width)
        assert got == pytest.approx(theory.gamma_logdensity(n, sw2 + lo)(z), abs=1e-6)

    def test_normalizes_to_one(self):
        n, sw2, zeta = 8, 1.0, 1.0
        zs = np.linspace(1e-6, n * (sw2 + zeta) + 14.0 * math.sqrt(n) * (sw2 + zeta), 6001)
        dens = np.exp(log_mixture_density_uniform(zs, n, sw2, 0.0, zeta, zeta))
        total = np.trapezoid(dens, zs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_mixture_density_uniform(1.0, 4, 1.0, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            log_mixture_density_uniform(1.0, 4, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            log_mixture_density_uniform(-1.0, 4, 1.0, 0.0, 1.0, 1.0)


def mp_mixture_density(z, n, sw2, lo, hi, width):
    with mp.workdps(50):
        # theta in [lo, hi] is v in [sw2 + lo, sw2 + hi], added exactly
        log_v = mp_log_kernel(z, n, mp.mpf(sw2) + lo, mp.mpf(hi) - lo, 0.0)
        return float((n - 1) * mp.log(z) - mp.loggamma(n) + log_v) - math.log(width)


def count_rule_rows(monkeypatch):
    """Make _panel_rule record the row count of each call, by panel count;
    the ladder's levels are 1, 2, 4 and 8 times _PANELS panels."""
    rows = collections.defaultdict(list)
    panel_rule = numerics._panel_rule

    def counting(panels, lo, *args):
        rows[panels].append(len(lo))
        return panel_rule(panels, lo, *args)

    monkeypatch.setattr(numerics, "_panel_rule", counting)
    return rows


class TestPowerIntegral:
    """The batched kernel behind both mixture integrals."""

    def test_gauss_legendre_table_is_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(15)
        assert numerics._GL_X.tobytes() == x.tobytes()
        assert numerics._GL_W.tobytes() == w.tobytes()

    @pytest.mark.parametrize("z, k, v0", [
        *(pytest.param(z, k, 1.0, id=f"{z}-{k}") for z, k in [
            (0.6e4, 1e4), (2.2e4, 1e4),  # deep tails at k = 1e4
            (3.75e4, 62_500), (1.375e5, 62_500),  # and at M = 16, n = 1e6
            (0.0, 1e6), (2e6, 1e6),
            (0.0, 1.0), (50.0, 10.0), (3e4, 1600.0), (2e6, 200.0),
        ]),
        # lower limits above the analytic peak, which clip it
        (50.0, 10.0, 8.0), (2.2e4, 1e4, 3.0),
    ])
    def test_block_integral_matches_mpmath(self, z, k, v0):
        got = log_integral_block(z, k, v0, 1.0)
        want = float(mp_log_kernel(z, k, v0, math.inf, 1.0))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("z, n, lo, hi", [
        *(pytest.param(z, n, lo, lo + 1.0, id=f"{z}-{n}-{lo}") for z, n, lo in [
            (0.6e4, 1e4, 0.0), (2.2e4, 1e4, 0.0), (0.6e4, 1e4, 0.025), (2.2e4, 1e4, 0.025),
            (12.0, 10, 0.2), (0.5, 3, 0.0),
        ]),
        # windows far narrower than ulp(sigma_w2) / 1e-10
        (0.3, 1, 0.2, 0.2 + 1e-9), (0.3, 1, 0.0, 1e-9),
    ])
    def test_mixture_density_matches_mpmath(self, z, n, lo, hi):
        got = log_mixture_density_uniform(z, n, 1.0, lo, hi, 1.0)
        want = mp_mixture_density(z, n, 1.0, lo, hi, 1.0)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("z, k, v0, zeta", [
        # one sample per block (k = 1) under a jam power far above sigma_w2:
        # the exponent in t = log v is near flat until r e^t falls off a
        # cliff, and the window must end there, not where a Gaussian of the
        # peak's width would
        (0.0, 1, 1.09375, 30.0), (0.0103752, 1, 1.09375, 30.0), (0.00040176, 1, 1.0125, 30.0),
        (0.0, 1, 0.001, 100.0), (0.1, 1, 0.001, 100.0), (0.0, 1, 0.2236, 10.0),
        (0.0, 1, 1.0125, 1e4),
        (0.325, 2, 0.8647, 31.62), (0.0, 2, 0.001, 100.0), (1e-3, 2, 1.0125, 100.0),
        # few samples per block under a jammer 1e4 times the floor, where the
        # 3- and 6-panel rules agree to 1e-6 while both are 1e-9 or more off
        (1.395, 4, 0.001, 46.4), (0.06706, 2, 0.00246, 100.0), (0.8635, 5, 0.001, 100.0),
    ])
    def test_flat_exponent_with_cliff_matches_mpmath(self, z, k, v0, zeta):
        got = log_integral_block(z, k, v0, zeta)
        want = float(mp_log_kernel(z, k, v0, math.inf, 1.0 / zeta))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_random_rows_match_mpmath(self):
        # a seeded grid: k log-uniform up to 1e6, z/k geometric on [0.05, 20]
        # or z = 0, lower limits from 0 (an incomplete gamma function when
        # r = 0) to 1.0125, infinite, unit and narrow windows, r in {0, 1, 2}
        rng = np.random.default_rng(2024)
        for _ in range(40):
            k = float(round(10.0 ** rng.uniform(0.0, 6.0)))
            r = float(rng.choice([0.0, 1.0, 2.0]))
            a = float(rng.choice([0.0, 0.2, 1.0, 1.0125]))
            w = float(rng.choice([1.0, 0.00625, 1e-9] + ([math.inf] if r > 0 else [])))
            z = 0.0 if a > 0 and rng.random() < 0.2 else k * 10.0 ** rng.uniform(-1.3, 1.3)
            got = log_power_integral(z, k, a, w, r)
            want = float(mp_log_kernel(z, k, a, w, r))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (z, k, a, w, r)

    def test_incomplete_gamma_row(self):
        # a = 0 and r = 0: z^(1-k) Gamma(k - 1, z/w), the oracle's closed form
        for z, k, w in [(3.0, 1.0, 1.0), (50.0, 10.0, 2.0), (900.0, 1000.0, 1.0), (1e6, 1e6, 0.9)]:
            got = log_power_integral(z, k, 0.0, w, 0.0)
            with mp.workdps(50):
                want = float((1 - k) * mp.log(z) + mp.log(mp.gammainc(k - 1, z / w)))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert abs(float(mp_log_kernel(z, k, 0.0, w, 0.0)) - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("z, k, a, w, r", [
        (-1.0, 2.0, 1.0, 1.0, 1.0), ([1.0, -1e-300], 2.0, 1.0, 1.0, 1.0), (1.0, 0.5, 1.0, 1.0, 1.0),
        (1.0, 2.0, -1.0, 1.0, 1.0), (1.0, 2.0, 1.0, -1e-3, 1.0), (1.0, 2.0, 1.0, 1.0, -1.0),
        (1.0, 2.0, 1.0, 1.0, math.nan),
    ], ids=["z", "z-row", "k", "a", "w", "r", "r-nan"])
    def test_domain_errors(self, z, k, a, w, r):
        with pytest.raises(ValueError):
            log_power_integral(z, k, a, w, r)

    @pytest.mark.parametrize("z, k, a, w, r", [
        (math.nan, 2.0, 1.0, 1.0, 1.0), ([1.0, math.nan], 2.0, 1.0, 1.0, 1.0),
        (1.0, 2.0, math.nan, 1.0, 1.0), (1.0, 2.0, 1.0, math.nan, 1.0),
        # divergent integrals: 1/v near v = 0 and toward v = inf
        (0.0, 1.0, 0.0, 1.0, 0.0), (0.0, 3.0, 0.0, 1.0, 1.0), (1.0, 1.0, 1.0, math.inf, 0.0),
    ], ids=["z", "z-row", "a", "w", "a0-z0", "a0-z0-r1", "w-inf-r0"])
    def test_unresolvable_rows_raise(self, z, k, a, w, r):
        # a NaN passes the domain check and the kernel refuses the row
        with pytest.raises(NumericalError):
            log_power_integral(z, k, a, w, r)

    def test_scalars_give_a_float(self):
        assert type(log_power_integral(2.0, 3.0, 1.0, 1.0, 1.0)) is float
        got = log_power_integral(2.0, 3.0, np.array([1.0, 2.0]), 1.0, 1.0)
        assert got.shape == (2,) and got[0] > got[1]

    def test_empty_window_is_minus_infinity(self):
        # width 0 integrates nothing; the row resolves at once instead of
        # climbing (a negative width is in test_domain_errors)
        got = log_power_integral(np.array([0.0, 120.0, 1e4]), 100, 1.0, 0.0, 1.0)
        assert np.all(got == -np.inf)

    @pytest.mark.parametrize("v_lo, v_hi", [(1.0, 2.0), (2.0, 2.5)])
    def test_flat_exponent_matches_closed_form(self, v_lo, v_hi):
        # n = 1 and z = 0 integrate 1/v with r = 0: the exponent in t = log v
        # is constant, so every node term is equal and none sits at a peak
        width = v_hi - v_lo
        got = log_mixture_density_uniform(0.0, 1, 1.0, v_lo - 1.0, v_hi - 1.0, width)
        want = -math.log(width) + math.log(math.log(v_hi / v_lo))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_flat_exponents_skip_the_three_panel_rule(self, monkeypatch):
        # below _COARSE_MIN_K the exponent is too flat for the 3-panel rule to
        # vouch for the 6-panel value, so the ladder starts at 6 panels
        rows = count_rule_rows(monkeypatch)
        z = np.array([0.0, 1.395, 50.0])
        log_integral_block(z, numerics._COARSE_MIN_K - 1, 0.001, 46.4)
        assert min(rows) == 2 * numerics._PANELS
        rows.clear()
        log_integral_block(z, numerics._COARSE_MIN_K, 0.001, 46.4)
        assert min(rows) == numerics._PANELS

    def test_batch_matches_single_evaluation(self):
        # a z gives the same bytes alone and inside a batch that crosses two
        # batch boundaries and ends in a short batch, also with per-row lower
        # limits
        rng = np.random.default_rng(11)
        size = 2 * numerics._BATCH + 37
        zs = rng.permutation(np.concatenate([rng.uniform(0.0, 3e3, size - 3), [0.0, 130.0, 2e5]]))
        v0 = rng.uniform(1.0, 1.1, size)
        batch = log_integral_block(zs, 100, v0, 1.0)
        alone = [log_integral_block(z, 100, a, 1.0) for z, a in zip(zs, v0)]
        assert batch.tobytes() == np.array(alone).tobytes()
        mix = log_mixture_density_uniform(zs, 100, 1.0, 0.025, 1.025, 1.0)
        alone = [log_mixture_density_uniform(z, 100, 1.0, 0.025, 1.025, 1.0) for z in zs]
        assert mix.tobytes() == np.array(alone).tobytes()

    def test_climbing_rows_share_the_workspace(self, monkeypatch):
        # on two coarse panels more than half of a batch at k = 100 climbs to
        # four times _PANELS and more than a quarter to eight times; every
        # level streams through the one 138 KB workspace, so the call traces
        # about 0.34 MB (with the 421 rows' set-up and window arrays and the
        # rule's node offsets, up to 46 KB each), where a workspace of their
        # own for the rows at 8 panels would add 0.8 MB; every row still
        # reads the same bytes as alone
        monkeypatch.setattr(numerics, "_PANELS", 2)
        rows = count_rule_rows(monkeypatch)
        rng = np.random.default_rng(11)
        size = numerics._BATCH + 37
        zs = (1.0 + rng.exponential(1.0, size)) * rng.gamma(100, 1.0, size)
        v0 = rng.uniform(1.0, 1.02, size)
        tracemalloc.start()
        try:
            batch = log_integral_block(zs, 100, v0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[4 * numerics._PANELS][0] > numerics._BATCH // 2
        assert rows[8 * numerics._PANELS][0] > numerics._BATCH // 4
        assert peak <= 0.45e6
        alone = [log_integral_block(z, 100, a, 1.0) for z, a in zip(zs, v0)]
        assert batch.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("batch", [1, 7, numerics._BATCH])
    def test_rows_keep_their_bytes_under_any_batch_size(self, monkeypatch, batch):
        # on two coarse panels rows climb through every level; batches of one
        # row, of seven and of the default (two full batches and a short one)
        # view the shared workspace in different shapes, and every row still
        # reads the bytes of a call of its own at the default batch size
        monkeypatch.setattr(numerics, "_PANELS", 2)
        rng = np.random.default_rng(batch)
        size = 2 * batch + 37
        spread = 10.0 ** rng.uniform(-1.3, 1.3, size)
        cases = [
            (lambda z, a: log_integral_block(z, 10, a, 10.0),
             10.0 * spread, rng.uniform(0.01, 2.0, size)),
            (lambda z, a: log_integral_block(z, 100, a, 1.0),
             (1.0 + rng.exponential(1.0, size)) * rng.gamma(100, 1.0, size),
             rng.uniform(1.0, 1.02, size)),
            (lambda z, a: log_mixture_density_uniform(z, 100, 1.0, 0.0, 100.0, 100.0),
             100.0 * spread, np.zeros(size)),
        ]
        alone = [np.array([fn(*row) for row in zip(z, a)]) for fn, z, a in cases]
        monkeypatch.setattr(numerics, "_BATCH", batch)
        rows = count_rule_rows(monkeypatch)
        for (fn, z, a), want in zip(cases, alone):
            assert fn(z, a).tobytes() == want.tobytes()
            # the top level is one call per batch: climbing rows lie in several
            assert len(rows[8 * numerics._PANELS]) >= 2
            rows.clear()

    @pytest.mark.parametrize("panels", [2, 3, 4, 6, 8])
    def test_workspace_sized_per_call(self, monkeypatch, panels):
        # every panel count and row count streams through the one workspace,
        # so calls of different sizes in a row all fit
        monkeypatch.setattr(numerics, "_PANELS", panels)
        rng = np.random.default_rng(panels)
        sizes = (1, numerics._BATCH // 2, numerics._BATCH // 2 + 1, numerics._BATCH,
                 3 * numerics._BATCH + 5, 1)
        for size in sizes:
            z = (1.0 + rng.exponential(1.0, size)) * rng.gamma(100, 1.0, size)
            block = log_integral_block(z, 100, 1.01, 1.0)
            mix = log_mixture_density_uniform(z, 100, 1.0, 0.025, 1.025, 1.0)
            for out in (block, mix):
                assert out.shape == (size,)
                assert np.all(np.isfinite(out))

    def test_working_memory_bounded_by_block(self):
        # 80,000 rows at k = 400: the output (0.64 MB), the node workspace
        # (0.14 MB) and one batch's per-row arrays and node offsets, 0.98 MB
        # in all.  The 0.27 MB margin is less than a copy of the broadcast
        # lower limit (0.64 MB) or a workspace sized for a batch's whole
        # 6-panel rule (0.83 MB, +0.69 MB); one sized for all rows alone
        # would be 173 MB
        rng = np.random.default_rng(3)
        z = (1.0 + rng.exponential(1.0, 80_000)) * rng.gamma(400, 1.0, 80_000)
        tracemalloc.start()
        try:
            log_integral_block(z, 400, 1.0125, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25e6

    def test_realistic_batches_need_no_refinement(self, monkeypatch):
        # the 3- and 6-panel estimates agree to _COARSE_TOL on every row the
        # detectors send; the levels above are for the odd row only
        rows = count_rule_rows(monkeypatch)
        rng = np.random.default_rng(5)
        size = 2000

        def block_powers(k):
            # v * Gamma(k, 1) with v = 1 + Exp(1), plus both deep tails
            z = (1.0 + rng.exponential(1.0, size)) * rng.gamma(k, 1.0, size)
            return np.concatenate([z, [0.0, 0.6 * k, 2.2 * k, 20.0 * k]])

        # the boundary spot checks: k = 100, r = 1, per-row lower limits near 1.01
        z = block_powers(100)
        log_integral_block(z, 100, rng.uniform(1.0, 1.02, z.size), 1.0)
        # the k = 1e4 mixture of covertness, under both hypotheses
        z = rng.uniform(0.5e4, 2.5e4, size)
        for lo in (0.0, 0.025):
            log_mixture_density_uniform(z, 1e4, 1.0, lo, lo + 1.0, 1.0)
        # M = 16 blocks at n = 1e6
        log_integral_block(block_powers(62_500), 62_500, 1.0125, 1.0)
        assert set(rows) == {numerics._PANELS, 2 * numerics._PANELS}

    @pytest.mark.parametrize("command, config, size", [
        ("boundary", "fading_m2", "--draws"), ("boundary", "fading_m4", "--draws"),
        ("roc", "fading_m2", "--trials"), ("roc", "fading_m4", "--trials"),
    ])
    def test_cli_rows_stay_at_six_panels(self, monkeypatch, tmp_path, capsys, command, config,
                                         size):
        # every row the boundary and roc commands send resolves on the first
        # step of the ladder: no rule above 2 * _PANELS panels runs
        rows = count_rule_rows(monkeypatch)
        cfgp = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
        assert cli.main([command, str(cfgp), size, "2000", "--seed", "1",
                         "--out", str(tmp_path)]) == 0
        assert set(rows) == {numerics._PANELS, 2 * numerics._PANELS}

    @pytest.mark.parametrize("z, v0", [
        (np.nan, 1.0), (np.inf, 1.0), ([1.0, np.nan], 1.0), (50.0, np.nan),
    ])
    def test_non_finite_input_raises(self, z, v0):
        # v0 is the lower limit in v of both integrals; the mixture's is sigma_w2
        with pytest.raises(NumericalError):
            log_integral_block(z, 10.0, v0, 1.0)
        with pytest.raises(NumericalError):
            log_mixture_density_uniform(z, 10, v0, 0.0, 1.0, 1.0)

    def test_unresolved_row_raises(self, monkeypatch):
        # one coarse panel cannot resolve the peak; neither two, four nor
        # eight settle it, and the row fails loudly instead of returning NaN
        monkeypatch.setattr(numerics, "_PANELS", 1)
        with pytest.raises(QuadratureError):
            log_integral_block(np.array([0.0, 500.0]), 100.0, 1.0, 1.0)
        with pytest.raises(QuadratureError):
            log_mixture_density_uniform(1.2e4, 1e4, 1.0, 0.0, 1.0, 1.0)

    def test_top_level_failure_names_the_row(self, monkeypatch):
        # on one coarse panel the rows at z = 0 resolve and z = 500 does not
        # at eight; the error names that row, the fourth of the second batch
        monkeypatch.setattr(numerics, "_PANELS", 1)
        z, v0 = np.zeros(numerics._BATCH + 5), np.ones(numerics._BATCH + 5)
        z[numerics._BATCH + 3], v0[numerics._BATCH + 3] = 500.0, 1.5
        with pytest.raises(QuadratureError, match=r"\(z=500, k=100, a=1\.5, w=inf, r=1\)$"):
            log_integral_block(z, 100.0, v0, 1.0)


def recording(f):
    """f, with each point it is called at appended to f.calls as a float."""
    def g(x):
        g.calls.extend(float(v) for v in x)
        return f(x)

    g.calls = []
    return g


class TestBisect:
    def test_identity(self):
        assert bisect_monotone(lambda x: x, 0.5, 0.0, 1.0, 1e-12) == pytest.approx(0.5)

    def test_target_outside(self):
        # the root's sign says which side of the bracket the target lies on
        assert bisect_monotone(lambda x: x, -0.5, 0.0, 1.0, 1e-12) == -math.inf
        assert bisect_monotone(lambda x: x, 1.5, 0.0, 1.0, 1e-12) == math.inf

    def test_non_monotone_contract(self):
        with pytest.raises(BisectionError):
            bisect_monotone(lambda x: -x, 0.5, 0.0, 1.0, 1e-12)

    def test_rows_inside_below_and_above(self):
        roots = bisect_monotone(lambda x: x ** 3, np.array([0.125, -1.0, 2.0]), 0.0, 1.0, 1e-12)
        assert roots.shape == (3,) and roots[0] == pytest.approx(0.5)
        assert roots[1:].tolist() == [-math.inf, math.inf]

    def test_exact_endpoints(self):
        for target, lo, hi in ((0.0, 0.0, 2.0), (1.0, -1.0, 1.0)):
            f = recording(lambda x: x)
            assert bisect_monotone(f, target, lo, hi, 1e-12) == target
            assert f.calls == [lo, hi]  # the endpoints only, no midpoint

    def test_non_monotone_row_flagged(self):
        # (x - 1)^2 falls on [0, 0.5] and rises on [1, 2]
        f = lambda x: (x - 1.0) ** 2
        with pytest.raises(BisectionError):
            bisect_monotone(f, 0.5, 0.0, 0.5, 1e-12)
        assert bisect_monotone(f, 0.25, 1.0, 2.0, 1e-12) == pytest.approx(1.5)

    def test_nan_endpoint_raises(self):
        with pytest.raises(BisectionError):
            bisect_monotone(lambda x: np.full(x.shape, math.nan), 0.5, 0.0, 1.0, 1e-12)

    def test_stall_flagged(self):
        # float(1/3) is no dyadic midpoint of [0, 1] before the bracket stalls
        with pytest.raises(BisectionError):
            bisect_monotone(lambda x: x, 1.0 / 3.0, 0.0, 1.0, 0.0)
        assert bisect_monotone(lambda x: x, 0.5, 0.0, 1.0, 0.0) == 0.5

    def test_iterate_sequence(self):
        f = recording(lambda x: x)
        root = bisect_monotone(f, 1.0 / 3.0, 0.0, 1.0, 1e-9)
        assert f.calls[:5] == [0.0, 1.0, 0.5, 0.25, 0.375]
        assert f.calls[-1] == root and abs(root - 1.0 / 3.0) <= 1e-9

    def test_bracket_validation(self):
        for lo, hi in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                bisect_monotone(lambda x: x, 0.5, lo, hi, 1e-12)
        with pytest.raises(ValueError):  # one bad row is enough
            bisect_monotone(lambda x: x, 0.5, [0.0, 1.0], [1.0, 1.0], 1e-12)

    @given(
        a=st.floats(-5, 5), width=st.floats(0.1, 10), frac=st.floats(0.01, 0.99),
        slope=st.floats(0.1, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_recovers_target_on_linear_functions(self, a, width, frac, slope):
        b = a + width
        target_x = a + frac * width
        f = lambda x: slope * (x - target_x)
        root = bisect_monotone(f, 0.0, a, b, 1e-9)
        assert abs(f(np.array([root]))[0]) <= 1e-9

    @given(rows=st.lists(st.tuples(
        st.floats(-2, 2), st.floats(0.01, 4), st.floats(-0.5, 1.5), st.floats(0.1, 5),
        st.integers(0, 2)), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_rowwise_equals_one_row_calls(self, rows):
        # each row its own increasing function: a line, a cube or an arctan
        # around its centre; a frac outside (0, 1) puts the target outside the
        # bracket, so some rows give +-inf; |f'| stays below 1e4, so no row
        # stalls at tol 1e-9
        lo, width, frac, slope, kind = (np.array(col) for col in zip(*rows))
        hi, centre = lo + width, lo + 0.5 * width
        target = slope * (lo + frac * width - centre)

        def family(rows):
            def f(x):
                u = slope[rows] * (x - centre[rows])
                return np.choose(kind[rows], [u, u ** 3, np.arctan(u)])
            return f

        batch = bisect_monotone(family(slice(None)), target, lo, hi, 1e-9)
        alone = [bisect_monotone(family(slice(i, i + 1)), target[i], lo[i], hi[i], 1e-9)
                 for i in range(len(rows))]
        assert batch.tobytes() == np.array(alone).tobytes()

    def test_early_finish_moves_no_other_root(self):
        # row 0 resolves at its first midpoint, row 1 needs about 30 more;
        # after row 0 finishes f still sees it, at its lower end
        f = recording(lambda x: x)
        roots = bisect_monotone(f, [0.5, 1.0 / 3.0], 0.0, 1.0, 1e-9)
        assert roots[0] == 0.5
        assert roots[1] == bisect_monotone(lambda x: x, 1.0 / 3.0, 0.0, 1.0, 1e-9)
        assert f.calls[0::2][3:] == [0.0] * (len(f.calls) // 2 - 3)

    @pytest.mark.parametrize("bad, message", [
        (lambda x: np.full(x.shape, math.nan), r"falls across the bracket \[0\.0, 1\.0\] in row 2$"),
        (lambda x: -x, r"falls across the bracket \[0\.0, 1\.0\] in row 2$"),
    ], ids=["nan", "falling"])
    def test_failing_row_named(self, bad, message):
        f = lambda x: np.where(np.arange(x.size) == 2, bad(x), x)
        with pytest.raises(BisectionError, match=message):
            bisect_monotone(f, np.full(4, 0.25), 0.0, 1.0, 1e-12)

    def test_stalled_row_named(self):
        # row 1 never meets a zero tolerance; row 0 resolves exactly
        with pytest.raises(BisectionError, match=r"did not resolve on .* in row 1$"):
            bisect_monotone(lambda x: x, [0.5, 1.0 / 3.0], 0.0, 1.0, 0.0)

    def test_c1_power_threshold_pinned(self):
        # C1's one-block power threshold, a one-row bisection of the log LRT
        sc = awgn_scenario(n=1000, P_f=0.0)
        params = model.select_covert_params_awgn(0.1, sc.zeta, sc.geometry.d_aw, sc.geometry.alpha)
        scn = model.with_updates(sc, n=10_000, P_f=params.P_f)
        ss = harness.collect_statistics(scn, detectors.config_for_scenario(scn), 2_000, seed=303)
        assert ss.lrt_gamma_threshold.hex() == "0x1.664117b0feb30p+0"


class TestWilson:
    def test_quantile_constant(self):
        assert numerics._Z975 == NormalDist().inv_cdf(0.975)

    def test_zero_successes_floor(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi > 0.0

    def test_symmetry_at_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_within_clopper_pearson_slack(self):
        lo, hi = wilson_interval(90, 100)
        cp_lo = beta_dist.ppf(0.025, 90, 11)
        cp_hi = beta_dist.ppf(0.975, 91, 10)
        assert lo >= cp_lo - 0.02
        assert hi <= cp_hi + 0.02

    @given(trials=st.integers(1, 10_000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_contains_point_estimate(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(successes, trials)
        p = successes / trials
        assert lo - 1e-12 <= p <= hi + 1e-12
        assert 0.0 <= lo <= hi <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)

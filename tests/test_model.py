import json
import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from covertsim import model
from covertsim.model import ConfigError

from conftest import awgn_scenario, fading_scenario


class TestPathGain:
    def test_unit_distance(self):
        assert model.path_gain(1.0, 2.0) == 1.0

    def test_inverse_square(self):
        assert model.path_gain(2.0, 2.0) == 0.25

    def test_fractional_exponent_matches_high_precision(self):
        mp.mp.dps = 40
        expected = float(mp.power(3, mp.mpf("-3.5")))
        assert model.path_gain(3.0, 3.5) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_nonpositive_distance_rejected(self, d):
        with pytest.raises(ConfigError):
            model.path_gain(d, 2.0)

    # a gain of 1e400 overflows, 1e-400 rounds to 0.0 and 1e-310 is subnormal
    @pytest.mark.parametrize("d, message", [
        (1e-200, "overflows"), (1e200, "underflows"), (1e155, "underflows"),
    ])
    def test_gain_out_of_float_range_rejected(self, d, message):
        with pytest.raises(ConfigError, match=re.escape(f"distance {d} at alpha 2.0 {message}")):
            model.path_gain(d, 2.0)

    def test_small_exponent_rejected(self):
        with pytest.raises(ConfigError):
            model.path_gain(1.0, 1.5)

    # the recipes invert the gain, so they reject what it rejects
    @pytest.mark.parametrize("fn, args", [
        (model.path_gain, (math.nan, 2.0)),
        (model.path_gain, (1.0, math.nan)),
        (model.path_gain, (1.0, math.inf)),
        (model.select_covert_params_fading, (0.1, math.nan, 1.0, 2.0)),
        (model.select_covert_params_awgn, (0.1, 1.0, math.inf, 2.0)),
        (model.select_covert_params_awgn, (0.1, 1.0, 1e200, 2.0)),
    ], ids=["gain-d-nan", "gain-alpha-nan", "gain-alpha-inf",
            "fading-zeta-nan", "awgn-d-inf", "awgn-d-huge"])
    def test_non_finite_and_out_of_range_inputs_rejected(self, fn, args):
        with pytest.raises(ConfigError):
            fn(*args)

    @given(
        d=st.floats(0.01, 100.0),
        bump=st.floats(0.01, 10.0),
        alpha=st.floats(2.0, 6.0),
    )
    def test_decreasing_in_distance(self, d, bump, alpha):
        assert model.path_gain(d + bump, alpha) < model.path_gain(d, alpha)

    @given(d=st.floats(1.001, 100.0), alpha=st.floats(2.0, 5.0), bump=st.floats(0.01, 2.0))
    def test_decreasing_in_exponent_beyond_unit_distance(self, d, alpha, bump):
        assert model.path_gain(d, alpha + bump) < model.path_gain(d, alpha)


class TestCovertParamsAwgn:
    def test_reference_values(self):
        p = model.select_covert_params_awgn(0.1, 1.0, 1.0, 2.0)
        assert p.sigma_a2 == pytest.approx(0.025)
        assert p.P_f == pytest.approx(0.025)

    def test_scaled_values(self):
        p = model.select_covert_params_awgn(0.1, 2.0, 2.0, 2.0)
        assert p.sigma_a2 == pytest.approx(0.05)
        assert p.P_f == pytest.approx(0.2)

    def test_vanishing_target_vanishing_power(self):
        p = model.select_covert_params_awgn(1e-9, 1.0, 1.0, 2.0)
        assert p.sigma_a2 < 1e-9

    @given(eps=st.floats(1e-6, 0.999), zeta=st.floats(1e-3, 1e3))
    def test_ambiguous_band_mass_is_half_epsilon(self, eps, zeta):
        p = model.select_covert_params_awgn(eps, zeta, 1.0, 2.0)
        # the band that can defeat the detector has width sigma_a2 + 2*delta,
        # with delta = zeta*eps/8
        assert p.sigma_a2 + 2.0 * (zeta * eps / 8.0) == zeta * eps / 2.0

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.5])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ConfigError):
            model.select_covert_params_awgn(eps, 1.0, 1.0, 2.0)


class TestCovertParamsFading:
    def test_reference_values(self):
        p = model.select_covert_params_fading(0.1, 1.0, 1.0, 2.0)
        assert p.sigma_a2 == pytest.approx(0.0125)
        assert p.P_f == pytest.approx(0.0125)

    def test_scaled_values(self):
        p = model.select_covert_params_fading(0.2, 2.0, 1.0, 2.0)
        assert p.sigma_a2 == pytest.approx(0.05)

    def test_vanishing_target(self):
        p = model.select_covert_params_fading(1e-8, 1.0, 1.0, 2.0)
        assert p.sigma_a2 < 1e-8

    def test_dispatch_picks_recipe(self):
        sc = awgn_scenario()
        assert model.select_covert_params(sc, 0.1).sigma_a2 == pytest.approx(0.025)
        sc = fading_scenario(M=4, n=400)
        assert model.select_covert_params(sc, 0.1).sigma_a2 == pytest.approx(0.0125 / 4)

    @pytest.mark.parametrize("M", [1, 4, 16])
    def test_error_floor_stays_covert_over_blocks(self, M):
        # as n grows the warden's min P_FA + P_MD falls to exp(-M sigma_a2/zeta)
        # (faded jammer link), or to (1 + sigma_a2/zeta)**-M when it knows the
        # signal fading; the recipe must keep both at or above 1 - epsilon
        eps = 0.1
        sc = fading_scenario(n=16 * 64, M=M, P_j=2.0)
        ratio = model.select_covert_params(sc, eps).sigma_a2 / sc.zeta
        assert math.exp(-M * ratio) >= 1.0 - eps
        assert (1.0 + ratio) ** -M >= 1.0 - eps


class TestScenario:
    def test_json_round_trip(self):
        sc = fading_scenario(n=600, M=3, ab="fading")
        again = model.Scenario.from_json(sc.to_json())
        assert again == sc

    def test_field_names(self):
        data = json.loads(awgn_scenario().to_json())
        assert set(data) == {
            "d_aw", "d_ab", "d_jw", "d_jb", "alpha", "n", "M", "p",
            "sigma_w2", "sigma_b2", "jammer", "channels", "P_f",
        }
        assert set(data["jammer"]) == {"kind", "power"}
        assert set(data["channels"]) == {"aw", "ab", "jw", "jb"}

    def test_derived_quantities_recompute(self):
        sc = model.Scenario(
            geometry=model.Geometry(d_aw=2.0, d_jw=3.0, alpha=3.0),
            jammer=model.JammerStrategy(kind=model.CONSTANT_POWER, power=5.0),
            P_f=0.4,
        )
        assert sc.zeta == 5.0 * 3.0 ** -3.0
        assert sc.sigma_a2 == 0.4 * 2.0 ** -3.0

    @given(
        d_aw=st.floats(0.1, 10), d_jw=st.floats(0.1, 10),
        alpha=st.floats(2, 5), power=st.floats(0.01, 10), pf=st.floats(0, 10),
    )
    def test_derived_quantities_consistent(self, d_aw, d_jw, alpha, power, pf):
        sc = model.Scenario(
            geometry=model.Geometry(d_aw=d_aw, d_jw=d_jw, alpha=alpha),
            jammer=model.JammerStrategy(power=power),
            P_f=pf,
        )
        assert sc.zeta == power * model.path_gain(d_jw, alpha)
        assert sc.sigma_a2 == pf * model.path_gain(d_aw, alpha)

    @pytest.mark.parametrize("mutant", [
        {"n": 10, "M": 3},          # M does not divide n
        {"n": 0},
        {"M": 0},
        {"p": 0.0},
        {"p": 1.0},
        {"alpha": 1.0},
        {"d_aw": 0.0},
        {"sigma_w2": 0.0},
        {"P_f": -1.0},
        {"jammer": {"kind": "bursts", "power": 1.0}},
        {"channels": {"aw": "awgn", "ab": "awgn", "jw": "rician", "jb": "awgn"}},
        {"n": 200.9},               # would truncate to 200
        {"n": 200, "M": 2.5},       # would truncate to 2, which divides n
        {"n": True},                # a JSON boolean is not a count
        {"P_f": False},
        {"d_aw": "2.0"},            # nor is a string a number
        {"jammer": {"kind": "uniform_per_slot", "power": "1"}},
        {"d_aw": 10**400},          # an integer no float can hold
    ])
    def test_invalid_configs_rejected(self, mutant):
        data = awgn_scenario().to_dict()
        data.update(mutant)
        with pytest.raises(ConfigError):
            model.Scenario.from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["d_aw", "alpha", "sigma_w2", "jammer.power", "P_f"])
    def test_non_finite_values_rejected(self, field, value):
        # JSON NaN and Infinity parse as floats; every range check must reject them
        data = awgn_scenario().to_dict()
        owner, _, name = field.rpartition(".")
        (data[owner] if owner else data)[name] = value
        with pytest.raises(ConfigError):
            model.Scenario.from_json(json.dumps(data))

    def test_integral_float_counts_load(self):
        data = awgn_scenario(n=1000).to_dict()
        data.update(n=1000.0, M=1.0)
        sc = model.Scenario.from_json(json.dumps(data))
        assert sc == awgn_scenario(n=1000) and isinstance(sc.slots.n, int)

    def test_stray_slot_count_ignored(self):
        # configs written before the slot count was retired still load
        data = awgn_scenario().to_dict()
        data["T"] = 2
        assert model.Scenario.from_dict(data) == awgn_scenario()

    @pytest.mark.parametrize("name", ["awgn", "bob_fading", "fading_m1", "fading_m2", "fading_m4"])
    def test_shipped_configs_load(self, name):
        path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
        sc, _ = model.load_scenario(path)
        assert "T" not in json.loads(path.read_text())
        assert model.Scenario.from_json(sc.to_json()) == sc
        # saving a shipped config rewrites it byte for byte
        assert sc.to_json() + "\n" == path.read_text()

    # gains d**-2 of 1e300 and 1e-300 are normal floats, 1e400 and 1e-400 are not
    @pytest.mark.parametrize("loads, rejected, message", [
        (1e-150, 1e-200, "overflows a float"), (1e150, 1e200, "underflows a float"),
    ], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("field", ["d_aw", "d_ab", "d_jw", "d_jb"])
    def test_path_gain_out_of_float_range_rejected_at_load(self, field, loads, rejected, message):
        data = fading_scenario().to_dict()
        data[field] = loads
        assert getattr(model.Scenario.from_dict(data).geometry, field) == loads
        data[field] = rejected
        with pytest.raises(ConfigError, match=message):
            model.Scenario.from_dict(data)

    # each factor is a normal float; their product at d = 0.5, alpha = 2 is not
    @pytest.mark.parametrize("field, distance, density", [
        ("jammer.power", "d_jw", "zeta = jammer.power * d_jw**-alpha"),
        ("P_f", "d_aw", "sigma_a2 = P_f * d_aw**-alpha"),
    ], ids=["zeta", "sigma_a2"])
    def test_density_out_of_float_range_rejected_at_load(self, field, distance, density):
        data = fading_scenario().to_dict()
        owner, _, name = field.rpartition(".")
        (data[owner] if owner else data)[name] = 1e308
        assert math.isfinite(getattr(model.Scenario.from_dict(data), density.split()[0]))
        data[distance] = 0.5
        with pytest.raises(ConfigError, match=re.escape(f"{density} overflows a float")):
            model.Scenario.from_dict(data)

    # one key per section; a nested key is reported by its own name
    @pytest.mark.parametrize("field", [
        "d_jw", "M", "sigma_b2", "jammer.power", "channels.jb", "P_f",
    ])
    def test_missing_field_rejected(self, field):
        data = awgn_scenario().to_dict()
        owner, _, name = field.rpartition(".")
        del (data[owner] if owner else data)[name]
        with pytest.raises(ConfigError, match=f"^missing scenario field: {name}$"):
            model.Scenario.from_dict(data)

    # one wrong value per reader: whole, number, number too large, str
    @pytest.mark.parametrize("field, value, message", [
        ("n", 2.5, "n must be a whole number, got 2.5"),
        ("jammer.power", "1", "jammer.power must be a number, got '1'"),
        pytest.param("jammer.power", 10**400, "jammer.power is too large for a float",
                     id="jammer.power-huge"),
        ("channels.aw", 5, "channel kind for aw must be one of ('awgn', 'fading')"),
    ])
    def test_wrong_value_message(self, field, value, message):
        data = awgn_scenario().to_dict()
        owner, _, name = field.rpartition(".")
        (data[owner] if owner else data)[name] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            model.Scenario.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError):
            model.Scenario.from_json("{not json")
        with pytest.raises(ConfigError):
            model.Scenario.from_json("[1, 2]")

    def test_save_load(self, tmp_path):
        path = tmp_path / "scenario.json"
        sc = fading_scenario(M=2, n=500)
        model.save_scenario(sc, path)
        assert model.load_scenario(path)[0] == sc

    def test_with_updates(self):
        sc = awgn_scenario(n=1000)
        sc2 = model.with_updates(sc, n=4000, P_f=0.5)
        assert sc2.slots.n == 4000 and sc2.P_f == 0.5
        assert sc2.slots.p == sc.slots.p and sc2.geometry == sc.geometry
        # an integral float is a whole count, as in a config file, and a
        # numpy integer is a count too
        for n in (4000.0, np.int64(4000)):
            assert type(model.with_updates(sc, n=n).slots.n) is int

    @pytest.mark.parametrize("field, value, message", [
        ("n", 1000.7, "n must be a whole number"),     # would truncate to 1000
        ("n", True, "n must be a number"),             # would be a 1-sample slot
        ("P_f", True, "P_f must be a number"),         # would be P_f = 1.0
        pytest.param("n", 10**400, "n is too large for a float", id="n-huge"),
        pytest.param("P_f", 10**400, "P_f is too large for a float", id="P_f-huge"),
    ])
    def test_with_updates_checks_fields_as_the_loader_does(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            model.with_updates(awgn_scenario(n=1000), **{field: value})

"""Tests for JSON configuration parsing and unit resolution."""

import json
import math

import pytest

from ibgsync import FaultType, SyncMode
from ibgsync.config import ConfigError, load_config, make_fault, parse_config

Z_BASE = 110.0 * 110.0 / 9.0


class TestDefaults:
    def test_empty_document(self):
        doc = parse_config({})
        assert doc.circuit.ug_pos == pytest.approx(120.0 / 110.0)
        assert doc.circuit.theta_g == 0.0
        assert doc.circuit.omega0 == pytest.approx(2.0 * math.pi * 50.0)
        assert doc.z_base_ohm == pytest.approx(Z_BASE)
        # 0.01 ohm default fault impedance, expressed per-unit
        assert doc.z_f == pytest.approx(0.01 / Z_BASE)
        assert doc.fault_type is None
        assert doc.t_on == 0.0
        assert doc.t_clear == math.inf
        assert doc.ref_fault.i_pos == 0.0
        assert doc.ref_prefault.i_neg == 0.0
        assert doc.sync.mode is SyncMode.DSOGI_PLL
        assert doc.sync.kp_pll == 100.0
        assert doc.scenario.t_end == 3.0
        assert doc.scenario.dt == 1e-4
        assert doc.scenario.init == "equilibrium"
        assert doc.solver.step == 0.01
        assert doc.solver.ceiling == 3.0

    def test_reference_branch_values(self):
        circ = parse_config({}).circuit
        assert circ.z_t1.r == 0.002 and circ.z_t1.x == 0.06
        assert circ.z_t2.x == 0.16 and circ.z_t2.r == pytest.approx(0.16 / 30.0)
        assert circ.z_l1.r == 0.02 and circ.z_l1.x == 0.05
        assert circ.z_l2.r == 0.06 and circ.z_l2.x == 0.30
        assert circ.z_g.r == 0.04 and circ.z_g.x == 0.20

    def test_load_none_gives_defaults(self):
        doc = load_config(None)
        assert doc.circuit.ug_pos == pytest.approx(120.0 / 110.0)
        assert doc.z_base_ohm == pytest.approx(Z_BASE)


class TestUnits:
    def test_ohm_entries_match_per_unit(self):
        pu = parse_config({"circuit": {"grid": {"r": 0.04, "x": 0.20}}})
        ohm = parse_config({
            "circuit": {
                "unit": "ohm",
                "grid": {"r": 0.04 * Z_BASE, "x": 0.20 * Z_BASE},
            }
        })
        assert ohm.circuit.z_g.r == pytest.approx(pu.circuit.z_g.r)
        assert ohm.circuit.z_g.x == pytest.approx(pu.circuit.z_g.x)

    def test_omitted_branches_stay_per_unit_in_ohm_mode(self):
        doc = parse_config({"circuit": {"unit": "ohm"}})
        assert doc.circuit.z_t1.x == 0.06

    def test_ug_kv_converts(self):
        doc = parse_config({"circuit": {"ug_kv": 120.0}})
        assert doc.circuit.ug_pos == pytest.approx(120.0 / 110.0)

    def test_zf_ohm_converts(self):
        doc = parse_config({"fault": {"zf_ohm": 0.01 * Z_BASE}})
        assert doc.z_f == pytest.approx(complex(0.01))

    def test_zf_pu_taken_verbatim(self):
        doc = parse_config({"fault": {"zf_pu": 0.25}})
        assert doc.z_f == 0.25 + 0j

    def test_custom_bases_scale_zf(self):
        doc = parse_config({
            "circuit": {"v_base_kv": 10.0, "s_base_mva": 1.0},
            "fault": {"zf_ohm": 1.0},
        })
        assert doc.z_base_ohm == pytest.approx(100.0)
        assert doc.z_f == pytest.approx(0.01 + 0j)

    def test_angles_arrive_in_radians(self):
        doc = parse_config({
            "circuit": {"theta_g_deg": 30.0},
            "current": {"fault": {"i_pos": "0.76@-30", "i_neg": "0.5@90"}},
        })
        assert doc.circuit.theta_g == pytest.approx(math.pi / 6.0)
        assert doc.ref_fault.i_pos == pytest.approx(0.76)
        assert doc.ref_fault.theta_i_pos == pytest.approx(-math.pi / 6.0)
        assert doc.ref_fault.theta_i_neg == pytest.approx(math.pi / 2.0)

    def test_frequency_propagates(self):
        doc = parse_config({"circuit": {"f_hz": 60.0}})
        assert doc.circuit.omega0 == pytest.approx(2.0 * math.pi * 60.0)


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            parse_config({"extra": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            parse_config({"circuit": {"bogus": 1.0}})

    def test_ug_given_twice(self):
        with pytest.raises(ConfigError):
            parse_config({"circuit": {"ug_pos": 1.0, "ug_kv": 110.0}})

    def test_zf_given_twice(self):
        with pytest.raises(ConfigError):
            parse_config({"fault": {"zf_pu": 0.1, "zf_ohm": 1.0}})

    def test_fault_times_ordered(self):
        with pytest.raises(ConfigError):
            parse_config({"fault": {"t_on": 1.0, "t_clear": 0.5}})
        with pytest.raises(ConfigError):
            parse_config({"fault": {"t_on": 1.0, "t_clear": 1.0}})

    def test_bad_fault_type(self):
        with pytest.raises(ConfigError):
            parse_config({"fault": {"type": "lg"}})

    def test_bad_phasor_string(self):
        with pytest.raises(ConfigError):
            parse_config({"current": {"fault": {"i_pos": "abc"}}})

    def test_negative_branch_resistance(self):
        with pytest.raises(ConfigError):
            parse_config({"circuit": {"grid": {"r": -0.1, "x": 0.2}}})

    def test_branch_requires_both_parts(self):
        with pytest.raises(ConfigError):
            parse_config({"circuit": {"grid": {"r": 0.1}}})

    def test_bad_sync_mode(self):
        with pytest.raises(ConfigError):
            parse_config({"sync": {"mode": "srf_pll"}})


class TestFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({
            "circuit": {"ug_pos": 1.0},
            "fault": {"type": "slg", "zf_pu": 0.0},
            "current": {"fault": {"i_pos": "0.3@-90"}},
        }))
        doc = load_config(str(path))
        assert doc.circuit.ug_pos == 1.0
        assert doc.fault_type is FaultType.SLG
        assert doc.z_f == 0j
        assert doc.ref_fault.i_pos == pytest.approx(0.3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestMakeFault:
    def test_requires_a_type_somewhere(self):
        doc = parse_config({})
        with pytest.raises(ConfigError):
            make_fault(doc)

    def test_document_type_used(self):
        doc = parse_config({"fault": {"type": "dlg", "t_on": 0.5, "t_clear": 2.0}})
        spec = make_fault(doc)
        assert spec.fault_type is FaultType.DLG
        assert spec.t_on == 0.5
        assert spec.t_clear == 2.0

    def test_flag_overrides_type(self):
        doc = parse_config({"fault": {"type": "dlg"}})
        assert make_fault(doc, fault_type="ll").fault_type is FaultType.LL

    def test_flag_overrides_impedance(self):
        doc = parse_config({"fault": {"type": "slg", "zf_pu": 0.5}})
        spec = make_fault(doc, zf_ohm=0.01 * Z_BASE)
        assert spec.z_f == pytest.approx(complex(0.01))

"""End-to-end tests of the command-line interface."""

import json
import math

import numpy as np
import pytest

from ibgsync import (
    CurrentReference,
    FaultSpec,
    FaultType,
    compose_paths,
    compute_coefficients,
    decoupled_limit,
    solve_equilibrium,
    table_circuit,
)
from ibgsync import dynsim, limits
from ibgsync.cli import main
from ibgsync.config import ConfigError, parse_config


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(["coeffs", "--fault", "ll", "--zf", "0"], capsys)
        assert code == 0
        assert "fault_type: ll" in out
        # a bolted line-to-line fault splits the grid source evenly
        assert "k1 = 0.5∠0°  (0.5+0j)" in out
        assert "k4 = 0.5∠0°  (0.5+0j)" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            ["coeffs", "--fault", "ll", "--zf", "0", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["fault_type"] == "ll"
        assert data["k1"]["mag"] == pytest.approx(0.5)
        assert data["k1"]["deg"] == pytest.approx(0.0)
        assert set(data) == {"fault_type", "k1", "z2", "z3", "k4", "z5", "z6"}

    def test_matches_library(self, capsys):
        code, out, _ = run_cli(["coeffs", "--fault", "slg", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        coeffs = compute_coefficients(
            compose_paths(table_circuit()),
            FaultSpec(FaultType.SLG, z_f=0.01 * 9.0 / 110.0 ** 2),
        )
        assert data["z2"]["re"] == pytest.approx(coeffs.z2.real, rel=1e-10)
        assert data["z2"]["im"] == pytest.approx(coeffs.z2.imag, rel=1e-10)


class TestEquilibrium:
    def test_found(self, capsys):
        code, out, _ = run_cli(
            ["equilibrium", "--fault", "dlg",
             "--iplus", "0.76@-30", "--iminus", "0.5@90"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["found"] is True
        circ = table_circuit()
        coeffs = compute_coefficients(
            compose_paths(circ),
            FaultSpec(FaultType.DLG, z_f=0.01 * 9.0 / 110.0 ** 2),
        )
        ref = CurrentReference(0.76, math.radians(-30.0), 0.5, math.radians(90.0))
        eq = solve_equilibrium(coeffs, ref, circ.ug_pos)
        assert data["delta_pos_deg"] == pytest.approx(
            math.degrees(eq.delta_pos), abs=1e-6
        )
        assert data["ud_pos"] == pytest.approx(eq.ud_pos, abs=1e-9)

    def test_not_found_exits_2(self, capsys):
        code, out, _ = run_cli(
            ["equilibrium", "--fault", "dlg",
             "--iplus", "0.77@-30", "--iminus", "0.5@90"], capsys
        )
        assert code == 2
        assert json.loads(out)["found"] is False

    @pytest.mark.parametrize("iplus, feedback", [
        ("0.60@90", True),  # a slope-stable root is left with ud+ <= 0
        ("0.77@-30", False),  # past the fold: no slope-stable root at all
    ])
    def test_miss_names_failed_condition(self, iplus, feedback, capsys):
        code, out, _ = run_cli(
            ["equilibrium", "--fault", "dlg",
             "--iplus", iplus, "--iminus", "0.5@90"], capsys
        )
        assert code == 2
        data = json.loads(out)
        assert data["found"] is False
        assert data["cond_feedback"] is feedback

    def test_stall_past_the_fold_is_a_miss(self, capsys):
        """0.92 lies 4e-9 past the fold, where Newton converges from no
        seed: a miss like any other, read as the fold."""
        code, out, err = run_cli(
            ["equilibrium", "--fault", "ll", "--iminus", "0.92@-20"], capsys
        )
        assert code == 2, err
        data = json.loads(out)
        assert data["found"] is False
        assert data["cond_feedback"] is False


class TestLimit:
    def test_traversal_with_fixed_other(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "-30",
             "--other", "0.5@90"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["i_limit"] == pytest.approx(0.76, abs=1e-9)
        assert data["binding"] == "type1"
        assert data["sequence"] == "pos"
        assert data["theta_i_deg"] == pytest.approx(-30.0)

    def test_step_sets_resolution(self, capsys):
        # an eighth of the default step resolves the 0.76 grid limit above
        # to the fourth decimal
        code, out, _ = run_cli(
            ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "-30",
             "--other", "0.5@90", "--step", "0.00125"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["i_limit"] == pytest.approx(0.7675, abs=1e-9)
        assert data["binding"] == "type1"

    def test_decoupled_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "-30",
             "--decoupled"], capsys
        )
        assert code == 0
        data = json.loads(out)
        circ = table_circuit()
        coeffs = compute_coefficients(
            compose_paths(circ),
            FaultSpec(FaultType.DLG, z_f=0.01 * 9.0 / 110.0 ** 2),
        )
        lim = decoupled_limit(coeffs, circ.ug_pos, "pos", math.radians(-30.0))
        assert data["i_limit"] == pytest.approx(lim.i_limit, rel=1e-10)
        assert data["binding"] == lim.binding.value


    def test_stall_confirming_a_miss_is_the_fold(self, capsys):
        # the confirm scan after the warm-start miss at 0.92 stalls; the
        # neighbours at -20.5 and -19.5 deg read 0.92 and 0.91
        code, out, err = run_cli(
            ["limit", "--fault", "ll", "--seq", "neg", "--angle", "-20"], capsys
        )
        assert code == 0, err
        data = json.loads(out)
        assert data["i_limit"] == pytest.approx(0.91, abs=1e-9)
        assert data["binding"] == "type1"


class TestRegion:
    def test_csv_contents(self, tmp_path, capsys):
        out_csv = tmp_path / "region.csv"
        code, out, _ = run_cli(
            ["region", "--fault", "dlg", "--seq", "pos",
             "--angle-step", "30", "--out", str(out_csv)], capsys
        )
        assert code == 0
        assert "wrote 12 samples" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "theta_deg,i_limit_pu,binding"
        assert len(lines) == 13
        assert lines[1].startswith("-180,")
        bindings = {row.split(",")[2] for row in lines[1:]}
        assert bindings <= {"type1", "type2", "ceiling"}

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                ["region", "--fault", "slg", "--seq", "neg",
                 "--angle-step", "45", "--out", str(path)], capsys
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_plot(self, tmp_path, capsys):
        out_csv = tmp_path / "region.csv"
        out_svg = tmp_path / "region.svg"
        code, _, _ = run_cli(
            ["region", "--fault", "dlg", "--seq", "pos", "--angle-step", "45",
             "--out", str(out_csv), "--svg", str(out_svg)], capsys
        )
        assert code == 0
        svg = out_svg.read_text()
        assert svg.startswith("<svg ")
        assert "polyline" in svg

    def test_default_step_sweep_through_a_stall(self, tmp_path, capsys):
        # -20 deg is the angle whose confirm scan stalls (TestLimit)
        out_csv = tmp_path / "region.csv"
        code, out, err = run_cli(
            ["region", "--fault", "ll", "--seq", "neg", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0, err
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 72
        assert "-20,0.91,type1" in lines

    def test_solver_options_match_limit(self, tmp_path, capsys):
        # the region sweep honours solver.ud_min just as `limit` does
        cfg = tmp_path / "solver.json"
        cfg.write_text(json.dumps({"solver": {"ud_min": 0.5}}))
        out_csv = tmp_path / "region.csv"
        code, _, _ = run_cli(
            ["--config", str(cfg), "region", "--fault", "dlg", "--seq", "pos",
             "--angle-step", "90", "--out", str(out_csv)], capsys
        )
        assert code == 0
        row = out_csv.read_text().splitlines()[4]
        assert row.startswith("90,")
        code, out, _ = run_cli(
            ["--config", str(cfg), "limit", "--fault", "dlg", "--seq", "pos",
             "--angle", "90", "--other", "0@0"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert row == f"90,{data['i_limit']:.12g},{data['binding']}"


class TestSimulate:
    def test_stable_run(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        verdict_json = tmp_path / "verdict.json"
        code, out, _ = run_cli(
            ["simulate", "--fault", "dlg", "--iplus", "0.3@-30",
             "--iminus", "0.2@90", "--t-end", "0.8",
             "--out", str(out_csv), "--verdict", str(verdict_json)], capsys
        )
        assert code == 0
        stdout_verdict = json.loads(out)
        file_verdict = json.loads(verdict_json.read_text())
        assert stdout_verdict == file_verdict
        assert file_verdict["lost"] is False
        assert file_verdict["diverged"] is False
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("t,f_pos_hz,")
        assert len(lines) == 1 + 801

    def test_unstable_run(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            ["simulate", "--fault", "dlg", "--iplus", "0.77@-30",
             "--iminus", "0.5@90", "--t-end", "1.0",
             "--out", str(out_csv)], capsys
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["lost"] is True
        assert verdict["dominant"] == "pos_type1"
        assert verdict["signature"] == "drift"

    def test_start_past_the_fold_falls_back_to_prefault(self, tmp_path,
                                                        capsys):
        """No on-fault equilibrium at 0.92@-20 (a stalled scan just past the
        fold): the run starts from the pre-fault state and is judged."""
        out_csv = tmp_path / "trace.csv"
        code, out, err = run_cli(
            ["simulate", "--fault", "ll", "--iminus", "0.92@-20",
             "--t-end", "1", "--out", str(out_csv)], capsys
        )
        assert code == 0, err
        verdict = json.loads(out)
        assert verdict["determined"] is True
        assert verdict["lost"] is True
        assert verdict["dominant"] == "neg_type1"
        assert verdict["signature"] == "drift"

    def test_horizon_inside_grace_is_undetermined(self, tmp_path, capsys):
        """A run that ends before the grace period is over is not stable."""
        out_csv = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            ["simulate", "--fault", "dlg", "--iplus", "2.0@-30",
             "--t-end", "0.5", "--out", str(out_csv)], capsys
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["determined"] is False
        assert verdict["lost"] is False
        assert verdict["dominant"] is None
        assert verdict["signature"] is None
        # the positive loop has left 50 Hz far behind by the end
        last = out_csv.read_text().splitlines()[-1].split(",")
        assert float(last[1]) > 500.0

    def test_svg_plot(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        out_svg = tmp_path / "trace.svg"
        code, _, _ = run_cli(
            ["simulate", "--fault", "slg", "--iplus", "0.3@-90",
             "--t-end", "0.2", "--out", str(out_csv), "--svg", str(out_svg)],
            capsys,
        )
        assert code == 0
        assert out_svg.read_text().startswith("<svg ")


class TestValidate:
    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(["validate", "--draws", "20"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["draws"] == 20
        assert data["max_rel_error_pos"] < 1e-9
        assert data["max_rel_error_neg"] < 1e-9


_SIMULATE_DLG = ["simulate", "--fault", "dlg", "--iplus", "0.71@-30",
                 "--iminus", "0.5@90", "--t-end", "1"]
_LIMIT_DLG = ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "-30",
              "--other", "0.5@90"]


class TestErrors:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--config", str(tmp_path / "nope.json"), "coeffs", "--fault", "slg"],
            capsys,
        )
        assert code == 1
        assert "config error" in err

    def test_argument_error_exits_1(self, capsys):
        code, _, err = run_cli(["limit", "--fault", "dlg"], capsys)
        assert code == 1
        assert "error" in err

    def test_missing_fault_type_exits_1(self, capsys):
        code, _, err = run_cli(["coeffs"], capsys)
        assert code == 1
        assert "fault type missing" in err

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--fault", "slg", "--zf", "-0.5"],
        ["equilibrium", "--fault", "dlg", "--iplus", "nan@0"],
        ["region", "--fault", "dlg", "--seq", "pos", "--angle-step", "0"],
        ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "0", "--step", "0"],
        ["simulate", "--fault", "dlg", "--dt", "0"],
        ["simulate", "--fault", "dlg", "--t-on", "2", "--t-end", "1"],
        ["validate", "--draws", "-1"],
        # non-finite sweep bounds
        ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "-30",
         "--ceiling", "inf"],
        ["region", "--fault", "dlg", "--seq", "pos", "--angle-step", "inf"],
        # non-finite config values (Python's json reads NaN and Infinity);
        # a leading dict is the config document
        [{"circuit": {"f_hz": math.nan}}, *_SIMULATE_DLG],
        [{"circuit": {"ug_pos": math.nan}}, *_LIMIT_DLG],
        [{"sync": {"kp_pll": math.nan}}, *_SIMULATE_DLG],
        [{"sync": {"k": math.inf}}, *_SIMULATE_DLG],
        [{"circuit": {"grid": {"r": math.nan, "x": 0.2}}},
         "coeffs", "--fault", "slg"],
        # non-finite solver options: NaN and inf pass the schema's bounds
        [{"solver": {"ud_min": math.nan}}, *_LIMIT_DLG],
        [{"solver": {"ud_min": math.inf}}, *_LIMIT_DLG],
        [{"solver": {"tol": math.nan}}, *_LIMIT_DLG],
        [{"solver": {"tol": math.inf}}, *_LIMIT_DLG],
        [{"solver": {"grid_deg": math.inf}}, *_LIMIT_DLG],
        # a non-finite injection angle, swept and closed-form
        ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "nan",
         "--other", "0.5@90"],
        ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "nan",
         "--other", "0.5@90", "--decoupled"],
        # bases within the schema whose impedance base is 0 or infinite
        [{"circuit": {"v_base_kv": 1e-200}}, "coeffs", "--fault", "dlg"],
        [{"circuit": {"v_base_kv": 1e200}}, "coeffs", "--fault", "dlg", "--zf", "1"],
        # runs over the step budget: 1e18 steps (and a trace buffer larger
        # than any address space), 1e298 steps that would never end, and
        # 1e300 / 1e-300, whose rounding to a step count overflowed
        ["simulate", "--fault", "dlg", "--t-end", "1e14"],
        ["simulate", "--fault", "dlg", "--t-end", "0.01", "--dt", "1e-300"],
        ["simulate", "--fault", "dlg", "--t-end", "1e300", "--dt", "1e-300"],
    ])
    def test_invalid_input_exits_1(self, argv, tmp_path, capsys):
        config = argv[0] if isinstance(argv[0], dict) else None
        if config is not None:
            argv = argv[1:]
        if argv[0] in ("region", "simulate"):
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path), *argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        [*_LIMIT_DLG, "--step", "1e-300"],
        ["region", "--fault", "dlg", "--seq", "pos", "--angle-step", "1e-12"],
    ])
    def test_unbounded_sweep_exits_1(self, argv, tmp_path, monkeypatch, capsys):
        """A sweep too fine to finish exits 1 before any equilibrium solve."""
        def solve(*args, **kwargs):
            raise AssertionError("the sweep solved before rejecting its size")
        monkeypatch.setattr(limits, "solve_equilibrium", solve)
        monkeypatch.setattr(limits, "refine_root", solve)
        if argv[0] == "region":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "amplitude points" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        [*_LIMIT_DLG[:-1], "0.5@inf"],
        ["equilibrium", "--fault", "dlg", "--iplus", "0.5@nan"],
    ])
    def test_non_finite_phasor_angle_is_named(self, argv, capsys):
        """The error names the angle, not a math domain or the amplitude."""
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "angle must be finite" in err
        assert out == ""

    def test_phasor_flag_with_digit_separator_exits_1(self, capsys):
        """A bad phasor flag is a ValueError, which main prints as a config
        error; float() alone would read 1_0@5 as 10@5."""
        code, out, err = run_cli(
            ["equilibrium", "--fault", "dlg", "--iplus", "1_0@5"], capsys)
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--record-dt", "-1"),
        ("--record-dt", "inf"),
        ("--t-end", "inf"),
        ("--dt", "inf"),
    ])
    def test_invalid_time_input_writes_no_trace(self, flag, value, tmp_path,
                                                capsys):
        out_csv = tmp_path / "trace.csv"
        code, _, err = run_cli(
            ["simulate", "--fault", "dlg", flag, value, "--out", str(out_csv)],
            capsys,
        )
        assert code == 1
        assert "config error" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("doc, argv", [
        pytest.param({"circuit": {k: {"r": 0.0, "x": 0.0} for k in (
            "choke", "t1", "t2", "l1", "l2", "grid")}},
            ["coeffs", "--fault", "slg", "--zf", "0"], id="zero-circuit"),
        # 3 z_f overflows, so the coefficients come out NaN
        *(pytest.param({"fault": {"type": fault, "zf_pu": 1e308}}, argv,
                       id=f"{fault}-zf-1e308-{argv[0]}")
          for fault in ("slg", "dlg")
          for argv in (
              ["coeffs"],
              ["equilibrium", "--iplus", "0.5@0"],
              ["limit", "--seq", "pos", "--angle", "0"],
              ["region", "--seq", "pos", "--angle-step", "90",
               "--out", "out.csv"],
              ["simulate", "--init", "prefault", "--t-end", "0.05",
               "--out", "out.csv"],
          )),
    ])
    def test_degenerate_network_exits_3(self, doc, argv, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "degenerate.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(["--config", str(cfg), *argv], capsys)
        assert code == 3
        assert "numerical failure" in err
        assert out == ""
        assert not (tmp_path / "out.csv").exists()

    def test_trace_out_of_memory_exits_1(self, tmp_path, monkeypatch, capsys):
        """A trace buffer the machine cannot allocate is a config error."""
        class NoMemory:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape):
                raise MemoryError(f"cannot allocate {shape}")
        monkeypatch.setattr(dynsim, "np", NoMemory())
        out_csv = tmp_path / "trace.csv"
        code, out, err = run_cli(
            ["simulate", "--fault", "dlg", "--t-end", "0.01",
             "--out", str(out_csv)], capsys
        )
        assert code == 1
        assert "config error: out of memory" in err
        assert out == ""
        assert not out_csv.exists()


def run_with_config(config, argv, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return run_cli(["--config", str(path), *argv], capsys)


def test_choke_is_ignored(tmp_path, capsys):
    """config circuit.choke is checked like any branch, then ignored: the
    terminal node sits between the choke and T1."""
    fat = {"circuit": {"choke": {"r": 0.5, "x": 5.0}}}
    assert parse_config(fat).circuit == parse_config({}).circuit
    argv = ["coeffs", "--fault", "dlg", "--json"]
    with_choke = run_with_config(fat, argv, tmp_path, capsys)
    assert with_choke[0] == 0
    assert with_choke == run_with_config({}, argv, tmp_path, capsys)


_SECTIONS = ("circuit", "fault", "current", "sync", "scenario", "solver")
# keys with an exclusive minimum of 0, and with a minimum of 0
_POSITIVE = (
    ("circuit", "v_base_kv"), ("circuit", "s_base_mva"), ("circuit", "f_hz"),
    ("circuit", "ug_pos"), ("circuit", "ug_kv"), ("fault", "t_clear"),
    ("sync", "k"), ("scenario", "t_end"), ("scenario", "dt"),
    ("scenario", "record_dt"), ("solver", "grid_deg"), ("solver", "tol"),
    ("solver", "step"), ("solver", "ceiling"),
)
_NON_NEGATIVE = (
    ("fault", "zf_pu"), ("fault", "zf_ohm"), ("fault", "t_on"),
    ("sync", "kp_fll"), ("sync", "ki_fll"), ("sync", "kp_pll"),
    ("sync", "ki_pll"),
)
# one config per key, type and range constraint of the config format
_REJECTED = [
    {"extra": {}},
    *({section: {"extra": 1.0}} for section in _SECTIONS),
    {"current": {"fault": {"extra": "1"}}},
    *({section: 1.0} for section in _SECTIONS),
    {"current": {"fault": "0.5@30"}},
    {"circuit": {"grid": [0.04, 0.2]}},
    {"sync": {"k": True}},
    {"scenario": {"freq_adaptive_z": 1}},
    {"current": {"fault": {"i_pos": 0.5}}},
    {"circuit": {"unit": "kohm"}},
    {"fault": {"type": "lg"}},
    {"sync": {"mode": "srf_pll"}},
    {"scenario": {"init": "cold"}},
    *({section: {key: 0.0}} for section, key in _POSITIVE),
    *({section: {key: -0.5}} for section, key in _NON_NEGATIVE),
    {"circuit": {"v_base_kv": -110.0, "s_base_mva": -9.0}},
    {"circuit": {"grid": {"r": -0.5, "x": 0.2}}},
    {"circuit": {"grid": {"r": 0.04, "x": -0.5}}},
    {"circuit": {"grid": {"r": 0.04}}},
    {"circuit": {"grid": {"x": 0.2}}},
    {"circuit": {"grid": {"r": 0.04, "x": 0.2, "b": 0.0}}},
    {"current": {"fault": {"i_pos": "1_0@5"}}},
]

_BIG = int("1" * 401)  # a JSON integer too large for a float


class TestConfigRejected:
    @pytest.mark.parametrize("config", _REJECTED, ids=json.dumps)
    def test_rejected_at_load(self, config, tmp_path, capsys):
        """validate reads no config value: the load-time check rejects."""
        with pytest.raises(ConfigError):
            parse_config(config)
        code, out, err = run_with_config(
            config, ["validate", "--draws", "1"], tmp_path, capsys
        )
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("config, argv", [
        ({"scenario": {"t_end": math.nan}}, _LIMIT_DLG),
        ({"scenario": {"record_dt": math.nan}}, _LIMIT_DLG),
        ({"solver": {"step": math.nan}}, ["equilibrium", "--fault", "dlg"]),
        ({"fault": {"zf_pu": math.nan}}, ["validate", "--draws", "1"]),
        ({"solver": {"tol": _BIG}}, _LIMIT_DLG),
        ({"circuit": {"ug_pos": _BIG}}, _LIMIT_DLG),
        ({"sync": {"k": _BIG}}, _SIMULATE_DLG),
    ], ids=["t_end-nan", "record_dt-nan", "step-nan", "zf_pu-nan",
            "tol-401-digits", "ug_pos-401-digits", "k-401-digits"])
    def test_value_out_of_range_for_its_object(self, config, argv, tmp_path,
                                               capsys):
        """Rejected at load although the command never reads the value, or
        reads it as a float only after the check."""
        with pytest.raises(ConfigError):
            parse_config(config)
        if argv[0] == "simulate":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        code, out, err = run_with_config(config, argv, tmp_path, capsys)
        assert code == 1
        assert "config error" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("config, where", [
        ({"circuit": {"grid": {"r": -0.5, "x": 0.2}}},
         "config.circuit.grid: branch impedance must be"),
        ({"scenario": {"t_end": math.nan}}, "config.scenario: t_end must be"),
        ({"circuit": {"f_hz": 0}}, "config.circuit: omega0 must be"),
        # the choke, which no equation reads, is still checked
        ({"circuit": {"choke": {"r": -1, "x": 0}}},
         "config.circuit.choke: branch impedance must be"),
        ({"circuit": {"choke": {"r": 0.1}}},
         "config.circuit.choke: missing key 'x'"),
    ], ids=["grid-r-negative", "t_end-nan", "f_hz-0", "choke-r-negative",
            "choke-x-missing"])
    def test_range_error_names_the_key(self, config, where, tmp_path, capsys):
        """The built object's message, prefixed with where the value sits."""
        with pytest.raises(ConfigError) as exc:
            parse_config(config)
        assert str(exc.value).startswith(where)
        code, _, err = run_with_config(config, ["validate", "--draws", "1"],
                                       tmp_path, capsys)
        assert code == 1
        assert f"config error: {where}" in err

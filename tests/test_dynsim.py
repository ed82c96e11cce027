"""Tests for the closed-loop fault ride-through simulation."""

import dataclasses
import io
import math

import numpy as np
import pytest

from ibgsync import (
    CurrentReference,
    FaultSpec,
    FaultType,
    InstabilityType,
    Scenario,
    SyncConfig,
    compose_paths,
    compute_coefficients,
    phasor,
    run_scenario,
    solve_equilibrium,
    table_circuit,
)
from ibgsync import dynsim
from ibgsync.dynsim import (
    TRACE_COLUMNS,
    TRACE_HEADER,
    Signature,
    Trace,
    detect_los,
    initial_sync_state,
    orientation_angles,
    terminal_voltage,
    trace_to_csv,
)

ZF_PU = 7.43801652892562e-06

CIRCUIT = table_circuit()
PATHS = compose_paths(CIRCUIT)
UG = CIRCUIT.ug_pos
W0 = CIRCUIT.omega0
TG = CIRCUIT.theta_g

# double-line-to-ground references just inside and past the traversal limit
REF_HOLD = CurrentReference(0.76, math.radians(-30.0), 0.5, math.radians(90.0))
REF_FLIP = CurrentReference(0.77, math.radians(-30.0), 0.5, math.radians(90.0))
ZERO_REF = CurrentReference(0.0, 0.0, 0.0, 0.0)


def dlg_scenario(ref, t_end, **kw):
    return Scenario(
        circuit=CIRCUIT,
        fault=FaultSpec(FaultType.DLG, z_f=ZF_PU, t_on=kw.pop("t_on", 0.0),
                        t_clear=kw.pop("t_clear", math.inf)),
        ref_fault=ref,
        sync=kw.pop("sync", SyncConfig()),
        t_end=t_end,
        **kw,
    )


def synthetic_trace(t, f_pos=None, f_neg=None, ud_pos=None, ud_neg=None):
    """Flat healthy trace with optional channel overrides."""
    n = t.size
    fifty = np.full(n, 50.0)
    ones = np.full(n, 1.0)
    return Trace(
        t=t,
        f_pos_hz=fifty if f_pos is None else f_pos,
        f_neg_hz=fifty if f_neg is None else f_neg,
        theta_pos=np.zeros(n),
        theta_neg=np.zeros(n),
        ud_pos=ones if ud_pos is None else ud_pos,
        uq_pos=np.zeros(n),
        ud_neg=ones if ud_neg is None else ud_neg,
        uq_neg=np.zeros(n),
        umag_pos=ones,
        umag_neg=ones,
    )


class TestTerminalVoltage:
    def test_healthy_zero_injection(self):
        coeffs = compute_coefficients(PATHS, FaultSpec(FaultType.NONE))
        u_pos, u_neg, u = terminal_voltage(coeffs, ZERO_REF, UG, TG, 0.1, -0.2)
        assert u_pos == pytest.approx(UG * phasor(1.0, TG - math.pi / 3.0))
        assert u_neg == 0j
        assert u == pytest.approx(u_pos)

    def test_combination_identity(self):
        coeffs = compute_coefficients(PATHS, FaultSpec(FaultType.SLG, z_f=ZF_PU))
        u_pos, u_neg, u = terminal_voltage(
            coeffs, REF_HOLD, UG, 0.4, 0.4 - math.pi / 3.0, 0.4 + math.pi / 3.0
        )
        assert u == u_pos + u_neg.conjugate()

    def test_matches_coefficient_formula(self):
        coeffs = compute_coefficients(PATHS, FaultSpec(FaultType.DLG, z_f=ZF_PU))
        th_p, th_n = 0.7, -1.1
        u_pos, u_neg, _ = terminal_voltage(coeffs, REF_HOLD, UG, 0.2, th_p, th_n)
        expect_pos = (
            coeffs.k1 * UG * phasor(1.0, 0.2 - math.pi / 3.0)
            + coeffs.z2 * 0.76 * phasor(1.0, th_p + math.radians(-30.0))
            + coeffs.z3 * 0.5
            * phasor(1.0, th_n + math.radians(90.0) - 2.0 * math.pi / 3.0)
        )
        expect_neg = (
            coeffs.k4 * UG * phasor(1.0, 0.2 + math.pi / 3.0)
            + coeffs.z5 * 0.5 * phasor(1.0, th_n + math.radians(90.0))
            + coeffs.z6 * 0.76
            * phasor(1.0, th_p + math.radians(-30.0) + 2.0 * math.pi / 3.0)
        )
        assert u_pos == pytest.approx(expect_pos, abs=1e-15)
        assert u_neg == pytest.approx(expect_neg, abs=1e-15)


class TestOrientationAngles:
    def test_definition(self):
        dp, dn = orientation_angles(
            0.25 + TG - math.pi / 3.0, -0.4 + TG + math.pi / 3.0, TG
        )
        assert dp == pytest.approx(0.25)
        assert dn == pytest.approx(-0.4)

    def test_wraps_unwound_angles(self):
        theta_g = TG + 100.0 * W0
        dp, dn = orientation_angles(
            theta_g - math.pi / 3.0 + 6.0 * math.pi,
            theta_g + math.pi / 3.0 - 8.0 * math.pi,
            theta_g,
        )
        assert dp == pytest.approx(0.0, abs=1e-9)
        assert dn == pytest.approx(0.0, abs=1e-9)
        assert -math.pi < dp <= math.pi
        assert -math.pi < dn <= math.pi


# indices into kernels.simulate's nine-float state (layout:
# kernels._bind_deriv)
RE_UP, IM_UP, RE_UN, IM_UN, TH_P, XI_P, TH_N, XI_N, EPS = range(9)


class TestInitialSyncState:
    def test_equilibrium_init_sits_on_fault_root(self):
        sc = dlg_scenario(REF_HOLD, 1.0)
        coeffs = compute_coefficients(PATHS, sc.fault)
        eq = solve_equilibrium(coeffs, REF_HOLD, UG)
        state = initial_sync_state(sc)
        assert state[TH_P] == pytest.approx(eq.delta_pos + TG - math.pi / 3.0)
        assert state[TH_N] == pytest.approx(eq.delta_neg + TG + math.pi / 3.0)
        assert state[XI_P] == 0.0
        assert state[EPS] == 0.0

    def test_infeasible_fault_falls_back_to_prefault(self):
        sc = dlg_scenario(REF_FLIP, 1.0)
        state = initial_sync_state(sc)
        # healthy grid with zero injection settles grid-aligned
        assert state[TH_P] == pytest.approx(TG - math.pi / 3.0)
        assert complex(state[RE_UP], state[IM_UP]) == pytest.approx(
            UG * phasor(1.0, TG - math.pi / 3.0))
        assert abs(complex(state[RE_UN], state[IM_UN])) == pytest.approx(
            0.0, abs=1e-12)

    def test_prefault_init_ignores_fault_root(self):
        sc = dlg_scenario(REF_HOLD, 1.0, init="prefault")
        state = initial_sync_state(sc)
        assert state[TH_P] == pytest.approx(TG - math.pi / 3.0)
        assert abs(complex(state[RE_UP], state[IM_UP])) == pytest.approx(UG)

    def test_bare_cold_start_when_nothing_settles(self):
        sc = dlg_scenario(REF_FLIP, 1.0,
                          ref_prefault=CurrentReference(3.0, 0.0, 0.0, 0.0))
        state = initial_sync_state(sc)
        assert complex(state[RE_UP], state[IM_UP]) == 0j
        assert complex(state[RE_UN], state[IM_UN]) == 0j
        assert state[TH_P] == pytest.approx(TG - math.pi / 3.0)

    @pytest.mark.parametrize("start", ["fault_root", "prefault_root", "cold"])
    def test_returns_the_kernels_nine_floats(self, start):
        """Each start is the nine floats kernels.simulate integrates: the
        filter states at the settled terminal voltages (the clockwise one
        holding conj(u-)), the loop angles on the root, the integrators
        zero."""
        cold = start == "cold"
        prefault_ref = CurrentReference(3.0, 0.0, 0.0, 0.0) if cold else ZERO_REF
        sc = dlg_scenario(REF_HOLD if start == "fault_root" else REF_FLIP, 1.0,
                          ref_prefault=prefault_ref)
        state = initial_sync_state(sc)
        assert type(state) is tuple and len(state) == 9
        assert all(type(v) is float for v in state)
        if cold:
            up = un = 0j
            th_p, th_n = TG - math.pi / 3.0, TG + math.pi / 3.0
        else:
            fault, ref = ((sc.fault, sc.ref_fault) if start == "fault_root"
                          else (FaultSpec(FaultType.NONE), prefault_ref))
            coeffs = compute_coefficients(PATHS, fault)
            eq = solve_equilibrium(coeffs, ref, UG)
            assert eq.found
            th_p = eq.delta_pos + TG - math.pi / 3.0
            th_n = eq.delta_neg + TG + math.pi / 3.0
            up, un, _ = terminal_voltage(coeffs, ref, UG, TG, th_p, th_n)
            un = un.conjugate()
        assert state == (up.real, up.imag, un.real, un.imag,
                         th_p, 0.0, th_n, 0.0, 0.0)


class TestRunScenario:
    def test_stable_case_holds_the_equilibrium(self):
        sc = dlg_scenario(REF_HOLD, 1.0)
        trace, verdict = run_scenario(sc)
        assert not verdict.lost
        assert verdict.t_los is None
        assert trace.f_pos_hz[-1] == pytest.approx(50.0, abs=1e-4)
        assert trace.f_neg_hz[-1] == pytest.approx(50.0, abs=1e-4)
        coeffs = compute_coefficients(PATHS, sc.fault)
        eq = solve_equilibrium(coeffs, REF_HOLD, UG)
        dp, dn = orientation_angles(
            trace.theta_pos[-1], trace.theta_neg[-1], TG + W0 * trace.t[-1]
        )
        assert dp == pytest.approx(eq.delta_pos, abs=1e-5)
        assert dn == pytest.approx(eq.delta_neg, abs=1e-5)
        assert trace.ud_pos[-1] == pytest.approx(eq.ud_pos, abs=1e-5)
        assert trace.ud_neg[-1] == pytest.approx(eq.ud_neg, abs=1e-5)

    def test_small_excess_loses_synchronism(self):
        sc = dlg_scenario(REF_FLIP, 1.5)
        trace, verdict = run_scenario(sc)
        assert verdict.lost
        assert verdict.dominant is InstabilityType.POS_TYPE1
        assert verdict.signature is Signature.DRIFT
        assert verdict.t_los is not None and verdict.t_los >= 0.5
        assert not trace.diverged

    def test_nominal_frequency_follows_the_circuit(self):
        # a 60 Hz run that settles at 60 Hz must not read as a drift from 50
        circuit = dataclasses.replace(CIRCUIT, omega0=2.0 * math.pi * 60.0)
        sc = Scenario(
            circuit=circuit, fault=FaultSpec(FaultType.DLG, z_f=ZF_PU),
            ref_fault=CurrentReference(0.71, math.radians(-30.0), 0.5, math.radians(90.0)),
            t_end=1.0,
        )
        trace, verdict = run_scenario(sc)
        assert trace.f_pos_hz[-1] == pytest.approx(60.0, abs=1e-3)
        assert not verdict.lost
        assert verdict.dominant is InstabilityType.STABLE

    def test_early_clear_recovers(self):
        sc = dlg_scenario(REF_FLIP, 1.4, t_clear=0.35, ref_prefault=ZERO_REF)
        trace, verdict = run_scenario(sc)
        assert not verdict.lost
        assert trace.f_pos_hz[-1] == pytest.approx(50.0, abs=1e-3)
        assert trace.umag_pos[-1] == pytest.approx(UG, abs=1e-4)
        assert trace.umag_neg[-1] == pytest.approx(0.0, abs=1e-5)

    def test_prefault_window_settles_healthy(self):
        sc = Scenario(
            circuit=CIRCUIT,
            fault=FaultSpec(FaultType.SLG, z_f=ZF_PU, t_on=1.0),
            ref_fault=CurrentReference(0.3, math.radians(-90.0),
                                       0.2, math.radians(90.0)),
            ref_prefault=ZERO_REF,
            sync=SyncConfig(),
            t_end=1.5,
        )
        trace, verdict = run_scenario(sc)
        i_pre = np.searchsorted(trace.t, 0.9)
        i_on = np.searchsorted(trace.t, 1.4)
        assert trace.f_pos_hz[i_pre] == pytest.approx(50.0, abs=1e-4)
        assert trace.umag_pos[i_pre] == pytest.approx(UG, abs=1e-6)
        assert trace.umag_neg[i_pre] == pytest.approx(0.0, abs=1e-6)
        # fault application unbalances u
        assert trace.umag_neg[i_on] > 0.1
        assert not verdict.lost

    def test_overflow_truncates_and_forces_lost(self):
        sc = dlg_scenario(REF_FLIP, 0.5, sync=SyncConfig(kp_pll=1e6, ki_pll=0.0))
        trace, verdict = run_scenario(sc)
        assert trace.diverged
        assert verdict.lost
        assert verdict.dominant is InstabilityType.POS_TYPE1
        assert verdict.signature is Signature.DRIFT

    def test_nan_initial_state_diverges(self, monkeypatch):
        """A NaN start fails the kernel's overflow bound on the first step."""
        state = (math.nan,) + (0.0,) * 8
        monkeypatch.setattr(dynsim, "initial_sync_state", lambda sc: state)
        trace, verdict = run_scenario(dlg_scenario(REF_HOLD, 0.5))
        assert trace.diverged
        assert trace.t.tolist() == [0.0]
        assert verdict.lost and verdict.determined

    def test_overflow_verdict_stays_determined(self):
        sc = dlg_scenario(REF_FLIP, 0.5, sync=SyncConfig(kp_pll=1e6, ki_pll=0.0))
        _, verdict = run_scenario(sc)
        assert verdict.determined
        assert verdict.lost

    def test_record_grid(self):
        sc = dlg_scenario(REF_HOLD, 0.2)
        trace, _ = run_scenario(sc, record_dt=1e-3)
        assert trace.t.size == 201
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(0.2)
        assert np.allclose(np.diff(trace.t), 1e-3)
        for name in ("f_pos_hz", "f_neg_hz", "theta_pos", "theta_neg",
                     "ud_pos", "uq_pos", "ud_neg", "uq_neg",
                     "umag_pos", "umag_neg"):
            assert getattr(trace, name).size == trace.t.size


def test_record_interval_past_the_horizon_records_one_sample():
    """record_dt / dt beyond any float bound (1e308 / 1e-4 is inf) gives the
    first sample alone, as any stride past the last step does."""
    sc = dlg_scenario(REF_HOLD, 0.01)
    trace, _ = run_scenario(sc, record_dt=1e308)
    want, _ = run_scenario(sc, record_dt=1.0)
    assert trace.t.tolist() == want.t.tolist() == [0.0]
    assert trace.f_pos_hz.tolist() == want.f_pos_hz.tolist()


class TestDetectLos:
    T = np.arange(0.0, 2.0, 1e-3)

    def test_quiet_trace_not_lost(self):
        verdict = detect_los(synthetic_trace(self.T), 0.0, 2.0, 50.0)
        assert not verdict.lost
        assert verdict.t_los is None

    def test_frequency_drift_positive(self):
        f = np.full(self.T.size, 50.0)
        f[self.T >= 0.8] = 60.0
        verdict = detect_los(synthetic_trace(self.T, f_pos=f), 0.0, 2.0, 50.0)
        assert verdict.lost
        assert verdict.dominant is InstabilityType.POS_TYPE1
        assert verdict.signature is Signature.DRIFT
        assert verdict.t_los == pytest.approx(0.8)

    def test_negative_ud_chatter(self):
        ud = np.full(self.T.size, 1.0)
        ud[self.T >= 0.8] = -0.2
        verdict = detect_los(synthetic_trace(self.T, ud_neg=ud), 0.0, 2.0, 50.0)
        assert verdict.lost
        assert verdict.dominant is InstabilityType.NEG_TYPE2
        assert verdict.signature is Signature.CHATTER
        assert verdict.t_los == pytest.approx(0.8)

    def test_simultaneous_onset_prefers_positive_chatter(self):
        ud = np.full(self.T.size, 1.0)
        ud[self.T >= 0.8] = -0.2
        f = np.full(self.T.size, 50.0)
        f[self.T >= 0.8] = 44.0
        verdict = detect_los(
            synthetic_trace(self.T, ud_pos=ud, f_neg=f), 0.0, 2.0, 50.0
        )
        assert verdict.dominant is InstabilityType.POS_TYPE2
        assert verdict.signature is Signature.CHATTER

    # the channels in the order that breaks a tie: the override, its value
    # before and from 0.8 s on, and the verdict
    CHANNELS = (
        ("ud_pos", 1.0, -0.2, InstabilityType.POS_TYPE2, Signature.CHATTER),
        ("f_pos", 50.0, 60.0, InstabilityType.POS_TYPE1, Signature.DRIFT),
        ("ud_neg", 1.0, -0.2, InstabilityType.NEG_TYPE2, Signature.CHATTER),
        ("f_neg", 50.0, 44.0, InstabilityType.NEG_TYPE1, Signature.DRIFT),
    )

    @pytest.mark.parametrize("first, second", [
        (i, j) for i in range(4) for j in range(i + 1, 4)])
    def test_same_sample_onsets_follow_channel_order(self, first, second):
        """Two channels whose sustained runs start on the same sample: the
        one earlier in the order pos chatter, pos drift, neg chatter, neg
        drift decides, whichever it is. Positive drift against negative
        chatter is the tie that ranks once read equal."""
        overrides = {name: np.where(self.T >= 0.8, after, before)
                     for name, before, after, _, _ in (self.CHANNELS[first],
                                                       self.CHANNELS[second])}
        verdict = detect_los(synthetic_trace(self.T, **overrides), 0.0, 2.0,
                             50.0)
        assert verdict.lost
        assert verdict.t_los == pytest.approx(0.8)
        assert (verdict.dominant, verdict.signature) == self.CHANNELS[first][3:]

    def test_grace_period_excludes_early_deviation(self):
        f = np.full(self.T.size, 50.0)
        f[self.T < 0.4] = 60.0
        assert not detect_los(synthetic_trace(self.T, f_pos=f), 0.0, 2.0, 50.0).lost

    def test_short_window_not_lost(self):
        assert not detect_los(synthetic_trace(self.T), 0.0, 0.5005, 50.0).lost

    def test_window_shorter_than_sustain_is_undetermined(self):
        f = np.full(self.T.size, 50.0)
        f[self.T >= 0.5] = 900.0
        # 40 samples after the grace period, 50 needed for one sustained run
        verdict = detect_los(synthetic_trace(self.T, f_pos=f), 0.0, 0.54, 50.0)
        assert not verdict.determined
        assert not verdict.lost
        assert verdict.dominant is None and verdict.signature is None
        # one sustained run fits: the same drift is seen
        verdict = detect_los(synthetic_trace(self.T, f_pos=f), 0.0, 0.55, 50.0)
        assert verdict.determined and verdict.lost
        assert verdict.dominant is InstabilityType.POS_TYPE1

    def test_sub_sustain_blip_ignored(self):
        f = np.full(self.T.size, 50.0)
        f[(self.T >= 0.8) & (self.T < 0.84)] = 60.0
        assert not detect_los(synthetic_trace(self.T, f_pos=f), 0.0, 2.0, 50.0).lost


class TestTraceCsv:
    def test_columns_are_the_trace_array_fields(self):
        """TRACE_COLUMNS is Trace's array fields in field order, and the
        header trace_to_csv writes. The array annotations are strings, so
        the fields that run_scenario fills with arrays are checked too."""
        fields = dataclasses.fields(Trace)
        assert [f.type for f in fields] == ["np.ndarray"] * 11 + [bool]
        assert TRACE_COLUMNS == tuple(f.name for f in fields[:11])
        trace, _ = run_scenario(dlg_scenario(REF_HOLD, 0.01))
        assert tuple(f.name for f in fields if isinstance(
            getattr(trace, f.name), np.ndarray)) == TRACE_COLUMNS
        buf = io.StringIO()
        trace_to_csv(synthetic_trace(np.arange(0.0, 0.002, 1e-3)), buf)
        assert buf.getvalue().splitlines()[0].split(",") == list(TRACE_COLUMNS)

    def test_header_and_rows(self):
        trace = synthetic_trace(np.arange(0.0, 0.01, 1e-3))
        buf = io.StringIO()
        trace_to_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ("t,f_pos_hz,f_neg_hz,theta_pos,theta_neg,"
                            "ud_pos,uq_pos,ud_neg,uq_neg,umag_pos,umag_neg")
        assert len(lines) == 1 + trace.t.size
        assert all(len(row.split(",")) == 11 for row in lines[1:])

    def test_special_values_as_format_writes_them(self):
        """Each value is written as format(v, ".12g") writes it: nan, both
        infinities, -0.0, the extremes of the exponent and ordinary
        values."""
        values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300,
                  -1e300, 5e-324, 0.1, 1.0 / 3.0, 50.0, -123456.789e-7,
                  2.0**53 + 1.0]
        cols = {name: np.roll(values, k)
                for k, name in enumerate(TRACE_COLUMNS)}
        buf = io.StringIO()
        trace_to_csv(Trace(**cols), buf)
        rows = zip(*(cols[name] for name in TRACE_COLUMNS))
        want = TRACE_HEADER + "\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
        assert buf.getvalue() == want
        assert [row.split(",")[0] for row in want.splitlines()[1:8]] \
            == ["nan", "inf", "-inf", "-0", "0", "1e-300", "1e+300"]

    def test_values_round_trip(self):
        t = np.arange(0.0, 0.02, 1e-3)
        f = 50.0 + np.sin(7.0 * t)
        trace = synthetic_trace(t, f_pos=f)
        buf = io.StringIO()
        trace_to_csv(trace, buf)
        buf.seek(0)
        data = np.loadtxt(buf, delimiter=",", skiprows=1)
        assert np.allclose(data[:, 0], t, atol=1e-12)
        assert np.allclose(data[:, 1], f, atol=1e-10)


class TestScenarioValidation:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            dlg_scenario(REF_HOLD, 1.0, dt=0.0)

    def test_rejects_bad_t_end(self):
        with pytest.raises(ValueError):
            dlg_scenario(REF_HOLD, 0.0)

    def test_rejects_t_on_past_t_end(self):
        with pytest.raises(ValueError):
            dlg_scenario(REF_HOLD, 1.0, t_on=1.0)

    def test_rejects_negative_t_on(self):
        with pytest.raises(ValueError):
            dlg_scenario(REF_HOLD, 1.0, t_on=-1.0)

    def test_rejects_unknown_init(self):
        with pytest.raises(ValueError):
            dlg_scenario(REF_HOLD, 1.0, init="warm")

    @pytest.mark.parametrize("t_end, dt", [(0.01, 1e-300), (1e300, 1e-300),
                                           (4000.0, 1e-4)])
    def test_rejects_run_over_step_budget(self, t_end, dt):
        """t_end / dt is compared before rounding: 1e300 / 1e-300 is inf."""
        with pytest.raises(ValueError, match="steps"):
            dynsim.check_run_settings(t_end, dt, "equilibrium")
        with pytest.raises(ValueError, match="steps"):
            dlg_scenario(REF_HOLD, t_end, dt=dt)

    def test_fault_spec_orders_times(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultType.SLG, t_on=0.5, t_clear=0.5)

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
    SyncState,
    compose_paths,
    compute_coefficients,
    phasor,
    run_scenario,
    solve_equilibrium,
    table_circuit,
)
from ibgsync import dynsim, kernels
from ibgsync.dynsim import (
    NumericalOverflow,
    Signature,
    Trace,
    detect_los,
    initial_sync_state,
    orientation_angles,
    step,
    terminal_voltage,
    trace_to_csv,
    _kernel_args,
    _pack_state,
)
from ibgsync.synchro import SyncMode
from loop_reference import ccf_derivative, extract_dq, pll_derivatives

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


class TestStep:
    def test_equilibrium_is_fixed_point(self):
        sc = dlg_scenario(REF_HOLD, 1.0)
        state = initial_sync_state(sc)
        mag_p, mag_n = abs(state.u_hat_pos), abs(state.u_hat_neg)
        th_p = state.theta_pos
        for i in range(50):
            state = step(state, sc, i * sc.dt, sc.dt)
        assert abs(state.u_hat_pos) == pytest.approx(mag_p, abs=1e-8)
        assert abs(state.u_hat_neg) == pytest.approx(mag_n, abs=1e-8)
        # angles advance uniformly at the nominal rate
        assert state.theta_pos == pytest.approx(th_p + 50 * sc.dt * W0, abs=1e-7)
        assert state.omega_pos == pytest.approx(W0, abs=1e-6)

    def test_composes_synchronizer_ops(self):
        """One kernel step equals RK4 over the public per-block derivatives."""
        ref = CurrentReference(0.5, math.radians(-30.0), 0.3, math.radians(90.0))
        fault = FaultSpec(FaultType.SLG, z_f=ZF_PU, t_on=0.0)
        sc = Scenario(circuit=CIRCUIT, fault=fault, ref_fault=ref,
                      sync=SyncConfig(), t_end=0.1, freq_adaptive_z=False)
        coeffs = compute_coefficients(PATHS, fault)
        cfg = sc.sync

        def ops_deriv(y, t):
            st = SyncState(
                u_hat_pos=complex(y[0], y[1]), u_hat_neg=complex(y[2], y[3]),
                theta_pos=y[4], xi_pos=y[5], theta_neg=y[6], xi_neg=y[7],
                eps_fll=y[8],
            )
            dth_p, dxi_p, dth_n, dxi_n, w_p, _ = pll_derivatives(
                st, extract_dq(st), cfg, W0
            )
            st.omega_hat = w_p
            _, _, u_meas = terminal_voltage(
                coeffs, ref, UG, TG + W0 * t, y[4], y[6]
            )
            dup, dun = ccf_derivative(st, u_meas, cfg)
            return np.array([dup.real, dup.imag, dun.real, dun.imag,
                             dth_p, dxi_p, dth_n, dxi_n, 0.0])

        state = initial_sync_state(sc)
        state.theta_pos += 0.05
        y = _pack_state(state)
        dt = 1e-4
        for i in range(200):
            t = i * dt
            k1 = ops_deriv(y, t)
            k2 = ops_deriv(y + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = ops_deriv(y + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = ops_deriv(y + dt * k3, t + dt)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            state = step(state, sc, t, dt)
        assert np.max(np.abs(_pack_state(state) - y)) < 1e-12

    def test_fourth_order_convergence(self):
        sc = dlg_scenario(REF_HOLD, 1.0)

        def integrate(n):
            dt = 0.02 / n
            state = initial_sync_state(sc)
            state.theta_pos += 0.05
            for i in range(n):
                state = step(state, sc, i * dt, dt)
            return _pack_state(state)

        y_ref = integrate(256)
        e_coarse = np.max(np.abs(integrate(8) - y_ref))
        e_fine = np.max(np.abs(integrate(16) - y_ref))
        # halving dt should shrink the error about 16x
        assert 8.0 < e_coarse / e_fine < 40.0

    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_frequency_outputs_are_end_state_derivative(self, mode):
        sc = dlg_scenario(REF_FLIP, 1.0, sync=SyncConfig(mode=SyncMode(mode)))
        state = initial_sync_state(sc)
        state.theta_pos += 0.05
        state.eps_fll = 1e-3
        t, dt = 0.0123, 1e-4
        out = step(state, sc, t, dt)
        (code, zf, paths, ug, theta_g0, w0, _, ref_on, gains, mode_fll,
         adaptive) = _kernel_args(sc)
        y = _pack_state(out)
        dy = kernels.deriv_eval(y, t + dt, code, zf, paths, ug, theta_g0, w0,
                                ref_on, gains, mode_fll, adaptive)
        if mode_fll:
            omega_hat = w0 + gains[3] * dy[8] + gains[4] * y[8]
        else:
            omega_hat = dy[4]
        assert out.omega_pos == pytest.approx(dy[4], rel=1e-12)
        assert out.omega_neg == pytest.approx(dy[6], rel=1e-12)
        assert out.omega_hat == pytest.approx(omega_hat, rel=1e-12)
        # the outputs move with the state: the check is not trivially W0
        assert abs(out.omega_pos - W0) > 1e-3

    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_steps_reproduce_run_scenario(self, mode):
        """Stepping from t = i*dt lands on run_scenario's recorded angles bit
        for bit, through a fault that switches on and clears mid-run."""
        n, dt = 40, 1e-4
        sc = dlg_scenario(REF_FLIP, n * dt, t_on=1e-3, t_clear=2e-3,
                          sync=SyncConfig(mode=SyncMode(mode)), dt=dt)
        trace, _ = run_scenario(sc, record_dt=dt)
        state = initial_sync_state(sc)
        for i in range(n):
            state = step(state, sc, i * dt, dt)
            assert state.theta_pos == trace.theta_pos[i + 1]
            assert state.theta_neg == trace.theta_neg[i + 1]

    def test_step_ending_at_clear_sees_the_fault_off(self):
        """A step from 0.0019 s ends at t_clear = 0.002 s, where the fault is
        off: its FLL frequency outputs are the healthy derivative there."""
        sc = dlg_scenario(REF_FLIP, 1.0, t_on=1e-3, t_clear=2e-3,
                          sync=SyncConfig(mode=SyncMode.DSOGI_FLL))
        state = initial_sync_state(sc)
        state.theta_pos += 0.05
        t, dt = 0.0019, 1e-4
        out = step(state, sc, t, dt)
        (_, zf, paths, ug, theta_g0, w0, ref_pre, _, gains, mode_fll,
         adaptive) = _kernel_args(sc)
        y = _pack_state(out)
        dy = kernels.deriv_eval(y, t + dt, kernels.FAULT_NONE, zf, paths, ug,
                                theta_g0, w0, ref_pre, gains, mode_fll, adaptive)
        assert out.omega_pos == dy[4]
        assert out.omega_neg == dy[6]
        assert out.omega_hat == w0 + gains[3] * dy[8] + gains[4] * y[8]

    def test_overflow_raises(self):
        sc = dlg_scenario(REF_HOLD, 1.0)
        state = SyncState(u_hat_pos=complex(2e6, 0.0), omega_hat=W0,
                          omega_pos=W0, omega_neg=W0)
        with pytest.raises(NumericalOverflow):
            step(state, sc, 0.0, sc.dt)


class TestInitialSyncState:
    def test_equilibrium_init_sits_on_fault_root(self):
        sc = dlg_scenario(REF_HOLD, 1.0)
        coeffs = compute_coefficients(PATHS, sc.fault)
        eq = solve_equilibrium(coeffs, REF_HOLD, UG)
        state = initial_sync_state(sc)
        assert state.theta_pos == pytest.approx(eq.delta_pos + TG - math.pi / 3.0)
        assert state.theta_neg == pytest.approx(eq.delta_neg + TG + math.pi / 3.0)
        assert state.omega_pos == W0
        assert state.xi_pos == 0.0
        assert state.eps_fll == 0.0

    def test_infeasible_fault_falls_back_to_prefault(self):
        sc = dlg_scenario(REF_FLIP, 1.0)
        state = initial_sync_state(sc)
        # healthy grid with zero injection settles grid-aligned
        assert state.theta_pos == pytest.approx(TG - math.pi / 3.0)
        assert state.u_hat_pos == pytest.approx(UG * phasor(1.0, TG - math.pi / 3.0))
        assert abs(state.u_hat_neg) == pytest.approx(0.0, abs=1e-12)

    def test_prefault_init_ignores_fault_root(self):
        sc = dlg_scenario(REF_HOLD, 1.0, init="prefault")
        state = initial_sync_state(sc)
        assert state.theta_pos == pytest.approx(TG - math.pi / 3.0)
        assert abs(state.u_hat_pos) == pytest.approx(UG)

    def test_bare_cold_start_when_nothing_settles(self):
        sc = dlg_scenario(REF_FLIP, 1.0,
                          ref_prefault=CurrentReference(3.0, 0.0, 0.0, 0.0))
        state = initial_sync_state(sc)
        assert state.u_hat_pos == 0j
        assert state.u_hat_neg == 0j
        assert state.theta_pos == pytest.approx(TG - math.pi / 3.0)
        assert state.omega_hat == W0


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
        state = SyncState(u_hat_pos=complex(math.nan, 0.0), omega_hat=W0,
                          omega_pos=W0, omega_neg=W0)
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
    def test_header_and_rows(self):
        trace = synthetic_trace(np.arange(0.0, 0.01, 1e-3))
        buf = io.StringIO()
        trace_to_csv(trace, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ("t,f_pos_hz,f_neg_hz,theta_pos,theta_neg,"
                            "ud_pos,uq_pos,ud_neg,uq_neg,umag_pos,umag_neg")
        assert len(lines) == 1 + trace.t.size
        assert all(len(row.split(",")) == 11 for row in lines[1:])

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

    def test_fault_spec_orders_times(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultType.SLG, t_on=0.5, t_clear=0.5)

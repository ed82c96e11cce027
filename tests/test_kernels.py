"""Tests for the numeric kernels and their two build flavors."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibgsync import (
    CurrentReference,
    FaultSpec,
    FaultType,
    SequenceCoefficients,
    SyncConfig,
    SyncState,
    ccf_derivative,
    compose_paths,
    compute_coefficients,
    extract_dq,
    fll_adaptation,
    kernels,
    pll_derivatives,
    table_circuit,
)
from ibgsync.dynsim import TRACE_COLUMNS, Scenario, _kernel_args, terminal_voltage
from ibgsync.equilibrium import NEWTON_MAXIT, pack_params
from ibgsync.network import _path_floats
from ibgsync.synchro import SyncMode
import rk4_reference

ZF_PU = 7.43801652892562e-06

CIRCUIT = table_circuit()
PATHS = compose_paths(CIRCUIT)
PF = _path_floats(PATHS)
REF = CurrentReference(0.76, math.radians(-30.0), 0.5, math.radians(90.0))
COEFFS = compute_coefficients(PATHS, FaultSpec(FaultType.DLG, z_f=ZF_PU))
PRM = pack_params(COEFFS, REF, CIRCUIT.ug_pos)

ALL_CODES = (kernels.FAULT_NONE, kernels.FAULT_SLG, kernels.FAULT_DLG,
             kernels.FAULT_LL, kernels.FAULT_TLG)


class TestScanFlavors:
    def test_same_root(self):
        loop = kernels.scan_roots_loop(PRM, 24, 1e-10, 80, 1e-9)
        vec = kernels.scan_roots_vec(PRM, 24, 1e-10, 80, 1e-9)
        assert loop[0] and vec[0]
        assert loop[1] == pytest.approx(vec[1], abs=1e-9)
        assert loop[2] == pytest.approx(vec[2], abs=1e-9)

    def test_same_miss(self):
        ref = CurrentReference(0.77, math.radians(-30.0), 0.5, math.radians(90.0))
        prm = pack_params(COEFFS, ref, CIRCUIT.ug_pos)
        loop = kernels.scan_roots_loop(prm, 24, 1e-10, 80, 1e-9)
        vec = kernels.scan_roots_vec(prm, 24, 1e-10, 80, 1e-9)
        assert not loop[0] and not vec[0]
        # Newton still converges somewhere, just never to a qualifying root
        assert loop[4] and vec[4]
        # both report the best converged residual
        assert loop[3] == vec[3]

    @settings(max_examples=50, deadline=None)
    @given(
        amps=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
        angles=st.lists(st.floats(-math.pi, math.pi), min_size=6, max_size=6),
        ud_min=st.sampled_from([1e-9, 0.3, -1e30]),
    )
    def test_flavors_agree(self, amps, angles, ud_min):
        """Both flavors stop each seed by the same rule, so they agree on
        the flags, the root and the residual for any packed parameters."""
        prm = np.empty(12)
        prm[0::2] = amps
        prm[1::2] = angles
        loop = kernels.scan_roots_loop(prm, 12, 1e-10, NEWTON_MAXIT, ud_min)
        vec = kernels.scan_roots_vec(prm, 12, 1e-10, NEWTON_MAXIT, ud_min)
        assert (loop[0], loop[4], loop[5]) == (vec[0], vec[4], vec[5])
        assert loop[1] == pytest.approx(vec[1], abs=1e-9)
        assert loop[2] == pytest.approx(vec[2], abs=1e-9)
        assert loop[3] == vec[3]

    def test_binding_matches_build_mode(self):
        if os.environ.get("IBGSYNC_PURE_NUMPY", "") == "1":
            assert not kernels.USING_NUMBA
            assert kernels.scan_roots is kernels.scan_roots_vec
        else:
            assert kernels.USING_NUMBA


class TestMixedCoefficients:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_unit_scale_reduces_to_plain(self, code):
        plain = kernels.seq_coeffs(code, 1.0, *PF, complex(ZF_PU))
        grid = kernels.grid_column(code, PF, complex(ZF_PU))
        mixed = kernels.seq_coeffs_mixed(grid, code, 1.0, 1.0, PF,
                                         complex(ZF_PU))
        assert np.allclose(np.array(grid), np.array(plain[:6]), atol=0.0)
        assert np.allclose(np.array(mixed), np.array(plain[:6]), atol=0.0)

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_terms_track_their_own_frequency(self, code):
        """Z2/Z6 follow the positive scale, Z3/Z5 the negative, K1/K4 stay
        at the grid frequency."""
        base = kernels.seq_coeffs(code, 1.0, *PF, complex(ZF_PU))
        at_sp = kernels.seq_coeffs(code, 1.4, *PF, complex(ZF_PU))
        at_sn = kernels.seq_coeffs(code, 0.7, *PF, complex(ZF_PU))
        grid = kernels.grid_column(code, PF, complex(ZF_PU))
        k1, z2, z3, k4, z5, z6 = kernels.seq_coeffs_mixed(
            grid, code, 1.4, 0.7, PF, complex(ZF_PU)
        )
        assert k1 == base[0] and k4 == base[3]
        assert z2 == at_sp[1] and z6 == at_sp[5]
        assert z3 == at_sn[2] and z5 == at_sn[4]


class TestEvaluators:
    def test_dq_exposes_residuals(self):
        rng = np.random.default_rng(7)
        for dp, dn in rng.uniform(-math.pi, math.pi, size=(20, 2)):
            r1, r2 = kernels.residual_eval(PRM, dp, dn)
            _, uq_p, _, uq_n = kernels.dq_eval(PRM, dp, dn)
            assert uq_p == pytest.approx(r1, abs=1e-15)
            assert uq_n == pytest.approx(-r2, abs=1e-15)

    def test_evaluators_vectorize(self):
        dp = np.linspace(-3.0, 3.0, 11)
        dn = np.linspace(1.0, -2.0, 11)
        r1v, r2v = kernels.residual_eval(PRM, dp, dn)
        for i in range(dp.size):
            r1, r2 = kernels.residual_eval(PRM, dp[i], dn[i])
            assert r1v[i] == pytest.approx(r1, abs=1e-15)
            assert r2v[i] == pytest.approx(r2, abs=1e-15)

    def test_jacobian_matches_finite_differences(self):
        h = 1e-7
        rng = np.random.default_rng(11)
        for dp, dn in rng.uniform(-math.pi, math.pi, size=(10, 2)):
            j11, j12, j21, j22 = kernels.jacobian_eval(PRM, dp, dn)
            rp1, rp2 = kernels.residual_eval(PRM, dp + h, dn)
            rm1, rm2 = kernels.residual_eval(PRM, dp - h, dn)
            assert j11 == pytest.approx((rp1 - rm1) / (2 * h), abs=1e-6)
            assert j21 == pytest.approx((rp2 - rm2) / (2 * h), abs=1e-6)
            rp1, rp2 = kernels.residual_eval(PRM, dp, dn + h)
            rm1, rm2 = kernels.residual_eval(PRM, dp, dn - h)
            assert j12 == pytest.approx((rp1 - rm1) / (2 * h), abs=1e-6)
            assert j22 == pytest.approx((rp2 - rm2) / (2 * h), abs=1e-6)

    def test_newton_converges_from_nearby_seed(self):
        found, dp, dn, *_ = kernels.scan_roots_loop(PRM, 24, 1e-10, 80, 1e-9)
        assert found
        ok, dp2, dn2, res = kernels.newton_pair(PRM, dp + 0.1, dn - 0.1,
                                                1e-12, 80)
        assert ok
        assert dp2 == pytest.approx(dp, abs=1e-9)
        assert dn2 == pytest.approx(dn, abs=1e-9)
        assert res < 1e-12


def _mixed_coeffs(fault, sp, sn):
    """Coefficients with K1/K4 at the grid frequency, Z2/Z6 at sp and Z3/Z5
    at sn, each from the reference network scaled by that frequency."""
    grid, pos, neg = (compute_coefficients(compose_paths(CIRCUIT, s), fault)
                      for s in (1.0, sp, sn))
    return SequenceCoefficients(k1=grid.k1, z2=pos.z2, z3=neg.z3,
                                k4=grid.k4, z5=neg.z5, z6=pos.z6)


class TestDerivative:
    @pytest.mark.parametrize("as_arrays", [False, True],
                             ids=["tuples", "arrays"])
    @pytest.mark.parametrize("adaptive", [True, False],
                             ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_composes_public_ops(self, mode, adaptive, as_arrays):
        fault = FaultSpec(FaultType.DLG, z_f=ZF_PU)
        cfg = SyncConfig(mode=SyncMode(mode))
        sc = Scenario(circuit=CIRCUIT, fault=fault, ref_fault=REF, sync=cfg,
                      freq_adaptive_z=adaptive)
        (code, zf, paths, ug, theta_g0, w0, _, ref_on, gains, mode_fll,
         adaptive_z) = _kernel_args(sc)
        if as_arrays:
            paths, ref_on, gains = (np.array(v) for v in (paths, ref_on, gains))
        y = np.array([0.3, -0.2, 0.1, 0.05, 0.4, 0.02, -0.3, -0.01, 4e-3])
        t = 0.37
        dy = kernels.deriv_eval(y, t, code, zf, paths, ug, theta_g0, w0,
                                ref_on, gains, mode_fll, adaptive_z)

        state = SyncState(
            u_hat_pos=complex(y[0], y[1]), u_hat_neg=complex(y[2], y[3]),
            theta_pos=y[4], xi_pos=y[5], theta_neg=y[6], xi_neg=y[7],
            eps_fll=y[8],
        )
        th_p, dxi_p, th_n, dxi_n, w_p, w_n = pll_derivatives(
            state, extract_dq(state), cfg, w0)
        if not adaptive:
            sp = sn = 1.0
        elif mode_fll:
            sp = sn = (w0 + cfg.ki_fll * state.eps_fll) / w0
        else:
            sp, sn = w_p / w0, w_n / w0
        if adaptive:
            # the scaled reactances are exercised, inside the [0.2, 5] clamp
            assert 0.2 < sp < 5.0 and 0.2 < sn < 5.0
            assert abs(sp - 1.0) > 1e-3 and abs(sn - 1.0) > 1e-3
        _, _, u_meas = terminal_voltage(
            _mixed_coeffs(fault, sp, sn), REF, ug, theta_g0 + w0 * t, y[4], y[6])
        if mode_fll:
            state.omega_hat, e = fll_adaptation(state, u_meas, cfg, w0)
        else:
            state.omega_hat = w_p
        du_p, du_n = ccf_derivative(state, u_meas, cfg)
        assert dy[0] == pytest.approx(du_p.real, abs=1e-12)
        assert dy[1] == pytest.approx(du_p.imag, abs=1e-12)
        assert dy[2] == pytest.approx(du_n.real, abs=1e-12)
        assert dy[3] == pytest.approx(du_n.imag, abs=1e-12)
        if mode_fll:
            assert dy[8] == pytest.approx(e, abs=1e-12)
            # angle rates follow the filter states' instantaneous rotation
            up, un = state.u_hat_pos, state.u_hat_neg
            assert dy[4] == pytest.approx(
                (du_p * up.conjugate()).imag / abs(up) ** 2, abs=1e-9)
            assert dy[6] == pytest.approx(
                -(du_n * un.conjugate()).imag / abs(un) ** 2, abs=1e-9)
            # integrator states are frozen in FLL mode
            assert dy[5] == 0.0 and dy[7] == 0.0
        else:
            assert dy[4] == pytest.approx(th_p, abs=1e-12)
            assert dy[5] == pytest.approx(dxi_p, abs=1e-12)
            assert dy[6] == pytest.approx(th_n, abs=1e-12)
            assert dy[7] == pytest.approx(dxi_n, abs=1e-12)
            assert dy[8] == 0.0


class TestSimulateRecord:
    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_recorded_rates_are_derivative_rates(self, mode):
        """f+/f- rows are deriv_eval's angle rates / 2 pi at each sample,
        across a fault that turns on mid-run."""
        sc = Scenario(
            circuit=CIRCUIT,
            fault=FaultSpec(FaultType.DLG, z_f=ZF_PU, t_on=0.0025),
            ref_fault=REF, sync=SyncConfig(mode=SyncMode(mode)), t_end=0.01,
        )
        (code, zf, paths, ug, theta_g0, w0, ref_pre, ref_on, gains,
         mode_fll, adaptive) = _kernel_args(sc)
        y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 0.0])
        dt = 1e-4
        for n in (0, 7, 24, 25, 40):
            rec = np.empty((n + 1, len(TRACE_COLUMNS)))
            rows, overflow, y, _ = kernels.simulate(
                y0.copy(), n, dt, 1, 0.0, sc.fault.t_on, sc.fault.t_clear,
                code, zf, paths, ug, theta_g0, w0, ref_pre, ref_on, gains,
                mode_fll, adaptive, rec,
            )
            assert (rows, overflow) == (n + 1, -1)
            t = n * dt
            on = sc.fault.t_on <= t
            dy = kernels.deriv_eval(
                y, t, code if on else kernels.FAULT_NONE, zf, paths, ug,
                theta_g0, w0, ref_on if on else ref_pre, gains, mode_fll,
                adaptive,
            )
            assert rec[n, 1] == pytest.approx(dy[4] / (2.0 * math.pi), rel=1e-12)
            assert rec[n, 2] == pytest.approx(dy[6] / (2.0 * math.pi), rel=1e-12)
            assert rec[n, 3] == y[4] and rec[n, 4] == y[6]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2e6],
                             ids=["nan", "inf", "-inf", "2e6"])
    @pytest.mark.parametrize("k", range(9))
    def test_nan_state_overflows_on_first_step(self, k, value):
        """NaN fails the overflow bound like a state above 1e6 does, in
        every component."""
        sc = Scenario(circuit=CIRCUIT, fault=FaultSpec(FaultType.DLG, z_f=ZF_PU),
                      ref_fault=REF, t_end=0.01)
        y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 0.0])
        y0[k] = value
        rec = np.empty((11, len(TRACE_COLUMNS)))
        rows, overflow, _, _ = kernels.simulate(
            y0, 10, 1e-4, 1, 0.0, 0.0, math.inf, *_kernel_args(sc), rec)
        assert (rows, overflow) == (1, 1)


class TestSimulateMatchesArrayForm:
    """The float-state kernel performs the array-form integrator's
    operations in the same order, so every result is bit-identical."""

    @staticmethod
    def _both(sc, y0, n, stride):
        args = (n, sc.dt, stride, 0.0, sc.fault.t_on, sc.fault.t_clear,
                *_kernel_args(sc))
        rows = n // stride + 1
        rec, rec_ref = (np.full((rows, len(TRACE_COLUMNS)), -1.0)
                        for _ in range(2))
        got = kernels.simulate(y0.copy(), *args, rec)
        want = rk4_reference.simulate(y0.copy(), *args, rec_ref)
        return got, want, rec, rec_ref

    @staticmethod
    def _assert_same(got, want, rec, rec_ref):
        (rows, overflow, y, dy), (rows_r, overflow_r, y_r, dy_r) = got, want
        assert (rows, overflow) == (rows_r, overflow_r)
        assert np.array_equal(rec, rec_ref, equal_nan=True)
        assert all(a == b for a, b in zip(y, y_r, strict=True))
        assert all(a == b for a, b in zip(dy, dy_r, strict=True))

    @pytest.mark.parametrize("fault", ["slg", "dlg", "ll", "tlg"])
    @pytest.mark.parametrize("adaptive", [True, False],
                             ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_fault_on_and_cleared_mid_run(self, mode, adaptive, fault):
        sc = Scenario(
            circuit=CIRCUIT,
            fault=FaultSpec(FaultType(fault), z_f=ZF_PU, t_on=0.01,
                            t_clear=0.03),
            ref_fault=REF, sync=SyncConfig(mode=SyncMode(mode)), t_end=0.05,
            freq_adaptive_z=adaptive,
        )
        y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 1e-3])
        got, want, rec, rec_ref = self._both(sc, y0, 500, 3)
        assert got[1] == -1
        self._assert_same(got, want, rec, rec_ref)

    def test_overflowing_run(self):
        sc = Scenario(circuit=CIRCUIT, fault=FaultSpec(FaultType.DLG, z_f=ZF_PU),
                      ref_fault=REF, t_end=0.01)
        y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 0.0])
        y0[5] = 9.9e5
        got, want, rec, rec_ref = self._both(sc, y0, 100, 1)
        assert got[1] > 0
        self._assert_same(got, want, rec, rec_ref)


class TestPureNumpyFlavor:
    def test_subprocess_matches_default_build(self):
        """The numpy-only build must reproduce coefficients and roots."""
        script = (
            "import json, math\n"
            "from ibgsync import (CurrentReference, FaultSpec, FaultType,\n"
            "    compose_paths, compute_coefficients, solve_equilibrium,\n"
            "    table_circuit)\n"
            "from ibgsync import kernels\n"
            "circ = table_circuit()\n"
            f"co = compute_coefficients(compose_paths(circ), FaultSpec(FaultType.DLG, z_f={ZF_PU!r}))\n"
            "ref = CurrentReference(0.76, math.radians(-30.0), 0.5, math.radians(90.0))\n"
            "eq = solve_equilibrium(co, ref, circ.ug_pos, grid_deg=15.0)\n"
            "print(json.dumps({'numba': kernels.USING_NUMBA,\n"
            "    'k1': [co.k1.real, co.k1.imag], 'z3': [co.z3.real, co.z3.imag],\n"
            "    'found': eq.found, 'dp': eq.delta_pos, 'dn': eq.delta_neg}))\n"
        )
        env = dict(os.environ, IBGSYNC_PURE_NUMPY="1")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout.strip().splitlines()[-1])
        assert got["numba"] is False
        assert got["k1"] == pytest.approx([COEFFS.k1.real, COEFFS.k1.imag],
                                          abs=1e-12)
        assert got["z3"] == pytest.approx([COEFFS.z3.real, COEFFS.z3.imag],
                                          abs=1e-12)
        from ibgsync import solve_equilibrium
        eq = solve_equilibrium(COEFFS, REF, CIRCUIT.ug_pos, grid_deg=15.0)
        assert got["found"] and eq.found
        assert got["dp"] == pytest.approx(eq.delta_pos, abs=1e-9)
        assert got["dn"] == pytest.approx(eq.delta_neg, abs=1e-9)

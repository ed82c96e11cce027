"""Tests for the sequence-estimating filter, FLL, and dual PLLs."""

import cmath
import math

import numpy as np
import pytest

from ibgsync import (
    SyncConfig,
    SyncMode,
    phasor,
)
from loop_reference import (SyncState, ccf_derivative, extract_dq,
                            fll_adaptation, pll_derivatives)
from rcf_reference import run_ccf, run_rcf

OMEGA0 = 2.0 * math.pi * 50.0
CFG = SyncConfig()


def make_state(u_pos=0j, u_neg=0j, theta_pos=0.0, theta_neg=0.0,
               xi_pos=0.0, xi_neg=0.0, omega_hat=OMEGA0, eps=0.0):
    return SyncState(
        u_hat_pos=u_pos, u_hat_neg=u_neg, omega_hat=omega_hat, eps_fll=eps,
        theta_pos=theta_pos, theta_neg=theta_neg, xi_pos=xi_pos,
        xi_neg=xi_neg,
    )


def unbalanced_input(u_pos, phi_pos, u_neg, phi_neg, omega=OMEGA0):
    def u(t):
        return u_pos * cmath.exp(1j * (omega * t + phi_pos)) + u_neg * cmath.exp(
            -1j * (omega * t + phi_neg)
        )
    return u


def test_config_validation():
    with pytest.raises(ValueError):
        SyncConfig(k=0.0)
    with pytest.raises(ValueError):
        SyncConfig(kp_pll=-1.0)
    assert CFG.mode is SyncMode.DSOGI_PLL
    assert CFG.k == pytest.approx(1.414)


def test_ccf_zero_error_is_pure_rotation():
    u_pos = phasor(0.9, 0.3)
    u_neg = phasor(0.2, -1.0)
    st = make_state(u_pos=u_pos, u_neg=u_neg)
    du_pos, du_neg = ccf_derivative(st, u_pos + u_neg, CFG)
    assert du_pos == pytest.approx(1j * OMEGA0 * u_pos, rel=1e-12)
    assert du_neg == pytest.approx(-1j * OMEGA0 * u_neg, rel=1e-12)
    # rotations keep the magnitudes constant
    assert (du_pos * u_pos.conjugate()).real == pytest.approx(0.0, abs=1e-9)
    assert (du_neg * u_neg.conjugate()).real == pytest.approx(0.0, abs=1e-9)


def test_ccf_shared_error_drive():
    st = make_state(u_pos=0.5 + 0j, u_neg=0.1j)
    u = 0.8 + 0.2j
    du_pos, du_neg = ccf_derivative(st, u, CFG)
    err = u - st.u_hat_pos - st.u_hat_neg
    drive = 0.5 * CFG.k * OMEGA0 * err
    assert du_pos - 1j * OMEGA0 * st.u_hat_pos == pytest.approx(drive, rel=1e-12)
    assert du_neg + 1j * OMEGA0 * st.u_hat_neg == pytest.approx(drive, rel=1e-12)


def test_fll_error_zero_when_locked():
    st = make_state(u_pos=phasor(1.0, 0.7), u_neg=phasor(0.3, -0.2), eps=0.015)
    u = st.u_hat_pos + st.u_hat_neg
    omega_hat, e = fll_adaptation(st, u, CFG, OMEGA0)
    assert e == pytest.approx(0.0, abs=1e-15)
    assert omega_hat == pytest.approx(OMEGA0 + CFG.ki_fll * 0.015, rel=1e-9)


def test_fll_degenerate_quadrature():
    st = make_state(u_pos=0.4 + 0j, u_neg=0.4 + 0j)  # V = U+ - U- = 0
    _, e = fll_adaptation(st, 1.0 + 0j, CFG, OMEGA0)
    assert e == 0.0


def test_pll_direct_substitution():
    st = make_state()
    dth_p, dxi_p, dth_n, dxi_n, w_p, w_n = pll_derivatives(
        st, (1.0, 0.01, 1.0, 0.0), CFG, OMEGA0
    )
    assert w_p == pytest.approx(OMEGA0 + 1.0)
    assert dth_p == pytest.approx(OMEGA0 + 1.0)
    assert dxi_p == 0.01
    assert w_n == pytest.approx(OMEGA0)
    assert dxi_n == 0.0


def test_pll_negative_loop_sign():
    st = make_state(xi_neg=0.002)
    _, _, dth_n, dxi_n, _, w_n = pll_derivatives(
        st, (1.0, 0.0, 1.0, 0.01), CFG, OMEGA0
    )
    assert w_n == pytest.approx(OMEGA0 - CFG.kp_pll * 0.01 - CFG.ki_pll * 0.002)
    assert dth_n == pytest.approx(w_n)
    assert dxi_n == 0.01


def test_extract_dq_aligned_frames():
    theta = 0.8
    st = make_state(u_pos=phasor(0.9, theta), theta_pos=theta)
    ud_p, uq_p, _, _ = extract_dq(st)
    assert ud_p == pytest.approx(0.9, rel=1e-12)
    assert uq_p == pytest.approx(0.0, abs=1e-12)


def test_extract_dq_negative_convention():
    # clockwise state at -theta presents ud- = U, uq- = 0 in its own frame
    theta = 0.6
    st = make_state(u_neg=phasor(0.4, -theta), theta_neg=theta)
    _, _, ud_n, uq_n = extract_dq(st)
    assert ud_n == pytest.approx(0.4, rel=1e-12)
    assert uq_n == pytest.approx(0.0, abs=1e-12)


def test_extract_dq_small_angle():
    eps = 1e-3
    st = make_state(u_pos=phasor(1.0, 0.5 + eps), theta_pos=0.5)
    _, uq_p, _, _ = extract_dq(st)
    assert uq_p == pytest.approx(eps, rel=1e-3)


def _run_pll(u_of_t, t_end, dt, cfg=CFG):
    """RK4 of the full PLL-mode loop: filter + both PLLs, center frequency
    slaved to the positive loop. Returns the state trajectory array
    [Re U+, Im U+, Re U-, Im U-, th+, xi+, th-, xi-] sampled every step."""
    n = int(round(t_end / dt))
    y = np.zeros(8)
    y[4] = 0.0
    out = np.empty((n + 1, 8))
    out[0] = y

    def deriv(state, t):
        st = SyncState(
            u_hat_pos=complex(state[0], state[1]),
            u_hat_neg=complex(state[2], state[3]),
            omega_hat=OMEGA0,
            theta_pos=state[4], xi_pos=state[5],
            theta_neg=state[6], xi_neg=state[7],
        )
        dth_p, dxi_p, dth_n, dxi_n, w_p, _ = pll_derivatives(
            st, extract_dq(st), cfg, OMEGA0
        )
        st.omega_hat = w_p
        du_p, du_n = ccf_derivative(st, u_of_t(t), cfg)
        return np.array([
            du_p.real, du_p.imag, du_n.real, du_n.imag,
            dth_p, dxi_p, dth_n, dxi_n,
        ])

    for i in range(n):
        t = i * dt
        k1 = deriv(y, t)
        k2 = deriv(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out


def test_steady_state_lock():
    """Unbalanced input at nominal frequency: amplitudes and both angles
    lock within 1e-4 after 0.5 s. The negative amplitude sets that loop's
    decay rate (kp*U/2 per second), so it must carry enough signal to
    settle inside the window."""
    u_pos, phi_pos = 0.8, 0.4
    u_neg, phi_neg = 0.5, -0.9
    dt = 1e-4
    t_end = 0.6
    traj = _run_pll(unbalanced_input(u_pos, phi_pos, u_neg, phi_neg), t_end, dt)
    for k in range(int(0.5 / dt), traj.shape[0]):
        t = k * dt
        got_pos = complex(traj[k, 0], traj[k, 1])
        got_neg = complex(traj[k, 2], traj[k, 3])
        assert abs(abs(got_pos) - u_pos) < 1e-4
        assert abs(abs(got_neg) - u_neg) < 1e-4
        err_p = math.remainder(traj[k, 4] - (OMEGA0 * t + phi_pos), 2 * math.pi)
        err_n = math.remainder(traj[k, 6] - (OMEGA0 * t + phi_neg), 2 * math.pi)
        assert abs(err_p) < 1e-4
        assert abs(err_n) < 1e-4


def test_pure_negative_input_separates():
    """Sequence separation is a filter property, so it is checked at fixed
    center frequency (a positive PLL slaved to a nonexistent positive
    signal parks the center a little off nominal by design)."""
    p, n = run_ccf(unbalanced_input(0.0, 0.0, 0.5, 0.3), 0.5, 1e-4, CFG,
                   OMEGA0)
    assert abs(p[-1]) < 1e-6
    assert abs(abs(n[-1]) - 0.5) < 1e-6


def test_phase_step_overshoots():
    """10 degree phase step: the locked positive loop overshoots the new
    angle before settling (second-order closed loop)."""
    dt = 1e-4
    step = math.radians(10.0)

    def u(t):
        phi = step if t >= 0.3 else 0.0
        return cmath.exp(1j * (OMEGA0 * t + phi))

    traj = _run_pll(u, 0.8, dt)
    errs = []
    for k in range(int(0.3 / dt), traj.shape[0]):
        t = k * dt
        errs.append(math.remainder(traj[k, 4] - (OMEGA0 * t + step), 2 * math.pi))
    errs = np.array(errs)
    assert errs[0] == pytest.approx(-step, abs=1e-3)
    assert errs.max() > 0.02 * step
    assert abs(errs[-1]) < 1e-4


def test_fll_tracks_frequency_step():
    """Balanced input 1 Hz off nominal: the adapted center frequency
    settles into a 2% band around the true offset."""
    cfg = SyncConfig(mode=SyncMode.DSOGI_FLL)
    dt = 1e-4
    t_end = 0.5
    omega_in = OMEGA0 + 2.0 * math.pi
    n = int(round(t_end / dt))
    y = np.zeros(5)

    def deriv(state, t):
        st = SyncState(
            u_hat_pos=complex(state[0], state[1]),
            u_hat_neg=complex(state[2], state[3]),
            omega_hat=OMEGA0, eps_fll=state[4],
        )
        u = cmath.exp(1j * omega_in * t)
        st.omega_hat, e = fll_adaptation(st, u, cfg, OMEGA0)
        du_p, du_n = ccf_derivative(st, u, cfg)
        return np.array([du_p.real, du_p.imag, du_n.real, du_n.imag, e])

    omega_tail = []
    for i in range(n):
        t = i * dt
        k1 = deriv(y, t)
        k2 = deriv(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if t > 0.3:
            st = SyncState(
                u_hat_pos=complex(y[0], y[1]), u_hat_neg=complex(y[2], y[3]),
                omega_hat=OMEGA0, eps_fll=y[4],
            )
            w, _ = fll_adaptation(st, cmath.exp(1j * omega_in * (t + dt)), cfg,
                                  OMEGA0)
            omega_tail.append(w)
    omega_tail = np.array(omega_tail)
    assert np.all(np.abs(omega_tail - omega_in) < 0.02 * 2.0 * math.pi)


def test_rcf_ccf_equivalence_single_case():
    """Spot check of the filter-form equivalence (full sweep lives in the
    acceptance suite)."""
    u = unbalanced_input(0.9, 0.2, 0.3, -0.7, omega=OMEGA0 * 1.01)
    p_rcf, n_rcf = run_rcf(u, 0.2, 1e-4, CFG.k, OMEGA0)
    p_ccf, n_ccf = run_ccf(u, 0.2, 1e-4, CFG, OMEGA0)
    assert np.max(np.abs(p_rcf - p_ccf)) < 1e-9
    assert np.max(np.abs(n_rcf - n_ccf)) < 1e-9


def test_rcf_ccf_equivalence_with_adaptation():
    u = unbalanced_input(0.8, -0.4, 0.2, 1.1, omega=OMEGA0 * 0.99)
    p_rcf, n_rcf = run_rcf(u, 0.2, 1e-4, CFG.k, OMEGA0,
                           kp_fll=CFG.kp_fll, ki_fll=CFG.ki_fll, adapt=True)
    p_ccf, n_ccf = run_ccf(u, 0.2, 1e-4, CFG, OMEGA0, adapt=True)
    assert np.max(np.abs(p_rcf - p_ccf)) < 1e-9
    assert np.max(np.abs(n_rcf - n_ccf)) < 1e-9

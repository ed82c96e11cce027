"""Real-coefficient DSOGI reference used only by the tests.

Two per-axis band-pass/quadrature integrator pairs plus the linear
sequence-calculation map. Related to the package's complex-coefficient
filter by the exact change of variables u_pos = (U + jQ)/2,
u_neg = (U - jQ)/2, so trajectories must agree to integration roundoff.
run_ccf drives the package form through the same integrator for the
side-by-side comparison.
"""

import numpy as np

from ibgsync import SyncConfig
from loop_reference import SyncState, ccf_derivative, fll_adaptation

__all__ = ["rcf_derivative", "rcf_sequences", "run_rcf", "run_ccf"]


def rcf_derivative(y: np.ndarray, u: complex, k: float, omega: float) -> np.ndarray:
    """State derivative of the two real SOGI sections.

    Layout: [v_a, q_a, v_b, q_b] where v is the band-pass output and q its
    quadrature companion, one pair per axis.
    """
    va, qa, vb, qb = y
    return np.array([
        k * omega * (u.real - va) - omega * qa,
        omega * va,
        k * omega * (u.imag - vb) - omega * qb,
        omega * vb,
    ])


def rcf_sequences(y: np.ndarray) -> tuple[complex, complex]:
    """Sequence estimates (counterclockwise, clockwise) from filter states."""
    va, qa, vb, qb = y
    u_hat = complex(va, vb)
    q_hat = complex(qa, qb)
    return 0.5 * (u_hat + 1j * q_hat), 0.5 * (u_hat - 1j * q_hat)


def _center_freq(y5: np.ndarray, u: complex, omega0: float,
                 kp: float, ki: float) -> tuple[float, float]:
    """Adapted center frequency and its error term, real-coefficient form.

    e = Im[(u - U)*conj(V)] with U = v_a + j*v_b and V = j*(q_a + j*q_b).
    """
    va, qa, vb, qb = y5[:4]
    u_hat = complex(va, vb)
    v_hat = 1j * complex(qa, qb)
    e = ((u - u_hat) * v_hat.conjugate()).imag
    return omega0 + kp * e + ki * y5[4], e


def run_rcf(u_of_t, t_end: float, dt: float, k: float, omega0: float,
            kp_fll: float = 0.0, ki_fll: float = 0.0,
            adapt: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """RK4 trajectory of the real-coefficient form.

    Returns (u_pos, u_neg) complex arrays sampled at every step including
    t = 0. With adapt=False the center frequency stays at omega0.
    """
    n = int(round(t_end / dt))
    y = np.zeros(5)
    out_p = np.empty(n + 1, dtype=complex)
    out_n = np.empty(n + 1, dtype=complex)
    out_p[0], out_n[0] = rcf_sequences(y[:4])

    def deriv(state, t):
        u = u_of_t(t)
        if adapt:
            omega, e = _center_freq(state, u, omega0, kp_fll, ki_fll)
        else:
            omega, e = omega0, 0.0
        d = np.empty(5)
        d[:4] = rcf_derivative(state[:4], u, k, omega)
        d[4] = e
        return d

    for i in range(n):
        t = i * dt
        k1 = deriv(y, t)
        k2 = deriv(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out_p[i + 1], out_n[i + 1] = rcf_sequences(y[:4])
    return out_p, out_n


def run_ccf(u_of_t, t_end: float, dt: float, cfg: SyncConfig, omega0: float,
            adapt: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """RK4 trajectory of the package's complex-coefficient form.

    Same sampling contract as run_rcf so the two can be compared
    elementwise.
    """
    n = int(round(t_end / dt))
    y = np.zeros(5)
    out_p = np.empty(n + 1, dtype=complex)
    out_n = np.empty(n + 1, dtype=complex)
    out_p[0] = out_n[0] = 0j

    def deriv(state, t):
        u = u_of_t(t)
        st = SyncState(
            u_hat_pos=complex(state[0], state[1]),
            u_hat_neg=complex(state[2], state[3]),
            omega_hat=omega0,
            eps_fll=state[4],
        )
        e = 0.0
        if adapt:
            st.omega_hat, e = fll_adaptation(st, u, cfg, omega0)
        du_p, du_n = ccf_derivative(st, u, cfg)
        return np.array([du_p.real, du_p.imag, du_n.real, du_n.imag, e])

    for i in range(n):
        t = i * dt
        k1 = deriv(y, t)
        k2 = deriv(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out_p[i + 1] = complex(y[0], y[1])
        out_n[i + 1] = complex(y[2], y[3])
    return out_p, out_n

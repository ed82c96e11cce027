"""Array-form closed-loop RK4 integrator used only by the tests.

The integrator as it was before the kernel moved its state onto Python
floats: the state is a numpy 9-vector, every stage is a vector expression
(``y + 0.5*dt*k1v``), and each derivative fills an ``np.empty(9)`` after
evaluating the grid-frequency column afresh. The kernel writes the same
operations per component, so ``kernels.simulate`` must match it exactly.
The coefficient column is this module's own written-out ``seq_coeffs``, not
the kernel's, so a change in the bits of the kernel's column shows too.
"""

import cmath
import math

import numpy as np

from ibgsync.kernels import FaultType

__all__ = ["seq_coeffs", "simulate"]


def seq_coeffs(code, s, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf):
    """Evaluate one coefficient column at frequency scale s.

    Returns (k1, z2, z3, k4, z5, z6, denom); reactive parts scale with s,
    the fault impedance does not. Each term is written out in full, so the
    column does not depend on the kernel's form of it.
    """
    p = rg + 1j * (s * xg)
    p0 = rg0 + 1j * (s * xg0)
    el = rl + 1j * (s * xl)
    el0 = rl0 + 1j * (s * xl0)
    q = p0 * el0 / (p0 + el0)
    f = zf
    if code is FaultType.SLG:
        d = 2.0 * p + q + 3.0 * f
        k1 = (p + q + 3.0 * f) / d
        z2 = p * (p + q + 3.0 * f) / d + el
        z3 = -p * p / d
        k4 = -p / d
        z5 = z2
        z6 = z3
    elif code is FaultType.DLG:
        d = p + 2.0 * q + 6.0 * f
        k1 = (q + 3.0 * f) / d
        z2 = p * (q + 3.0 * f) / d + el
        z3 = p * (q + 3.0 * f) / d
        k4 = k1
        z5 = z2
        z6 = z3
    elif code is FaultType.LL:
        d = 2.0 * p + f
        k1 = (p + f) / d
        z2 = p * (p + f) / d + el
        z3 = p * p / d
        k4 = p / d
        z5 = z2
        z6 = z3
    elif code is FaultType.TLG:
        d = p + f
        k1 = f / d
        z2 = p * f / d + el
        z3 = 0.0 + 0.0j
        k4 = 0.0 + 0.0j
        z5 = 0.0 + 0.0j
        z6 = 0.0 + 0.0j
    else:
        d = 1.0 + 0.0j
        k1 = 1.0 + 0.0j
        z2 = p + el
        z3 = 0.0 + 0.0j
        k4 = 0.0 + 0.0j
        z5 = p + el
        z6 = 0.0 + 0.0j
    return k1, z2, z3, k4, z5, z6, d


def seq_coeffs_mixed(code, sp, sn, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf):
    """Coefficients with the mixed frequency convention: K1/K4 at the grid
    frequency, Z2/Z6 at the positive estimate, Z3/Z5 at the negative one."""
    k1, z2, z3, k4, z5, z6, _ = seq_coeffs(
        code, 1.0, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf
    )
    if sp != 1.0:
        _, z2, _, _, _, z6, _ = seq_coeffs(
            code, sp, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf
        )
    if sn != 1.0:
        _, _, z3, _, z5, _, _ = seq_coeffs(
            code, sn, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf
        )
    return k1, z2, z3, k4, z5, z6


def _window(t, t_on, t_clear, code, ref_pre, ref_on):
    """Fault kind and current reference in force at time t."""
    if t_on <= t < t_clear:
        return code, ref_on
    return FaultType.NONE, ref_pre


def _frames(y):
    """Filter states U+, U- and their measured components in the estimated
    frames: mp = ud+ + j uq+, mn = ud- - j uq- (clockwise frame)."""
    up = complex(float(y[0]), float(y[1]))
    un = complex(float(y[2]), float(y[3]))
    return (up, un, up * cmath.exp(-1j * float(y[4])),
            un.conjugate() * cmath.exp(-1j * float(y[6])))


def deriv(y, t, code, zf, paths, ug, theta_g0, w0, ref, gains, mode_fll,
          adaptive):
    """Time derivative of the 9-component closed-loop state, as an array."""
    up, un, mp, mn = _frames(y)
    th_p = float(y[4])
    xi_p = float(y[5])
    th_n = float(y[6])
    xi_n = float(y[7])
    eps = float(y[8])
    k_sogi = gains[0]
    kp_pll = gains[1]
    ki_pll = gains[2]
    kp_fll = gains[3]
    ki_fll = gains[4]

    uq_p = mp.imag
    uq_n = -mn.imag

    w_p = w0 + kp_pll * uq_p + ki_pll * xi_p
    w_n = w0 - kp_pll * uq_n - ki_pll * xi_n

    if adaptive:
        if mode_fll:
            sp = (w0 + ki_fll * eps) / w0
            sn = sp
        else:
            sp = w_p / w0
            sn = w_n / w0
        if sp < 0.2:
            sp = 0.2
        elif sp > 5.0:
            sp = 5.0
        if sn < 0.2:
            sn = 0.2
        elif sn > 5.0:
            sn = 5.0
    else:
        sp = 1.0
        sn = 1.0

    k1, z2, z3, k4, z5, z6 = seq_coeffs_mixed(
        code, sp, sn, paths[0], paths[1], paths[2], paths[3],
        paths[4], paths[5], paths[6], paths[7], zf,
    )

    theta_g = theta_g0 + w0 * t
    ub_p = (
        k1 * ug * cmath.exp(1j * (theta_g - math.pi / 3.0))
        + z2 * ref[0] * cmath.exp(1j * (th_p + ref[1]))
        + z3 * ref[2] * cmath.exp(1j * (th_n + ref[3] - 2.0 * math.pi / 3.0))
    )
    ub_n = (
        k4 * ug * cmath.exp(1j * (theta_g + math.pi / 3.0))
        + z5 * ref[2] * cmath.exp(1j * (th_n + ref[3]))
        + z6 * ref[0] * cmath.exp(1j * (th_p + ref[1] + 2.0 * math.pi / 3.0))
    )
    u_meas = ub_p + ub_n.conjugate()

    ec = u_meas - up - un
    if mode_fll:
        v = up - un
        e = (ec * v.conjugate()).imag
        w_c = w0 + kp_fll * e + ki_fll * eps
        d_eps = e
    else:
        w_c = w_p
        d_eps = 0.0

    dup = 1j * w_c * up + 0.5 * k_sogi * w_c * ec
    dun = -1j * w_c * un + 0.5 * k_sogi * w_c * ec

    if mode_fll:
        ap2 = up.real * up.real + up.imag * up.imag
        an2 = un.real * un.real + un.imag * un.imag
        d_th_p = (dup * up.conjugate()).imag / ap2 if ap2 > 1e-18 else w_c
        d_th_n = -(dun * un.conjugate()).imag / an2 if an2 > 1e-18 else w_c
        d_xi_p = 0.0
        d_xi_n = 0.0
    else:
        d_th_p = w_p
        d_th_n = w_n
        d_xi_p = uq_p
        d_xi_n = uq_n

    out = np.empty(9)
    out[0] = dup.real
    out[1] = dup.imag
    out[2] = dun.real
    out[3] = dun.imag
    out[4] = d_th_p
    out[5] = d_xi_p
    out[6] = d_th_n
    out[7] = d_xi_n
    out[8] = d_eps
    return out


def simulate(y, n_steps, dt, stride, t_on, t_clear, code, zf, paths, ug,
             theta_g0, w0, ref_pre, ref_on, gains, mode_fll, adaptive, rec):
    """kernels.simulate's arguments and results, with y and dy arrays."""
    n_rec = 0
    for i in range(n_steps + 1):
        t = i * dt
        code_1, ref_1 = _window(t, t_on, t_clear, code, ref_pre, ref_on)
        k1v = deriv(y, t, code_1, zf, paths, ug, theta_g0, w0, ref_1, gains,
                    mode_fll, adaptive)
        if i % stride == 0:
            up, un, mp, mn = _frames(y)
            rec[n_rec, 0] = t
            rec[n_rec, 1] = k1v[4] / (2.0 * math.pi)
            rec[n_rec, 2] = k1v[6] / (2.0 * math.pi)
            rec[n_rec, 3] = y[4]
            rec[n_rec, 4] = y[6]
            rec[n_rec, 5] = mp.real
            rec[n_rec, 6] = mp.imag
            rec[n_rec, 7] = mn.real
            rec[n_rec, 8] = -mn.imag
            rec[n_rec, 9] = abs(up)
            rec[n_rec, 10] = abs(un)
            n_rec += 1
        if i == n_steps:
            break

        t2 = t + 0.5 * dt
        code_2, ref_2 = _window(t2, t_on, t_clear, code, ref_pre, ref_on)
        code_3, ref_3 = _window(t + dt, t_on, t_clear, code, ref_pre, ref_on)
        k2v = deriv(y + 0.5 * dt * k1v, t2, code_2, zf, paths, ug, theta_g0,
                    w0, ref_2, gains, mode_fll, adaptive)
        k3v = deriv(y + 0.5 * dt * k2v, t2, code_2, zf, paths, ug, theta_g0,
                    w0, ref_2, gains, mode_fll, adaptive)
        k4v = deriv(y + dt * k3v, t + dt, code_3, zf, paths, ug, theta_g0,
                    w0, ref_3, gains, mode_fll, adaptive)
        y = y + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        # a NaN maximum fails the comparison, inf exceeds the bound
        if not np.abs(y).max() <= 1e6:
            return n_rec, i + 1, y, k1v
    return n_rec, -1, y, k1v

"""Hot numerical kernels: sequence-coefficient evaluation, equilibrium root
finding along the curve where the first orientation residual vanishes, and
the closed-loop RK4 integrator.

Every kernel is plain Python and numpy. Arrays serve only the curve
seeding of ``scan_roots``: it samples the curve with numpy array
operations, then polishes a few dozen seeds with ``_newton_pair`` and
checks their roots with ``_root_check``. Those two run on floats with
``math.sin`` and ``math.cos``, one point at a time, since numpy's ufunc
dispatch makes a single point several times slower. They take the twelve
packed parameters as the floats that ``equilibrium.pack_params`` returns
(an amplitude traversal packs them itself with ``equilibrium._pack``), so
a warm-start step touches no numpy object. They keep the operation order
of ``_residual`` and of the array oracle in ``tests/torus_reference.py``
(``jacobian_eval``, ``dq_eval``, ``root_conditions``), so both forms give
the same bits.

The closed-loop integrator runs on Python scalars from start to end: the
state is nine ``float``s, every RK4 stage state and update is written per
component in the numpy expressions' operation order, the derivative
(``_frames``, ``_deriv``) uses ``complex`` and ``cmath``, and the other
inputs arrive as tuples of floats (``dynsim._kernel_args``). Each numpy
operation costs about a microsecond, several times a Python scalar's, and
an RK4 step makes four derivative calls. So every value is computed once,
where it stops changing:

- per run, for the fault and for the healthy network: the coefficient
  column at the grid frequency (K1, K4, and every impedance at s = 1),
  which depends only on the fault code, and the products K1 ug and K4 ug;
- per stage time: the grid terms K1 ug e^{j(theta_g - pi/3)} and
  K4 ug e^{j(theta_g + pi/3)} (``_grid_terms``), three per step, since
  stages 2 and 3 share their time;
- per derivative: the columns at the frequency estimates (none with fixed
  impedances), the angle sums theta+- + theta_i+-, and the filter drive
  k/2 w_c ec that both filter rates share.

Each such value is formed by the operations, in the order, of the
written-out expression it stands in for (``_PI_3`` and ``_TWO_PI_3`` are
the quotients that expression computes), so hoisting it changes no bit of
a trace. ``tests/rk4_reference.py`` writes the integrator out in full,
coefficient column included, and the tests compare the two exactly.
"""

import cmath
import math

import numpy as np

# one build, never jitted; perfbench/run.py reads this to check its flavor
USING_NUMBA = False

# fault codes shared with the object layer
FAULT_NONE = 0
FAULT_SLG = 1
FAULT_DLG = 2
FAULT_LL = 3
FAULT_TLG = 4

# packed equilibrium parameter indices: amplitude/angle pairs of the six
# rotated voltage contributions (grid, own-current, cross-current per sequence)
P_A1, P_F1, P_B2, P_P2, P_C3, P_P3 = 0, 1, 2, 3, 4, 5
P_A4, P_F4, P_B5, P_P5, P_C6, P_P6 = 6, 7, 8, 9, 10, 11

# the +-120 degree sequence rotations, and the 60 degree offsets of the
# grid terms
_PI_3 = math.pi / 3.0
_TWO_PI_3 = 2.0 * math.pi / 3.0


def _seq_coeffs(code, s, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf):
    """Evaluate one coefficient column at frequency scale s.

    Returns (k1, z2, z3, k4, z5, z6, denom); reactive parts scale with s,
    the fault impedance does not. Each repeated subexpression is computed
    once, with the operations of its written-out form, and the zero-sequence
    parallel q only for the faults that read it (SLG, DLG).
    """
    p = rg + 1j * (s * xg)
    el = rl + 1j * (s * xl)
    f = zf
    if code == FAULT_SLG or code == FAULT_DLG:
        p0 = rg0 + 1j * (s * xg0)
        el0 = rl0 + 1j * (s * xl0)
        q = p0 * el0 / (p0 + el0)
        if code == FAULT_SLG:
            d = 2.0 * p + q + 3.0 * f
            a = p + q + 3.0 * f
            k1 = a / d
            z2 = p * a / d + el
            z3 = -p * p / d
            k4 = -p / d
        else:
            d = p + 2.0 * q + 6.0 * f
            a = q + 3.0 * f
            k1 = a / d
            z3 = p * a / d
            z2 = z3 + el
            k4 = k1
        z5 = z2
        z6 = z3
    elif code == FAULT_LL:
        d = 2.0 * p + f
        a = p + f
        k1 = a / d
        z2 = p * a / d + el
        z3 = p * p / d
        k4 = p / d
        z5 = z2
        z6 = z3
    elif code == FAULT_TLG:
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
        z5 = z2
        z6 = 0.0 + 0.0j
    return k1, z2, z3, k4, z5, z6, d


def _grid_column(code, paths, zf):
    """(K1, Z2, Z3, K4, Z5, Z6) at the grid frequency (s = 1); paths is the
    8-tuple (rl, xl, rl0, xl0, rg, xg, rg0, xg0)."""
    k1, z2, z3, k4, z5, z6, _ = _seq_coeffs(
        code, 1.0, paths[0], paths[1], paths[2], paths[3],
        paths[4], paths[5], paths[6], paths[7], zf,
    )
    return k1, z2, z3, k4, z5, z6


def _seq_coeffs_mixed(grid, code, sp, sn, paths, zf):
    """Coefficients with the mixed frequency convention: K1/K4 at the grid
    frequency, Z2/Z6 at the positive estimate sp, Z3/Z5 at the negative one
    sn. grid is code's _grid_column; a scale of 1.0 reads its impedances
    from it, and equal scales (FLL mode) share one column."""
    k1, z2, z3, k4, z5, z6 = grid
    rl, xl, rl0, xl0, rg, xg, rg0, xg0 = paths
    if sp != 1.0:
        _, z2, z3_sp, _, z5_sp, z6, _ = _seq_coeffs(
            code, sp, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf)
        if sn == sp:
            return k1, z2, z3_sp, k4, z5_sp, z6
    if sn != 1.0:
        _, _, z3, _, z5, _, _ = _seq_coeffs(
            code, sn, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf)
    return k1, z2, z3, k4, z5, z6


def _residual(prm, dp, dn):
    """q-axis residuals (r1, r2) of the two orientation equations.

    uq_pos = r1 and uq_neg = -r2; works elementwise on arrays.
    """
    r1 = (
        prm[P_A1] * np.sin(prm[P_F1] - dp)
        + prm[P_B2] * np.sin(prm[P_P2])
        + prm[P_C3] * np.sin(prm[P_P3] + dn - dp)
    )
    r2 = (
        prm[P_A4] * np.sin(prm[P_F4] - dn)
        + prm[P_B5] * np.sin(prm[P_P5])
        + prm[P_C6] * np.sin(prm[P_P6] + dp - dn)
    )
    return r1, r2


def _newton_pair(prm, dp, dn, tol, maxit):
    """Damped Newton on (r1, r2) from one seed; returns (ok, dp, dn, res).

    The seed stops when its residual drops below tol (ok) or its Jacobian
    turns singular; after maxit steps one last residual check decides.
    Runs on floats: prm is the twelve packed floats (any 12-sequence
    unpacks), and r1, r2 and the Jacobian are those of _residual and the
    array oracle's jacobian_eval (tests/torus_reference.py), in their
    operation order, from one evaluation of the four angle arguments.
    """
    a1, f1, b2, p2, c3, p3, a4, f4, b5, p5, c6, p6 = prm
    b2s = b2 * math.sin(p2)
    b5s = b5 * math.sin(p5)
    for it in range(maxit + 1):
        u1 = f1 - dp
        ux = p3 + dn - dp
        u4 = f4 - dn
        uy = p6 + dp - dn
        r1 = a1 * math.sin(u1) + b2s + c3 * math.sin(ux)
        r2 = a4 * math.sin(u4) + b5s + c6 * math.sin(uy)
        res = abs(r1) if abs(r1) > abs(r2) else abs(r2)
        if res < tol:
            return True, dp % (2.0 * math.pi), dn % (2.0 * math.pi), res
        if it == maxit:
            break
        # j12 = cx, j21 = cy
        cx = c3 * math.cos(ux)
        cy = c6 * math.cos(uy)
        j11 = -(a1 * math.cos(u1)) - cx
        j22 = -(a4 * math.cos(u4)) - cy
        det = j11 * j22 - cx * cy
        if abs(det) < 1e-14:
            return False, dp, dn, res
        sp = -(j22 * r1 - cx * r2) / det
        sn = -(-cy * r1 + j11 * r2) / det
        if sp > 0.5:
            sp = 0.5
        elif sp < -0.5:
            sp = -0.5
        if sn > 0.5:
            sn = 0.5
        elif sn < -0.5:
            sn = -0.5
        dp += sp
        dn += sn
    return False, dp % (2.0 * math.pi), dn % (2.0 * math.pi), res


def _root_check(prm, dp, dn, ud_min):
    """(feedback, qualifies, ud+, uq+, ud-, uq-) at one angle pair on
    floats. feedback: both feedback slopes are negative; qualifies:
    feedback and both d-axis voltages above ud_min. The operation order is
    that of the array oracle's root_conditions and dq_eval
    (tests/torus_reference.py). prm as for _newton_pair."""
    a1, f1, b2, p2, c3, p3, a4, f4, b5, p5, c6, p6 = prm
    u1 = f1 - dp
    ux = p3 + dn - dp
    u4 = f4 - dn
    uy = p6 + dp - dn
    cp = a1 * math.cos(u1)
    cx = c3 * math.cos(ux)
    cn = a4 * math.cos(u4)
    cy = c6 * math.cos(uy)
    ud_p = cp + b2 * math.cos(p2) + cx
    ud_n = cn + b5 * math.cos(p5) + cy
    feedback = -cp - cx < 0.0 and -cn - cy < 0.0
    qualifies = feedback and ud_p > ud_min and ud_n > ud_min
    r1 = a1 * math.sin(u1) + b2 * math.sin(p2) + c3 * math.sin(ux)
    r2 = a4 * math.sin(u4) + b5 * math.sin(p5) + c6 * math.sin(uy)
    return feedback, qualifies, ud_p, r1, ud_n, -r2


def _curve_gap(prm):
    """|B2 sin P2| - (A1 + C3), a lower bound on |r1| over the torus: the
    curve where r1 vanishes is empty when it is positive."""
    return abs(prm[P_B2] * math.sin(prm[P_P2])) - (prm[P_A1] + prm[P_C3])


def _arcsine_branches(r, phi, b):
    """Where r sin(phi - u) + b = 0 has a root u, and its two branches:
    u = phi - asin(x) and u = phi - pi + asin(x), x = -b/r."""
    on = np.abs(b) <= r
    # off the curve |b| stands in for r, so no quotient leaves [-1, 1] or
    # overflows; where r = b = 0, x = 0
    d = np.maximum(r, np.abs(b))
    s = np.arcsin(-b / np.where(d > 0.0, d, 1.0))
    return on, phi - s, phi - math.pi + s


def _cyclic_neighbours(n):
    """Index arrays of each sample's next and previous neighbour on a
    cyclic row of n samples: a[nx] is np.roll(a, -1), a[pv] np.roll(a, 1)."""
    idx = np.arange(n)
    return (idx + 1) % n, (idx - 1) % n


def _branch_seeds(r2, on, nx, pv):
    """Seed mask along one cyclic row of curve samples (on marks the
    samples on the curve): both samples around each sign change of r2, each
    local minimum of |r2| with both its neighbours, and each end of a run.
    nx, pv: the row's _cyclic_neighbours.

    A dip of r2 through zero narrower than the spacing leaves a pair of
    roots between two samples and no sign change; Newton from the sample on
    either side of the dip reaches the root on that side.
    """
    a = np.where(on, np.abs(r2), np.inf)
    pos = r2 > 0.0
    nxt = on[nx]
    flip = on & nxt & (pos != pos[nx])
    low = on & (a <= a[pv]) & (a <= a[nx])
    end = on & ~(on[pv] & nxt)
    seed = flip | flip[pv] | low | low[pv] | low[nx]
    return on & (seed | end)


def scan_roots(prm, grid_n, tol, maxit, ud_min):
    """Newton seeded along the curve where r1 vanishes; returns the
    qualifying root with the largest min(ud+, ud-). prm is the twelve
    packed floats (equilibrium.pack_params).

    For a fixed dn the two dp-terms of r1 add into one sinusoid:
    r1 = R sin(phi - dp) + b with R e^{j phi} = A1 e^{jF1} + C3 e^{j(P3+dn)}
    and b = B2 sin P2. So every root lies on the curve dp = phi - asin(x)
    or dp = phi - pi + asin(x), x = -b/R, wherever |x| <= 1. dn is sampled
    at grid_n points spaced 2 pi / grid_n apart from dn = F1 - P3, where R
    is largest (A1 + C3), so a curve too thin for the spacing still has a
    sample. Where the curve climbs steeply in dp (R small, or near the end
    of a branch) dn samples leave gaps, so the curve is also sampled the
    other way: for a fixed dp, r1 = C3 sin(dp - P3 + pi - dn)
    + A1 sin(F1 - dp) + b gives dn on two branches. Each branch is seeded
    by _branch_seeds. The samples are numpy arrays; every seed is then
    polished by _newton_pair and every root checked by _root_check, both
    on floats.

    Returns (found, dp, dn, res, any_converged, any_feedback). any_feedback
    tells whether some converged root has both feedback slopes negative,
    whatever its d-axis voltages. Among qualifying roots the one farthest
    from losing orientation, the largest min(ud+, ud-), wins (the first
    seed's on an exact tie); it gets two more Newton steps, kept if it
    still qualifies, and res is its residual. On a miss res is the best
    residual among converged seeds, or among all seeds when none converged.
    When the curve is empty the miss is returned without a Newton step and
    res is _curve_gap.
    """
    gap = _curve_gap(prm)
    if gap > 0.0:
        return False, 0.0, 0.0, gap, False, False
    a1, f1, c3, p3 = prm[P_A1], prm[P_F1], prm[P_C3], prm[P_P3]
    b = prm[P_B2] * math.sin(prm[P_P2])
    steps = np.arange(grid_n) * (2.0 * math.pi / grid_n)
    dn = (f1 - p3) + steps
    c = a1 * np.exp(1j * f1) + c3 * np.exp(1j * (p3 + dn))
    r = np.abs(c)
    phi = np.angle(c)
    # exact at the peak, so a curve that is not empty has this sample
    r[0] = a1 + c3
    phi[0] = f1
    on, dp1, dp2 = _arcsine_branches(r, phi, b)
    rows = [(dp1, dn, on), (dp2, dn, on)]
    dp = steps
    on, dn1, dn2 = _arcsine_branches(c3, dp - p3 + math.pi,
                                     a1 * np.sin(f1 - dp) + b)
    rows += [(dp, dn1, on), (dp, dn2, on)]
    nx, pv = _cyclic_neighbours(grid_n)
    seeds = []
    for dps, dns, on in rows:
        keep = _branch_seeds(_residual(prm, dps, dns)[1], on, nx, pv)
        seeds.extend(zip(dps[keep].tolist(), dns[keep].tolist()))

    best_margin = -math.inf
    conv_res = all_res = math.inf
    best = None
    any_conv = any_feedback = False
    for dp0, dn0 in seeds:
        ok, dp, dn, res = _newton_pair(prm, dp0, dn0, tol, maxit)
        if not ok:
            all_res = min(all_res, res)
            continue
        any_conv = True
        conv_res = min(conv_res, res)
        feedback, qualifies, ud_p, _, ud_n, _ = _root_check(prm, dp, dn,
                                                            ud_min)
        any_feedback = any_feedback or feedback
        if qualifies:
            margin = min(ud_p, ud_n)
            if margin > best_margin:
                best_margin, best = margin, (dp, dn, res)
    if best is not None:
        # two more steps, so the point returned does not hang on how close
        # the seed that reached the root stopped short of it; a root with a
        # condition at its threshold keeps the point that qualified
        _, dp, dn, res = _newton_pair(prm, best[0], best[1], 0.0, 2)
        if _root_check(prm, dp, dn, ud_min)[1]:
            best = (dp, dn, res)
        return True, best[0], best[1], best[2], True, True
    return (False, 0.0, 0.0, conv_res if any_conv else all_res, any_conv,
            any_feedback)


def _as_state(y):
    """The 9-component state as a tuple of floats."""
    return (float(y[0]), float(y[1]), float(y[2]), float(y[3]), float(y[4]),
            float(y[5]), float(y[6]), float(y[7]), float(y[8]))


def _frames(y):
    """Filter states U+, U- and their measured components in the estimated
    frames: mp = ud+ + j uq+, mn = ud- - j uq- (clockwise frame)."""
    up = complex(y[0], y[1])
    un = complex(y[2], y[3])
    return (up, un, up * cmath.exp(-1j * y[4]),
            un.conjugate() * cmath.exp(-1j * y[6]))


def _grid_terms(t, theta_g0, w0, k1ug, k4ug):
    """The grid's contributions K1 ug e^{j(theta_g - pi/3)} and
    K4 ug e^{j(theta_g + pi/3)} at time t, from the products K1 ug, K4 ug."""
    theta_g = theta_g0 + w0 * t
    return (k1ug * cmath.exp(1j * (theta_g - _PI_3)),
            k4ug * cmath.exp(1j * (theta_g + _PI_3)))


def _deriv(y, gp, gn, code, grid, zf, paths, w0, ref, gains, mode_fll,
           adaptive):
    """Time derivative of the 9-component closed-loop state, as a 9-tuple.

    State layout (a tuple of floats): [Re U+, Im U+, Re U-, Im U-, theta+,
    xi+, theta-, xi-, eps]. gp, gn: the grid terms at the stage time
    (_grid_terms). grid: code's _grid_column, evaluated once per run; with
    adaptive impedances only the columns at the frequency estimates are
    evaluated here (_seq_coeffs_mixed), with fixed ones the impedances are
    grid's.
    ref layout: [I+, theta_i+, I-, theta_i-].
    gains layout: [k_sogi, kp_pll, ki_pll, kp_fll, ki_fll].
    """
    up, un, mp, mn = _frames(y)
    _, _, _, _, th_p, xi_p, th_n, xi_n, eps = y
    i_p, ti_p, i_n, ti_n = ref
    k_sogi, kp_pll, ki_pll, kp_fll, ki_fll = gains

    uq_p = mp.imag
    uq_n = -mn.imag

    w_p = w0 + kp_pll * uq_p + ki_pll * xi_p
    w_n = w0 - kp_pll * uq_n - ki_pll * xi_n

    if adaptive:
        if mode_fll:
            # state-held part of the FLL frequency; breaks the loop between
            # the impedance scale and the error that depends on it
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
        _, z2, z3, _, z5, z6 = _seq_coeffs_mixed(grid, code, sp, sn, paths,
                                                 zf)
    else:
        _, z2, z3, _, z5, z6 = grid

    a_p = th_p + ti_p
    a_n = th_n + ti_n
    ub_p = (
        gp
        + z2 * i_p * cmath.exp(1j * a_p)
        + z3 * i_n * cmath.exp(1j * (a_n - _TWO_PI_3))
    )
    ub_n = (
        gn
        + z5 * i_n * cmath.exp(1j * a_n)
        + z6 * i_p * cmath.exp(1j * (a_p + _TWO_PI_3))
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

    drive = 0.5 * k_sogi * w_c * ec
    dup = 1j * w_c * up + drive
    dun = -1j * w_c * un + drive

    if mode_fll:
        # angles follow the filter states' instantaneous rotation
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

    return (dup.real, dup.imag, dun.real, dun.imag, d_th_p, d_xi_p, d_th_n,
            d_xi_n, d_eps)


def _deriv_eval(y, t, code, zf, paths, ug, theta_g0, w0, ref, gains,
                mode_fll, adaptive):
    """_deriv of any indexable 9-vector y at time t, evaluating code's grid
    column and grid terms."""
    grid = _grid_column(code, paths, zf)
    gp, gn = _grid_terms(t, theta_g0, w0, grid[0] * ug, grid[3] * ug)
    return _deriv(_as_state(y), gp, gn, code, grid, zf, paths, w0, ref,
                  gains, mode_fll, adaptive)


def _stage(y, h, k):
    """The RK4 stage state y + h*k, per component."""
    return (y[0] + h * k[0], y[1] + h * k[1], y[2] + h * k[2],
            y[3] + h * k[3], y[4] + h * k[4], y[5] + h * k[5],
            y[6] + h * k[6], y[7] + h * k[7], y[8] + h * k[8])


def _rk4_update(y, c, k1, k2, k3, k4):
    """y + c*(k1 + 2*k2 + 2*k3 + k4), per component, summed left to right."""
    return (
        y[0] + c * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        y[1] + c * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        y[2] + c * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        y[3] + c * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
        y[4] + c * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4]),
        y[5] + c * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5]),
        y[6] + c * (k1[6] + 2.0 * k2[6] + 2.0 * k3[6] + k4[6]),
        y[7] + c * (k1[7] + 2.0 * k2[7] + 2.0 * k3[7] + k4[7]),
        y[8] + c * (k1[8] + 2.0 * k2[8] + 2.0 * k3[8] + k4[8]),
    )


def simulate(y0, n_steps, dt, stride, t0, t_on, t_clear, code, zf, paths,
             ug, theta_g0, w0, ref_pre, ref_on, gains, mode_fll, adaptive,
             rec):
    """Fixed-step RK4 over [t0, t0 + n_steps*dt] with stride-decimated
    recording.

    The state y0 (any indexable 9-vector) is held as a tuple of floats. The
    fault window in force (inside [t_on, t_clear) the fault, outside
    FAULT_NONE) is a tuple of its code, current reference, grid-frequency
    column and K1 ug, K4 ug, all built once, before the first step. Every
    stage is evaluated at its absolute time (t = t0 + i*dt, t + dt/2,
    t + dt) against the window and the grid angle; stages 2 and 3 share
    their time, so a step evaluates the grid terms three times. The model
    is evaluated once per sample: the stage-1 derivative advances the state
    and gives the recorded angle rates. rec columns are in
    dynsim.TRACE_COLUMNS order. Returns (rows_written, overflow_step, y, dy)
    with y and dy 9-tuples: overflow_step = -1 when none, dy the derivative
    at the last sample evaluated (the returned y unless the run overflowed).
    """
    grid_on = _grid_column(code, paths, zf)
    grid_off = _grid_column(FAULT_NONE, paths, zf)
    on = (code, ref_on, grid_on, grid_on[0] * ug, grid_on[3] * ug)
    off = (FAULT_NONE, ref_pre, grid_off, grid_off[0] * ug, grid_off[3] * ug)
    y = _as_state(y0)
    half = 0.5 * dt
    sixth = dt / 6.0
    n_rec = 0
    for i in range(n_steps + 1):
        t = t0 + i * dt
        code_1, ref_1, grid_1, k1ug, k4ug = (
            on if t_on <= t < t_clear else off)
        gp, gn = _grid_terms(t, theta_g0, w0, k1ug, k4ug)
        k1v = _deriv(y, gp, gn, code_1, grid_1, zf, paths, w0, ref_1, gains,
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

        t2 = t + half
        code_2, ref_2, grid_2, k1ug, k4ug = (
            on if t_on <= t2 < t_clear else off)
        gp, gn = _grid_terms(t2, theta_g0, w0, k1ug, k4ug)
        k2v = _deriv(_stage(y, half, k1v), gp, gn, code_2, grid_2, zf, paths,
                     w0, ref_2, gains, mode_fll, adaptive)
        k3v = _deriv(_stage(y, half, k2v), gp, gn, code_2, grid_2, zf, paths,
                     w0, ref_2, gains, mode_fll, adaptive)
        t4 = t + dt
        code_4, ref_4, grid_4, k1ug, k4ug = (
            on if t_on <= t4 < t_clear else off)
        gp, gn = _grid_terms(t4, theta_g0, w0, k1ug, k4ug)
        k4v = _deriv(_stage(y, dt, k3v), gp, gn, code_4, grid_4, zf, paths,
                     w0, ref_4, gains, mode_fll, adaptive)
        y = _rk4_update(y, sixth, k1v, k2v, k3v, k4v)
        # every component within 1e6 in magnitude; NaN fails the comparison
        if not (abs(y[0]) <= 1e6 and abs(y[1]) <= 1e6 and abs(y[2]) <= 1e6
                and abs(y[3]) <= 1e6 and abs(y[4]) <= 1e6
                and abs(y[5]) <= 1e6 and abs(y[6]) <= 1e6
                and abs(y[7]) <= 1e6 and abs(y[8]) <= 1e6):
            return n_rec, i + 1, y, k1v
    return n_rec, -1, y, k1v


seq_coeffs = _seq_coeffs
grid_column = _grid_column
seq_coeffs_mixed = _seq_coeffs_mixed
newton_pair = _newton_pair
deriv_eval = _deriv_eval
residual_eval = _residual
root_check = _root_check

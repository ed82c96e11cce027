"""Hot numerical kernels: sequence-coefficient evaluation, equilibrium root
finding by elimination, every torus root from one sextic, and the
closed-loop RK4 integrator.

Every kernel is plain Python and numpy. Arrays serve only the sextic's
roots, the eigenvalues of its 6 x 6 companion matrix (``_roots``). The
Newton polish, the root checks and the closed-loop integrator run one point
at a time on Python floats and complexes with ``math`` and ``cmath``: a
numpy operation costs about a microsecond, several times a scalar's, and an
RK4 step makes four derivative calls. So each value is computed once, where
it stops changing: per fault window, per stage time or per derivative call.

Each such value is formed by the operations, in the order, of the
written-out expression it stands in for, so hoisting it changes no bit.
The references are written out in the tests: the array oracle of the
equilibrium kernels in ``tests/torus_reference.py`` (``residual_eval``,
``jacobian_eval``, ``dq_eval``, ``root_conditions``), and the integrator,
coefficient column included, in ``tests/rk4_reference.py``. The tests
compare both forms exactly.
"""

import cmath
import math

import numpy as np

# one build, never jitted; perfbench/run.py reads this to check its flavor
USING_NUMBA = False

# an amplitude below this is zero: the equations' form drops its term
DEGENERATE_TOL = 1e-12

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
# grid terms, as the quotients the written-out expressions compute
_PI_3 = math.pi / 3.0
_TWO_PI_3 = 2.0 * math.pi / 3.0

# the clamps of the adaptive impedances' frequency scale
_SCALE_MIN, _SCALE_MAX = 0.2, 5.0


def _column(code, paths, zf):
    """code's coefficient column as a function of the frequency scale:
    col(s) returns (k1, z2, z3, k4, z5, z6, denom). paths is the 8-tuple
    (rl, xl, rl0, xl0, rg, xg, rg0, xg0); reactive parts scale with s, the
    fault impedance does not. Each fault's rule is written here once. The
    code is dispatched on, and 3 zf and 6 zf formed, once per column; SLG
    and DLG share one body, since both read the zero-sequence parallel q,
    which the others skip. Each call computes every repeated subexpression
    once, with the operations of its written-out form.
    """
    rl, xl, rl0, xl0, rg, xg, rg0, xg0 = paths
    f = zf
    if code == FAULT_SLG or code == FAULT_DLG:
        slg = code == FAULT_SLG
        f3 = 3.0 * f
        f6 = 6.0 * f

        def col(s):
            p = rg + 1j * (s * xg)
            el = rl + 1j * (s * xl)
            p0 = rg0 + 1j * (s * xg0)
            el0 = rl0 + 1j * (s * xl0)
            q = p0 * el0 / (p0 + el0)
            if slg:
                d = 2.0 * p + q + f3
                a = p + q + f3
                z2 = p * a / d + el
                z3 = -p * p / d
                return a / d, z2, z3, -p / d, z2, z3, d
            d = p + 2.0 * q + f6
            a = q + f3
            k1 = a / d
            z3 = p * a / d
            z2 = z3 + el
            return k1, z2, z3, k1, z2, z3, d
    elif code == FAULT_LL:
        def col(s):
            p = rg + 1j * (s * xg)
            el = rl + 1j * (s * xl)
            d = 2.0 * p + f
            a = p + f
            z2 = p * a / d + el
            z3 = p * p / d
            return a / d, z2, z3, p / d, z2, z3, d
    elif code == FAULT_TLG:
        def col(s):
            p = rg + 1j * (s * xg)
            el = rl + 1j * (s * xl)
            d = p + f
            return f / d, p * f / d + el, 0j, 0j, 0j, 0j, d
    else:
        def col(s):
            p = rg + 1j * (s * xg)
            el = rl + 1j * (s * xl)
            z2 = p + el
            return 1.0 + 0j, z2, 0j, 0j, z2, 0j, 1.0 + 0j
    return col


def seq_coeffs(code, s, rl, xl, rl0, xl0, rg, xg, rg0, xg0, zf):
    """Evaluate one coefficient column at frequency scale s: code's _column
    at s, (k1, z2, z3, k4, z5, z6, denom)."""
    return _column(code, (rl, xl, rl0, xl0, rg, xg, rg0, xg0), zf)(s)


def newton_pair(prm, dp, dn, tol, maxit):
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


def root_conditions(prm, dp, dn, ud_min):
    """(feedback, qualifies, ud+, ud-) at one angle pair on floats.
    feedback: both feedback slopes are negative; qualifies: feedback and
    both d-axis voltages above ud_min. The operation order is that of the
    array oracle's root_conditions and dq_eval (tests/torus_reference.py).
    prm as for newton_pair."""
    a1, f1, b2, p2, c3, p3, a4, f4, b5, p5, c6, p6 = prm
    cp = a1 * math.cos(f1 - dp)
    cx = c3 * math.cos(p3 + dn - dp)
    cn = a4 * math.cos(f4 - dn)
    cy = c6 * math.cos(p6 + dp - dn)
    ud_p = cp + b2 * math.cos(p2) + cx
    ud_n = cn + b5 * math.cos(p5) + cy
    feedback = -cp - cx < 0.0 and -cn - cy < 0.0
    return feedback, feedback and ud_p > ud_min and ud_n > ud_min, ud_p, ud_n


def root_check(prm, dp, dn, ud_min):
    """(feedback, qualifies, ud+, uq+, ud-, uq-): root_conditions with the
    q-axis voltages uq+ = r1 and uq- = -r2, in the oracle's dq_eval order."""
    feedback, qualifies, ud_p, ud_n = root_conditions(prm, dp, dn, ud_min)
    a1, f1, b2, p2, c3, p3, a4, f4, b5, p5, c6, p6 = prm
    r1 = (a1 * math.sin(f1 - dp) + b2 * math.sin(p2)
          + c3 * math.sin(p3 + dn - dp))
    r2 = (a4 * math.sin(f4 - dn) + b5 * math.sin(p5)
          + c6 * math.sin(p6 + dp - dn))
    return feedback, qualifies, ud_p, r1, ud_n, -r2


def _curve_gap(prm):
    """The larger of |B2 sin P2| - (A1 + C3) and |B5 sin P5| - (A4 + C6),
    a lower bound on max(|r1|, |r2|) over the torus: the curve where r1 or
    r2 vanishes is empty when it is positive."""
    return max(abs(prm[P_B2] * math.sin(prm[P_P2])) - (prm[P_A1] + prm[P_C3]),
               abs(prm[P_B5] * math.sin(prm[P_P5])) - (prm[P_A4] + prm[P_C6]))


def _cross(u, v, w, z):
    """u v - w z for polynomials as coefficient lists, constant first."""
    out = [0j] * (max(len(u) + len(v), len(w) + len(z)) - 1)
    for i, p in enumerate(u):
        for k, q in enumerate(v):
            out[i + k] += p * q
    for i, p in enumerate(w):
        for k, q in enumerate(z):
            out[i + k] -= p * q
    return out


def _value(p, z):
    """The polynomial p (constant first) at z, by Horner's rule."""
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


def _roots(p):
    """The roots of p (constant first) as complexes: in closed form up to
    degree 2, else the eigenvalues of its companion matrix. Leading
    coefficients below 1e-14 of the largest are dropped first; on the unit
    circle such a term is rounding."""
    n = len(p) - 1
    top = max(map(abs, p))
    while n > 0 and abs(p[n]) <= 1e-14 * top:
        n -= 1
    if n < 2:
        return [-p[0] / p[1]] if n else []
    if n == 2:
        # the larger root with the sign that does not cancel, the other
        # from the roots' product
        s = cmath.sqrt(p[1] * p[1] - 4.0 * p[2] * p[0])
        q = -0.5 * (p[1] + (s if (p[1].conjugate() * s).real >= 0.0 else -s))
        return [q / p[2], p[0] / q] if q else [0j, 0j]
    companion = np.eye(n, k=-1, dtype=complex)
    companion[:, -1] = [-c / p[n] for c in p[:n]]
    return np.linalg.eigvals(companion).tolist()


def _eliminate(prm):
    """r1 = r2 = 0 with x = e^{j dp} eliminated: (ys, quad), the roots
    y = e^{j dn} and the quadratic in x (coefficients polynomial in y) whose
    roots at each y complete the solutions. prm as for newton_pair.

    Times 2j x y, r1 and r2 are the quadratics E1 = a x^2 + b x + c and
    E2 = d x^2 + e x + f, each coefficient a polynomial in y. Their
    resultant (af - cd)^2 - (ae - bd)(bf - ce) has degree 7 and a zero
    constant term; divided by y it is the sextic of the ys, and quad is E2:
    where E1 nearly vanishes at y the common root (af - cd) / (bd - ae)
    loses its digits, E2's roots do not. With C6 below DEGENERATE_TOL,
    E2 = x e: the ys solve e, and quad is E1. Each equation is first
    divided by its largest amplitude, which moves no root and keeps the
    products finite.
    """
    a1, f1, b2, p2, c3, p3, a4, f4, b5, p5, c6, p6 = prm
    s1, s4 = max(a1, b2, c3) or 1.0, max(a4, b5, c6) or 1.0
    g1, h3 = cmath.rect(a1 / s1, f1), cmath.rect(c3 / s1, p3)
    g4 = cmath.rect(a4 / s4, f4)
    a = [-h3.conjugate(), -g1.conjugate()]
    b = [0j, 2j * (b2 / s1 * math.sin(p2))]
    c = [0j, g1, h3]
    e = [g4, 2j * (b5 / s4 * math.sin(p5)), -g4.conjugate()]
    if c6 < DEGENERATE_TOL:
        return _roots(e), (c, b, a)
    h6 = cmath.rect(c6 / s4, p6)
    d, f = [h6], [0j, 0j, -h6.conjugate()]
    s, p, q = _cross(a, f, c, d), _cross(a, e, b, d), _cross(b, f, c, e)
    return _roots(_cross(s, s, p, q)[1:]), (f, e, d)


def scan_roots(prm, grid_n, tol, maxit, ud_min):
    """Every torus root from one sextic; returns the qualifying root with
    the largest min(ud+, ud-). prm is the twelve packed floats
    (equilibrium.pack_params). grid_n is not read; the benchmark passes it
    until its next change.

    The candidates are the roots y of _eliminate within 1e-6 of the unit
    circle, each with the roots x of its quadratic within 1e-4 of it;
    newton_pair polishes each pair of angles and root_conditions judges
    it, both on floats.

    Returns (found, dp, dn, res, any_converged, any_feedback). any_feedback
    tells whether some converged root has both feedback slopes negative,
    whatever its d-axis voltages. Among qualifying roots the one farthest
    from losing orientation, the largest min(ud+, ud-), wins (the first
    candidate's on an exact tie); it gets two more Newton steps, kept if it
    still qualifies, and res is its residual. On a miss res is _curve_gap
    when that is positive (then nothing is eliminated), else the distance
    of the nearest root y from the unit circle, min ||y| - 1|: rounding
    when some solution has a real dn, inf when there is no root.
    """
    gap = _curve_gap(prm)
    if gap > 0.0:
        return False, 0.0, 0.0, gap, False, False
    ys, quad = _eliminate(prm)
    miss = min((abs(abs(y) - 1.0) for y in ys), default=math.inf)
    best_margin, best = -math.inf, None
    any_conv = any_feedback = False
    for y in ys:
        if abs(abs(y) - 1.0) > 1e-6:
            continue
        for x in _roots([_value(q, y) for q in quad]):
            if abs(abs(x) - 1.0) > 1e-4:
                continue
            ok, dp, dn, res = newton_pair(prm, cmath.phase(x), cmath.phase(y),
                                          tol, maxit)
            if not ok:
                continue
            any_conv = True
            feedback, qualifies, ud_p, ud_n = root_conditions(prm, dp, dn,
                                                              ud_min)
            any_feedback = any_feedback or feedback
            if qualifies and min(ud_p, ud_n) > best_margin:
                best_margin, best = min(ud_p, ud_n), (dp, dn, res)
    if best is not None:
        # two more steps, so the point returned does not hang on how close
        # Newton stopped short of the root; a root with a condition at its
        # threshold keeps the point that qualified
        _, dp, dn, res = newton_pair(prm, best[0], best[1], 0.0, 2)
        if root_conditions(prm, dp, dn, ud_min)[1]:
            best = (dp, dn, res)
        return True, best[0], best[1], best[2], True, True
    return False, 0.0, 0.0, miss, any_conv, any_feedback


def _as_state(y):
    """Any indexable 9-vector as a state in the seven-value form."""
    return (complex(y[0], y[1]), complex(y[2], y[3]), *map(float, y[4:9]))


def _as_floats(s):
    """A state or derivative in the seven-value form as the nine floats."""
    return (s[0].real, s[0].imag, s[1].real, s[1].imag, *s[2:7])


def _grid_terms(t, theta_g0, w0, k1ug, k4ug):
    """The grid's contributions K1 ug e^{j(theta_g - pi/3)} and
    K4 ug e^{j(theta_g + pi/3)} at time t, from the products K1 ug, K4 ug."""
    theta_g = theta_g0 + w0 * t
    return (k1ug * cmath.rect(1.0, theta_g - _PI_3),
            k4ug * cmath.rect(1.0, theta_g + _PI_3))


def _bind_deriv(code, zf, paths, ug, w0, ref, gains, mode_fll, adaptive):
    """A fault window's (deriv, K1 ug, K4 ug), built once per window.

    State layout, the package's one definition of it: the nine floats
    [Re U+, Im U+, Re U-, Im U-, theta+, xi+, theta-, xi-, eps], with U+-
    the filter states, theta+- the loop angles, xi+- their PI integrators
    and eps the FLL integrator; outside this module the state has no other
    form. deriv and simulate's steps carry it in the seven-value form
    (U+, U-, theta+, xi+, theta-, xi-, eps), U+- complex (_as_state joins,
    _as_floats splits). deriv(y, gp, gn), the closed-loop model, returns
    the time derivative of y in that form, then the measured components in
    the estimated frames, mp = ud+ + j uq+ and mn = ud- - j uq- (clockwise
    frame). gp, gn: the grid terms at the stage time (_grid_terms, from K1
    ug and K4 ug). deriv holds the window's current reference, the gains,
    w0, the mode flags and code's _column. K1 and K4 stay at the grid
    frequency (the column at s = 1). With adaptive impedances Z2/Z6 follow
    the positive frequency estimate and Z3/Z5 the negative one (in FLL mode
    both follow the one FLL estimate): a PLL call evaluates the column at
    each of its two scales, equal or not, and an FLL call at its one, but a
    scale past a clamp reads the column formed here, once; with fixed
    impedances the grid column's impedances times their currents are formed
    here, once.
    ref layout: [I+, theta_i+, I-, theta_i-].
    gains layout: [k_sogi, kp_pll, ki_pll, kp_fll, ki_fll].

    Unit rotations e^{jx} are cmath.rect(1.0, x), the cos x and sin x that
    cmath.exp(1j * x) computes in about half the time, except at two
    inputs: rect raises on an infinite x, where exp gives NaN, so an
    infinite loop angle is read as NaN; and rect keeps the sign of
    x = -0.0, which exp drops, so theta_i+- are taken as theta_i+- + 0.0
    and no angle sum is -0.0.
    """
    col = _column(code, paths, zf)
    k1, z2, z3, k4, z5, z6, _ = col(1.0)
    lo, hi = col(_SCALE_MIN), col(_SCALE_MAX)
    i_p, ti_p, i_n, ti_n = ref
    ti_p += 0.0
    ti_n += 0.0
    k_sogi, kp_pll, ki_pll, kp_fll, ki_fll = gains
    half_k = 0.5 * k_sogi
    fixed = (z2 * i_p, z3 * i_n, z5 * i_n, z6 * i_p)

    def deriv(y, gp, gn):
        up, un, th_p, xi_p, th_n, xi_n, eps = y
        # x - x is 0.0 unless x is infinite or NaN
        if th_p - th_p + th_n - th_n != 0.0:
            if math.isinf(th_p):
                th_p = math.nan
            if math.isinf(th_n):
                th_n = math.nan
        mp = up * cmath.rect(1.0, -th_p)
        mn = un.conjugate() * cmath.rect(1.0, -th_n)

        if mode_fll:
            if adaptive:
                # state-held part of the FLL frequency; breaks the loop
                # between the impedance scale and the error that depends
                # on it; both sequences share its column
                s = (w0 + ki_fll * eps) / w0
                _, z2, z3, _, z5, z6, _ = (lo if s < _SCALE_MIN else hi
                                           if s > _SCALE_MAX else col(s))
        else:
            uq_p = mp.imag
            uq_n = -mn.imag
            w_p = w0 + kp_pll * uq_p + ki_pll * xi_p
            w_n = w0 - kp_pll * uq_n - ki_pll * xi_n
            if adaptive:
                sp = w_p / w0
                sn = w_n / w0
                _, z2, _, _, _, z6, _ = (lo if sp < _SCALE_MIN else hi
                                         if sp > _SCALE_MAX else col(sp))
                _, _, z3, _, z5, _, _ = (lo if sn < _SCALE_MIN else hi
                                         if sn > _SCALE_MAX else col(sn))
        if adaptive:
            zi2, zi3, zi5, zi6 = z2 * i_p, z3 * i_n, z5 * i_n, z6 * i_p
        else:
            zi2, zi3, zi5, zi6 = fixed

        a_p = th_p + ti_p
        a_n = th_n + ti_n
        ub_p = (gp + zi2 * cmath.rect(1.0, a_p)
                + zi3 * cmath.rect(1.0, a_n - _TWO_PI_3))
        ub_n = (gn + zi5 * cmath.rect(1.0, a_n)
                + zi6 * cmath.rect(1.0, a_p + _TWO_PI_3))
        u_meas = ub_p + ub_n.conjugate()

        ec = u_meas - up - un
        if mode_fll:
            v = up - un
            e = (ec * v.conjugate()).imag
            w_c = w0 + kp_fll * e + ki_fll * eps
        else:
            w_c = w_p

        drive = half_k * w_c * ec
        dup = 1j * w_c * up + drive
        dun = -1j * w_c * un + drive

        if mode_fll:
            # angles follow the filter states' instantaneous rotation; the
            # integrators xi+- are frozen
            ap2 = up.real * up.real + up.imag * up.imag
            an2 = un.real * un.real + un.imag * un.imag
            d_th_p = (dup * up.conjugate()).imag / ap2 if ap2 > 1e-18 else w_c
            d_th_n = (-(dun * un.conjugate()).imag / an2 if an2 > 1e-18
                      else w_c)
            return dup, dun, d_th_p, 0.0, d_th_n, 0.0, e, mp, mn
        return dup, dun, w_p, uq_p, w_n, uq_n, 0.0, mp, mn

    return deriv, k1 * ug, k4 * ug


def deriv_eval(y, t, code, zf, paths, ug, theta_g0, w0, ref, gains,
               mode_fll, adaptive):
    """The derivative of any indexable 9-vector y at time t as nine floats,
    through _bind_deriv's window for code and ref (tests, perfbench)."""
    deriv, k1ug, k4ug = _bind_deriv(code, zf, paths, ug, w0, ref, gains,
                                    mode_fll, adaptive)
    gp, gn = _grid_terms(t, theta_g0, w0, k1ug, k4ug)
    return _as_floats(deriv(_as_state(y), gp, gn))


def simulate(y0, n_steps, dt, stride, t_on, t_clear, code, zf, paths, ug,
             theta_g0, w0, ref_pre, ref_on, gains, mode_fll, adaptive, rec):
    """Fixed-step RK4 over [0, n_steps*dt] with stride-decimated recording.

    y0: the nine floats of _bind_deriv's layout (any indexable 9-vector),
    as dynsim.initial_sync_state returns them; the steps run on their
    seven-value form. Each fault window (inside [t_on, t_clear) the fault,
    outside FAULT_NONE) is bound once by _bind_deriv, before the first
    step, so a stage makes one three-argument derivative call. Every stage
    is evaluated at its absolute time (t = i*dt, t + dt/2, t + dt); stages
    2 and 3 share their grid terms, and stage 1 takes the last stage 4's
    where i*dt is the same float as (i-1)*dt + dt. Stage states and the
    update are written per value: a float h times a complex z is
    (h re - 0 im, h im + 0 re), the per-component products but for, at
    most, the sign of a zero. The stage-1 derivative advances the state
    and gives a sample's angle rates and frame components; its angles and
    |U+-| are read from the state. A sample is one row of rec in
    dynsim.TRACE_COLUMNS order, written in one assignment, so a rec of
    another width raises ValueError at the first sample. Returns
    (rows_written, overflow_step, y, dy), y and dy as nine floats:
    overflow_step = -1 when none, dy the derivative at the last sample
    evaluated (the returned y unless the run overflowed).
    """
    on = _bind_deriv(code, zf, paths, ug, w0, ref_on, gains, mode_fll,
                     adaptive)
    off = _bind_deriv(FAULT_NONE, zf, paths, ug, w0, ref_pre, gains,
                      mode_fll, adaptive)
    y = _as_state(y0)
    x0, x1, x2, x3, x4, x5, x6 = y
    half, sixth = 0.5 * dt, dt / 6.0
    t4 = math.nan
    n_rec = 0
    for i in range(n_steps + 1):
        t = i * dt
        deriv, k1ug, k4ug = on if t_on <= t < t_clear else off
        # the last stage 4 left the grid terms at its time t4 in gp, gn
        if t != t4:
            gp, gn = _grid_terms(t, theta_g0, w0, k1ug, k4ug)
        k1v = deriv(y, gp, gn)
        a0, a1, a2, a3, a4, a5, a6, mp, mn = k1v
        if i % stride == 0:
            rec[n_rec] = (t, a2 / (2.0 * math.pi), a4 / (2.0 * math.pi),
                          x2, x4, mp.real, mp.imag, mn.real, -mn.imag,
                          abs(x0), abs(x1))
            n_rec += 1
        if i == n_steps:
            break

        # stage states y + h k and the update, per value
        t2 = t + half
        deriv, k1ug, k4ug = on if t_on <= t2 < t_clear else off
        gp, gn = _grid_terms(t2, theta_g0, w0, k1ug, k4ug)
        b0, b1, b2, b3, b4, b5, b6, _, _ = deriv(
            (x0 + half * a0, x1 + half * a1, x2 + half * a2, x3 + half * a3,
             x4 + half * a4, x5 + half * a5, x6 + half * a6), gp, gn)
        c0, c1, c2, c3, c4, c5, c6, _, _ = deriv(
            (x0 + half * b0, x1 + half * b1, x2 + half * b2, x3 + half * b3,
             x4 + half * b4, x5 + half * b5, x6 + half * b6), gp, gn)
        t4 = t + dt
        deriv, k1ug, k4ug = on if t_on <= t4 < t_clear else off
        gp, gn = _grid_terms(t4, theta_g0, w0, k1ug, k4ug)
        d0, d1, d2, d3, d4, d5, d6, _, _ = deriv(
            (x0 + dt * c0, x1 + dt * c1, x2 + dt * c2, x3 + dt * c3,
             x4 + dt * c4, x5 + dt * c5, x6 + dt * c6), gp, gn)
        # y + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        y = (x0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
             x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
             x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
             x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
             x4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
             x5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
             x6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6))
        x0, x1, x2, x3, x4, x5, x6 = y
        # each of the nine real components within 1e6 in magnitude; NaN
        # fails the comparison
        if not (abs(x0.real) <= 1e6 and abs(x0.imag) <= 1e6
                and abs(x1.real) <= 1e6 and abs(x1.imag) <= 1e6
                and abs(x2) <= 1e6 and abs(x3) <= 1e6 and abs(x4) <= 1e6
                and abs(x5) <= 1e6 and abs(x6) <= 1e6):
            return n_rec, i + 1, _as_floats(y), _as_floats(k1v)
    return n_rec, -1, _as_floats(y), _as_floats(k1v)

"""Tests for the numeric kernels."""

import cmath
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibgsync import (
    BranchImpedance,
    CurrentReference,
    FaultSpec,
    FaultType,
    SequenceCoefficients,
    SyncConfig,
    compose_paths,
    compute_coefficients,
    dq_voltages,
    kernels,
    solve_equilibrium,
    table_circuit,
)
from ibgsync.dynsim import (TRACE_COLUMNS, Scenario, _kernel_args,
                            initial_sync_state, terminal_voltage)
from ibgsync.equilibrium import NEWTON_MAXIT, pack_params
from ibgsync.network import _path_floats
from ibgsync.synchro import SyncMode
from loop_reference import (SyncState, ccf_derivative, extract_dq,
                            fll_adaptation, pll_derivatives)
import rk4_reference
import torus_reference

ZF_PU = 7.43801652892562e-06

CIRCUIT = table_circuit()
PATHS = compose_paths(CIRCUIT)
PF = _path_floats(PATHS)
REF = CurrentReference(0.76, math.radians(-30.0), 0.5, math.radians(90.0))
COEFFS = compute_coefficients(PATHS, FaultSpec(FaultType.DLG, z_f=ZF_PU))
PRM = pack_params(COEFFS, REF, CIRCUIT.ug_pos)

ALL_CODES = tuple(FaultType)


def _packed(amps, angles):
    """Packed parameters from the six amplitudes and the six angles."""
    prm = np.empty(12)
    prm[0::2] = amps
    prm[1::2] = angles
    return prm


def _angle_gap(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def _assert_same_scan(got, want):
    """Same found and feedback and, on a find, the same root to 1e-9. got
    is scan_roots' (found, feedback, dp, dn, volts, res), want the
    oracle's (found, dp, dn, res, any_converged, any_feedback)."""
    assert (got[0], got[1]) == (want[0], want[5])
    if got[0]:
        assert _angle_gap(got[2], want[1]) < 1e-9
        assert _angle_gap(got[3], want[2]) < 1e-9


class TestTorusRoots:
    """scan_roots lists every torus root from one sextic; the 180 x 180
    torus scan of tests/torus_reference.py is its oracle. The structured
    sets below are hard for any sampling of the angles: roots closer than
    a 2 degree spacing, a curve r1 = 0 that pinches or shrinks to a
    sliver."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ud_min=st.sampled_from([1e-9, 0.3, -1e30]))
    def test_matches_torus_oracle(self, seed, ud_min):
        """The sextic finds what the 180 x 180 torus scan finds: the same
        flags and the same root.

        Amplitudes are uniform on [0, 2] and angles on [-pi, pi), drawn
        from the seed, so the parameters are generic. Hypothesis' own float
        draws repeat values and pick 0 and the bounds, and so build exactly
        degenerate sets on which the two scans may disagree without either
        being wrong: equations without angle terms or without grid terms,
        whose roots form a continuum with a singular Jacobian; roots where
        a feedback slope or a d-axis voltage sits exactly at its threshold,
        so rounding decides the condition; and qualifying roots whose
        min(ud+, ud-) tie exactly. The structured cases that are well posed
        (C3 = C6 = 0, A1 = C3, a sliver and an empty curve) have tests of
        their own below.
        """
        rng = np.random.default_rng(seed)
        prm = _packed(rng.uniform(0.0, 2.0, 6), rng.uniform(-math.pi, math.pi, 6))
        got = kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, ud_min)
        _assert_same_scan(got, torus_reference.scan_roots(
            prm, 180, 1e-10, NEWTON_MAXIT, ud_min))
        if got[0]:
            # the point returned is one that qualifies, with its voltages
            assert torus_reference.root_conditions(prm, got[2], got[3], ud_min)[1]
            want = torus_reference.dq_eval(prm, got[2], got[3])
            assert got[4] == pytest.approx(want, abs=1e-12)
        else:
            assert got[4] is None

    @pytest.mark.parametrize("amps, angles, ud_min, root, other", [
        ((0.615033, 0.748254, 1.390534, 0.6337, 1.059311, 1.30264),
         (1.795328, -1.297236, -2.787539, -1.652151, 0.288693, 2.373016),
         0.3, (0.921854, 3.889408), (5.62938, 2.371691)),
        ((1.156792, 0.717666, 1.513958, 1.96215, 1.500169, 1.822555),
         (0.402855, -1.250592, -2.293419, 2.781088, -1.920531, 1.856426),
         1e-9, (5.70593, 1.530418), (4.931749, 0.635907)),
    ])
    def test_root_rule_largest_min_ud(self, amps, angles, ud_min, root, other):
        """Of two qualifying roots both scans return the one with the larger
        min(ud+, ud-)."""
        prm = _packed(amps, angles)
        margins = []
        for dp, dn in (root, other):
            ok, dp, dn, _ = kernels.newton_pair(prm, dp, dn, 1e-12, NEWTON_MAXIT)
            assert ok and torus_reference.root_conditions(prm, dp, dn, ud_min)[1]
            ud_p, _, ud_n, _ = torus_reference.dq_eval(prm, dp, dn)
            margins.append(min(ud_p, ud_n))
        assert margins[0] > margins[1]
        found, _, dp, dn, _, _ = kernels.scan_roots(prm, 180, 1e-10,
                                                    NEWTON_MAXIT, ud_min)
        assert found
        assert (dp, dn) == pytest.approx(root, abs=1e-5)
        found, dp, dn, *_ = torus_reference.scan_roots(prm, 180, 1e-10,
                                                       NEWTON_MAXIT, ud_min)
        assert found
        assert (dp, dn) == pytest.approx(root, abs=1e-5)

    def test_decoupled_equations(self):
        """C3 = C6 = 0: the qualifying root is the closed-form pair on the
        falling side of each sinusoid."""
        prm = _packed((1.2, 0.4, 0.0, 0.9, 0.3, 0.0),
                      (0.5, 1.0, 2.0, -0.7, -0.6, 1.5))
        want_dp = 0.5 - math.asin(-0.4 * math.sin(1.0) / 1.2)
        want_dn = -0.7 - math.asin(-0.3 * math.sin(-0.6) / 0.9)
        got = kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)
        assert got[0]
        assert _angle_gap(got[2], want_dp) < 1e-12
        assert _angle_gap(got[3], want_dn) < 1e-12
        _assert_same_scan(
            got, torus_reference.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9))

    def test_root_pair_between_samples(self):
        """r2 dips through zero and back along the curve where r1 vanishes:
        two roots 9e-3 rad apart, closer than a 2 degree spacing, of which
        only one passes the feedback test."""
        dip = 0.3 + 40 * (2.0 * math.pi / 180) - 0.01
        prm = _packed((1.0, 0.4, 0.0, 1.0, 1.0 - 1e-5, 0.0),
                      (0.3, 1.0, 0.0, dip - math.pi / 2, math.pi / 2, 0.0))
        got = kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)
        assert got[0]
        _assert_same_scan(
            got, torus_reference.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9))

    @pytest.mark.parametrize("amps, angles", [
        ((0.8, 0.5, 0.8, 0.9, 0.2, 0.6), (0.4, 0.7, 1.1, -0.3, 0.5, -1.0)),
        ((0.8, 0.0, 0.8, 0.9, 0.2, 0.6), (0.4, 0.7, 1.1, -0.3, 0.5, -1.0)),
        ((0.321, 0.86, 0.321, 0.35, 0.86, 1.38),
         (1.95, 1.2e-7, 2.29, 0.0, -2.37, 2.29)),
    ], ids=["arc", "closed", "steep"])
    def test_r_touches_zero(self, amps, angles):
        """A1 = C3, so the r1 = 0 curve's amplitude R vanishes at
        dn = F1 - P3 + pi: off the curve when B2 sin P2 is 0.32 (arc), on it
        where its branches swap when it is 0 (closed). At 1e-7 (steep) the
        qualifying root sits within 1e-6 rad of that crossing."""
        prm = _packed(amps, angles)
        for ud_min in (1e-9, 0.3):
            got = kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, ud_min)
            _assert_same_scan(got, torus_reference.scan_roots(
                prm, 180, 1e-10, NEWTON_MAXIT, ud_min))
            assert got[0] or ud_min == 0.3

    def test_sliver(self):
        """|B2 sin P2| just below A1 + C3: the r1 = 0 curve is a loop about
        2e-3 rad across around dn = F1 - P3, with a root at its centre."""
        amps = [1.0, 1.5 - 1e-6, 0.5, 1.0, 0.0, 0.8]
        angles = [0.3, -math.pi / 2, -0.4, 1.2, math.pi / 2, 0.9]
        dp, dn = 0.3 - math.pi / 2, 0.7
        # r2 vanishes at the loop's centre
        amps[4] = -(math.sin(1.2 - dn) + 0.8 * math.sin(0.9 + dp - dn))
        prm = _packed(amps, angles)
        assert -1e-5 < kernels._curve_gap(prm) < 0.0
        want = torus_reference.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)
        assert want[0]
        _assert_same_scan(
            kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9), want)

    def test_empty_curve_is_a_certified_miss(self):
        """|B2 sin P2| > A1 + C3: r1 cannot vanish, so scan_roots reports
        the gap as the residual without a Newton step, and
        solve_equilibrium returns it with the miss, however small the
        gap."""
        coeffs = SequenceCoefficients(k1=0.5 + 0j, z2=1j, z3=0.1 + 0j,
                                      k4=0.3 + 0j, z5=0.2 + 0j, z6=0.1 + 0j)
        ref = CurrentReference(0.6 + 1e-9, 0.0, 1.0, 0.0)
        prm = pack_params(coeffs, ref, 1.0)
        gap = kernels._curve_gap(prm)
        assert 0.0 < gap < 1e-8
        found, feedback, dp, dn, volts, res = kernels.scan_roots(
            prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)
        assert (found, feedback, volts, res) == (False, False, None, gap)
        assert math.isnan(dp) and math.isnan(dn)
        res = solve_equilibrium(coeffs, ref, 1.0)
        assert not res.found and not res.cond_feedback
        assert res.residual_norm == gap

    @pytest.mark.parametrize("fault_type", [
        FaultType.NONE, FaultType.SLG, FaultType.DLG, FaultType.LL])
    def test_fault_patterns_with_both_currents(self, fault_type):
        """The coefficient pattern of each fault that leaves both equations
        coupled, with a positive current at -30 deg and 0.5@90 negative,
        at amplitudes with roots, type-2 misses and folds. With no fault,
        A4 = C3 = C6 = 0, so r2 is the constant B5 sin P5: its gap
        certifies the miss and no solution is sought."""
        coeffs = compute_coefficients(PATHS, FaultSpec(fault_type, z_f=ZF_PU))
        for amp in (0.3, 0.8, 1.5):
            ref = CurrentReference(amp, math.radians(-30.0), 0.5,
                                   math.radians(90.0))
            prm = pack_params(coeffs, ref, CIRCUIT.ug_pos)
            got = kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)
            _assert_same_scan(got, torus_reference.scan_roots(
                prm, 180, 1e-10, NEWTON_MAXIT, 1e-9))
            if fault_type is FaultType.NONE:
                assert prm[kernels.P_A4] == prm[kernels.P_C3] == 0.0
                assert prm[kernels.P_C6] == 0.0
                assert got[:2] == (False, False) and got[4:] == (
                    None, kernels._curve_gap(prm))
                assert math.isnan(got[2]) and math.isnan(got[3])
            else:
                assert len(kernels._eliminate(prm)[0]) == 6

    @pytest.mark.parametrize("amp", [0, 2, 3], ids=["A1", "C3", "A4"])
    def test_vanishing_leading_coefficient(self, amp):
        """A1, C3 or A4 at zero zeroes the sextic's leading coefficient:
        five roots are left, one of them y = 0, and the torus roots are
        those of the oracle."""
        amps = [1.2, 0.4, 0.5, 0.9, 0.3, 0.7]
        amps[amp] = 0.0
        prm = _packed(amps, (0.5, 1.0, 2.0, -0.7, -0.6, 1.5))
        ys = kernels._eliminate(prm)[0]
        assert len(ys) == 5 and min(map(abs, ys)) == 0.0
        got = kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)
        assert got[0]
        _assert_same_scan(got, torus_reference.scan_roots(
            prm, 180, 1e-10, NEWTON_MAXIT, 1e-9))

    def test_miss_off_the_torus(self):
        """A generic draw whose r1 = 0 and r2 = 0 curves are not empty but
        which has no torus root: the oracle converges from no seed, and the
        residual is the distance of the nearest root y from the unit
        circle."""
        rng = np.random.default_rng(11)
        prm = _packed(rng.uniform(0.0, 2.0, 6), rng.uniform(-math.pi, math.pi, 6))
        assert kernels._curve_gap(prm) < 0.0
        got = kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)
        want = torus_reference.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)
        _assert_same_scan(got, want)
        assert not want[4]
        assert got[5] == min(abs(abs(y) - 1.0)
                             for y in kernels._eliminate(prm)[0]) > 0.1


def _scaled_residuals(prm, dp, dn):
    """r1 and r2 at (dp, dn), written out from the packed floats, each
    divided by its equation's largest amplitude as _eliminate divides."""
    a1, f1, b2, p2, c3, p3, a4, f4, b5, p5, c6, p6 = prm
    r1 = (a1 * math.sin(f1 - dp) + b2 * math.sin(p2)
          + c3 * math.sin(p3 + dn - dp))
    r2 = (a4 * math.sin(f4 - dn) + b5 * math.sin(p5)
          + c6 * math.sin(p6 + dp - dn))
    return r1 / max(a1, b2, c3), r2 / max(a4, b5, c6)


class TestElimination:
    """The polynomial pieces of scan_roots, each against numpy or the
    equations written out."""

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_roots_match_numpy(self, degree):
        """Closed form up to degree 2, companion eigenvalues above: the
        roots of numpy.roots, in some order."""
        rng = np.random.default_rng(degree)
        p = list(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
        got = kernels._roots(p)
        want = np.roots(p[::-1])
        assert len(got) == degree
        for z in got:
            assert np.min(np.abs(want - z)) < 1e-9 * max(1.0, abs(z))
        for z in want:
            assert min(abs(g - z) for g in got) < 1e-9 * max(1.0, abs(z))

    def test_quadratic_keeps_the_small_root(self):
        """Roots 1e8 and 1e-8, turned by 0.3 rad: the textbook formula
        cancels the small one to nothing, the closed form keeps its
        digits."""
        turn = cmath.exp(0.3j)
        big, small = 1e8 * turn, 1e-8 * turn
        got = sorted(kernels._roots([big * small, -(big + small), 1.0 + 0j]),
                     key=abs)
        assert abs(got[0] - small) < 1e-14 * abs(small)
        assert abs(got[1] - big) < 1e-14 * abs(big)

    def test_vanishing_leading_coefficients_are_dropped(self):
        """A leading term at or below 1e-14 of the largest is dropped, one
        above it is a root far out; a constant has no roots."""
        assert sorted(z.real for z in kernels._roots([2, -3, 1, 1e-15])) == (
            pytest.approx([1.0, 2.0], rel=1e-15))
        assert len(kernels._roots([2, -3, 1, 1e-13])) == 3
        assert kernels._roots([1.0 + 0j]) == []
        assert kernels._roots([1.0 + 0j, 1e-20, 0j]) == []

    def test_cross_and_value_are_polynomial_products(self):
        """_cross(u, v, w, z) is u v - w z as numpy multiplies them, and
        _value evaluates it as numpy does."""
        rng = np.random.default_rng(5)
        u, v, w, z = (list(rng.normal(size=n) + 1j * rng.normal(size=n))
                      for n in (2, 3, 4, 1))
        P = np.polynomial.polynomial
        want = P.polysub(P.polymul(u, v), P.polymul(w, z))
        got = kernels._cross(u, v, w, z)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
        for t in (0.3 - 0.7j, cmath.exp(2.1j), 1.9 + 0j):
            assert abs(kernels._value(got, t) - P.polyval(t, want)) < 1e-13

    @pytest.mark.parametrize("c6", [0.7, 0.0], ids=["coupled", "C6-zero"])
    def test_quadratic_is_the_scaled_equation(self, c6):
        """The quadratic in x that _eliminate returns, at y = e^{j dn} and
        x = e^{j dp}, is 2j x y r / s: r2 where C6 > 0, else r1, with s
        the equation's largest amplitude."""
        prm = _packed((1.2, 0.4, 0.5, 0.9, 0.3, c6),
                      (0.5, 1.0, 2.0, -0.7, -0.6, 1.5))
        quad = kernels._eliminate(prm)[1]
        rng = np.random.default_rng(3)
        for dp, dn in rng.uniform(-math.pi, math.pi, (5, 2)):
            x, y = cmath.exp(1j * dp), cmath.exp(1j * dn)
            got = kernels._value([kernels._value(q, y) for q in quad], x)
            r = _scaled_residuals(prm, dp, dn)[0 if c6 == 0.0 else 1]
            assert abs(got - 2j * x * y * r) < 1e-14

    @pytest.mark.parametrize("c6", [0.7, 0.0], ids=["coupled", "C6-zero"])
    def test_solving_roots_keep_the_partner(self, c6):
        """At each y on the unit circle, _solving_roots keeps of the
        quadratic's two roots the one where r1 vanishes too, and drops the
        other, at which r1 does not; where the quadratic is E1 (C6 = 0)
        both roots solve it and both are kept."""
        prm = _packed((1.2, 0.4, 0.5, 0.9, 0.3, c6),
                      (0.5, 1.0, 2.0, -0.7, -0.6, 1.5))
        ys, quad, e1 = kernels._eliminate(prm)
        on_circle = [y for y in ys if abs(abs(y) - 1.0) < 1e-6]
        assert on_circle
        for y in on_circle:
            xs = kernels._roots([kernels._value(q, y) for q in quad])
            kept = kernels._solving_roots(xs, e1, y)
            assert len(xs) == 2 and len(kept) == (2 if c6 == 0.0 else 1)
            dn = cmath.phase(y)
            for x in xs:
                r1 = abs(_scaled_residuals(prm, cmath.phase(x), dn)[0])
                if x in kept:
                    assert r1 < 1e-9
                else:
                    assert r1 > 1e-3

    @pytest.mark.parametrize("c6", [0.7, 0.0], ids=["coupled", "C6-zero"])
    def test_torus_root_is_an_eliminated_root(self, c6):
        """The root scan_roots returns is one that the elimination lists:
        e^{j dn} among the ys, e^{j dp} a root of the quadratic there that
        _solving_roots keeps, and both equations vanish at it."""
        prm = _packed((1.2, 0.4, 0.5, 0.9, 0.3, c6),
                      (0.5, 1.0, 2.0, -0.7, -0.6, 1.5))
        found, _, dp, dn = kernels.scan_roots(prm, 180, 1e-10, NEWTON_MAXIT,
                                              1e-9)[:4]
        assert found
        ys, quad, e1 = kernels._eliminate(prm)
        assert len(ys) == (2 if c6 == 0.0 else 6)
        assert (e1 is None) == (c6 == 0.0)
        x, y = cmath.exp(1j * dp), cmath.exp(1j * dn)
        assert min(abs(v - y) for v in ys) < 1e-12
        xs = kernels._roots([kernels._value(q, y) for q in quad])
        kept = kernels._solving_roots(xs, e1, y)
        assert min(abs(v - x) for v in kept) < 1e-12
        assert max(map(abs, _scaled_residuals(prm, dp, dn))) < 1e-14


class TestOneBuild:
    def test_installed_numba_is_not_used(self, tmp_path):
        """The kernels are the plain module functions even where a numba
        package imports: here a stub whose njit wraps every function."""
        (tmp_path / "numba").mkdir()
        (tmp_path / "numba" / "__init__.py").write_text(
            "def njit(*args, **kwargs):\n"
            "    def wrap(f):\n"
            "        def jitted(*a, **k):\n"
            "            return f(*a, **k)\n"
            "        return jitted\n"
            "    return wrap\n"
        )
        script = (
            "import json, sys\n"
            "from ibgsync import kernels\n"
            "print(json.dumps({'numba': kernels.USING_NUMBA,\n"
            "    'imported': 'numba' in sys.modules,\n"
            "    'simulate': kernels.simulate.__qualname__,\n"
            "    'newton_pair': kernels.newton_pair.__qualname__,\n"
            "    'modules': [kernels.simulate.__module__,\n"
            "                kernels.newton_pair.__module__]}))\n"
        )
        src = Path(kernels.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "IBGSYNC_PURE_NUMPY"}
        env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), str(src)))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {
            "numba": False, "imported": False, "simulate": "simulate",
            "newton_pair": "newton_pair",
            "modules": ["ibgsync.kernels", "ibgsync.kernels"]}


class TestWindowColumn:
    """The column a fault window's derivative reads: K1/K4 at the grid
    frequency, Z2/Z6 at the positive scale, Z3/Z5 at the negative one."""

    @staticmethod
    def _window_column(code, sp, sn, zf):
        """code's _column read as _bind_deriv and its derivative read it:
        K1 and K4 from the column at 1.0, Z2 and Z6 from the column at sp,
        Z3 and Z5 from the one at sn (the same column when sn == sp)."""
        col = kernels._column(code, PF, zf)
        k1, _, _, k4, _, _, _ = col(1.0)
        _, z2, z3, _, z5, z6, _ = col(sp)
        if sn != sp:
            _, _, z3, _, z5, _, _ = col(sn)
        return k1, z2, z3, k4, z5, z6

    @pytest.mark.parametrize("sp, sn", [
        (1.4, 0.7), (0.7, 1.4), (1.3, 1.3), (1.0, 0.8), (1.2, 1.0),
        (1.0, 1.0), (0.2, 5.0), (5.0, 0.2), (0.2, 0.2), (5.0, 5.0),
    ])
    @pytest.mark.parametrize("zf", [complex(ZF_PU), 0.03 - 0.01j],
                             ids=["zf", "zf-complex"])
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_matches_written_out_mixed_column(self, code, zf, sp, sn):
        """Bit for bit against the oracle's mixed column, whose scale of
        exactly 1.0 reads the grid column, at unequal and equal (FLL)
        scales, a scale of 1.0 on either side and both clamps."""
        got = self._window_column(code, sp, sn, zf)
        want = rk4_reference.seq_coeffs_mixed(code, sp, sn, *PF, zf)
        assert ([_bits((v.real, v.imag)) for v in got]
                == [_bits((v.real, v.imag)) for v in want])

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_grid_terms_stay_at_grid_frequency(self, code):
        """The window's K1 ug and K4 ug are the grid column's, whatever the
        scales its derivative later reads."""
        sc = Scenario(circuit=CIRCUIT, fault=FaultSpec(FaultType.DLG,
                                                       z_f=ZF_PU),
                      ref_fault=REF)
        (_, zf, paths, ug, _, w0, _, ref_on, gains, _,
         _) = _kernel_args(sc)
        grid = rk4_reference.seq_coeffs(code, 1.0, *paths, zf)
        for mode_fll in (False, True):
            _, k1ug, k4ug = kernels._bind_deriv(code, zf, paths, ug, w0,
                                                ref_on, gains, mode_fll, True)
            assert k1ug == grid[0] * ug and k4ug == grid[3] * ug


def _newton_on_evaluators(prm, dp, dn, tol, maxit):
    """newton_pair's rule (stopping, singular test, +-0.5 damping, wrap)
    built on the oracle's residual_eval and jacobian_eval, one point at a
    time."""
    for _ in range(maxit):
        r1, r2 = torus_reference.residual_eval(prm, dp, dn)
        res = abs(r1) if abs(r1) > abs(r2) else abs(r2)
        if res < tol:
            return True, dp % (2.0 * math.pi), dn % (2.0 * math.pi), res
        j11, j12, j21, j22 = torus_reference.jacobian_eval(prm, dp, dn)
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            return False, dp, dn, res
        dp += min(max(-(j22 * r1 - j12 * r2) / det, -0.5), 0.5)
        dn += min(max(-(-j21 * r1 + j11 * r2) / det, -0.5), 0.5)
    r1, r2 = torus_reference.residual_eval(prm, dp, dn)
    res = abs(r1) if abs(r1) > abs(r2) else abs(r2)
    return res < tol, dp % (2.0 * math.pi), dn % (2.0 * math.pi), res


def _bits(values):
    """Floats as hex strings, so -0.0 and 0.0 differ and NaN equals NaN."""
    return [float(v).hex() for v in values]


class TestColumnOracle:
    """kernels.seq_coeffs computes each repeated subexpression once; the
    written-out column of rk4_reference defines its bits."""

    @pytest.mark.parametrize("zf", [0j, complex(ZF_PU), 0.03 - 0.01j],
                             ids=["zf0", "zf", "zf-complex"])
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_matches_written_out_column(self, code, zf):
        # one seed per member, its index in ALL_CODES
        rng = np.random.default_rng(ALL_CODES.index(code))
        paths = [PF] + [tuple(rng.uniform(1e-3, 2.0, 8).tolist())
                        for _ in range(3)]
        for pf in paths:
            rl, xl, rl0, xl0, rg, xg, rg0, xg0 = pf
            for s in np.linspace(0.2, 5.0, 97).tolist() + [1.0]:
                got = kernels.seq_coeffs(code, s, *pf, zf)
                want = rk4_reference.seq_coeffs(code, s, *pf, zf)
                assert ([_bits((v.real, v.imag)) for v in got]
                        == [_bits((v.real, v.imag)) for v in want])
                # s scales the reactances alone, not zf
                assert got == kernels.seq_coeffs(
                    code, 1.0, rl, s * xl, rl0, s * xl0, rg, s * xg, rg0,
                    s * xg0, zf)


class TestScalarPolish:
    """newton_pair and root_check run on floats with math.sin and math.cos;
    the array evaluators in torus_reference define them. The comparisons
    are exact: numpy's float64 sin and cos give the C library's values
    wherever these tests run, and the scalar forms keep the evaluators'
    operation order."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_newton_matches_evaluator_loop(self, seed):
        rng = np.random.default_rng(seed)
        prm = _packed(rng.uniform(0.0, 2.0, 6), rng.uniform(-math.pi, math.pi, 6))
        for dp, dn in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (4, 2)).tolist():
            # converging, running out of steps, and the last-check-only cases
            for tol, maxit in ((1e-10, NEWTON_MAXIT), (0.0, 2), (1e-10, 0),
                               (0.0, NEWTON_MAXIT)):
                got = kernels.newton_pair(prm, dp, dn, tol, maxit)
                want = _newton_on_evaluators(prm, dp, dn, tol, maxit)
                assert bool(got[0]) == bool(want[0])
                assert _bits(got[1:]) == _bits(want[1:])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ud_min=st.sampled_from([1e-9, 0.3, -1e30]))
    def test_root_check_matches_evaluators(self, seed, ud_min):
        """root_check, and equilibrium.dq_voltages that reads it, against
        the oracle; the parameters are packed from drawn coefficients and
        currents, so dq_voltages sees the same ones."""
        rng = np.random.default_rng(seed)
        coeffs = SequenceCoefficients(*(
            cmath.rect(a, f) for a, f in zip(rng.uniform(0.0, 2.0, 6),
                                             rng.uniform(-math.pi, math.pi, 6))))
        i_p, i_n, ug = rng.uniform(0.0, 1.5, 3).tolist()
        th_p, th_n = rng.uniform(-math.pi, math.pi, 2).tolist()
        ref = CurrentReference(i_p, th_p, i_n, th_n)
        prm = pack_params(coeffs, ref, ug)
        points = rng.uniform(0.0, 2.0 * math.pi, (6, 2)).tolist()
        # and the roots Newton reaches from them
        points += [kernels.newton_pair(prm, dp, dn, 1e-10, NEWTON_MAXIT)[1:3]
                   for dp, dn in points]
        for dp, dn in points:
            feedback, qualifies, *dq = kernels.root_check(prm, dp, dn, ud_min)
            want = torus_reference.root_conditions(prm, dp, dn, ud_min)
            assert (feedback, qualifies) == (bool(want[0]), bool(want[1]))
            want = torus_reference.dq_eval(prm, dp, dn)
            assert _bits(dq) == _bits(want)
            assert _bits(dq_voltages(coeffs, ref, ug, dp, dn)) == _bits(want)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ud_min=st.sampled_from([1e-9, 0.3, -1e30]))
    def test_conditions_core_matches_root_check(self, seed, ud_min):
        """The scan loop and refine_root read root_conditions, root_check
        adds uq+-: both give the same feedback, qualifies and ud+- bits, at
        drawn points and at the roots Newton reaches from them."""
        rng = np.random.default_rng(seed)
        prm = _packed(rng.uniform(0.0, 2.0, 6), rng.uniform(-math.pi, math.pi, 6))
        points = rng.uniform(0.0, 2.0 * math.pi, (6, 2)).tolist()
        points += [kernels.newton_pair(prm, dp, dn, 1e-10, NEWTON_MAXIT)[1:3]
                   for dp, dn in points]
        for dp, dn in points:
            feedback, qualifies, ud_p, ud_n = kernels.root_conditions(
                prm, dp, dn, ud_min)
            want = kernels.root_check(prm, dp, dn, ud_min)
            assert (feedback, qualifies) == want[:2]
            assert _bits((ud_p, ud_n)) == _bits((want[2], want[4]))


class TestEvaluators:
    def test_dq_exposes_residuals(self):
        rng = np.random.default_rng(7)
        for dp, dn in rng.uniform(-math.pi, math.pi, size=(20, 2)):
            r1, r2 = torus_reference.residual_eval(PRM, dp, dn)
            _, uq_p, _, uq_n = torus_reference.dq_eval(PRM, dp, dn)
            assert uq_p == pytest.approx(r1, abs=1e-15)
            assert uq_n == pytest.approx(-r2, abs=1e-15)

    def test_evaluators_vectorize(self):
        dp = np.linspace(-3.0, 3.0, 11)
        dn = np.linspace(1.0, -2.0, 11)
        r1v, r2v = torus_reference.residual_eval(PRM, dp, dn)
        for i in range(dp.size):
            r1, r2 = torus_reference.residual_eval(PRM, dp[i], dn[i])
            assert r1v[i] == pytest.approx(r1, abs=1e-15)
            assert r2v[i] == pytest.approx(r2, abs=1e-15)

    def test_jacobian_matches_finite_differences(self):
        h = 1e-7
        rng = np.random.default_rng(11)
        for dp, dn in rng.uniform(-math.pi, math.pi, size=(10, 2)):
            j11, j12, j21, j22 = torus_reference.jacobian_eval(PRM, dp, dn)
            rp1, rp2 = torus_reference.residual_eval(PRM, dp + h, dn)
            rm1, rm2 = torus_reference.residual_eval(PRM, dp - h, dn)
            assert j11 == pytest.approx((rp1 - rm1) / (2 * h), abs=1e-6)
            assert j21 == pytest.approx((rp2 - rm2) / (2 * h), abs=1e-6)
            rp1, rp2 = torus_reference.residual_eval(PRM, dp, dn + h)
            rm1, rm2 = torus_reference.residual_eval(PRM, dp, dn - h)
            assert j12 == pytest.approx((rp1 - rm1) / (2 * h), abs=1e-6)
            assert j22 == pytest.approx((rp2 - rm2) / (2 * h), abs=1e-6)

    def test_newton_converges_from_nearby_seed(self):
        found, _, dp, dn, _, _ = kernels.scan_roots(PRM, 24, 1e-10, 80, 1e-9)
        assert found
        ok, dp2, dn2, res = kernels.newton_pair(PRM, dp + 0.1, dn - 0.1,
                                                1e-12, 80)
        assert ok
        assert dp2 == pytest.approx(dp, abs=1e-9)
        assert dn2 == pytest.approx(dn, abs=1e-9)
        assert res < 1e-12


def _scaled_circuit(s):
    """The reference circuit with every branch reactance scaled by s."""
    return dataclasses.replace(CIRCUIT, **{
        name: BranchImpedance(b.r, s * b.x)
        for name, b in vars(CIRCUIT).items() if isinstance(b, BranchImpedance)})


def _mixed_coeffs(fault, sp, sn):
    """Coefficients with K1/K4 at the grid frequency, Z2/Z6 at sp and Z3/Z5
    at sn, each from the reference network scaled by that frequency."""
    grid, pos, neg = (
        compute_coefficients(compose_paths(_scaled_circuit(s)), fault)
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


class TestUnitRotations:
    """The kernel turns by cmath.rect(1.0, x) where the array form takes
    cmath.exp(1j * x); both compute cos x and sin x."""

    @staticmethod
    def _angles():
        """Finite angles: signed zeros, the smallest and largest floats,
        1e300, the grid offsets, and random draws over [-10, 10] and over
        magnitudes 1e-300 to 1e300."""
        rng = np.random.default_rng(11)
        big = sys.float_info.max
        xs = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, math.pi / 3.0,
              2.0 * math.pi / 3.0, math.pi, 1e300, -1e300, big, -big]
        xs += rng.uniform(-10.0, 10.0, 2000).tolist()
        xs += (10.0 ** rng.uniform(-300.0, 300.0, 2000)
               * rng.choice((-1.0, 1.0), 2000)).tolist()
        return xs

    def test_rect_matches_exp(self):
        """Bit for bit on every finite angle but -0.0, whose sign rect keeps
        and exp drops, and on -0.0 + 0.0; and on the frame rotations
        e^{-jx}, signed zeros included. The infinities part them."""
        def cbits(z):
            return _bits((z.real, z.imag))
        for x in self._angles():
            want = cbits(cmath.exp(1j * x))
            assert cbits(cmath.rect(1.0, x + 0.0)) == want
            if _bits((x,)) != _bits((-0.0,)):
                assert cbits(cmath.rect(1.0, x)) == want
            assert cbits(cmath.rect(1.0, -x)) == cbits(cmath.exp(-1j * x))
        assert cbits(cmath.rect(1.0, -0.0)) == ["0x1.0000000000000p+0",
                                                "-0x0.0p+0"]
        assert cbits(cmath.exp(1j * -0.0)) == ["0x1.0000000000000p+0",
                                               "0x0.0p+0"]
        # and on an infinite angle rect raises where exp gives NaN
        for x in (math.inf, -math.inf):
            assert cbits(cmath.exp(1j * x)) == ["nan", "nan"]
            with pytest.raises(ValueError):
                cmath.rect(1.0, x)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("k", [4, 6], ids=["theta+", "theta-"])
    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_non_finite_angle_as_the_array_form(self, mode, k, value):
        """rect raises on an infinite angle, where exp gives NaN: the
        derivative reads an infinite loop angle as NaN and gives the array
        form's bits."""
        sc = Scenario(circuit=CIRCUIT, fault=FaultSpec(FaultType.DLG,
                                                       z_f=ZF_PU),
                      ref_fault=REF, sync=SyncConfig(mode=SyncMode(mode)))
        (code, zf, paths, ug, theta_g0, w0, _, ref_on, gains, mode_fll,
         adaptive) = _kernel_args(sc)
        args = (0.37, code, zf, paths, ug, theta_g0, w0, ref_on, gains,
                mode_fll, adaptive)
        y = [0.5, -0.9, 0.1, 0.05, -0.9, 0.02, 1.1, -0.01, 1e-3]
        y[k] = value
        got = kernels.deriv_eval(y, *args)
        want = rk4_reference.deriv(np.array(y), *args)
        assert len(got) == 9
        assert _bits(got) == _bits(want)


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
                y0.copy(), n, dt, 1, sc.fault.t_on, sc.fault.t_clear,
                code, zf, paths, ug, theta_g0, w0, ref_pre, ref_on, gains,
                mode_fll, adaptive, rec,
            )
            assert (rows, overflow) == (n + 1, -1)
            t = n * dt
            on = sc.fault.t_on <= t
            dy = kernels.deriv_eval(
                y, t, code if on else FaultType.NONE, zf, paths, ug,
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
            y0, 10, 1e-4, 1, 0.0, math.inf, *_kernel_args(sc), rec)
        assert (rows, overflow) == (1, 1)

    def test_wider_record_raises_at_first_sample(self):
        """A sample is one row of TRACE_COLUMNS' width: a buffer one column
        wider raises ValueError before the first row is written, rather than
        leaving the extra column unwritten."""
        sc = Scenario(circuit=CIRCUIT, fault=FaultSpec(FaultType.DLG, z_f=ZF_PU),
                      ref_fault=REF, t_end=0.01)
        rec = np.full((11, len(TRACE_COLUMNS) + 1), -1.0)
        with pytest.raises(ValueError):
            kernels.simulate(initial_sync_state(sc), 10, 1e-4, 1, 0.0,
                             math.inf, *_kernel_args(sc), rec)
        assert (rec == -1.0).all()


class TestSimulateMatchesArrayForm:
    """The kernel performs the array-form integrator's operations in the
    same order, so every result is bit-identical, signed zeros included."""

    @staticmethod
    def _both(sc, y0, n, stride):
        args = (n, sc.dt, stride, sc.fault.t_on, sc.fault.t_clear,
                *_kernel_args(sc))
        rows = n // stride + 1
        rec, rec_ref = (np.full((rows, len(TRACE_COLUMNS)), -1.0)
                        for _ in range(2))
        got = kernels.simulate(y0.copy(), *args, rec)
        want = rk4_reference.simulate(y0.copy(), *args, rec_ref)
        return got, want, rec, rec_ref

    @staticmethod
    def _assert_same(got, want, rec, rec_ref):
        """Compared as float hex: NaN equals NaN, -0.0 differs from 0.0."""
        (rows, overflow, y, dy), (rows_r, overflow_r, y_r, dy_r) = got, want
        assert (rows, overflow) == (rows_r, overflow_r)
        assert _bits(rec.ravel()) == _bits(rec_ref.ravel())
        assert len(y) == len(dy) == 9
        assert _bits(y) == _bits(y_r) and _bits(dy) == _bits(dy_r)

    @pytest.mark.parametrize("t_on, t_clear", [(0.01, 0.03),
                                               (0.01005, 0.03005),
                                               (0.01004, 0.01006)],
                             ids=["whole-steps", "half-steps",
                                  "within-one-step"])
    @pytest.mark.parametrize("fault", ["slg", "dlg", "ll", "tlg"])
    @pytest.mark.parametrize("adaptive", [True, False],
                             ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_fault_on_and_cleared_mid_run(self, mode, adaptive, fault, t_on,
                                          t_clear):
        """With dt = 1e-4, edges on a half step fall on the stage-2/3 time
        t + dt/2, so those stages sit in another fault window than stage 1
        (and, for a window inside one step, than stage 4 as well)."""
        sc = Scenario(
            circuit=CIRCUIT,
            fault=FaultSpec(FaultType(fault), z_f=ZF_PU, t_on=t_on,
                            t_clear=t_clear),
            ref_fault=REF, sync=SyncConfig(mode=SyncMode(mode)), t_end=0.05,
            freq_adaptive_z=adaptive,
        )
        y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 1e-3])
        got, want, rec, rec_ref = self._both(sc, y0, 500, 3)
        assert got[1] == -1
        self._assert_same(got, want, rec, rec_ref)

    @pytest.mark.parametrize("t_on", [0.0, 0.01])
    @pytest.mark.parametrize("fault", ["slg", "dlg", "ll", "tlg"])
    @pytest.mark.parametrize("adaptive", [True, False],
                             ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_cold_start(self, mode, adaptive, fault, t_on):
        """From empty filter states of both zero signs and grid-aligned
        angles, dynsim's cold start, with the fault on from the start or
        from a later step."""
        sc = Scenario(
            circuit=CIRCUIT,
            fault=FaultSpec(FaultType(fault), z_f=ZF_PU, t_on=t_on),
            ref_fault=REF, sync=SyncConfig(mode=SyncMode(mode)), t_end=0.02,
            freq_adaptive_z=adaptive,
        )
        theta_g = CIRCUIT.theta_g
        y0 = np.array([0.0, -0.0, -0.0, 0.0, theta_g - math.pi / 3.0, 0.0,
                       theta_g + math.pi / 3.0, 0.0, 0.0])
        got, want, rec, rec_ref = self._both(sc, y0, 200, 1)
        assert got[1] == -1
        self._assert_same(got, want, rec, rec_ref)

    @pytest.mark.parametrize("fault", ["slg", "dlg", "ll", "tlg"])
    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_unit_scale_at_first_stage(self, mode, fault):
        """Starts whose first stage reads a frequency scale of exactly 1.0,
        which the oracle's mixed column takes from the grid column: FLL
        with eps = 0, and PLL from a state with uq+- = xi+- = 0 (Im U+- = 0,
        theta+- = 0)."""
        sc = Scenario(
            circuit=CIRCUIT,
            fault=FaultSpec(FaultType(fault), z_f=ZF_PU, t_on=0.0,
                            t_clear=0.03),
            ref_fault=REF, sync=SyncConfig(mode=SyncMode(mode)), t_end=0.05,
        )
        if mode == "dsogi_fll":
            y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 0.0])
        else:
            y0 = np.array([0.8, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        w0 = sc.circuit.omega0
        _, _, mp, mn = rk4_reference._frames(y0)
        ki_fll = sc.sync.ki_fll
        scales = ([(w0 + ki_fll * y0[8]) / w0] if mode == "dsogi_fll" else
                  [(w0 + sc.sync.kp_pll * mp.imag + sc.sync.ki_pll * y0[5])
                   / w0,
                   (w0 - sc.sync.kp_pll * -mn.imag - sc.sync.ki_pll * y0[7])
                   / w0])
        assert scales == [1.0] * len(scales)
        got, want, rec, rec_ref = self._both(sc, y0, 500, 3)
        assert got[1] == -1
        self._assert_same(got, want, rec, rec_ref)

    @pytest.mark.parametrize("n, t_clear", [(300, 0.02), (300, math.inf)],
                             ids=["cleared", "on-fault"])
    @pytest.mark.parametrize("adaptive", [True, False],
                             ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("mode", ["dsogi_pll", "dsogi_fll"])
    def test_deriv_eval_is_the_loop_derivative(self, mode, adaptive, n,
                                               t_clear):
        """deriv_eval at the last sample gives exactly the dy simulate
        returns: both run the derivative _bind_deriv builds."""
        sc = Scenario(
            circuit=CIRCUIT,
            fault=FaultSpec(FaultType.SLG, z_f=ZF_PU, t_on=0.005,
                            t_clear=t_clear),
            ref_fault=REF, sync=SyncConfig(mode=SyncMode(mode)), t_end=0.05,
            freq_adaptive_z=adaptive,
        )
        (code, zf, paths, ug, theta_g0, w0, ref_pre, ref_on, gains,
         mode_fll, adaptive_z) = _kernel_args(sc)
        y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 1e-3])
        rec = np.empty((n + 1, len(TRACE_COLUMNS)))
        rows, overflow, y, dy = kernels.simulate(
            y0, n, sc.dt, 1, sc.fault.t_on, t_clear, code, zf, paths, ug,
            theta_g0, w0, ref_pre, ref_on, gains, mode_fll, adaptive_z, rec)
        assert (rows, overflow) == (n + 1, -1)
        t = n * sc.dt
        on = sc.fault.t_on <= t < t_clear
        assert on == (t_clear == math.inf)
        got = kernels.deriv_eval(
            y, t, code if on else FaultType.NONE, zf, paths, ug,
            theta_g0, w0, ref_on if on else ref_pre, gains, mode_fll,
            adaptive_z)
        assert _bits(got) == _bits(dy)

    def test_overflowing_run(self):
        sc = Scenario(circuit=CIRCUIT, fault=FaultSpec(FaultType.DLG, z_f=ZF_PU),
                      ref_fault=REF, t_end=0.01)
        y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 0.0])
        y0[5] = 9.9e5
        got, want, rec, rec_ref = self._both(sc, y0, 100, 1)
        assert got[1] > 0
        self._assert_same(got, want, rec, rec_ref)

    @pytest.mark.parametrize("scales", [(0.1, 10.0), (10.0, 0.1)],
                             ids=["pos-low-neg-high", "pos-high-neg-low"])
    def test_held_at_the_clamps(self, scales, monkeypatch):
        """PLL with adaptive impedances, each sequence's frequency scale
        past its own clamp at every sample: the derivative reads the
        columns bound at 0.2 and 5.0 and evaluates no other."""
        sc = Scenario(circuit=CIRCUIT, fault=FaultSpec(FaultType.DLG,
                                                       z_f=ZF_PU),
                      ref_fault=REF, sync=SyncConfig(kp_pll=10.0),
                      t_end=0.05)
        w0, ki = sc.circuit.omega0, sc.sync.ki_pll
        y0 = np.array([0.5, -0.9, 0.1, 0.05, -0.9, 0.0, 1.1, 0.0, 0.0])
        # w+ = w0 + kp uq+ + ki xi+ and w- = w0 - kp uq- - ki xi-: the
        # integrators set the scales, and a low kp keeps uq+- from moving
        # them back across a clamp
        y0[5] = (scales[0] - 1.0) * w0 / ki
        y0[7] = -(scales[1] - 1.0) * w0 / ki
        evaluated = []

        def counted(code, paths, zf):
            col = column(code, paths, zf)

            def counted_col(s):
                evaluated.append(s)
                return col(s)
            return counted_col
        column = kernels._column
        monkeypatch.setattr(kernels, "_column", counted)
        got, want, rec, rec_ref = self._both(sc, y0, 500, 1)
        assert got[1] == -1
        self._assert_same(got, want, rec, rec_ref)
        # the recorded angle rates are w+- in PLL mode
        for w, scale in zip((rec[:, 1], rec[:, 2]), scales):
            held = w * (2.0 * math.pi) / w0
            assert np.all(held < 0.2) if scale < 1.0 else np.all(held > 5.0)
        # the fault window's and the healthy one's grid and clamp columns
        assert evaluated == [1.0, 0.2, 5.0] * 2

    def test_infinite_stage_angles(self):
        """Gains of 1e300 and 1e305 drive a stage's loop angle to inf in the
        first step, where rect would raise and exp gives NaN: the run
        overflows there, as the array form's does, with its NaNs."""
        ref = CurrentReference(0.77, math.radians(-30.0), 0.5,
                               math.radians(90.0))
        sc = Scenario(circuit=CIRCUIT, fault=FaultSpec(FaultType.DLG,
                                                       z_f=ZF_PU),
                      ref_fault=ref,
                      sync=SyncConfig(kp_pll=1e300, ki_pll=1e305),
                      t_end=0.05)
        y0 = np.array(initial_sync_state(sc))
        got, want, rec, rec_ref = self._both(sc, y0, 500, 10)
        assert got[:2] == (1, 1)
        self._assert_same(got, want, rec, rec_ref)
        assert not all(math.isfinite(v) for v in got[2])

"""Tests for the dual-angle equilibrium solver.

Root anchors were frozen from an independent dense-grid bisection over the
orientation equations before the solver was written (reference circuit,
0.01-ohm fault branch).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibgsync import (
    CurrentReference,
    EquilibriumResult,
    FaultSpec,
    FaultType,
    InstabilityType,
    classify,
    compose_paths,
    compute_coefficients,
    dq_voltages,
    solve_equilibrium,
    table_circuit,
)
from ibgsync import equilibrium, kernels
from ibgsync.equilibrium import (NEWTON_MAXIT, NEWTON_TOL, UD_MIN,
                                 _solve_triangular, pack_params, refine_root)
import torus_reference

ZF = 7.43801652892562e-06
UG = 120.0 / 110.0

# (fault, i_pos, th_pos_deg, i_neg, th_neg_deg) -> (delta_pos, delta_neg, ud_pos, ud_neg)
ROOT_ANCHORS = [
    (FaultType.DLG, 0.76, -30.0, 0.5, 90.0, 1.426711, 0.251083, 0.369409, 0.067318),
    (FaultType.LL, 0.5, -90.0, 0.5, 90.0, 6.188051, 0.065683, 0.827035, 0.257031),
    (FaultType.SLG, 0.6, -90.0, 0.3, 90.0, 6.198881, 3.222908, 1.224837, 0.091310),
]

# zero injection: delta+ = angle(K1), delta- = angle(K4) (mod 2 pi)
ZERO_INJECTION = [
    (FaultType.SLG, 0.001469, 3.137314),
    (FaultType.DLG, 0.001814, 0.001814),
    (FaultType.LL, -1.78797e-05, 1.78798e-05),
]


def coeffs_for(fault_type, zf=ZF):
    return compute_coefficients(
        compose_paths(table_circuit()), FaultSpec(fault_type, z_f=zf)
    )


def ref_deg(i_pos, th_pos, i_neg, th_neg):
    return CurrentReference(
        i_pos, math.radians(th_pos), i_neg, math.radians(th_neg)
    )


@pytest.mark.parametrize(
    "fault_type,ip,tp,inn,tn,dp,dn,udp,udn", ROOT_ANCHORS
)
def test_root_anchors(fault_type, ip, tp, inn, tn, dp, dn, udp, udn):
    res = solve_equilibrium(coeffs_for(fault_type), ref_deg(ip, tp, inn, tn), UG)
    assert res.found
    assert res.delta_pos == pytest.approx(dp, abs=2e-5)
    assert res.delta_neg == pytest.approx(dn, abs=2e-5)
    assert res.ud_pos == pytest.approx(udp, abs=2e-5)
    assert res.ud_neg == pytest.approx(udn, abs=2e-5)
    assert abs(res.uq_pos) < 1e-8
    assert abs(res.uq_neg) < 1e-8
    assert res.residual_norm < 1e-8
    assert res.cond_orientation and res.cond_feedback


@pytest.mark.parametrize("fault_type,dp,dn", ZERO_INJECTION)
def test_zero_injection_aligns_with_grid_terms(fault_type, dp, dn):
    res = solve_equilibrium(coeffs_for(fault_type), CurrentReference(), UG)
    assert res.found
    assert math.sin(res.delta_pos - dp) == pytest.approx(0.0, abs=1e-5)
    assert math.sin(res.delta_neg - dn) == pytest.approx(0.0, abs=1e-5)


def test_just_past_limit_has_no_root():
    c = coeffs_for(FaultType.DLG)
    at_limit = solve_equilibrium(c, ref_deg(0.76, -30.0, 0.5, 90.0), UG)
    past = solve_equilibrium(c, ref_deg(0.77, -30.0, 0.5, 90.0), UG)
    assert at_limit.found
    assert not past.found
    assert math.isnan(past.delta_pos)
    assert not past.cond_orientation


def test_dq_voltages_match_solution_fields():
    c = coeffs_for(FaultType.DLG)
    ref = ref_deg(0.76, -30.0, 0.5, 90.0)
    res = solve_equilibrium(c, ref, UG)
    ud_p, uq_p, ud_n, uq_n = dq_voltages(c, ref, UG, res.delta_pos, res.delta_neg)
    assert ud_p == pytest.approx(res.ud_pos, rel=1e-12)
    assert uq_p == pytest.approx(res.uq_pos, abs=1e-12)
    assert ud_n == pytest.approx(res.ud_neg, rel=1e-12)
    assert uq_n == pytest.approx(res.uq_neg, abs=1e-12)


def test_residuals_vanish_at_root():
    c = coeffs_for(FaultType.SLG)
    ref = ref_deg(0.6, -90.0, 0.3, 90.0)
    res = solve_equilibrium(c, ref, UG)
    prm = pack_params(c, ref, UG)
    r1, r2 = torus_reference.residual_eval(prm, res.delta_pos, res.delta_neg)
    assert abs(r1) < 1e-9
    assert abs(r2) < 1e-9


def test_feedback_slopes_negative_at_root():
    c = coeffs_for(FaultType.LL)
    ref = ref_deg(0.5, -90.0, 0.5, 90.0)
    res = solve_equilibrium(c, ref, UG)
    prm = pack_params(c, ref, UG)
    j11, _, _, j22 = torus_reference.jacobian_eval(prm, res.delta_pos, res.delta_neg)
    assert j11 < 0
    assert j22 < 0


def test_degenerate_negative_solved_in_closed_form():
    """TLG with no negative injection: the negative equation is identically
    zero and the positive angle comes from a one-dimensional solve. The
    near-bolted fault leaves almost no grid voltage, so the current must sit
    along the impedance angle to be holdable at all."""
    c = coeffs_for(FaultType.TLG)
    ref = CurrentReference(i_pos=0.3, theta_i_pos=-math.radians(81.2883599742))
    res = solve_equilibrium(c, ref, UG)
    assert res.found
    assert res.delta_neg == 0.0
    assert res.ud_neg == 0.0
    assert res.residual_norm == 0.0
    assert res.ud_pos == pytest.approx(0.3 * 0.576652764351, rel=1e-3)
    # positive residual really is zero at the reported angle
    prm = pack_params(c, ref, UG)
    r1, _ = torus_reference.residual_eval(prm, res.delta_pos, 0.0)
    assert abs(r1) < 1e-12


def test_tlg_bolted_cannot_hold_any_current():
    paths = compose_paths(table_circuit())
    c = compute_coefficients(paths, FaultSpec(FaultType.TLG, z_f=0j))
    res = solve_equilibrium(c, CurrentReference(i_pos=0.05, theta_i_pos=-0.5), UG)
    assert not res.found


def test_refine_root_polishes_perturbed_anchor():
    c = coeffs_for(FaultType.DLG)
    prm = pack_params(c, ref_deg(0.76, -30.0, 0.5, 90.0), UG)
    out = refine_root(prm, 1.426711 + 0.05, 0.251083 - 0.05)
    assert out is not None
    assert out[0] == pytest.approx(1.426711, abs=2e-5)
    assert out[1] == pytest.approx(0.251083, abs=2e-5)


def test_refine_root_rejects_disqualified_point():
    c = coeffs_for(FaultType.DLG)
    prm = pack_params(c, ref_deg(0.77, -30.0, 0.5, 90.0), UG)
    assert refine_root(prm, 1.426711, 0.251083) is None


def test_root_moves_continuously_with_injection():
    c = coeffs_for(FaultType.DLG)
    base = solve_equilibrium(c, ref_deg(0.5, -30.0, 0.2, 90.0), UG)
    near = solve_equilibrium(c, ref_deg(0.5 + 1e-4, -30.0, 0.2, 90.0), UG)
    assert abs(near.delta_pos - base.delta_pos) < 1e-2
    assert abs(near.delta_neg - base.delta_neg) < 1e-2


def test_classify_stable_and_unstable():
    c = coeffs_for(FaultType.DLG)
    assert classify(c, ref_deg(0.76, -30.0, 0.5, 90.0), UG) is InstabilityType.STABLE
    assert classify(c, CurrentReference(), UG) is InstabilityType.STABLE
    # amplitude well above the overexcited positive limit
    assert classify(c, ref_deg(0.85, -30.0, 0.5, 90.0), UG) is InstabilityType.POS_TYPE1
    assert classify(c, ref_deg(0.90, 90.0, 0.2, -90.0), UG) is InstabilityType.POS_TYPE2


def test_classify_negative_sequence_mechanisms():
    c = coeffs_for(FaultType.SLG)
    assert classify(c, ref_deg(0.3, -90.0, 0.80, -30.0), UG) is InstabilityType.NEG_TYPE1
    assert classify(c, ref_deg(0.5, -90.0, 0.5, 90.0), UG) is InstabilityType.NEG_TYPE2


def test_current_reference_validation():
    with pytest.raises(ValueError):
        CurrentReference(i_pos=-0.1)
    ref = CurrentReference(0.5, 3 * math.pi, 0.2, -3 * math.pi)
    assert -math.pi < ref.theta_i_pos <= math.pi
    assert -math.pi < ref.theta_i_neg <= math.pi


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_current_reference_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        CurrentReference(i_pos=bad)
    with pytest.raises(ValueError):
        CurrentReference(i_neg=bad)


def test_grid_deg_is_not_an_argument():
    """The coupled solve lists every root; it samples nothing, so there is
    no spacing to set."""
    with pytest.raises(TypeError):
        solve_equilibrium(coeffs_for(FaultType.DLG),
                          ref_deg(0.76, -30.0, 0.5, 90.0), UG, 2.0)


@pytest.mark.parametrize("amp, theta, feedback", [(0.77, -30.0, False),
                                                  (0.60, 90.0, True)])
def test_coupled_miss_reports_distance_of_nearest_root(amp, theta, feedback):
    """DLG, negative current 0.5@90, one grid step past the type-1 limit
    at -30 deg and the type-2 limit at 90 deg. In both, torus roots
    survive, each failing a condition (at -30 deg the slope-stable pair has
    met at the fold, and two slope-unstable roots are left), so the
    residual, the distance of the sextic's nearest root y from the unit
    circle, is rounding."""
    c = coeffs_for(FaultType.DLG)
    ref = ref_deg(amp, theta, 0.5, 90.0)
    res = solve_equilibrium(c, ref, UG)
    assert not res.found and res.cond_feedback is feedback
    ys = kernels._eliminate(pack_params(c, ref, UG))[0]
    assert len(ys) == 6
    assert res.residual_norm == min(abs(abs(y) - 1.0) for y in ys) < 1e-12


def test_huge_coupled_currents_are_a_miss():
    """Both currents at 1e200 p.u. along their impedance angles, so that
    neither q-axis voltage has a certified gap: the sextic's coefficients,
    products of four amplitudes, stay finite, and the answer is a miss."""
    c = coeffs_for(FaultType.DLG)
    theta = -math.atan2(c.z2.imag, c.z2.real)
    ref = CurrentReference(1e200, theta, 1e200, theta)
    assert kernels._curve_gap(pack_params(c, ref, UG)) < 0.0
    res = solve_equilibrium(c, ref, UG)
    assert not res.found and math.isfinite(res.residual_norm)


@pytest.mark.parametrize("kwarg", ["tol", "ud_min"])
def test_newton_tolerance_and_least_ud_are_not_arguments(kwarg):
    """NEWTON_TOL and UD_MIN are constants of the solver, not options."""
    c = coeffs_for(FaultType.DLG)
    ref = ref_deg(0.76, -30.0, 0.5, 90.0)
    with pytest.raises(TypeError):
        solve_equilibrium(c, ref, UG, **{kwarg: 1e-9})
    with pytest.raises(TypeError):
        refine_root(pack_params(c, ref, UG), 1.426711, 0.251083,
                    **{kwarg: 1e-9})


@settings(max_examples=40, deadline=None)
@given(
    ip=st.floats(min_value=0.0, max_value=0.5),
    tp=st.floats(min_value=-math.pi, max_value=math.pi),
    inn=st.floats(min_value=0.0, max_value=0.3),
    tn=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_found_roots_always_qualify(ip, tp, inn, tn):
    """Whatever the injection, a reported root satisfies all three
    qualification conditions (residual, orientation, feedback)."""
    c = coeffs_for(FaultType.SLG)
    res = solve_equilibrium(c, CurrentReference(ip, tp, inn, tn), UG)
    if not res.found:
        return
    assert res.ud_pos > 0
    assert res.ud_neg >= 0
    assert abs(res.uq_pos) < 1e-7
    assert abs(res.uq_neg) < 1e-7
    prm = pack_params(c, CurrentReference(ip, tp, inn, tn), UG)
    j11, _, _, j22 = torus_reference.jacobian_eval(prm, res.delta_pos, res.delta_neg)
    assert j11 < 1e-12
    assert j22 < 1e-12


def _same_angle(a, b, tol):
    """a and b are within tol of each other on the circle."""
    return abs(math.remainder(a - b, 2.0 * math.pi)) <= tol


def _scan_oracle(prm, vacuous):
    """kernels.scan_roots on prm, called directly. The scan has nothing to
    solve in a negative equation that vanishes, so there it runs with a
    stand-in negative loop that always qualifies, r2 = sin(-delta-): its
    root delta- = 0 has slope -1 and ud- = 1."""
    if vacuous:
        prm = (*prm[:6], 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return kernels.scan_roots(prm, 180, NEWTON_TOL, NEWTON_MAXIT, UD_MIN)


class TestTriangular:
    """With one current at zero the root comes in closed form."""

    def test_matches_scan_on_seeded_references(self):
        """1,200 seeded references of SLG, DLG, LL and TLG, either current
        at zero, amplitudes up to 2.5 p.u. (past the fold at most angles):
        the scan, called directly, gives the same found and feedback, and
        the same root to 1e-9."""
        rng = np.random.default_rng(2029)
        faults = (FaultType.SLG, FaultType.DLG, FaultType.LL, FaultType.TLG)
        tally = {}
        for k in range(1200):
            fault = faults[k % 4]
            c = coeffs_for(fault, complex(*rng.uniform(0.0, 0.05, 2)))
            amp = rng.uniform(0.0, 2.5)
            theta = rng.uniform(-math.pi, math.pi)
            ref = (CurrentReference(amp, theta) if k % 8 < 4
                   else CurrentReference(0.0, 0.0, amp, theta))
            prm = pack_params(c, ref, UG)
            got = solve_equilibrium(c, ref, UG)
            found, dp, dn, _, _, feedback = _scan_oracle(
                prm, fault is FaultType.TLG)
            assert (got.found, got.cond_feedback) == (found, feedback), k
            if found:
                assert _same_angle(got.delta_pos, dp, 1e-9), k
                if fault is not FaultType.TLG:
                    assert _same_angle(got.delta_neg, dn, 1e-9), k
            key = (fault, ref.i_neg == 0.0, found, feedback)
            tally[key] = tally.get(key, 0) + 1
        # roots, folds and type-2 misses under each coupled fault, with
        # either current at zero
        for fault in faults[:3]:
            for zero_neg in (True, False):
                for verdict in ((True, True), (False, True), (False, False)):
                    assert tally.get((fault, zero_neg, *verdict), 0) >= 10

    def test_is_the_only_solve(self, monkeypatch):
        """No scan and no Newton step runs on a triangular problem."""
        def fail(*args):
            raise AssertionError("scanned or stepped a triangular problem")
        monkeypatch.setattr(kernels, "scan_roots", fail)
        monkeypatch.setattr(kernels, "newton_pair", fail)
        c = coeffs_for(FaultType.DLG)
        for ref in (ref_deg(0.5, -30.0, 0.0, 0.0), ref_deg(0.0, 0.0, 0.5, 90.0),
                    CurrentReference()):
            assert solve_equilibrium(c, ref, UG).found
            assert refine_root(pack_params(c, ref, UG), 0.0, 0.0) is not None
        assert _solve_triangular(
            pack_params(c, ref_deg(0.5, -30.0, 0.5, 90.0), UG)) is None

    @pytest.mark.parametrize("amp, found", [(0.91, True), (0.92, False),
                                            (0.93, False)])
    def test_fold_rows(self, amp, found):
        """LL, negative current at -20 deg: a root at 0.91; 0.92 lies 4e-9
        past the fold, where the scan's Newton stalls, and 0.93 past it too,
        both misses with no slope-stable root left (type 1)."""
        res = solve_equilibrium(coeffs_for(FaultType.LL),
                                ref_deg(0.0, 0.0, amp, -20.0), UG)
        assert res.found is found
        assert res.cond_feedback is found
        if not found:
            assert 0.0 < res.residual_norm < (1e-7 if amp == 0.92 else 1e-1)

    def test_fold_miss_reports_certified_gap(self):
        """The residual of a fold miss is |B sin P| - A of the equation
        with one angle, and no angle pair brings that q-axis voltage closer
        to zero."""
        c = coeffs_for(FaultType.DLG)
        ref = ref_deg(0.0, 0.0, 1.5, -30.0)
        res = solve_equilibrium(c, ref, UG)
        assert not res.found and not res.cond_feedback
        prm = pack_params(c, ref, UG)
        gap = abs(prm[kernels.P_B5] * math.sin(prm[kernels.P_P5])) \
            - prm[kernels.P_A4]
        assert res.residual_norm == gap > 0.0
        grid = np.linspace(0.0, 2.0 * math.pi, 721)
        dp, dn = np.meshgrid(grid, grid)
        _, r2 = torus_reference.residual_eval(prm, dp, dn)
        assert np.abs(r2).min() >= gap

    def test_type2_miss_reports_root_residual(self):
        """Past a type-2 limit the slope-stable root survives with ud+ at or
        below UD_MIN: the miss reports that root's max(|uq+|, |uq-|)."""
        c = coeffs_for(FaultType.DLG)
        ref = ref_deg(0.66, 90.0, 0.0, 0.0)
        res = solve_equilibrium(c, ref, UG)
        assert not res.found and res.cond_feedback
        prm = pack_params(c, ref, UG)
        _, _, dp, dn, _, _ = _solve_triangular(prm)
        feedback, qualifies, ud_p, uq_p, ud_n, uq_n = kernels.root_check(
            prm, dp, dn, UD_MIN)
        assert feedback and not qualifies and ud_p <= UD_MIN < ud_n
        assert res.residual_norm == max(abs(uq_p), abs(uq_n)) < 1e-12

    @pytest.mark.parametrize("ref", [ref_deg(0.5, -30.0, 0.0, 0.0),
                                     ref_deg(0.0, 0.0, 0.3, 90.0)])
    def test_hit_reports_largest_q_axis_voltage(self, ref):
        res = solve_equilibrium(coeffs_for(FaultType.SLG), ref, UG)
        assert res.found
        assert res.residual_norm == max(abs(res.uq_pos), abs(res.uq_neg))
        assert res.residual_norm < 1e-12

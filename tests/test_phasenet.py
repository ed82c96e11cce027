"""Tests for the explicit 6x6 fault-network solver.

Each fault type is checked against its defining boundary identities and
against the coefficient model (superposition of source and injections).
"""

import cmath
import math

import numpy as np
import pytest

from ibgsync import (
    FaultSpec,
    FaultType,
    SingularSystem,
    compose_paths,
    compute_coefficients,
    phasor,
    phasor_deg,
    solve_phase_network,
    table_circuit,
)
from ibgsync.network import BranchImpedance, CircuitParameters

ZF = 7.43801652892562e-06  # 0.01 ohm on the 110 kV / 9 MVA base

CIRCUIT = table_circuit()
INJECTIONS = [
    (0j, 0j),
    (phasor_deg(0.5, -90.0), phasor_deg(0.2, 90.0)),
    (phasor_deg(1.0, 10.0), phasor_deg(0.7, -135.0)),
]


def solve(fault_type, i_pos=0j, i_neg=0j, zf=ZF, circuit=CIRCUIT):
    return solve_phase_network(circuit, FaultSpec(fault_type, z_f=zf), i_pos, i_neg)


def _par(_c, zf=ZF):
    p = compose_paths(CIRCUIT).zg_pos
    return p * zf / (p + zf)


@pytest.mark.parametrize("fault_type", list(FaultType))
@pytest.mark.parametrize("i_pos,i_neg", INJECTIONS)
def test_solution_satisfies_assembled_system(fault_type, i_pos, i_neg):
    sol = solve(fault_type, i_pos, i_neg)
    assert sol.residual < 1e-10


@pytest.mark.parametrize("i_pos,i_neg", INJECTIONS)
def test_slg_boundary_identities(i_pos, i_neg):
    sol = solve(FaultType.SLG, i_pos, i_neg)
    i1, i2, i0 = sol.i_fault_seq
    v1, v2, v0 = sol.v_node_seq
    assert i1 == pytest.approx(i2, abs=1e-12)
    assert i1 == pytest.approx(i0, abs=1e-12)
    assert v1 + v2 + v0 == pytest.approx(3 * ZF * i1, abs=1e-12)
    # faulted phase a: voltage equals fault drop, healthy phases carry no current
    va = sol.v_node_phase[0]
    ia = sol.i_fault_phase[0]
    assert va == pytest.approx(ZF * ia, abs=1e-12)
    assert sol.i_fault_phase[1] == pytest.approx(0j, abs=1e-12)
    assert sol.i_fault_phase[2] == pytest.approx(0j, abs=1e-12)


@pytest.mark.parametrize("i_pos,i_neg", INJECTIONS)
def test_dlg_boundary_identities(i_pos, i_neg):
    sol = solve(FaultType.DLG, i_pos, i_neg)
    i1, i2, i0 = sol.i_fault_seq
    v1, v2, v0 = sol.v_node_seq
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert v0 - v1 == pytest.approx(3 * ZF * i0, abs=1e-12)
    assert i1 + i2 + i0 == pytest.approx(0j, abs=1e-12)
    # phase a stays healthy
    assert sol.i_fault_phase[0] == pytest.approx(0j, abs=1e-12)


@pytest.mark.parametrize("i_pos,i_neg", INJECTIONS)
def test_ll_boundary_identities(i_pos, i_neg):
    sol = solve(FaultType.LL, i_pos, i_neg)
    i1, i2, i0 = sol.i_fault_seq
    v1, v2, _ = sol.v_node_seq
    assert i0 == pytest.approx(0j, abs=1e-12)
    assert i1 + i2 == pytest.approx(0j, abs=1e-12)
    assert v1 - v2 == pytest.approx(ZF * i1, abs=1e-12)
    # ungrounded fault between phases b and c
    ia, ib, ic = sol.i_fault_phase
    assert ia == pytest.approx(0j, abs=1e-12)
    assert ib == pytest.approx(-ic, abs=1e-12)


@pytest.mark.parametrize("i_pos,i_neg", INJECTIONS)
def test_tlg_boundary_identities(i_pos, i_neg):
    sol = solve(FaultType.TLG, i_pos, i_neg)
    for v, i in zip(sol.v_node_seq, sol.i_fault_seq):
        assert v == pytest.approx(ZF * i, abs=1e-12)


def test_healthy_case_is_trivial():
    sol = solve(FaultType.NONE, 0j, 0j)
    assert sol.i_fault_seq == pytest.approx((0j, 0j, 0j), abs=1e-15)
    assert sol.u_term_pos == pytest.approx(
        phasor(CIRCUIT.ug_pos, CIRCUIT.theta_g - math.pi / 3.0), abs=1e-12
    )
    assert sol.u_term_neg == pytest.approx(0j, abs=1e-15)


@pytest.mark.parametrize("fault_type", list(FaultType))
def test_superposition_matches_coefficients(fault_type):
    """Terminal voltages from the 6x6 solve equal the coefficient model."""
    fault = FaultSpec(fault_type, z_f=ZF)
    c = compute_coefficients(compose_paths(CIRCUIT), fault)
    i_pos = phasor_deg(0.8, -70.0)
    i_neg = phasor_deg(0.3, 120.0)
    sol = solve_phase_network(CIRCUIT, fault, i_pos, i_neg)

    e60 = phasor(1.0, -math.pi / 3.0)
    src = phasor(CIRCUIT.ug_pos, CIRCUIT.theta_g)
    want_pos = c.k1 * src * e60 + c.z2 * i_pos + c.z3 * i_neg * e60 * e60
    want_neg = c.k4 * src / e60 + c.z5 * i_neg + c.z6 * i_pos / (e60 * e60)
    assert sol.u_term_pos == pytest.approx(want_pos, rel=1e-11, abs=1e-12)
    if fault_type is not FaultType.TLG:
        assert sol.u_term_neg == pytest.approx(want_neg, rel=1e-11, abs=1e-12)
    else:
        # the transcribed symmetric-fault column drops the I- path term
        # (z5 = 0), so only the zero-injection part of the negative voltage
        # is comparable; the network itself still presents zl + p||f
        assert sol.u_term_neg == pytest.approx(
            want_neg + (compose_paths(CIRCUIT).zl_pos + _par(c)) * i_neg,
            rel=1e-9,
        )


def test_cross_coupling_is_reciprocal_in_network_terms():
    """A positive injection moves the negative terminal voltage exactly as a
    (conjugated) negative injection moves the positive one."""
    fault = FaultSpec(FaultType.SLG, z_f=ZF)
    base = solve_phase_network(CIRCUIT, fault, 0j, 0j)
    probe = 0.37 * cmath.exp(0.4j)
    dp = solve_phase_network(CIRCUIT, fault, probe, 0j)
    dn = solve_phase_network(CIRCUIT, fault, 0j, probe)
    delta_neg = dp.u_term_neg - base.u_term_neg
    delta_pos = dn.u_term_pos - base.u_term_pos
    e60 = phasor(1.0, -math.pi / 3.0)
    # z6*conj(probe)/e120 vs z3*conj(probe)*e120: same magnitude, mirrored angle
    assert abs(delta_neg) == pytest.approx(abs(delta_pos), rel=1e-11)


def test_phase_quantities_recompose():
    sol = solve(FaultType.DLG, phasor_deg(0.5, -90.0), phasor_deg(0.2, 90.0))
    a = cmath.exp(2j * math.pi / 3.0)
    v0 = sum(sol.v_node_phase) / 3.0
    v1 = (sol.v_node_phase[0] + a * sol.v_node_phase[1] + a * a * sol.v_node_phase[2]) / 3.0
    v2 = (sol.v_node_phase[0] + a * a * sol.v_node_phase[1] + a * sol.v_node_phase[2]) / 3.0
    assert v1 == pytest.approx(sol.v_node_seq[0], abs=1e-12)
    assert v2 == pytest.approx(sol.v_node_seq[1], abs=1e-12)
    assert v0 == pytest.approx(sol.v_node_seq[2], abs=1e-12)


def test_singular_system_raises():
    zero = BranchImpedance(r=0.0, x=0.0)
    broken = CircuitParameters(
        z_t1=zero, z_t2=BranchImpedance(0.005, 0.16),
        z_l1=zero, z_l2=BranchImpedance(0.06, 0.30),
        z_g=zero, ug_pos=1.0,
    )
    with pytest.raises((SingularSystem, ZeroDivisionError)):
        solve_phase_network(broken, FaultSpec(FaultType.SLG, z_f=0j), 0j, 0j)

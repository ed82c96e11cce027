"""Tests for path composition and the sequence coupling coefficients.

Numeric anchors were computed independently from the parallel/series
impedance reductions of the faulted sequence networks before the package
existed (reference circuit, bolted 0.01-ohm fault branch).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibgsync import (
    BranchImpedance,
    CircuitParameters,
    DegenerateNetwork,
    FaultSpec,
    FaultType,
    compose_paths,
    compute_coefficients,
    polar_deg,
    table_circuit,
)

Z_BASE_OHM = 110_000.0 ** 2 / 9e6
ZF_PU = 0.01 / Z_BASE_OHM

# frozen anchors: (magnitude, degrees) per coefficient for the reference circuit
COEFF_ANCHORS = {
    FaultType.SLG: {
        "k1": (0.74441997905, 0.0841724883066),
        "z2": (0.72836835396, 80.7650167559),
        "z3": (0.0521289416264, -101.555096708),
        "k4": (0.255583164015, 179.754835766),
    },
    FaultType.DLG: {
        "k1": (0.396382348428, 0.103935363338),
        "z2": (0.657430865888, 80.9823567867),
        "z3": (0.0808464531791, 78.7940028893),
        "k4": (0.396382348428, 0.103935363338),
    },
    FaultType.LL: {
        "k1": (0.500001788218, -0.00102442880504),
        "z2": (0.67854317745, 80.8984508506),
        "z3": (0.101980025578, 78.6910919621),
        "k4": (0.499998211942, 0.00102443613235),
    },
    FaultType.TLG: {
        "k1": (3.64676155312e-05, -78.688018661),
        "z2": (0.576652764351, 81.2883599742),
        "z3": (0.0, 0.0),
        "k4": (0.0, 0.0),
    },
    FaultType.NONE: {
        "k1": (1.0, 0.0),
        "z2": (0.780457415736, 80.6100920233),
        "z3": (0.0, 0.0),
        "k4": (0.0, 0.0),
    },
}


def reference_coeffs(fault_type: FaultType, zf: complex = ZF_PU):
    paths = compose_paths(table_circuit())
    return compute_coefficients(paths, FaultSpec(fault_type, z_f=zf))


def assert_polar(z: complex, anchor: tuple[float, float]):
    mag, deg = anchor
    got_mag, got_deg = polar_deg(z)
    assert got_mag == pytest.approx(mag, rel=1e-9, abs=1e-12)
    if mag > 1e-12:
        assert got_deg == pytest.approx(deg, abs=1e-6)


def test_compose_paths_reference_circuit():
    paths = compose_paths(table_circuit())
    assert paths.zl_pos == pytest.approx(0.08733333333333 + 0.57j, rel=1e-12)
    assert paths.zl_zero == pytest.approx(0.18533333333333 + 1.06j, rel=1e-12)
    assert paths.zg_pos == pytest.approx(0.04 + 0.20j, rel=1e-12)
    assert paths.zg_zero == pytest.approx(0.12 + 0.60j, rel=1e-12)


@pytest.mark.parametrize("fault_type", list(COEFF_ANCHORS))
def test_coefficients_match_anchors(fault_type):
    c = reference_coeffs(fault_type)
    anchors = COEFF_ANCHORS[fault_type]
    assert_polar(c.k1, anchors["k1"])
    assert_polar(c.z2, anchors["z2"])
    assert_polar(c.z3, anchors["z3"])
    assert_polar(c.k4, anchors["k4"])


def test_ll_bolted_splits_grid_voltage_in_half():
    c = reference_coeffs(FaultType.LL, zf=0j)
    assert c.k1 == pytest.approx(0.5 + 0j, abs=1e-15)
    assert c.k4 == pytest.approx(0.5 + 0j, abs=1e-15)
    assert c.z3 == pytest.approx(c.k4 * compose_paths(table_circuit()).zg_pos)


def test_symmetric_faults_have_no_cross_coupling():
    for fault_type in (FaultType.TLG, FaultType.NONE):
        c = reference_coeffs(fault_type)
        assert c.z3 == 0
        assert c.z6 == 0
        assert c.k4 == 0


def test_huge_fault_impedance_approaches_healthy():
    far = reference_coeffs(FaultType.SLG, zf=1e9 + 0j)
    healthy = reference_coeffs(FaultType.NONE)
    assert far.k1 == pytest.approx(healthy.k1, rel=1e-6)
    assert far.z2 == pytest.approx(healthy.z2, rel=1e-6)
    assert abs(far.z3) < 1e-6
    assert abs(far.k4) < 1e-6


def test_degenerate_network_raises():
    zero = BranchImpedance(r=0.0, x=0.0)
    circuit = CircuitParameters(
        z_t1=zero, z_t2=zero, z_l1=zero, z_l2=zero, z_g=zero, ug_pos=1.0,
    )
    paths = compose_paths(circuit)
    with pytest.raises(DegenerateNetwork):
        compute_coefficients(paths, FaultSpec(FaultType.TLG, z_f=0j))


def test_branch_impedance_rejects_negatives():
    with pytest.raises(ValueError):
        BranchImpedance(r=-0.01, x=0.1)
    with pytest.raises(ValueError):
        CircuitParameters(
            z_t1=BranchImpedance(0.002, 0.06), z_t2=BranchImpedance(0.005, 0.16), z_l1=BranchImpedance(0.02, 0.05),
            z_l2=BranchImpedance(0.06, 0.30), z_g=BranchImpedance(0.04, 0.20),
            ug_pos=0.0,
        )


def test_fault_spec_ordering():
    with pytest.raises(ValueError):
        FaultSpec(FaultType.SLG, t_on=1.0, t_clear=0.5)


@pytest.mark.parametrize("zf", [-0.5 + 0j, complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_fault_spec_rejects_unphysical_impedance(zf):
    with pytest.raises(ValueError):
        FaultSpec(FaultType.SLG, z_f=zf)


branch_st = st.builds(
    BranchImpedance,
    r=st.floats(min_value=1e-4, max_value=0.5),
    x=st.floats(min_value=1e-3, max_value=1.0),
)
circuit_st = st.builds(
    CircuitParameters,
    z_t1=branch_st, z_t2=branch_st, z_l1=branch_st, z_l2=branch_st,
    z_g=branch_st,
    ug_pos=st.floats(min_value=0.5, max_value=1.5),
)
asym_fault_st = st.sampled_from([FaultType.SLG, FaultType.DLG, FaultType.LL])
zf_st = st.floats(min_value=0.0, max_value=0.1)


@settings(max_examples=60, deadline=None)
@given(circuit=circuit_st, fault_type=asym_fault_st, zf=zf_st)
def test_cross_coupling_reciprocity(circuit, fault_type, zf):
    """z3 = z6 for every asymmetrical fault, any circuit (reciprocity)."""
    c = compute_coefficients(compose_paths(circuit), FaultSpec(fault_type, z_f=zf))
    assert c.z3 == pytest.approx(c.z6, rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(circuit=circuit_st, fault_type=asym_fault_st, zf=zf_st)
def test_negative_gain_never_exceeds_positive(circuit, fault_type, zf):
    """|K4| <= |K1|: the faulted network passes less source voltage to the
    negative sequence than to the positive one."""
    c = compute_coefficients(compose_paths(circuit), FaultSpec(fault_type, z_f=zf))
    assert abs(c.k4) <= abs(c.k1) + 1e-12


def test_fault_type_codes_are_distinct():
    codes = {ft.code for ft in FaultType}
    assert len(codes) == len(FaultType)

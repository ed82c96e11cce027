"""Acceptance suite: the shipped guarantees, one test per criterion.

Each test asserts the stated tolerance and prints one summary line with
the measured figures (visible with -s or on failure).
"""

import math
import time

import numpy as np
import pytest

from ibgsync import (
    CurrentReference,
    FaultSpec,
    FaultType,
    InstabilityType,
    Scenario,
    SyncConfig,
    compose_paths,
    compute_coefficients,
    decoupled_limit,
    run_scenario,
    solve_equilibrium,
    table_circuit,
    traversal_limit,
    wrap_angle,
)
from ibgsync import kernels
from ibgsync.cli import oracle_errors
from ibgsync.dynsim import Signature, orientation_angles
from ibgsync.limits import Binding
from ibgsync.network import _path_floats
from rcf_reference import run_ccf, run_rcf

ZF_PU = 7.43801652892562e-06

CIRCUIT = table_circuit()
UG = CIRCUIT.ug_pos
W0 = CIRCUIT.omega0

# reference injection limits for the benchmark circuit: twelve rows of
# (fault, swept sequence, angle deg, fixed other (amp, deg), published
# limit p.u., binding mechanism)
ROWS = [
    (FaultType.SLG, "pos", -30.0, 0.2, 90.0, 1.42, Binding.TYPE1),
    (FaultType.DLG, "pos", -30.0, 0.5, 90.0, 0.76, Binding.TYPE1),
    (FaultType.LL, "pos", -30.0, 0.5, 90.0, 0.94, Binding.TYPE1),
    (FaultType.SLG, "pos", 90.0, 0.2, 90.0, 1.10, Binding.TYPE2),
    (FaultType.DLG, "pos", 90.0, 0.5, 90.0, 0.59, Binding.TYPE2),
    (FaultType.LL, "pos", 90.0, 0.5, 90.0, 0.72, Binding.TYPE2),
    (FaultType.SLG, "neg", -30.0, 0.5, -90.0, 0.54, Binding.TYPE1),
    (FaultType.DLG, "neg", -30.0, 0.5, -90.0, 0.92, Binding.TYPE1),
    (FaultType.LL, "neg", -30.0, 0.5, -90.0, 1.13, Binding.TYPE1),
    (FaultType.SLG, "neg", 90.0, 0.5, -90.0, 0.41, Binding.TYPE2),
    (FaultType.DLG, "neg", 90.0, 0.5, -90.0, 0.71, Binding.TYPE2),
    (FaultType.LL, "neg", 90.0, 0.5, -90.0, 0.87, Binding.TYPE2),
]

_DOMINANT = {
    ("pos", Binding.TYPE1): InstabilityType.POS_TYPE1,
    ("pos", Binding.TYPE2): InstabilityType.POS_TYPE2,
    ("neg", Binding.TYPE1): InstabilityType.NEG_TYPE1,
    ("neg", Binding.TYPE2): InstabilityType.NEG_TYPE2,
}
_SIGNATURE = {Binding.TYPE1: Signature.DRIFT, Binding.TYPE2: Signature.CHATTER}


def coeffs_for(fault_type):
    return compute_coefficients(
        compose_paths(CIRCUIT), FaultSpec(fault_type, z_f=ZF_PU)
    )


def row_reference(seq, amp, theta_deg, other_amp, other_deg):
    """CurrentReference with the swept sequence at amp and the other fixed."""
    if seq == "pos":
        return CurrentReference(amp, math.radians(theta_deg),
                                other_amp, math.radians(other_deg))
    return CurrentReference(other_amp, math.radians(other_deg),
                            amp, math.radians(theta_deg))


@pytest.fixture(scope="module")
def limit_suite():
    """The twelve traversal limits, computed once and timed."""
    t0 = time.perf_counter()
    results = [
        traversal_limit(coeffs_for(ft), UG, seq, math.radians(deg),
                        fixed_other=(oa, math.radians(od)))
        for ft, seq, deg, oa, od, _, _ in ROWS
    ]
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ride_through_runs(limit_suite):
    """24 closed-loop runs: each row at its computed limit and one step
    past it; 3 s horizons at dt = 1e-4."""
    results, _ = limit_suite
    runs = []
    t0 = time.perf_counter()
    for row, lim in zip(ROWS, results):
        ft, seq, deg, oa, od, _, _ = row
        for bump in (0.0, 0.01):
            ref = row_reference(seq, lim.i_limit + bump, deg, oa, od)
            scenario = Scenario(
                circuit=CIRCUIT,
                fault=FaultSpec(ft, z_f=ZF_PU, t_on=0.0),
                ref_fault=ref,
                sync=SyncConfig(),
                t_end=3.0,
                dt=1e-4,
            )
            trace, verdict = run_scenario(scenario)
            runs.append((row, bump, ref, trace, verdict))
    return runs, time.perf_counter() - t0


def test_criterion_1_reference_limit_table(limit_suite):
    """Twelve benchmark injection limits within 0.03 p.u., under 10 s."""
    results, elapsed = limit_suite
    worst = 0.0
    for (ft, seq, deg, _, _, published, binding), lim in zip(ROWS, results):
        dev = abs(lim.i_limit - published)
        worst = max(worst, dev)
        assert dev <= 0.03, (ft, seq, deg, lim.i_limit, published)
        assert lim.binding is binding
    assert elapsed < 10.0
    print(f"criterion 1: PASS  max deviation {worst:.3f} p.u., "
          f"{elapsed:.2f} s for 12 limits")


def test_criterion_2_oracle_equivalence():
    """Coefficient model vs phase-domain network: 100 random draws < 1e-9."""
    t0 = time.perf_counter()
    worst_p, worst_n = oracle_errors(100, seed=0)
    elapsed = time.perf_counter() - t0
    assert worst_p < 1e-9
    assert worst_n < 1e-9
    assert elapsed < 1.0
    print(f"criterion 2: PASS  max rel error {max(worst_p, worst_n):.2e}, "
          f"{elapsed:.2f} s")


def test_criterion_3_filter_form_equivalence():
    """Real- and complex-coefficient filter forms agree to 1e-6 over 0.2 s
    for 10 random unbalanced inputs."""
    rng = np.random.default_rng(3)
    cfg = SyncConfig()
    worst = 0.0
    for _ in range(10):
        amp_p = rng.uniform(0.3, 1.1)
        amp_n = rng.uniform(0.2, 0.8)
        ph_p, ph_n = rng.uniform(-math.pi, math.pi, size=2)
        w = W0 + 2.0 * math.pi * rng.uniform(-1.0, 1.0)

        def u_of_t(t):
            return (amp_p * np.exp(1j * (w * t + ph_p))
                    + amp_n * np.exp(-1j * (w * t + ph_n)))

        ref_p, ref_n = run_rcf(u_of_t, 0.2, 1e-4, cfg.k, W0,
                               cfg.kp_fll, cfg.ki_fll, adapt=True)
        got_p, got_n = run_ccf(u_of_t, 0.2, 1e-4, cfg, W0, adapt=True)
        worst = max(worst,
                    float(np.max(np.abs(got_p - ref_p))),
                    float(np.max(np.abs(got_n - ref_n))))
    assert worst < 1e-6
    print(f"criterion 3: PASS  max trajectory gap {worst:.2e} p.u.")


def test_criterion_4_stability_flip(ride_through_runs):
    """At each computed limit the run holds; one 0.01 p.u. step past it the
    loop loses synchronism with the matching sequence and signature."""
    runs, elapsed = ride_through_runs
    for (ft, seq, deg, _, _, _, binding), bump, _, trace, verdict in runs:
        label = (ft.value, seq, deg, bump)
        if bump == 0.0:
            assert not verdict.lost, label
        else:
            assert verdict.lost, label
            assert verdict.dominant is _DOMINANT[(seq, binding)], label
            assert verdict.signature is _SIGNATURE[binding], label
        assert not trace.diverged, label
    assert elapsed < 60.0
    print(f"criterion 4: PASS  24 runs, {elapsed:.1f} s")


def test_criterion_5_simulator_solver_consistency(ride_through_runs):
    """Every stable run settles on the solver's angles and voltages
    within 1e-3."""
    runs, _ = ride_through_runs
    worst = 0.0
    checked = 0
    for (ft, _, _, _, _, _, _), bump, ref, trace, verdict in runs:
        if bump != 0.0 or verdict.lost:
            continue
        eq = solve_equilibrium(coeffs_for(ft), ref, UG)
        assert eq.found
        theta_g = CIRCUIT.theta_g + W0 * trace.t[-1]
        dp, dn = orientation_angles(trace.theta_pos[-1], trace.theta_neg[-1],
                                    theta_g)
        devs = (abs(wrap_angle(dp - eq.delta_pos)),
                abs(wrap_angle(dn - eq.delta_neg)),
                abs(trace.ud_pos[-1] - eq.ud_pos),
                abs(trace.ud_neg[-1] - eq.ud_neg))
        worst = max(worst, *devs)
        assert max(devs) < 1e-3, (ft.value, devs)
        checked += 1
    assert checked == 12
    print(f"criterion 5: PASS  12 stable runs, worst deviation {worst:.2e}")


def test_criterion_6_model_properties():
    """Structural properties: cross-coupling symmetry, grid-term ordering,
    coupling monotonicity, decoupled/traversal agreement, and the
    worst-fault ordering across types."""
    rng = np.random.default_rng(6)
    faults = (FaultType.SLG, FaultType.DLG, FaultType.LL)

    # z3 = z6 and |K4| <= |K1| over random reactance (frequency) scalings
    paths = _path_floats(compose_paths(table_circuit()))
    for _ in range(30):
        scale = rng.uniform(0.5, 2.0)
        zf = complex(rng.uniform(0.0, 0.05))
        for ft in (*faults, FaultType.TLG, FaultType.NONE):
            k1, _, z3, k4, _, z6, _ = kernels.seq_coeffs(ft, scale, *paths,
                                                         zf)
            assert z3 == z6
            assert abs(k4) <= abs(k1) + 1e-15

    # more underexcited negative current shrinks the positive limit;
    # more overexcited positive current grows the negative limit
    for ft in faults:
        co = coeffs_for(ft)
        pos = [traversal_limit(co, UG, "pos", math.radians(-30.0),
                               fixed_other=(a, math.radians(90.0))).i_limit
               for a in (0.0, 0.25, 0.5)]
        assert pos[0] >= pos[1] >= pos[2], (ft.value, pos)
        assert pos[0] > pos[2], (ft.value, pos)
        neg = [traversal_limit(co, UG, "neg", math.radians(-30.0),
                               fixed_other=(a, math.radians(-90.0))).i_limit
               for a in (0.0, 0.25, 0.5)]
        assert neg[0] <= neg[1] <= neg[2], (ft.value, neg)
        assert neg[0] < neg[2], (ft.value, neg)

    # with no other-sequence current the swept limit matches the closed form
    for ft in faults:
        co = coeffs_for(ft)
        for seq in ("pos", "neg"):
            for deg in range(-180, 180, 30):
                closed = decoupled_limit(co, UG, seq, math.radians(deg))
                swept = traversal_limit(co, UG, seq, math.radians(deg),
                                        fixed_other=(0.0, 0.0))
                if closed.i_limit >= 3.0 or math.isinf(closed.i_limit):
                    assert swept.binding is Binding.CEILING
                else:
                    assert swept.i_limit == pytest.approx(
                        closed.i_limit, abs=0.015
                    ), (ft.value, seq, deg)

    # worst fault type: DLG binds the positive sequence, SLG the negative
    for deg in range(-180, 180, 15):
        th = math.radians(deg)
        pos = {ft: decoupled_limit(coeffs_for(ft), UG, "pos", th).i_limit
               for ft in faults}
        neg = {ft: decoupled_limit(coeffs_for(ft), UG, "neg", th).i_limit
               for ft in faults}
        assert min(pos, key=pos.get) is FaultType.DLG, (deg, pos)
        assert min(neg, key=neg.get) is FaultType.SLG, (deg, neg)

    print("criterion 6: PASS  symmetry, ordering, monotonicity, "
          "agreement, worst-fault checks")

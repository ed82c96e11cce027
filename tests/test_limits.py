"""Tests for the decoupled and traversal injection limits.

Decoupled anchors come from the closed-form circle/fold expressions
evaluated by hand; traversal anchors were frozen from an independent
amplitude sweep over the equilibrium scan (0.01 p.u. steps).
"""

import math
import random

import numpy as np
import pytest

from ibgsync import (
    Binding,
    BranchImpedance,
    CircuitParameters,
    CurrentReference,
    DegenerateNetwork,
    FaultSpec,
    FaultType,
    LimitResult,
    compose_paths,
    compute_coefficients,
    decoupled_limit,
    region_boundary,
    solve_equilibrium,
    table_circuit,
    traversal_limit,
)
from ibgsync import equilibrium, kernels, limits
from ibgsync.equilibrium import (NEWTON_MAXIT, NEWTON_TOL, UD_MIN, pack_params,
                                 refine_root)
from ibgsync.limits import (AMP_CEILING, AMP_STEP, _STRIDE, _make_ref,
                             _packer)

ZF = 7.43801652892562e-06
UG = 120.0 / 110.0

# decoupled anchors: (fault, sequence, theta_deg) -> (limit, binding)
DECOUPLED_ANCHORS = [
    (FaultType.SLG, "pos", -30.0, 1.4395, Binding.TYPE1),
    (FaultType.SLG, "pos", 90.0, 1.1150, Binding.TYPE2),
    (FaultType.SLG, "neg", -30.0, 0.4942, Binding.TYPE1),
    (FaultType.SLG, "neg", 90.0, 0.3828, Binding.TYPE2),
    (FaultType.DLG, "pos", -30.0, 0.8466, Binding.TYPE1),
    (FaultType.DLG, "pos", 90.0, 0.6577, Binding.TYPE2),
    (FaultType.LL, "pos", -30.0, 1.0359, Binding.TYPE1),
    (FaultType.LL, "pos", 90.0, 0.8039, Binding.TYPE2),
]

# traversal anchors with the other sequence held at its table operating point
TRAVERSAL_ANCHORS = [
    (FaultType.SLG, "pos", -30.0, 0.2, 90.0, 1.42, Binding.TYPE1),
    (FaultType.DLG, "pos", -30.0, 0.5, 90.0, 0.76, Binding.TYPE1),
    (FaultType.LL, "pos", -30.0, 0.5, 90.0, 0.93, Binding.TYPE1),
    (FaultType.SLG, "pos", 90.0, 0.2, 90.0, 1.10, Binding.TYPE2),
    (FaultType.DLG, "pos", 90.0, 0.5, 90.0, 0.59, Binding.TYPE2),
    (FaultType.LL, "pos", 90.0, 0.5, 90.0, 0.72, Binding.TYPE2),
    (FaultType.SLG, "neg", -30.0, 0.5, -90.0, 0.53, Binding.TYPE1),
    (FaultType.DLG, "neg", -30.0, 0.5, -90.0, 0.92, Binding.TYPE1),
    (FaultType.LL, "neg", -30.0, 0.5, -90.0, 1.13, Binding.TYPE1),
    (FaultType.SLG, "neg", 90.0, 0.5, -90.0, 0.41, Binding.TYPE2),
    (FaultType.DLG, "neg", 90.0, 0.5, -90.0, 0.71, Binding.TYPE2),
    (FaultType.LL, "neg", 90.0, 0.5, -90.0, 0.87, Binding.TYPE2),
]


def coeffs_for(fault_type, zf=ZF):
    return compute_coefficients(
        compose_paths(table_circuit()), FaultSpec(fault_type, z_f=zf)
    )


@pytest.mark.parametrize("fault_type,seq,deg,want,binding", DECOUPLED_ANCHORS)
def test_decoupled_anchors(fault_type, seq, deg, want, binding):
    out = decoupled_limit(coeffs_for(fault_type), UG, seq, math.radians(deg))
    assert out.i_limit == pytest.approx(want, abs=1e-3)
    assert out.binding is binding
    assert out.sequence == seq


def test_decoupled_circle_formula():
    c = coeffs_for(FaultType.SLG)
    out = decoupled_limit(c, UG, "neg", math.radians(90.0))
    assert out.i_limit == pytest.approx(abs(c.k4) * UG / abs(c.z5), rel=1e-12)


def test_decoupled_fold_diverges_along_impedance_angle():
    c = coeffs_for(FaultType.DLG)
    mag, ang = abs(c.z2), math.atan2(c.z2.imag, c.z2.real)
    out = decoupled_limit(c, UG, "pos", -ang)
    assert math.isinf(out.i_limit)
    assert out.binding is Binding.TYPE1


def test_decoupled_zero_numerator_gives_zero_limit():
    paths = compose_paths(table_circuit())
    c = compute_coefficients(paths, FaultSpec(FaultType.TLG, z_f=0j))
    out = decoupled_limit(c, UG, "pos", math.radians(-30.0))
    assert out.i_limit == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("fault_type,seq,deg,oa,od,want,binding", TRAVERSAL_ANCHORS)
def test_traversal_anchors(fault_type, seq, deg, oa, od, want, binding):
    out = traversal_limit(
        coeffs_for(fault_type), UG, seq, math.radians(deg),
        fixed_other=(oa, math.radians(od)),
    )
    assert out.i_limit == pytest.approx(want, abs=1e-9)
    assert out.binding is binding


def test_traversal_limit_is_boundary():
    """One step above the limit has no qualifying root, the limit itself does."""
    c = coeffs_for(FaultType.DLG)
    other = (0.5, math.radians(90.0))
    lim = traversal_limit(c, UG, "pos", math.radians(-30.0), fixed_other=other)
    at = solve_equilibrium(c, _make_ref("pos", lim.i_limit, math.radians(-30.0), other), UG)
    past = solve_equilibrium(
        c, _make_ref("pos", lim.i_limit + 0.01, math.radians(-30.0), other), UG
    )
    assert at.found
    assert not past.found


def test_traversal_finer_step_tightens_within_step():
    """A finer step resolves the limit inside the coarse step above it."""
    c = coeffs_for(FaultType.DLG)
    other = (0.5, math.radians(90.0))
    coarse = traversal_limit(c, UG, "pos", math.radians(-30.0), fixed_other=other)
    fine = traversal_limit(
        c, UG, "pos", math.radians(-30.0), fixed_other=other, step=0.00125
    )
    assert coarse.i_limit <= fine.i_limit < coarse.i_limit + 0.01


def test_traversal_ceiling():
    """Healthy network along the impedance angle: nothing binds below the cap."""
    c = coeffs_for(FaultType.NONE)
    ang = math.atan2(c.z2.imag, c.z2.real)
    out = traversal_limit(c, UG, "pos", -ang, ceiling=1.0)
    assert out.binding is Binding.CEILING
    assert out.i_limit == pytest.approx(1.0, abs=1e-12)


def test_traversal_rejects_bad_arguments():
    c = coeffs_for(FaultType.DLG)
    with pytest.raises(ValueError):
        traversal_limit(c, UG, "both", 0.0)
    with pytest.raises(ValueError):
        traversal_limit(c, UG, "pos", 0.0, step=0.0)
    with pytest.raises(ValueError):
        traversal_limit(c, UG, "pos", 0.0, step=0.5, ceiling=0.5)


def _no_solves(monkeypatch):
    """Make any equilibrium solve of the sweep fail the test at once."""
    def solve(*args, **kwargs):
        raise AssertionError("the sweep solved before rejecting its size")
    monkeypatch.setattr(limits, "solve_equilibrium", solve)
    monkeypatch.setattr(limits, "_solve_packed", solve)
    monkeypatch.setattr(limits, "refine_root", solve)


@pytest.mark.parametrize("kwargs", [
    {"step": 1e-300},
    {"step": 1e-5, "ceiling": 1e6},
    # ceiling / step overflows to inf
    {"step": 1e-300, "ceiling": 1e300},
])
def test_traversal_rejects_unbounded_work(kwargs, monkeypatch):
    """A step too fine for the sweep to finish is rejected before any solve."""
    _no_solves(monkeypatch)
    with pytest.raises(ValueError, match="amplitude points"):
        traversal_limit(coeffs_for(FaultType.DLG), UG, "pos", 0.0, **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"angle_step": 1e-12},
    # subnormal: the angle count overflows to inf
    {"angle_step": 5e-324},
    # each traversal alone is within bounds (1e5 amplitudes), 1,000 of them
    # are not
    {"angle_step": 2.0 * math.pi / 1000, "step": 3e-5},
])
def test_region_rejects_unbounded_work(kwargs, monkeypatch):
    """Angle and amplitude steps whose sweep could not finish are rejected
    before any solve."""
    _no_solves(monkeypatch)
    with pytest.raises(ValueError, match="amplitude points"):
        region_boundary(coeffs_for(FaultType.DLG), UG, "pos", **kwargs)


def test_sweeps_ignore_grid_deg():
    """Both sweeps take grid_deg, the benchmark's warm-up passes it, and
    neither reads it, whatever its value."""
    c = coeffs_for(FaultType.DLG)
    other = (0.5, math.radians(90.0))
    want = traversal_limit(c, UG, "pos", 0.0, fixed_other=other, step=0.1)
    region = region_boundary(c, UG, "pos", other, math.pi / 2, step=0.1)
    for grid_deg in (30.0, 0.0, math.nan):
        assert traversal_limit(c, UG, "pos", 0.0, fixed_other=other,
                               step=0.1, grid_deg=grid_deg) == want
        assert region_boundary(c, UG, "pos", other, math.pi / 2, step=0.1,
                               grid_deg=grid_deg) == region


def test_region_counts_whole_traversals(monkeypatch):
    """1000.5 angles' worth of 29,985 amplitudes is within the cap, but the
    sweep runs 1,001 whole traversals (30,014,985 points), which is not."""
    _no_solves(monkeypatch)
    with pytest.raises(ValueError, match="amplitude points"):
        region_boundary(coeffs_for(FaultType.DLG), UG, "pos",
                        angle_step=(2.0 * math.pi - 1e-12) / 1000.5,
                        step=3.0 / 29985)


@pytest.mark.parametrize("kwargs", [
    {"sequence": "both"},
    {"fixed_other": (-0.1, 0.0)},
    {"fixed_other": (math.nan, 0.0)},
    {"fixed_other": (0.5, math.inf)},
])
def test_region_checks_inputs_before_any_solve(kwargs, monkeypatch):
    _no_solves(monkeypatch)
    args = {"sequence": "pos", "angle_step": math.radians(30.0), **kwargs}
    with pytest.raises(ValueError):
        region_boundary(coeffs_for(FaultType.DLG), UG, **args)


def test_region_within_budget_is_accepted(monkeypatch):
    """A 0.5 deg sweep at 1e-4 p.u. (21.6 million points, within the
    ten-minute budget) passes the size check: only its traversals are
    stubbed."""
    def traversal(sequence, theta, packed, edge, step, *args):
        assert step == 1e-4
        return LimitResult(sequence, theta, 0.0, Binding.TYPE1)
    monkeypatch.setattr(limits, "_traverse", traversal)
    b = region_boundary(coeffs_for(FaultType.DLG), UG, "pos",
                        angle_step=math.radians(0.5), step=1e-4)
    assert len(b.samples) == 720


def test_limit_result_validation():
    with pytest.raises(ValueError):
        LimitResult("up", 0.0, 1.0, Binding.TYPE1)
    with pytest.raises(ValueError):
        LimitResult("pos", 0.0, -1.0, Binding.TYPE1)
    with pytest.raises(ValueError):
        LimitResult("pos", 0.0, math.nan, Binding.TYPE1)


def test_underexcited_negative_current_shrinks_positive_limit():
    """Coupling direction: raising underexcited (90 deg) negative current
    lowers the positive-sequence limit monotonically."""
    c = coeffs_for(FaultType.DLG)
    limits = [
        traversal_limit(
            c, UG, "pos", math.radians(-30.0),
            fixed_other=(amp, math.radians(90.0)),
        ).i_limit
        for amp in (0.0, 0.25, 0.5)
    ]
    assert limits[0] >= limits[1] >= limits[2]
    assert limits[0] > limits[2]


def test_overexcited_positive_current_expands_negative_limit():
    c = coeffs_for(FaultType.SLG)
    limits = [
        traversal_limit(
            c, UG, "neg", math.radians(90.0),
            fixed_other=(amp, math.radians(-90.0)),
        ).i_limit
        for amp in (0.0, 0.25, 0.5)
    ]
    assert limits[2] >= limits[1] >= limits[0]
    assert limits[2] > limits[0]


def test_decoupled_agrees_with_traversal_at_zero_other():
    """With the other sequence silent, the traversal lands within one step
    of the closed form wherever the latter sits below the sweep cap."""
    c = coeffs_for(FaultType.DLG)
    for deg in (-150.0, -90.0, -30.0, 30.0, 90.0, 150.0):
        closed = decoupled_limit(c, UG, "pos", math.radians(deg))
        swept = traversal_limit(c, UG, "pos", math.radians(deg), ceiling=3.0)
        if closed.i_limit >= 3.0:
            assert swept.binding is Binding.CEILING
            assert swept.i_limit == pytest.approx(3.0, abs=1e-12)
        else:
            assert swept.i_limit == pytest.approx(closed.i_limit, abs=0.0101)
            assert swept.binding is closed.binding


def test_traversal_degenerate_binding_matches_closed_form():
    """A healthy network leaves the negative equation identically zero, so
    the failure binding comes from the closed-form positive solve."""
    c = coeffs_for(FaultType.NONE)
    for deg in (0.0, 90.0, 150.0, -150.0):
        closed = decoupled_limit(c, UG, "pos", math.radians(deg))
        swept = traversal_limit(c, UG, "pos", math.radians(deg))
        assert swept.i_limit == pytest.approx(closed.i_limit, abs=0.0101)
        assert swept.binding is closed.binding


def test_region_boundary_samples():
    c = coeffs_for(FaultType.DLG)
    region = region_boundary(
        c, UG, "pos", angle_step=math.pi / 2.0,
        fixed_other=(0.5, math.radians(90.0)),
    )
    assert len(region.samples) == 4
    angles = [s.theta_i for s in region.samples]
    assert angles == pytest.approx([-math.pi, -math.pi / 2, 0.0, math.pi / 2])
    assert region.sequence == "pos"
    for s in region.samples:
        assert s.i_limit >= 0.0


def test_region_boundary_contains_traversal_points():
    c = coeffs_for(FaultType.SLG)
    region = region_boundary(c, UG, "neg", angle_step=math.pi / 3.0)
    for s in region.samples:
        direct = traversal_limit(c, UG, "neg", s.theta_i)
        assert s.i_limit == pytest.approx(direct.i_limit, abs=1e-12)
        assert s.binding is direct.binding


def _grid_steps(step):
    """Grid amplitudes up to AMP_CEILING at `step`."""
    return int(math.floor(AMP_CEILING / step + 1e-9))


def _per_step_segment(coeffs, sequence, theta_i, other, start, first, last,
                      step, ug=UG):
    """Grid amplitudes first + 1 .. last written out one object per
    amplitude: a CurrentReference, pack_params' floats, refine_root on them
    from the previous root and, on a miss, solve_equilibrium. The first
    warm start seeds from `start`; with None the first amplitude scans.
    Returns the failing LimitResult (None if all of them pass), the warm
    starts as (packed floats, seed angles, refine_root's answer) and the
    last accepted root."""
    steps = []
    prev = start
    for k in range(first + 1, last + 1):
        ref = _make_ref(sequence, k * step, theta_i, other)
        prm = pack_params(coeffs, ref, ug)
        if prev is not None:
            seed = prev
            prev = refine_root(prm, prev[0], prev[1])
            steps.append((prm, seed, prev))
        if prev is None:
            res = solve_equilibrium(coeffs, ref, ug)
            if not res.found:
                binding = Binding.TYPE2 if res.cond_feedback else Binding.TYPE1
                return (LimitResult(sequence, theta_i, (k - 1) * step,
                                    binding), steps, None)
            prev = (res.delta_pos, res.delta_neg)
    return None, steps, prev


def _per_step_traversal(coeffs, sequence, theta_i, fixed_other=None,
                        start=None, step=AMP_STEP, ug=UG):
    """A traversal that visits every grid amplitude (_per_step_segment over
    the whole grid). With `start` None, the default, the first amplitude
    scans, which makes this an oracle that shares no start with
    traversal_limit. Returns the limit and the warm starts."""
    other = fixed_other if fixed_other is not None else (0.0, 0.0)
    n_steps = _grid_steps(step)
    limit, steps, _ = _per_step_segment(coeffs, sequence, theta_i, other,
                                        start, 0, n_steps, step, ug)
    if limit is None:
        limit = LimitResult(sequence, theta_i, n_steps * step, Binding.CEILING)
    return limit, steps


def _assert_strided_plan(coeffs, sequence, theta_i, fixed_other, step, start,
                         steps, ug=UG):
    """Read a traversal's warm starts (_recorded) as the strided plan and
    return the limit the plan gives. From the last accepted root at grid
    index k, a stride warm-starts from that root at k + _STRIDE, clamped to
    the ceiling. Where the stride misses, or no root is known, the warm
    starts up to k + _STRIDE are the per-step form's from the root at k,
    scans included.

    Where the closed form answers at the first amplitude and a start is
    given, the first stride is the edge jump: to index min(n_steps,
    floor(decoupled_limit / step)), no warm start when that is 0. Where it
    holds, the plan goes on from there with no root carried, so the next
    amplitudes are solved afresh and the strides count from the jump;
    where it misses, the plan starts over from index 0."""
    other = fixed_other if fixed_other is not None else (0.0, 0.0)
    n_steps = _grid_steps(step)
    root, k, i, base = start, 0, 0, 0
    first = pack_params(coeffs, _make_ref(sequence, step, theta_i, other), ug)
    if root is not None and equilibrium._solve_triangular(first) is not None:
        edge = decoupled_limit(coeffs, ug, sequence, theta_i).i_limit
        jump = (min(n_steps, math.floor(edge / step)) if edge < math.inf
                else n_steps)
        out = root
        if jump > 0:
            prm, seed, out = steps[0]
            i = 1
            assert seed == root
            assert prm == pack_params(
                coeffs, _make_ref(sequence, jump * step, theta_i, other), ug)
        if out is not None:
            root, k, base = None, jump, jump
    while k < n_steps:
        end = min(k + _STRIDE, n_steps)
        if root is not None:
            prm, seed, out = steps[i]
            i += 1
            assert seed == root
            assert (end - base) % _STRIDE == 0 or end == n_steps
            assert prm == pack_params(
                coeffs, _make_ref(sequence, end * step, theta_i, other), ug)
            if out is not None:
                root, k = out, end
                continue
        limit, fine, root = _per_step_segment(coeffs, sequence, theta_i,
                                              other, root, k, end, step, ug)
        assert steps[i:i + len(fine)] == fine
        i += len(fine)
        if limit is not None:
            assert i == len(steps)
            return limit
        k = end
    assert i == len(steps)
    return LimitResult(sequence, theta_i, n_steps * step, Binding.CEILING)


def _same_angle(a, b, tol):
    """a and b are within tol of each other on the circle."""
    return abs(math.remainder(a - b, 2.0 * math.pi)) <= tol


def _assert_is_scan_root(root, prm, tol=1e-12):
    """root is the qualifying root kernels.scan_roots finds on prm."""
    found, _, dp, dn, _, _ = kernels.scan_roots(prm, 180, NEWTON_TOL,
                                                NEWTON_MAXIT, UD_MIN)
    assert found and root is not None
    assert _same_angle(root[0], dp, tol) and _same_angle(root[1], dn, tol)


def _zero_root(coeffs, sequence, fixed_other=None, ug=UG):
    """The root with the swept current at zero, or None."""
    other = fixed_other if fixed_other is not None else (0.0, 0.0)
    res = solve_equilibrium(coeffs, _make_ref(sequence, 0.0, 0.0, other), ug)
    return (res.delta_pos, res.delta_neg) if res.found else None


def _recorded(monkeypatch):
    """Record each warm start of the traversal as _per_step_traversal does."""
    steps = []

    def recording(prm, dp, dn):
        out = refine_root(prm, dp, dn)
        steps.append((prm, (dp, dn), out))
        return out
    monkeypatch.setattr(limits, "refine_root", recording)
    return steps


def _assert_same_traversal(monkeypatch, coeffs, sequence, theta_i,
                           fixed_other=None, step=AMP_STEP, ug=UG):
    """traversal_limit gives the limit of the per-step form from the
    zero-current root and of the scan-first form, and its warm starts
    follow the strided plan from the zero-current root."""
    steps = _recorded(monkeypatch)
    got = traversal_limit(coeffs, ug, sequence, theta_i,
                          fixed_other=fixed_other, step=step)
    zero = _zero_root(coeffs, sequence, fixed_other, ug)
    want = _per_step_traversal(coeffs, sequence, theta_i, fixed_other, zero,
                               step, ug)[0]
    assert got == want
    assert got == _assert_strided_plan(coeffs, sequence, theta_i,
                                       fixed_other, step, zero, steps, ug)
    assert got == _per_step_traversal(coeffs, sequence, theta_i, fixed_other,
                                      step=step, ug=ug)[0]
    return steps


@pytest.mark.parametrize("fault_type,seq,deg,oa,od,want,binding", TRAVERSAL_ANCHORS)
def test_traversal_matches_per_step_form(fault_type, seq, deg, oa, od, want,
                                         binding, monkeypatch):
    """The packed-float traversal gives the per-step form's limit exactly,
    and its warm starts follow the strided plan, packing included."""
    steps = _assert_same_traversal(monkeypatch, coeffs_for(fault_type), seq,
                                   math.radians(deg), (oa, math.radians(od)))
    # the strides up to the limit, and the grid steps of the one that misses
    assert len(steps) > 5


@pytest.mark.parametrize("fault_type,seq,deg,oa,od,want,binding", TRAVERSAL_ANCHORS)
def test_traversal_starts_from_zero_current_root(fault_type, seq, deg, oa, od,
                                                want, binding, monkeypatch):
    """The first stride warm-starts from the root with the swept current
    at zero, which is the zero-current scan's root, and holds the eighth
    grid amplitude. That root comes in closed form, so the only scan is
    the one that confirms the failure."""
    c = coeffs_for(fault_type)
    theta, other = math.radians(deg), (oa, math.radians(od))
    zero = _zero_root(c, seq, other)
    _assert_is_scan_root(
        zero, pack_params(c, _make_ref(seq, 0.0, 0.0, other), UG))
    scans = []
    scan = kernels.scan_roots
    monkeypatch.setattr(kernels, "scan_roots",
                        lambda *args: scans.append(args) or scan(*args))
    steps = _recorded(monkeypatch)
    got = traversal_limit(c, UG, seq, theta, fixed_other=other)
    prm, seed, out = steps[0]
    assert seed == zero is not None
    assert prm == pack_params(
        c, _make_ref(seq, _STRIDE * AMP_STEP, theta, other), UG)
    assert out is not None
    failing = round(got.i_limit / AMP_STEP) + 1
    assert scans == [(pack_params(
        c, _make_ref(seq, failing * AMP_STEP, theta, other), UG),
        0, NEWTON_TOL, NEWTON_MAXIT, UD_MIN)]
    assert (got.i_limit, got.binding) == (pytest.approx(want), binding)


@pytest.mark.parametrize("fault_type,seq", [
    (fault, seq) for fault in (FaultType.SLG, FaultType.DLG, FaultType.LL,
                               FaultType.TLG) for seq in ("pos", "neg")])
def test_region_matches_per_step_form(fault_type, seq):
    """Every sample of a 5 deg sweep is the per-step form's limit from the
    zero-current root, and every sixth (30 deg apart) the scan-first
    form's."""
    c = coeffs_for(fault_type)
    other = (0.5, -math.pi / 2.0)
    zero = _zero_root(c, seq, other)
    region = region_boundary(c, UG, seq, fixed_other=other,
                             angle_step=math.radians(5.0))
    assert len(region.samples) == 72
    assert list(region.samples) == [
        _per_step_traversal(c, seq, s.theta_i, other, zero)[0]
        for s in region.samples]
    assert list(region.samples[::6]) == [
        _per_step_traversal(c, seq, s.theta_i, other)[0]
        for s in region.samples[::6]]


@pytest.mark.parametrize("cross", [0.5e-12, 2e-12])
@pytest.mark.parametrize("seq", ["pos", "neg"])
@pytest.mark.parametrize("fault_type", list(FaultType))
def test_triangular_gate_at_its_tolerance(fault_type, seq, cross):
    """A held current whose larger packed term of the two the triangular
    gate reads (C3 and B5 for a positive sweep, B2 and C6 for a negative
    one) is half or twice kernels.DEGENERATE_TOL: the gate, taken once a
    sweep, is on and off, and every sample of a 30 deg sweep is the
    per-step form's either way. Under TLG the negative
    current enters no packed term, so every sweep is triangular whatever
    it holds."""
    c = coeffs_for(fault_type)
    polars = equilibrium._polars(c)
    mag = max(polars[4], polars[8]) if seq == "pos" else max(polars[2],
                                                            polars[10])
    other = (cross / mag if mag > 0.0 else cross, math.radians(60.0))
    gated = fault_type is FaultType.TLG or cross < kernels.DEGENERATE_TOL
    first = pack_params(c, _make_ref(seq, AMP_STEP, 0.0, other), UG)
    assert (equilibrium._triangular(first) is not None) is gated
    zero = _zero_root(c, seq, other)
    region = region_boundary(c, UG, seq, fixed_other=other,
                             angle_step=math.radians(30.0))
    assert len(region.samples) == 12
    assert list(region.samples) == [
        _per_step_traversal(c, seq, s.theta_i, other, zero)[0]
        for s in region.samples]


def _sweep_is_per_angle(coeffs, seq, other, angle_step):
    """Assert that region_boundary's samples are traversal_limit's at its
    angles. Returns the sweep, the start each of its traversals was given
    and its warm starts as _recorded lists them."""
    starts = []
    traverse = limits._traverse

    def recording(*args):
        starts.append(args[-1])
        return traverse(*args)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(limits, "_traverse", recording)
        steps = _recorded(m)
        region = region_boundary(coeffs, UG, seq, fixed_other=other,
                                 angle_step=angle_step)
    want = [traversal_limit(coeffs, UG, seq, s.theta_i, fixed_other=other)
            for s in region.samples]
    assert list(region.samples) == want
    return region, starts, steps


@pytest.mark.parametrize("other", [None, (0.5, -math.pi / 2.0)])
@pytest.mark.parametrize("step", [0.01, 0.002])
@pytest.mark.parametrize("seq", ["pos", "neg"])
@pytest.mark.parametrize("fault_type", [FaultType.SLG, FaultType.DLG,
                                        FaultType.LL])
def test_triangular_sweeps_match_scans(fault_type, seq, step, other):
    """A 1 deg sweep with no current held is triangular at every
    amplitude, and one with a current held at its zero-current start.
    With the closed form switched off it runs on warm-start Newton and
    scans, and gives the same samples. TLG is left out: its negative
    equation vanishes, and the scan has nothing to solve there."""
    c = coeffs_for(fault_type)
    sweep = dict(fixed_other=other, angle_step=math.radians(1.0), step=step)
    got = region_boundary(c, UG, seq, **sweep)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(equilibrium, "_solve_triangular", lambda prm: None)
        want = region_boundary(c, UG, seq, **sweep)
    assert len(got.samples) == 360
    assert got == want


class TestSharedStart:
    """Every angle of a region sweep warm-starts its first amplitude from
    the zero-current root and gives the answer traversal_limit gives."""

    @pytest.mark.parametrize("other", [None, (0.5, -math.pi / 2.0),
                                       (1.0, math.pi / 4.0)])
    @pytest.mark.parametrize("seq", ["pos", "neg"])
    @pytest.mark.parametrize("fault_type", [FaultType.SLG, FaultType.DLG,
                                            FaultType.LL])
    def test_matches_traversals(self, fault_type, seq, other):
        c = coeffs_for(fault_type)
        region, starts, _ = _sweep_is_per_angle(c, seq, other,
                                                math.radians(30.0))
        assert len(region.samples) == len(starts) == 12
        assert starts == [_zero_root(c, seq, other)] * 12

    def test_edge_below_first_step_solves_it_afresh(self):
        """TLG pos: the zero-current root exists, but at every angle the
        closed-form edge lies below the first grid amplitude, so no warm
        start runs: the first amplitude is solved afresh and misses
        (limit 0)."""
        c = coeffs_for(FaultType.TLG)
        region, starts, steps = _sweep_is_per_angle(c, "pos", None,
                                                    math.radians(30.0))
        assert starts[0] is not None and starts == [starts[0]] * 12
        assert all(decoupled_limit(c, UG, "pos", s.theta_i).i_limit
                   < AMP_STEP for s in region.samples)
        assert steps == []
        assert {(s.i_limit, s.binding) for s in region.samples} \
            == {(0.0, Binding.TYPE1)}

    def test_zero_current_miss_scans_every_angle(self):
        """DLG pos with 1.0@90 held: no root at zero swept current, so every
        angle starts with the scan."""
        _, starts, _ = _sweep_is_per_angle(
            coeffs_for(FaultType.DLG), "pos", (1.0, math.pi / 2.0),
            math.radians(30.0))
        assert starts == [None] * 12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_sweeps(self, seed):
        """Ten seeded draws of fault, z_f, other current and angle step,
        most of them warm-started from a zero-current root."""
        rng = random.Random(seed)
        warm = 0
        for _ in range(10):
            fault = rng.choice([FaultType.SLG, FaultType.DLG, FaultType.LL,
                                FaultType.TLG])
            zf = complex(rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05))
            seq = rng.choice(["pos", "neg"])
            other = rng.choice([None, (rng.uniform(0.0, 1.2),
                                       rng.uniform(-math.pi, math.pi))])
            angle_step = math.radians(rng.uniform(15.0, 60.0))
            _, starts, _ = _sweep_is_per_angle(coeffs_for(fault, zf), seq,
                                               other, angle_step)
            warm += starts[0] is not None
        assert warm >= 5


def test_degenerate_traversal_matches_per_step_form(monkeypatch):
    """TLG leaves the negative equation identically zero: every warm start
    takes the closed-form branch."""
    c = coeffs_for(FaultType.TLG)
    held = 0
    for deg in range(-180, 180, 30):
        steps = _assert_same_traversal(monkeypatch, c, "pos",
                                       math.radians(deg - 81.29))
        held += sum(out is not None for _, _, out in steps)
    assert held > 0


@pytest.mark.parametrize("seed", range(4))
def test_random_traversals_match_per_step_form(seed, monkeypatch):
    """Seeded draws of fault, z_f, sequence, angle, held current and step."""
    rng = random.Random(seed)
    for _ in range(10):
        fault = rng.choice([FaultType.SLG, FaultType.DLG, FaultType.LL,
                            FaultType.TLG])
        zf = complex(rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05))
        seq = rng.choice(["pos", "neg"])
        theta = rng.uniform(-math.pi, math.pi)
        other = rng.choice([None, (rng.uniform(0.0, 1.2),
                                   rng.uniform(-math.pi, math.pi))])
        step = rng.choice([0.01, 0.02, 0.05])
        _assert_same_traversal(monkeypatch, coeffs_for(fault, zf), seq,
                               theta, other, step)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_circuit_coeffs(rng, fault):
    """A circuit with log-uniform branch impedances, z_f and grid voltage:
    its coefficients under `fault` and its grid voltage."""
    while True:
        branches = [BranchImpedance(_log_uniform(rng, 1e-3, 0.1),
                                    _log_uniform(rng, 1e-2, 0.3))
                    for _ in range(5)]
        ug = _log_uniform(rng, 0.8, 1.25)
        zf = complex(_log_uniform(rng, 1e-6, 0.05),
                     _log_uniform(rng, 1e-6, 0.05))
        try:
            return compute_coefficients(
                compose_paths(CircuitParameters(*branches, ug_pos=ug)),
                FaultSpec(fault, z_f=zf)), ug
        except DegenerateNetwork:
            continue


@pytest.mark.parametrize("seed", range(4))
def test_random_circuits_match_per_step_form(seed, monkeypatch):
    """Forty seeded draws of circuit (_random_circuit_coeffs), fault,
    sequence, angle, held current and step: the traversal gives the
    per-step forms' limits and follows the strided plan."""
    rng = random.Random(1000 + seed)
    for _ in range(40):
        fault = rng.choice([FaultType.SLG, FaultType.DLG, FaultType.LL,
                            FaultType.TLG])
        c, ug = _random_circuit_coeffs(rng, fault)
        seq = rng.choice(["pos", "neg"])
        theta = rng.uniform(-math.pi, math.pi)
        other = rng.choice([None, (rng.uniform(0.0, 1.2),
                                   rng.uniform(-math.pi, math.pi))])
        step = rng.choice([0.005, 0.01, 0.02, 0.05])
        _assert_same_traversal(monkeypatch, c, seq, theta, other, step, ug)


def test_stride_clamps_to_ceiling(monkeypatch):
    """A ceiling of 1.0 is 100 grid steps, not a multiple of _STRIDE: with
    a current held, the last stride lands on the ceiling, not past it, and
    the sweep reports CEILING there. With none held the edge is infinite
    and the one warm start is the jump to the ceiling."""
    c = coeffs_for(FaultType.DLG)
    theta = -math.atan2(c.z2.imag, c.z2.real)
    for other, amps in (((0.5, -math.pi / 2.0), [*range(_STRIDE, 100, _STRIDE),
                                                100]),
                        (None, [100])):
        steps = _recorded(monkeypatch)
        out = traversal_limit(c, UG, "pos", theta, fixed_other=other,
                              ceiling=1.0)
        assert out == LimitResult("pos", theta, 100 * AMP_STEP,
                                  Binding.CEILING)
        assert [prm for prm, _, _ in steps] == [
            pack_params(c, _make_ref("pos", k * AMP_STEP, theta,
                                     other or (0.0, 0.0)), UG)
            for k in amps]
        assert all(out is not None for _, _, out in steps)


def _counted(monkeypatch):
    """Record each solve of the sweep as (name, packed floats): the
    traversals' refine_root, and the full solves on packed floats
    (equilibrium._solve_packed), the zero-current start's among them;
    solve_equilibrium too, should the sweep call it."""
    solves = []

    def refining(prm, dp, dn):
        solves.append(("refine_root", tuple(prm)))
        return refine_root(prm, dp, dn)

    def solving_packed(prm):
        solves.append(("_solve_packed", tuple(prm)))
        return equilibrium._solve_packed(prm)

    def solving(coeffs, ref, ug):
        solves.append(("solve_equilibrium", pack_params(coeffs, ref, ug)))
        return solve_equilibrium(coeffs, ref, ug)
    monkeypatch.setattr(limits, "refine_root", refining)
    monkeypatch.setattr(limits, "_solve_packed", solving_packed)
    monkeypatch.setattr(limits, "solve_equilibrium", solving)
    return solves


@pytest.mark.parametrize("seq", ["pos", "neg"])
@pytest.mark.parametrize("fault_type", [FaultType.SLG, FaultType.DLG,
                                        FaultType.LL])
def test_no_current_sweep_solves_at_the_edge(fault_type, seq, monkeypatch):
    """With no current held, a 5 deg sweep makes the same solves at steps
    0.01 and 0.001: besides the zero-current start, the jump and the one
    solve past it, at most two an angle, however fine the step."""
    c = coeffs_for(fault_type)
    counts = []
    for step in (0.01, 0.001):
        solves = _counted(monkeypatch)
        region = region_boundary(c, UG, seq, angle_step=math.radians(5.0),
                                 step=step)
        assert len(region.samples) == 72
        counts.append([name for name, _ in solves])
    assert counts[0] == counts[1]
    assert counts[0][0] == "_solve_packed"
    assert "solve_equilibrium" not in counts[0]
    assert len(counts[0]) <= 1 + 2 * 72


@pytest.mark.parametrize("seq", ["pos", "neg"])
@pytest.mark.parametrize("fault_type", [FaultType.SLG, FaultType.DLG,
                                        FaultType.LL])
def test_no_current_sweep_evaluates_closed_form_twice(fault_type, seq,
                                                      monkeypatch):
    """With no current held, a 5 deg sweep evaluates the closed form
    (equilibrium._solve_triangular) at most twice an angle, at the jump
    and at the one solve past it, besides the zero-current start: the
    jump's gate reads only the triangular form (equilibrium._triangular)."""
    calls = []
    closed = equilibrium._solve_triangular

    def counting(prm):
        calls.append(prm)
        return closed(prm)
    # in limits too, should the gate look the closed form up there
    monkeypatch.setattr(equilibrium, "_solve_triangular", counting)
    monkeypatch.setattr(limits, "_solve_triangular", counting, raising=False)
    region = region_boundary(coeffs_for(fault_type), UG, seq,
                             angle_step=math.radians(5.0))
    assert len(region.samples) == 72
    assert 72 < len(calls) <= 1 + 2 * 72


def _constructions(monkeypatch):
    """Count the calls of equilibrium._polars and the EquilibriumResult and
    CurrentReference objects built."""
    counts = {"_polars": 0, "EquilibriumResult": 0, "CurrentReference": 0}
    polars = equilibrium._polars

    def counting(coeffs):
        counts["_polars"] += 1
        return polars(coeffs)
    monkeypatch.setattr(equilibrium, "_polars", counting)
    monkeypatch.setattr(limits, "_polars", counting)
    for cls in (equilibrium.EquilibriumResult, CurrentReference):
        def building(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", building)
    return counts


def test_sweeps_build_objects_only_for_the_start(monkeypatch):
    """A sweep packs the coefficient polars once and runs every solve, the
    zero-current start's included, on packed floats: a 72-angle SLG pos
    region with no current held (9 angles at the ceiling) and one coupled
    traversal each take _polars once, build at most one reference, the
    start's, and no result."""
    c = coeffs_for(FaultType.SLG)
    counts = _constructions(monkeypatch)
    region = region_boundary(c, UG, "pos")
    assert len(region.samples) == 72
    assert sum(s.binding is Binding.CEILING for s in region.samples) == 9
    assert counts["_polars"] == 1
    assert counts["EquilibriumResult"] == 0
    assert counts["CurrentReference"] <= 1
    counts.update(dict.fromkeys(counts, 0))
    got = traversal_limit(c, UG, "pos", math.radians(-30.0),
                          fixed_other=(0.2, math.radians(90.0)))
    assert (got.i_limit, got.binding) == (pytest.approx(1.42), Binding.TYPE1)
    assert counts["_polars"] == 1
    assert counts["EquilibriumResult"] == 0
    assert counts["CurrentReference"] <= 1


@pytest.mark.parametrize("fault_type,seq", [(FaultType.DLG, "pos"),
                                            (FaultType.TLG, "neg")])
def test_edge_at_ceiling_takes_one_solve(fault_type, seq, monkeypatch):
    """An angle whose closed-form edge lies past the ceiling: DLG pos along
    the impedance angle, and TLG neg, whose edge is infinite at every
    angle. Past the zero-current start, the traversal's one solve is the
    jump to the ceiling."""
    c = coeffs_for(fault_type)
    z = c.z2 if seq == "pos" else c.z5
    theta = -math.atan2(z.imag, z.real)
    assert decoupled_limit(c, UG, seq, theta).i_limit == math.inf
    solves = _counted(monkeypatch)
    got = traversal_limit(c, UG, seq, theta)
    assert got == LimitResult(seq, theta, AMP_CEILING, Binding.CEILING)
    assert solves == [
        ("_solve_packed",
         pack_params(c, _make_ref(seq, 0.0, 0.0, (0.0, 0.0)), UG)),
        ("refine_root",
         pack_params(c, _make_ref(seq, AMP_CEILING, theta, (0.0, 0.0)), UG))]


def test_jump_onto_the_edge_falls_back(monkeypatch):
    """An edge that lands on a grid amplitude: the jump there misses, as
    the voltage condition fails on the circle, and the traversal strides
    from the zero-current root as with no jump, to the per-step forms'
    answer. DLG pos on the voltage circle's side, on an amplitude grid
    whose 50th step is the circle |K1| Ug / |Z2| as decoupled_limit gives
    it."""
    c = coeffs_for(FaultType.DLG)
    theta = math.pi - math.atan2(c.z2.imag, c.z2.real)
    edge = decoupled_limit(c, UG, "pos", theta)
    assert edge.binding is Binding.TYPE2
    step = edge.i_limit / 50
    steps = _assert_same_traversal(monkeypatch, c, "pos", theta, step=step)
    zero = _zero_root(c, "pos")
    assert steps[0][1:] == (zero, None)
    assert steps[0][0] == pack_params(
        c, _make_ref("pos", 50 * step, theta, (0.0, 0.0)), UG)
    assert steps[1][:2] == (pack_params(
        c, _make_ref("pos", _STRIDE * step, theta, (0.0, 0.0)), UG), zero)


@pytest.mark.parametrize("fault_type,seq,deg", [
    (FaultType.SLG, "pos", -30.0), (FaultType.DLG, "neg", 90.0),
    (FaultType.LL, "pos", 150.0), (FaultType.TLG, "pos", -81.29)])
def test_jump_that_overshoots_falls_back(fault_type, seq, deg, monkeypatch):
    """With the sweep's closed-form edge (limits._edge, decoupled_limit's
    rule) patched one grid step too far, every jump misses, and the
    traversal gives the per-step forms' answer by strides from the
    zero-current root."""
    c, theta = coeffs_for(fault_type), math.radians(deg)
    edge = decoupled_limit(c, UG, seq, theta)
    assert 2 * AMP_STEP <= edge.i_limit < AMP_CEILING - AMP_STEP
    closed = limits._edge

    def overshooting(*args):
        limit, binding = closed(*args)
        return limit + AMP_STEP, binding
    monkeypatch.setattr(limits, "_edge", overshooting)
    steps = _recorded(monkeypatch)
    got = traversal_limit(c, UG, seq, theta)
    zero = _zero_root(c, seq)
    jump = math.floor(edge.i_limit / AMP_STEP) + 1
    assert steps[0] == (pack_params(
        c, _make_ref(seq, jump * AMP_STEP, theta, (0.0, 0.0)), UG), zero,
        None)
    assert steps[1][:2] == (pack_params(
        c, _make_ref(seq, _STRIDE * AMP_STEP, theta, (0.0, 0.0)), UG), zero)
    assert got == _per_step_traversal(c, seq, theta, None, zero)[0]
    assert got == _per_step_traversal(c, seq, theta)[0]


@pytest.mark.parametrize("seq", ["pos", "neg"])
@pytest.mark.parametrize("other", [(0.0, 0.0), (0.5, -math.pi / 2.0)])
def test_swept_packing_is_pack_params(seq, other):
    """The traversal's packed floats are pack_params' values bit for bit."""
    c = coeffs_for(FaultType.SLG)
    theta = math.radians(-30.0)
    packed = _packer(equilibrium._polars(c), UG, seq, theta,
                     _make_ref(seq, 0.0, 0.0, other))
    for k in (1, 2, 7, 76, 143, 300):
        amp = k * AMP_STEP
        want = pack_params(c, _make_ref(seq, amp, theta, other), UG)
        assert [v.hex() for v in packed(amp)] == [v.hex() for v in want]


@pytest.mark.parametrize("kwargs", [
    {"theta_i": math.nan},
    {"theta_i": math.inf},
    {"theta_i": -math.inf},
    {"fixed_other": (-0.1, 0.0)},
    {"fixed_other": (math.nan, 0.0)},
    {"fixed_other": (math.inf, 0.0)},
    {"fixed_other": (0.5, math.nan)},
    {"fixed_other": (0.5, math.inf)},
    {"fixed_other": (0.5, -math.inf)},
])
@pytest.mark.parametrize("seq", ["pos", "neg"])
def test_traversal_checks_inputs_before_any_solve(kwargs, seq, monkeypatch):
    _no_solves(monkeypatch)
    args = {"theta_i": 0.0, **kwargs}
    with pytest.raises(ValueError):
        traversal_limit(coeffs_for(FaultType.DLG), UG, seq, **args)


# the Newton cap NEWTON_MAXIT was sized against
_LONG_CAP = 80


def _scan_answer(prm, grid_n, tol, maxit, ud_min):
    """What a scan answers: found, feedback (the binding) and, on a find,
    the root and its voltages; not the residual of a miss."""
    found, feedback, dp, dn, volts, _ = kernels.scan_roots(
        prm, grid_n, tol, maxit, ud_min)
    return (found, feedback, dp, dn, volts) if found else (found, feedback)


def _assert_cap_changes_no_scan(prm, grid_n=180, tol=1e-10, ud_min=1e-9):
    assert (_scan_answer(prm, grid_n, tol, NEWTON_MAXIT, ud_min)
            == _scan_answer(prm, grid_n, tol, _LONG_CAP, ud_min))


def _traversal_at_caps(monkeypatch, coeffs, seq, theta, other):
    """The limit and binding at NEWTON_MAXIT and at the long cap, and the
    arguments of every scan the first traversal ran."""
    scans = []
    scan = kernels.scan_roots
    with monkeypatch.context() as m:
        m.setattr(kernels, "scan_roots",
                  lambda *args: scans.append(args) or scan(*args))
        short = traversal_limit(coeffs, UG, seq, theta, fixed_other=other)
    with monkeypatch.context() as m:
        m.setattr(equilibrium, "NEWTON_MAXIT", _LONG_CAP)
        long = traversal_limit(coeffs, UG, seq, theta, fixed_other=other)
    return (short.i_limit, short.binding), (long.i_limit, long.binding), scans


class TestNewtonCap:
    """NEWTON_MAXIT gives the answers that a cap of 80 gives: a candidate
    of the sextic or a warm start that converges needs far fewer steps,
    and past the fold no root exists."""

    @pytest.mark.parametrize("fault_type,seq,deg,oa,od,want,binding",
                             TRAVERSAL_ANCHORS)
    def test_reference_rows(self, fault_type, seq, deg, oa, od, want, binding,
                            monkeypatch):
        """The same limit and binding, and the same answer from the scan
        that confirms the failure, the one scan that runs: the
        zero-current start comes in closed form."""
        short, long, scans = _traversal_at_caps(
            monkeypatch, coeffs_for(fault_type), seq, math.radians(deg),
            (oa, math.radians(od)))
        assert short == long
        assert len(scans) == 1
        for prm, grid_n, tol, maxit, ud_min in scans:
            assert maxit == NEWTON_MAXIT
            _assert_cap_changes_no_scan(prm, grid_n, tol, ud_min)

    @pytest.mark.parametrize("amp, found", [(0.91, True), (0.92, False),
                                            (0.93, False)])
    def test_fold_rows(self, amp, found, monkeypatch):
        """LL, negative current at -20 deg: a root at 0.91; at 0.92 and 0.93
        no slope-stable root is left, both past the fold (0.92 by 4e-9) and
        both misses."""
        c = coeffs_for(FaultType.LL)
        theta = math.radians(-20.0)
        prm = pack_params(c, CurrentReference(0.0, 0.0, amp, theta), UG)
        _assert_cap_changes_no_scan(prm)
        assert _scan_answer(prm, 180, 1e-10, NEWTON_MAXIT, 1e-9)[1] is found
        if amp == 0.91:
            short, long, _ = _traversal_at_caps(monkeypatch, c, "neg", theta,
                                                None)
            assert short == long == (pytest.approx(0.91), Binding.TYPE1)

    def test_random_draws(self):
        """300 seeded generic parameter sets, as in the torus-oracle test."""
        rng = np.random.default_rng(20261019)
        found = 0
        for k in range(300):
            prm = np.empty(12)
            prm[0::2] = rng.uniform(0.0, 2.0, 6)
            prm[1::2] = rng.uniform(-math.pi, math.pi, 6)
            ud_min = (1e-9, 0.3)[k % 2]
            _assert_cap_changes_no_scan(prm, ud_min=ud_min)
            found += _scan_answer(prm, 180, 1e-10, NEWTON_MAXIT, ud_min)[0]
        # both answers are well represented
        assert 30 < found < 270

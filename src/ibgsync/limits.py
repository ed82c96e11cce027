"""Current-injection limits: decoupled closed forms, coupled amplitude
traversal, and polar region boundaries.

Two mechanisms bound the injectable amplitude of either sequence. Type 1 is
the fold of the orientation equation (the sine equation loses its real
root). Type 2 is the d-axis voltage crossing zero while the root persists.
Which one binds depends on the side of the impedance angle the injection
sits on: with cos(phi + theta_i) < 0 the voltage magnitude shrinks with
amplitude and the type-2 circle is reached first; otherwise the voltage
grows and only the fold can bind.
"""

import enum
import math
from dataclasses import dataclass

from .equilibrium import (
    NEWTON_TOL,
    SCAN_GRID_DEG,
    UD_MIN,
    CurrentReference,
    InstabilityType,
    _pack,
    _polars,
    refine_root,
    solve_equilibrium,
)
from .network import SequenceCoefficients
from .phasor import polar, wrap_angle

__all__ = [
    "Binding",
    "LimitResult",
    "RegionBoundary",
    "decoupled_limit",
    "traversal_limit",
    "region_boundary",
    "classify",
]

_SEQUENCES = ("pos", "neg")
# traversal defaults: amplitude increment and sweep ceiling, p.u.
AMP_STEP = 0.01
AMP_CEILING = 3.0
# most amplitude points one traversal or one region sweep may visit, set by a
# ten-minute budget when a warm-started amplitude point cost 15-19 us (600 s
# / 20 us = 3e7). On packed floats a point costs 6-9 us (region sweeps of
# the three faults at 1e-3 and 1e-4 p.u. steps, 30 deg apart, 2-core VM),
# so a sweep at the cap takes three to four and a half minutes. A finer step
# is rejected before any solve; the largest documented sweep, 72 angles at
# --step 0.00125, asks for 172,800 points
MAX_SWEEP_POINTS = 3 * 10**7


class Binding(enum.Enum):
    """Constraint that sets a limit: fold, voltage circle, or scan ceiling."""

    TYPE1 = "type1"
    TYPE2 = "type2"
    CEILING = "ceiling"


@dataclass(frozen=True)
class LimitResult:
    """Injection limit for one sequence at one angle."""

    sequence: str
    theta_i: float
    i_limit: float
    binding: Binding

    def __post_init__(self):
        if self.sequence not in _SEQUENCES:
            raise ValueError(f"sequence must be one of {_SEQUENCES}")
        if self.i_limit < 0:
            raise ValueError("i_limit must be >= 0")


@dataclass(frozen=True)
class RegionBoundary:
    """Ordered limit samples over a full angle sweep of one sequence."""

    sequence: str
    fixed_other: tuple[float, float] | None
    samples: tuple[LimitResult, ...]


def _own_pair(coeffs: SequenceCoefficients, sequence: str) -> tuple[complex, complex]:
    if sequence == "pos":
        return coeffs.k1, coeffs.z2
    if sequence == "neg":
        return coeffs.k4, coeffs.z5
    raise ValueError(f"sequence must be one of {_SEQUENCES}")


def decoupled_limit(
    coeffs: SequenceCoefficients, ug_pos: float, sequence: str, theta_i: float
) -> LimitResult:
    """Closed-form single-sequence limit ignoring cross coupling.

    On the shrinking side (cos(phi) < 0) the limit is the type-2 circle
    |K| Ug / |Z|; on the growing side only the type-1 fold
    |K| Ug / (|Z| |sin(phi)|) applies and tends to infinity as the
    injection aligns with the impedance angle.
    """
    k, z = _own_pair(coeffs, sequence)
    zm, za = polar(z)
    km = abs(k)
    if zm < 1e-15:
        return LimitResult(sequence, theta_i, math.inf, Binding.CEILING)
    phi = wrap_angle(za + theta_i)
    circle = km * ug_pos / zm
    if math.cos(phi) < 0.0:
        return LimitResult(sequence, theta_i, circle, Binding.TYPE2)
    s = abs(math.sin(phi))
    if s > 1e-9:
        return LimitResult(sequence, theta_i, circle / s, Binding.TYPE1)
    return LimitResult(sequence, theta_i, math.inf, Binding.TYPE1)


def _make_ref(
    sequence: str, amp: float, theta_i: float, other: tuple[float, float]
) -> CurrentReference:
    if sequence == "pos":
        return CurrentReference(amp, theta_i, other[0], other[1])
    return CurrentReference(other[0], other[1], amp, theta_i)


def _packer(coeffs: SequenceCoefficients, ug_pos: float, sequence: str,
            ref: CurrentReference):
    """The packed floats as a function of the swept amplitude, the other
    current and both angles taken from ref: pack_params of
    _make_ref(sequence, amp, ...) without building it."""
    polars = _polars(coeffs)
    i_p, th_p = ref.i_pos, ref.theta_i_pos
    i_n, th_n = ref.i_neg, ref.theta_i_neg
    if sequence == "pos":
        return lambda amp: _pack(polars, ug_pos, amp, th_p, i_n, th_n)
    return lambda amp: _pack(polars, ug_pos, i_p, th_p, amp, th_n)


def _amplitude_steps(step: float, ceiling: float, sweeps: float) -> int:
    """Amplitude steps of one traversal, after checking step and ceiling
    and that `sweeps` traversals stay within MAX_SWEEP_POINTS; every sweep
    and config.SolverOptions check step and ceiling with this."""
    # "not <" also rejects NaN
    if not 0.0 < step < math.inf:
        raise ValueError("step must be finite and > 0")
    if not step < ceiling < math.inf:
        raise ValueError("ceiling must be finite and exceed step")
    # compared before rounding: ceiling / step may overflow to inf
    if not sweeps * (ceiling / step) <= MAX_SWEEP_POINTS:
        raise ValueError(
            f"the sweep asks for more than {MAX_SWEEP_POINTS} amplitude points"
        )
    return int(math.floor(ceiling / step + 1e-9))


def traversal_limit(
    coeffs: SequenceCoefficients,
    ug_pos: float,
    sequence: str,
    theta_i: float,
    fixed_other: tuple[float, float] | None = None,
    step: float = AMP_STEP,
    ceiling: float = AMP_CEILING,
    grid_deg: float = SCAN_GRID_DEG,
    tol: float = NEWTON_TOL,
    ud_min: float = UD_MIN,
) -> LimitResult:
    """Largest amplitude of one sequence for which a qualifying equilibrium
    exists, holding the other sequence fixed.

    Amplitudes are swept upward from `step` in `step` increments up to
    `ceiling`. Each step warm-starts Newton from the previous root on the
    packed floats (refine_root); a warm-start miss is confirmed by a full
    scan (solve_equilibrium) before the amplitude is declared failing. The
    reported limit is the last passing amplitude on this grid, so `step`
    alone sets the resolution. A step that asks for more than
    MAX_SWEEP_POINTS amplitudes is a ValueError. Every input is checked
    before any solve.
    """
    if sequence not in _SEQUENCES:
        raise ValueError(f"sequence must be one of {_SEQUENCES}")
    n_steps = _amplitude_steps(step, ceiling, 1.0)
    other = fixed_other if fixed_other is not None else (0.0, 0.0)
    # checks the angles and the other amplitude; only the swept amplitude
    # changes from one packing to the next
    packed = _packer(coeffs, ug_pos, sequence,
                     _make_ref(sequence, step, theta_i, other))

    prev: tuple[float, float] | None = None
    for k in range(1, n_steps + 1):
        amp = k * step
        if prev is not None:
            prev = refine_root(packed(amp), prev[0], prev[1], tol, ud_min)
        if prev is None:
            ref = _make_ref(sequence, amp, theta_i, other)
            res = solve_equilibrium(coeffs, ref, ug_pos, grid_deg, tol, ud_min)
            if not res.found:
                break
            prev = (res.delta_pos, res.delta_neg)
    else:
        return LimitResult(sequence, theta_i, n_steps * step, Binding.CEILING)

    # res is the scan that confirmed the failure at k * step: a surviving
    # slope-stable root means the voltage condition failed (type 2), none
    # means the fold (type 1), where Newton may also stall short of a root
    binding = Binding.TYPE2 if res.cond_feedback else Binding.TYPE1
    return LimitResult(sequence, theta_i, (k - 1) * step, binding)


def region_boundary(
    coeffs: SequenceCoefficients,
    ug_pos: float,
    sequence: str,
    fixed_other: tuple[float, float] | None = None,
    angle_step: float = math.pi / 36,
    step: float = AMP_STEP,
    ceiling: float = AMP_CEILING,
    grid_deg: float = SCAN_GRID_DEG,
    tol: float = NEWTON_TOL,
    ud_min: float = UD_MIN,
) -> RegionBoundary:
    """Sweep theta_i over [-pi, pi) and collect the traversal limit at each
    angle. Ceiling-capped samples keep the CEILING binding flag. Angle and
    amplitude steps that ask for more than MAX_SWEEP_POINTS amplitudes over
    the sweep are a ValueError, raised before any solve."""
    if not 0.0 < angle_step < math.inf:
        raise ValueError("angle_step must be finite and > 0")
    angles = (2.0 * math.pi - 1e-12) / angle_step
    _amplitude_steps(step, ceiling, angles)
    n = int(math.ceil(angles))
    samples = []
    for k in range(n):
        theta = -math.pi + k * angle_step
        samples.append(
            traversal_limit(
                coeffs, ug_pos, sequence, float(theta),
                fixed_other=fixed_other, step=step, ceiling=ceiling,
                grid_deg=grid_deg, tol=tol, ud_min=ud_min,
            )
        )
    return RegionBoundary(sequence, fixed_other, tuple(samples))


def _excess(amp: float, limit: float) -> float:
    """Fractional violation of a per-angle limit; 0 when nothing injected."""
    if limit > 0.0:
        return amp / limit
    return math.inf if amp > 0.0 else 0.0


def classify(
    coeffs: SequenceCoefficients, ref: CurrentReference, ug_pos: float
) -> InstabilityType:
    """STABLE when a qualifying root exists; otherwise the most-violated
    per-angle single-sequence limit decides the dominant sequence and
    mechanism, ties going to the positive sequence."""
    result = solve_equilibrium(coeffs, ref, ug_pos)
    if result.found:
        return InstabilityType.STABLE
    lim_p = decoupled_limit(coeffs, ug_pos, "pos", ref.theta_i_pos)
    lim_n = decoupled_limit(coeffs, ug_pos, "neg", ref.theta_i_neg)
    excess_p = _excess(ref.i_pos, lim_p.i_limit)
    excess_n = _excess(ref.i_neg, lim_n.i_limit)
    seq, lim = ("pos", lim_p) if excess_p >= excess_n else ("neg", lim_n)
    mech = "type2" if lim.binding is Binding.TYPE2 else "type1"
    return InstabilityType(f"{seq}_{mech}")

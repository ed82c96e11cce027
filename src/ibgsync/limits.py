"""Current-injection limits: decoupled closed forms, coupled amplitude
traversal, and polar region boundaries.

Two mechanisms bound the injectable amplitude of either sequence. Type 1 is
the fold of the orientation equation (the sine equation loses its real
root). Type 2 is the d-axis voltage crossing zero while the root persists.
Which one binds depends on the side of the impedance angle the injection
sits on: with cos(phi + theta_i) < 0 the voltage magnitude shrinks with
amplitude and the type-2 circle is reached first; otherwise the voltage
grows and only the fold can bind.

The traversal is a coarse continuation in amplitude: Newton starts from the
last accepted root _STRIDE grid steps on, and only a stride that misses is
filled in one grid step at a time, so the limit is still read at one grid
step. Every sweep (_sweep) starts each angle from one root, the equilibrium
with the swept current at zero, where the angle has no effect. With one
current at zero the orientation equations are triangular and every solve
is closed-form (equilibrium._solve_triangular): that start, and every
amplitude of a sweep that holds no other current. There the edge is
closed-form too (decoupled_limit), so the traversal jumps to the grid
amplitude below it and reads the limit at the grid step past it, with no
stride in between. Every solve, that start's included, runs on packed
floats.
"""

import enum
import functools
import math
from dataclasses import dataclass

from .equilibrium import (
    CurrentReference,
    InstabilityType,
    _pack,
    _polars,
    _solve_packed,
    _triangular,
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
# grid steps from a traversal's last accepted root to its next warm start;
# the amplitudes in between are visited only when that warm start misses
_STRIDE = 8
# most grid amplitudes one traversal or one region sweep may span, set by a
# ten-minute budget when a warm-started amplitude point cost 15-19 us (600 s
# / 20 us = 3e7). The cap counts grid amplitudes, not the ones a strided
# traversal visits, so it bounds the worst case, a traversal whose every
# stride misses: nine warm starts per eight grid amplitudes, at 6-9 us a
# point on packed floats (region sweeps of the three faults at 1e-3 and
# 1e-4 p.u. steps, 30 deg apart, 2-core VM), under five minutes at the cap.
# A finer step is rejected before any solve; the largest documented sweep,
# 72 angles at --step 0.00125, asks for 172,800 points
MAX_SWEEP_POINTS = 3 * 10**7


class Binding(enum.Enum):
    """Constraint that sets a limit: fold, voltage circle, or sweep ceiling."""

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
        # "not >=" also rejects NaN
        if not self.i_limit >= 0:
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
    injection aligns with the impedance angle. With the other current at
    zero there is no cross coupling to ignore: this is the coupled edge,
    the amplitude where the closed-form root (equilibrium._solve_triangular)
    stops qualifying, which a traversal with no held current jumps to.
    """
    k, z = _own_pair(coeffs, sequence)
    return LimitResult(sequence, theta_i,
                       *_edge(abs(k) * ug_pos, *polar(z), theta_i))


def _edge(kug, zm, za, theta_i):
    """decoupled_limit's (limit, binding) from |K| Ug and Z = zm e^{j za}."""
    if zm < 1e-15:
        return math.inf, Binding.CEILING
    phi = wrap_angle(za + theta_i)
    circle = kug / zm
    if math.cos(phi) < 0.0:
        return circle, Binding.TYPE2
    s = abs(math.sin(phi))
    return (circle / s if s > 1e-9 else math.inf), Binding.TYPE1


def _make_ref(
    sequence: str, amp: float, theta_i: float, other: tuple[float, float]
) -> CurrentReference:
    if sequence == "pos":
        return CurrentReference(amp, theta_i, other[0], other[1])
    return CurrentReference(other[0], other[1], amp, theta_i)


def _packer(polars: tuple[float, ...], ug_pos: float, sequence: str,
            theta_i: float, ref: CurrentReference):
    """The packed floats as a function of the swept amplitude at theta_i,
    the other current taken from ref: pack_params of _make_ref(sequence,
    amp, theta_i, ...) without building it, from the coefficients' _polars."""
    th = wrap_angle(theta_i)
    if sequence == "pos":
        i_n, th_n = ref.i_neg, ref.theta_i_neg
        return lambda amp: _pack(polars, ug_pos, amp, th, i_n, th_n)
    i_p, th_p = ref.i_pos, ref.theta_i_pos
    return lambda amp: _pack(polars, ug_pos, i_p, th_p, amp, th)


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
    grid_deg: float | None = None,
) -> LimitResult:
    """Largest amplitude of one sequence for which a qualifying equilibrium
    exists, holding the other sequence fixed: a sweep of one angle.

    The amplitude grid runs from `step` in `step` increments up to
    `ceiling`. Newton on the packed floats (refine_root) warm-starts from
    the last accepted root, the first from the root with the swept current
    at zero, eight grid steps on (_STRIDE); only where that misses are the
    grid amplitudes in between taken one at a time, and a warm-start miss
    there is confirmed by a full solve on the same packed floats (every
    torus root of the sextic, or the closed form) before the amplitude
    fails. With no other current held every solve is closed-form, and the
    first stride goes straight to the grid amplitude below the edge that
    decoupled_limit gives, then on one grid step at a time; where that
    amplitude misses, the strides start over from the zero-current root.
    The limit is the last passing grid amplitude, so `step` alone sets the
    resolution. More than MAX_SWEEP_POINTS grid amplitudes is a ValueError;
    every input is checked before any solve. grid_deg is not read; the
    benchmark's warm-up passes it until its next change.
    """
    return _sweep(coeffs, ug_pos, sequence, 1, lambda k: theta_i,
                  fixed_other, step, ceiling)[0]


def region_boundary(
    coeffs: SequenceCoefficients,
    ug_pos: float,
    sequence: str,
    fixed_other: tuple[float, float] | None = None,
    angle_step: float = math.pi / 36,
    step: float = AMP_STEP,
    ceiling: float = AMP_CEILING,
    grid_deg: float | None = None,
) -> RegionBoundary:
    """Sweep theta_i over [-pi, pi) and collect the traversal limit at each
    angle, as traversal_limit gives it. Ceiling-capped samples keep the
    CEILING binding flag. Angle and amplitude steps that ask for more than
    MAX_SWEEP_POINTS amplitudes over the sweep's whole traversals are a
    ValueError, raised before any solve. grid_deg is not read, as in
    traversal_limit."""
    if not 0.0 < angle_step < math.inf:
        raise ValueError("angle_step must be finite and > 0")
    angles = (2.0 * math.pi - 1e-12) / angle_step
    # whole traversals; a subnormal angle_step overflows the count to inf
    n = math.ceil(angles) if angles < math.inf else math.inf
    samples = _sweep(coeffs, ug_pos, sequence, n,
                     lambda k: float(-math.pi + k * angle_step), fixed_other,
                     step, ceiling)
    return RegionBoundary(sequence, fixed_other, samples)


def _sweep(coeffs, ug_pos, sequence, n_angles, angle, fixed_other, step,
           ceiling) -> tuple[LimitResult, ...]:
    """The traversal limit at each angle(k), k < n_angles. Every input is
    checked before any solve: the sequence, the amplitude points over all
    angles, each angle and the held current. With the swept current at zero
    the angle has no effect and the problem is triangular, so the sweep
    solves it once, in closed form, and warm-starts every angle's traversal
    from its root; an angle solves its first amplitude from scratch only
    where that root is missing or both the stride and the first grid step
    miss from it. That start is the sweep's one reference, solved with no
    result object on the floats of one packer at angle 0, which the
    triangular gate reads too; the polars, the gate and the edge's |K| Ug
    and Z are taken once."""
    k, z = _own_pair(coeffs, sequence)
    n_steps = _amplitude_steps(step, ceiling, n_angles)
    thetas = list(map(angle, range(n_angles)))
    if not all(map(math.isfinite, thetas)):
        raise ValueError("angle must be finite")
    other = fixed_other if fixed_other is not None else (0.0, 0.0)
    # CurrentReference checks the held current and wraps its angle
    ref = _make_ref(sequence, 0.0, 0.0, other)
    polars = _polars(coeffs)
    zero = _packer(polars, ug_pos, sequence, 0.0, ref)
    found, _, dp, dn, _, _ = _solve_packed(zero(0.0))
    start = (dp, dn) if found else None
    edge = None
    # the triangular form reads magnitudes only: one gate for every angle
    if _triangular(zero(step)):
        edge = functools.partial(_edge, abs(k) * ug_pos, *polar(z))
    return tuple(_traverse(sequence, theta,
                           _packer(polars, ug_pos, sequence, theta, ref),
                           edge, step, n_steps, start)
                 for theta in thetas)


def _traverse(sequence, theta_i, packed, edge, step, n_steps, start):
    """One angle's amplitude loop on checked arguments. `packed` gives the
    packed floats at an amplitude (_packer); `edge`, the closed-form
    (limit, binding) at an angle (_edge), or None off the triangular form;
    `start`, a root to warm-start from, or None to solve the first
    amplitude from scratch.

    From the last accepted root at grid index k, one warm start tries index
    k + _STRIDE (clamped to n_steps). Where it holds, the amplitudes in
    between are skipped; where it misses, or no root is known, the
    amplitudes k + 1 .. k + _STRIDE are taken one at a time from the root
    at k, each warm miss confirmed by a full solve on the same floats
    (_solve_packed). The failing amplitude and its binding thus come from
    one grid step and the solve that confirms it, as in a loop that visits
    every grid amplitude.

    Where `edge` is given, the first stride instead jumps to the grid index
    below the edge, min(n_steps, floor(edge / step)); index 0 is the start
    itself. Where that holds, the amplitudes past it are taken one at a
    time by full solves, which solve the same closed form as a warm start,
    so the one solve at the failing amplitude also gives its binding. Where
    the jump misses (a grid amplitude on the edge or within rounding of it,
    or either sequence's d-axis voltage at most UD_MIN there), the strides
    start from index 0 as above. Every answer is the closed form at a grid
    amplitude, so the jump trusts the amplitudes it skips as a stride
    does."""
    # k: the grid index of the last accepted root; fill: the index up to
    # which the amplitudes are visited one at a time
    prev, k, fill = start, 0, 0
    if prev is not None and edge is not None:
        jumps = edge(theta_i)[0] / step
        jump = n_steps if jumps >= n_steps else int(jumps)
        if jump == 0 or refine_root(packed(jump * step), *prev) is not None:
            # the closed form takes no warm start: the amplitudes past the
            # edge are solved afresh, one at a time
            prev, k = None, jump
    while k < n_steps:
        if k >= fill:
            fill = min(k + _STRIDE, n_steps)
            if prev is not None:
                far = refine_root(packed(fill * step), prev[0], prev[1])
                if far is not None:
                    prev, k = far, fill
                    continue
        k += 1
        prm = packed(k * step)
        if prev is not None:
            prev = refine_root(prm, prev[0], prev[1])
        if prev is None:
            found, feedback, dp, dn, _, _ = _solve_packed(prm)
            if not found:
                break
            prev = (dp, dn)
    else:
        return LimitResult(sequence, theta_i, n_steps * step, Binding.CEILING)

    # the solve that confirmed the failure at k * step: a surviving
    # slope-stable root means the voltage condition failed (type 2), none
    # means the fold (type 1), where Newton may also stall short of a root
    binding = Binding.TYPE2 if feedback else Binding.TYPE1
    return LimitResult(sequence, theta_i, (k - 1) * step, binding)


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

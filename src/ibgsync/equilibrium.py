"""Steady-state orientation angles (delta+, delta-) of the dual
synchronization loops and their existence/stability classification.

The two q-axis voltages must vanish with positive d-axis voltages
(orientation) and negative per-loop feedback slopes (stability). Each
equation is a trigonometric polynomial of degree one in each angle, so
eliminating delta+ leaves a sextic in e^{j delta-} whose roots on the unit
circle give every root (kernels.scan_roots); Newton polishes each one
before the root conditions judge it. When one sequence carries no current
the equations are triangular and the root is an arcsine and a phase
(_solve_triangular), with no polynomial.
"""

import cmath
import enum
import math
from dataclasses import dataclass

from . import kernels
from .kernels import DEGENERATE_TOL, P_B2, P_B5, P_C3, P_C6
from .network import SequenceCoefficients
from .phasor import polar, wrap_angle

__all__ = [
    "CurrentReference",
    "EquilibriumResult",
    "InstabilityType",
    "pack_params",
    "dq_voltages",
    "solve_equilibrium",
]

_TWO_PI = 2.0 * math.pi

# Newton iteration cap for sextic candidates and warm starts; past the fold a
# start runs to it. On 2,304 region-sweep limits and 3,000 random solves every
# converged warm start took <= 8 steps and every answer at caps 10-16 was 80's
NEWTON_MAXIT = 16
# stand-ins for the exact orientation conditions, not model parameters: a
# q-axis residual below NEWTON_TOL is zero, a d-axis voltage above UD_MIN
# is positive
NEWTON_TOL = 1e-10
UD_MIN = 1e-9


class InstabilityType(enum.Enum):
    """Which sequence loses orientation and through which mechanism."""

    STABLE = "stable"
    POS_TYPE1 = "pos_type1"
    POS_TYPE2 = "pos_type2"
    NEG_TYPE1 = "neg_type1"
    NEG_TYPE2 = "neg_type2"


@dataclass(frozen=True)
class CurrentReference:
    """Sequence current commands: amplitudes and angles in the own frames."""

    i_pos: float = 0.0
    theta_i_pos: float = 0.0
    i_neg: float = 0.0
    theta_i_neg: float = 0.0

    def __post_init__(self):
        # "not <=" also rejects NaN
        if not (0.0 <= self.i_pos < math.inf and 0.0 <= self.i_neg < math.inf):
            raise ValueError("current amplitudes must be finite and >= 0")
        object.__setattr__(self, "theta_i_pos", wrap_angle(self.theta_i_pos))
        object.__setattr__(self, "theta_i_neg", wrap_angle(self.theta_i_neg))


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved angle pair with the voltages and condition verdicts.

    On a miss (found False) the angles and voltages are NaN,
    cond_orientation is False, and cond_feedback tells whether some
    converged root still has both feedback slopes negative: True means only
    the d-axis voltage condition failed (type 2), False means no such root
    is left (the fold, type 1).
    """

    found: bool
    delta_pos: float
    delta_neg: float
    ud_pos: float
    uq_pos: float
    ud_neg: float
    uq_neg: float
    cond_orientation: bool
    cond_feedback: bool
    residual_norm: float


def _polars(coeffs: SequenceCoefficients) -> tuple[float, ...]:
    """Magnitude and angle of K1, Z2, Z3, K4, Z5, Z6, as twelve floats."""
    return (*polar(coeffs.k1), *polar(coeffs.z2), *polar(coeffs.z3),
            *polar(coeffs.k4), *polar(coeffs.z5), *polar(coeffs.z6))


def _pack(polars, ug_pos, i_pos, theta_i_pos, i_neg, theta_i_neg):
    """The twelve packed parameters as floats, from _polars and the grid
    voltage and current commands (wrapped angles)."""
    k1m, k1a, z2m, z2a, z3m, z3a, k4m, k4a, z5m, z5a, z6m, z6a = polars
    return (
        k1m * ug_pos, k1a,
        z2m * i_pos, z2a + theta_i_pos,
        z3m * i_neg, z3a + theta_i_neg,
        k4m * ug_pos, k4a,
        z5m * i_neg, z5a + theta_i_neg,
        z6m * i_pos, z6a + theta_i_pos,
    )


def pack_params(
    coeffs: SequenceCoefficients, ref: CurrentReference, ug_pos: float
) -> tuple[float, ...]:
    """Pack the twelve floats driving the orientation equations.

    Layout: amplitude/angle pairs of grid, own-current, and cross-current
    contributions, positive sequence first (see kernels.P_* indices).
    """
    return _pack(_polars(coeffs), ug_pos, ref.i_pos, ref.theta_i_pos,
                 ref.i_neg, ref.theta_i_neg)


def dq_voltages(
    coeffs: SequenceCoefficients,
    ref: CurrentReference,
    ug_pos: float,
    delta_pos: float,
    delta_neg: float,
) -> tuple[float, float, float, float]:
    """Frame-rotated voltages (ud+, uq+, ud-, uq-) at an angle pair.

    The negative sequence uses the clockwise-frame convention
    ud- - j uq-, so uq- is minus the imaginary part of the rotated sum.
    """
    return kernels.root_check(pack_params(coeffs, ref, ug_pos), delta_pos,
                              delta_neg, UD_MIN)[2:]


def _triangular(prm):
    """"pos" when the negative sequence carries no current (C3, B5 below
    DEGENERATE_TOL), "neg" when the positive carries none (B2, C6), else
    None: the one test of the triangular form, which _solve_triangular and
    a sweep's edge jump (limits._traverse) read."""
    if prm[P_C3] < DEGENERATE_TOL and prm[P_B5] < DEGENERATE_TOL:
        return "pos"
    if prm[P_B2] < DEGENERATE_TOL and prm[P_C6] < DEGENERATE_TOL:
        return "neg"
    return None


def _solve_triangular(prm):
    """The answer in closed form when one sequence carries no current, or
    None when prm is not of that form (_triangular): (found, feedback,
    delta+, delta-, (ud+, uq+, ud-, uq-), residual), NaN angles and None
    voltages where no root exists. prm is any 12-sequence of packed floats.

    With C3 = B5 = 0 (no negative current) the positive equation involves
    delta+ alone, A1 sin(F1 - delta+) + B2 sin P2 = 0: its slope-stable root
    is delta+ = F1 - asin(x), x = -B2 sin P2 / A1, on the branch with
    cos > 0, and |x| > 1 is the fold. The negative equation then reads
    R sin(phi - delta-) = 0 with R e^{j phi} = A4 e^{jF4}
    + C6 e^{j(P6 + delta+)}, whose slope-stable root is delta- = phi, where
    ud- = R. B2 = C6 = 0 (no positive current) mirrors it. That root is the
    only slope-stable one, and the root rule of the coupled solve
    (kernels.root_check) judges it: a qualifying root, or a type-2 miss.
    When the negative equation vanishes as well (A4 = C6 = 0: TLG, the
    pre-fault window), delta- is reported as 0 and the negative conditions
    are vacuous. A lead equation without a grid term (A below
    DEGENERATE_TOL) has no slope-stable root.

    The residual is the certified gap |B sin P| - A, a lower bound on the
    lead q-axis voltage over all angles, for a miss with no root (0 where
    it is not positive), and max(|uq+|, |uq-|) at the root otherwise.
    """
    lead = _triangular(prm)
    if lead is None:
        return None
    pos_first = lead == "pos"
    a1, f1, b2, p2, c3, p3, a4, f4, b5, p5, c6, p6 = prm
    if pos_first:
        a, f, b, p, a_f, f_f, c, p_c = a1, f1, b2, p2, a4, f4, c6, p6
    else:
        a, f, b, p, a_f, f_f, c, p_c = a4, f4, b5, p5, a1, f1, c3, p3
    bs = b * math.sin(p)
    x = -bs / a if a >= DEGENERATE_TOL else math.inf
    if abs(x) > 1.0:
        return False, False, math.nan, math.nan, None, max(abs(bs) - a, 0.0)
    psi = math.asin(x)
    d = (f - psi) % _TWO_PI
    if a_f < DEGENERATE_TOL and c < DEGENERATE_TOL and pos_first:
        # the vacuous negative equation: uq+- reported as 0
        if math.cos(psi) < 1e-12:
            return False, False, math.nan, math.nan, None, 0.0
        ud_p = a * math.cos(psi) + b * math.cos(p)
        return ud_p > UD_MIN, True, d, 0.0, (ud_p, 0.0, 0.0, 0.0), 0.0
    d_f = cmath.phase(cmath.rect(a_f, f_f) + cmath.rect(c, p_c + d)) % _TWO_PI
    dp, dn = (d, d_f) if pos_first else (d_f, d)
    feedback, qualifies, *volts = kernels.root_check(prm, dp, dn, UD_MIN)
    return (qualifies, feedback, dp, dn, tuple(volts),
            max(abs(volts[1]), abs(volts[3])))


def solve_equilibrium(
    coeffs: SequenceCoefficients,
    ref: CurrentReference,
    ug_pos: float,
) -> EquilibriumResult:
    """Find the qualifying angle pair: in closed form when one sequence
    carries no current (_solve_triangular), otherwise among every torus
    root of the sextic that eliminating delta+ leaves (kernels.scan_roots).

    A root qualifies when both q-axis residuals vanish, both d-axis voltages
    are positive, and both per-loop feedback slopes are negative; among
    several, the one with the largest min(ud+, ud-) is returned. With one
    current at zero the equations are triangular and the slope-stable root
    is unique. When the negative-sequence equation is identically zero (no
    grid contribution, no injected negative current) the positive problem
    is solved alone with delta- reported as 0 and the negative conditions
    treated as vacuous.

    Without a qualifying root the answer is a miss. Just past the fold,
    where the Jacobian turns singular, Newton may stall from a candidate
    although the residual nearly vanishes; like any miss without a
    slope-stable root, that miss reads as the fold (cond_feedback False).

    residual_norm: on a hit, max(|uq+|, |uq-|) at the root (the Newton
    residual, the same maximum). On a triangular miss, the certified gap
    |B sin P| - A of the lead equation when no root exists (the fold: no
    angle brings that q-axis voltage closer to zero; 0 where it is not
    positive), and the root's max(|uq+|, |uq-|) when the root exists but
    fails a condition (type 2). On a coupled miss, the certified gap
    max(|B2 sin P2| - (A1 + C3), |B5 sin P5| - (A4 + C6)) when positive,
    else min ||y| - 1| over the sextic's roots y = e^{j delta-}: rounding
    when a torus root exists (and fails a condition), positive when none
    does, inf when there is no root.
    """
    found, feedback, dp, dn, volts, res = _solve_packed(
        pack_params(coeffs, ref, ug_pos))
    # a miss reports no root, though the closed form's type-2 miss has one
    values = (dp, dn, *volts) if found else (math.nan,) * 6
    return EquilibriumResult(
        bool(found), *map(float, values), cond_orientation=bool(found),
        cond_feedback=bool(feedback), residual_norm=float(res))


def _solve_packed(prm):
    """solve_equilibrium on packed floats, as a sweep solves: no result
    object, but the answer form of _solve_triangular and scan_roots."""
    return (_solve_triangular(prm)
            or kernels.scan_roots(prm, 0, NEWTON_TOL, NEWTON_MAXIT, UD_MIN))


def refine_root(
    prm, delta_pos: float, delta_neg: float
) -> tuple[float, float] | None:
    """Polish a known nearby root (warm start): the polished (delta+,
    delta-), or None when Newton misses or the root stops qualifying. With
    one current at zero the root comes in closed form (_solve_triangular)
    and the warm start is not used.

    prm holds the twelve packed floats (pack_params, or a traversal's
    _pack). The Newton steps and the root conditions run on floats
    (kernels.newton_pair, kernels.root_conditions); no result object is
    built."""
    closed = _solve_triangular(prm)
    if closed is not None:
        return closed[2:4] if closed[0] else None
    ok, dp, dn, _ = kernels.newton_pair(prm, delta_pos, delta_neg, NEWTON_TOL,
                                        NEWTON_MAXIT)
    if not ok or not kernels.root_conditions(prm, dp, dn, UD_MIN)[1]:
        return None
    return dp, dn

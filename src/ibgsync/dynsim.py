"""Closed-loop time simulation: quasi-static terminal voltage driven by the
synchronizer's own angle estimates, integrated through a fault on/clear
schedule, plus loss-of-synchronism detection on the resulting trace.

The loop is self-referential: the injected currents are phase-locked to the
estimated angles, the terminal voltage those currents produce is what the
synchronizer measures. Loss of synchronism shows up either as a sustained
frequency drift (type-1, no equilibrium angle exists) or as frequency
chattering while the d-axis voltage collapses below zero (type-2).
"""

import enum
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from . import kernels
from .equilibrium import (
    CurrentReference,
    EquilibriumResult,
    InstabilityType,
    solve_equilibrium,
)
from .limits import classify
from .network import (
    CircuitParameters,
    FaultSpec,
    FaultType,
    SequenceCoefficients,
    _path_floats,
    compose_paths,
    compute_coefficients,
)
from .phasor import phasor, wrap_angle
from .synchro import SyncConfig, SyncMode

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Scenario",
    "Trace",
    "Signature",
    "LosVerdict",
    "terminal_voltage",
    "orientation_angles",
    "initial_sync_state",
    "run_scenario",
    "detect_los",
    "trace_to_csv",
    "TRACE_COLUMNS",
    "TRACE_HEADER",
    "INIT_MODES",
    "RECORD_DT",
    "MAX_RUN_STEPS",
    "check_run_settings",
]

INIT_MODES = ("equilibrium", "prefault")  # the Scenario.init values
RECORD_DT = 1e-3  # run_scenario's default trace sample interval, s
# most RK4 steps one run may take, set as a ten-minute budget when a step
# took 13-37 us: 600 s / 30 us = 2e7. A step now takes 8-16 us (fixed
# impedances to adaptive PLL, on Python floats, 2-core VM), so the cap runs
# 2.7-5.3 minutes. A 3 s run at the default dt takes 3e4
MAX_RUN_STEPS = 2 * 10**7

# loss-of-synchronism thresholds: the first LOS_GRACE_S seconds after fault
# onset are ignored so acquisition transients cannot trip them; an event
# needs |f - nominal| > LOS_F_DEV_HZ (drift) or ud < 0 (chatter) held for
# LOS_SUSTAIN_S seconds
LOS_GRACE_S = 0.5
LOS_F_DEV_HZ = 5.0
LOS_SUSTAIN_S = 0.05


class Signature(enum.Enum):
    """Observable flavor of a loss of synchronism."""

    DRIFT = "drift"
    CHATTER = "chatter"


@dataclass(frozen=True)
class Scenario:
    """One fault ride-through simulation case.

    `init` selects the synchronizer start: "equilibrium" warm-starts at the
    on-fault operating point when one exists (falling back to the settled
    pre-fault state), "prefault" always starts from the settled pre-fault
    state.
    """

    circuit: CircuitParameters
    fault: FaultSpec
    ref_fault: CurrentReference
    ref_prefault: CurrentReference = CurrentReference()
    sync: SyncConfig = SyncConfig()
    t_end: float = 3.0
    dt: float = 1e-4
    freq_adaptive_z: bool = True
    init: str = "equilibrium"

    def __post_init__(self):
        check_run_settings(self.t_end, self.dt, self.init)
        if self.fault.t_on >= self.t_end:
            raise ValueError("t_on must precede t_end")


def check_run_settings(t_end: float, dt: float, init: str,
                       record_dt: float = RECORD_DT) -> None:
    """Raise ValueError unless the horizon, the step and the record interval
    are finite and > 0, the run takes at most MAX_RUN_STEPS steps and init
    is one of INIT_MODES. Scenario, run_scenario and config.ScenarioOptions
    all check with this."""
    for name, value in (("dt", dt), ("t_end", t_end), ("record_dt", record_dt)):
        # "not <" also rejects NaN
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0")
    # compared before rounding: t_end / dt may overflow to inf
    if not t_end / dt <= MAX_RUN_STEPS:
        raise ValueError(
            f"the run asks for more than {MAX_RUN_STEPS} steps (t_end / dt)")
    if init not in INIT_MODES:
        raise ValueError(f"init must be one of {INIT_MODES}")


@dataclass(frozen=True)
class Trace:
    """Stride-decimated time series of one run (arrays share one length).

    The array fields, in order, are the record columns (TRACE_COLUMNS).
    f_pos_hz and f_neg_hz are the loops' angle rates d(theta)/dt / 2 pi.
    Their annotations are strings, so defining the class imports no numpy.
    """

    t: "np.ndarray"
    f_pos_hz: "np.ndarray"
    f_neg_hz: "np.ndarray"
    theta_pos: "np.ndarray"
    theta_neg: "np.ndarray"
    ud_pos: "np.ndarray"
    uq_pos: "np.ndarray"
    ud_neg: "np.ndarray"
    uq_neg: "np.ndarray"
    umag_pos: "np.ndarray"
    umag_neg: "np.ndarray"
    diverged: bool = False


# the record columns in kernel and CSV order: Trace's array fields
TRACE_COLUMNS = tuple(f.name for f in fields(Trace) if f.type == "np.ndarray")
TRACE_HEADER = ",".join(TRACE_COLUMNS)
# one CSV row; "%.12g" writes what format(v, ".12g") writes, nan and inf too
_TRACE_ROW = ",".join(["%.12g"] * len(TRACE_COLUMNS)) + "\n"


@dataclass(frozen=True)
class LosVerdict:
    """Detection outcome over the on-fault window.

    determined is False when the window left after the grace period is
    shorter than one sustain run, so no event could have been seen; lost is
    then False and dominant and signature are None.
    """

    lost: bool
    t_los: float | None
    dominant: InstabilityType | None
    signature: Signature | None
    determined: bool = True


_UNDETERMINED = LosVerdict(False, None, None, None, determined=False)


def terminal_voltage(
    coeffs: SequenceCoefficients,
    ref: CurrentReference,
    ug_pos: float,
    theta_g: float,
    theta_hat_pos: float,
    theta_hat_neg: float,
) -> tuple[complex, complex, complex]:
    """Sequence terminal voltages and their single-complex combination.

    The grid contributions carry the -pi/3 (+pi/3) transformer phase
    displacements, the cross-sequence current terms the corresponding
    -2pi/3 (+2pi/3) offsets. The combined signal is u_pos + conj(u_neg),
    the counterclockwise representation the sequence filter consumes.
    """
    u_pos = (
        coeffs.k1 * ug_pos * phasor(1.0, theta_g - math.pi / 3.0)
        + coeffs.z2 * ref.i_pos * phasor(1.0, theta_hat_pos + ref.theta_i_pos)
        + coeffs.z3 * ref.i_neg
        * phasor(1.0, theta_hat_neg + ref.theta_i_neg - 2.0 * math.pi / 3.0)
    )
    u_neg = (
        coeffs.k4 * ug_pos * phasor(1.0, theta_g + math.pi / 3.0)
        + coeffs.z5 * ref.i_neg * phasor(1.0, theta_hat_neg + ref.theta_i_neg)
        + coeffs.z6 * ref.i_pos
        * phasor(1.0, theta_hat_pos + ref.theta_i_pos + 2.0 * math.pi / 3.0)
    )
    return u_pos, u_neg, u_pos + u_neg.conjugate()


def orientation_angles(
    theta_hat_pos: float, theta_hat_neg: float, theta_g: float
) -> tuple[float, float]:
    """Loop angles relative to the grid frames: delta+ = theta+ - theta_g
    + pi/3 and delta- = theta- - theta_g - pi/3, both wrapped."""
    return (
        wrap_angle(theta_hat_pos - theta_g + math.pi / 3.0),
        wrap_angle(theta_hat_neg - theta_g - math.pi / 3.0),
    )


def _ref_tuple(ref: CurrentReference) -> tuple[float, float, float, float]:
    return (float(ref.i_pos), float(ref.theta_i_pos),
            float(ref.i_neg), float(ref.theta_i_neg))


def _kernel_args(scenario: Scenario):
    """Shared positional tail for the kernel calls: (fault: FaultType, z_f:
    complex, paths: 8-tuple of float (kernel order, see _path_floats), ug,
    theta_g, omega0: float, pre-fault and on-fault ref: 4-tuples of float
    (I+, theta_i+, I-, theta_i-), gains: 5-tuple of float (k, kp_pll,
    ki_pll, kp_fll, ki_fll), FLL mode: bool, frequency-adaptive impedances:
    bool). Python scalars keep the float derivative off numpy scalars."""
    sync = scenario.sync
    circuit = scenario.circuit
    return (
        scenario.fault.fault_type,
        complex(scenario.fault.z_f),
        _path_floats(compose_paths(circuit)),
        float(circuit.ug_pos),
        float(circuit.theta_g),
        float(circuit.omega0),
        _ref_tuple(scenario.ref_prefault),
        _ref_tuple(scenario.ref_fault),
        tuple(float(g) for g in
              (sync.k, sync.kp_pll, sync.ki_pll, sync.kp_fll, sync.ki_fll)),
        sync.mode is SyncMode.DSOGI_FLL,
        scenario.freq_adaptive_z,
    )


def _settled_state(
    scenario: Scenario, coeffs: SequenceCoefficients, ref: CurrentReference,
    eq: EquilibriumResult,
) -> tuple[float, ...]:
    """Synchronizer state sitting exactly on an equilibrium at t = 0, with
    the clockwise filter state holding conj(u-)."""
    theta_g = scenario.circuit.theta_g
    th_p = eq.delta_pos + theta_g - math.pi / 3.0
    th_n = eq.delta_neg + theta_g + math.pi / 3.0
    u_pos, u_neg, _ = terminal_voltage(
        coeffs, ref, scenario.circuit.ug_pos, theta_g, th_p, th_n
    )
    return (u_pos.real, u_pos.imag, u_neg.real, -u_neg.imag,
            th_p, 0.0, th_n, 0.0, 0.0)


def initial_sync_state(scenario: Scenario) -> tuple[float, ...]:
    """Initial state per scenario.init, as the nine floats kernels.simulate
    integrates (layout: kernels._bind_deriv).

    "equilibrium": the on-fault operating point when it exists; otherwise
    (and for "prefault") the settled pre-fault state; a bare cold start
    (empty filter, grid-aligned angles) if even that has no equilibrium.
    """
    paths = compose_paths(scenario.circuit)
    ug = scenario.circuit.ug_pos
    if scenario.init == "equilibrium":
        coeffs = compute_coefficients(paths, scenario.fault)
        eq = solve_equilibrium(coeffs, scenario.ref_fault, ug)
        if eq.found:
            return _settled_state(scenario, coeffs, scenario.ref_fault, eq)
    healthy = compute_coefficients(paths, FaultSpec(FaultType.NONE))
    eq = solve_equilibrium(healthy, scenario.ref_prefault, ug)
    if eq.found:
        return _settled_state(scenario, healthy, scenario.ref_prefault, eq)
    theta_g = scenario.circuit.theta_g
    return (0.0, 0.0, 0.0, 0.0, theta_g - math.pi / 3.0, 0.0,
            theta_g + math.pi / 3.0, 0.0, 0.0)


def run_scenario(
    scenario: Scenario, record_dt: float = RECORD_DT
) -> tuple[Trace, LosVerdict]:
    """Integrate [0, t_end] and detect loss of synchronism on the on-fault
    window. Overflow truncates the trace and forces a lost verdict."""
    import numpy as np

    check_run_settings(scenario.t_end, scenario.dt, scenario.init, record_dt)
    dt = scenario.dt
    n_steps = int(round(scenario.t_end / dt))
    # bounded, so a huge record_dt / dt cannot overflow: one sample either way
    stride = max(1, int(round(min(record_dt / dt, n_steps + 1))))
    rec = np.empty((n_steps // stride + 1, len(TRACE_COLUMNS)))

    fault = scenario.fault
    n_rec, overflow_step, _, _ = kernels.simulate(
        initial_sync_state(scenario), n_steps, dt, stride, fault.t_on,
        fault.t_clear, *_kernel_args(scenario), rec,
    )
    trace = Trace(**dict(zip(TRACE_COLUMNS, rec[:n_rec].T)),
                  diverged=overflow_step >= 0)

    t_clear = min(fault.t_clear, scenario.t_end)
    verdict = detect_los(
        trace, fault.t_on, t_clear,
        f_nominal_hz=scenario.circuit.omega0 / (2.0 * math.pi),
    )
    if overflow_step >= 0 and not verdict.lost:
        t_of = min(max(overflow_step * dt, fault.t_on), scenario.t_end)
        dominant = classify(
            compute_coefficients(compose_paths(scenario.circuit), fault),
            scenario.ref_fault, scenario.circuit.ug_pos,
        )
        if dominant is InstabilityType.STABLE:
            dominant = InstabilityType.POS_TYPE1
        sig = (
            Signature.CHATTER
            if dominant in (InstabilityType.POS_TYPE2, InstabilityType.NEG_TYPE2)
            else Signature.DRIFT
        )
        verdict = LosVerdict(True, t_of, dominant, sig)
    return trace, verdict


def _first_sustained(mask: "np.ndarray", n: int) -> int:
    """Index of the first run of n consecutive True values, or -1."""
    import numpy as np

    if mask.size < n or n <= 0:
        return -1
    csum = np.convolve(mask.astype(int), np.ones(n, dtype=int), "valid")
    hits = np.nonzero(csum == n)[0]
    return int(hits[0]) if hits.size else -1


def detect_los(
    trace: Trace, t_on: float, t_clear: float, f_nominal_hz: float
) -> LosVerdict:
    """Classify the on-fault window of a trace (thresholds: LOS_*).

    DRIFT fires when the frequency stays off f_nominal_hz; CHATTER when the
    d-axis voltage stays below zero (the orientation condition fails while
    the frequency rattles around the root). Dominant sequence and mechanism
    come from the earliest event; events that start on the same sample rank
    positive chatter, positive drift, negative chatter, negative drift. A
    window too short for one sustained run is undetermined rather than
    stable.
    """
    import numpy as np

    sel = (trace.t >= t_on + LOS_GRACE_S) & (trace.t < t_clear)
    idx = np.nonzero(sel)[0]
    if idx.size < 2:
        return _UNDETERMINED
    ts = trace.t[idx]
    n_sus = max(1, int(round(LOS_SUSTAIN_S / (ts[1] - ts[0]))))
    if idx.size < n_sus:  # not even one sustained run fits in the window
        return _UNDETERMINED

    # min keeps the first of equal times: this order breaks ties
    channels = (
        (trace.ud_pos[idx] < 0.0, InstabilityType.POS_TYPE2, Signature.CHATTER),
        (np.abs(trace.f_pos_hz[idx] - f_nominal_hz) > LOS_F_DEV_HZ,
         InstabilityType.POS_TYPE1, Signature.DRIFT),
        (trace.ud_neg[idx] < 0.0, InstabilityType.NEG_TYPE2, Signature.CHATTER),
        (np.abs(trace.f_neg_hz[idx] - f_nominal_hz) > LOS_F_DEV_HZ,
         InstabilityType.NEG_TYPE1, Signature.DRIFT),
    )
    events = [(float(ts[k]), dominant, signature)
              for mask, dominant, signature in channels
              if (k := _first_sustained(mask, n_sus)) >= 0]
    if not events:
        return LosVerdict(False, None, InstabilityType.STABLE, None)
    return LosVerdict(True, *min(events, key=lambda e: e[0]))


def trace_to_csv(trace: Trace, fh) -> None:
    """Write the trace as CSV, one column per TRACE_COLUMNS entry."""
    fh.write(TRACE_HEADER + "\n")
    cols = [getattr(trace, name).tolist() for name in TRACE_COLUMNS]
    fh.writelines(_TRACE_ROW % row for row in zip(*cols))

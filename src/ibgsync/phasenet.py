"""Independent steady-state fault-network solver.

Assembles the interconnected sequence networks at the fault node as an
explicit 6x6 complex linear system (no coupling-coefficient formulas) and
reports the terminal sequence voltages plus fault-node phase quantities.
Used to validate the coefficient transcription.
"""

import cmath
import math
from dataclasses import dataclass

from .network import CircuitParameters, FaultSpec, FaultType, compose_paths
from .phasor import phasor

__all__ = ["PhaseNetworkSolution", "SingularSystem", "solve_phase_network"]

_A = cmath.exp(2j * math.pi / 3.0)
# Fortescue composition matrix, rows a/b/c over columns (zero, pos, neg)
_FORTESCUE = ((1, 1, 1), (1, _A * _A, _A), (1, _A, _A * _A))


class SingularSystem(ValueError):
    """Raised when the assembled network system is rank-deficient."""


@dataclass(frozen=True)
class PhaseNetworkSolution:
    """Solution snapshot at the fault node plus terminal sequence voltages."""

    u_term_pos: complex
    u_term_neg: complex
    v_node_seq: tuple[complex, complex, complex]
    i_fault_seq: tuple[complex, complex, complex]
    v_node_phase: tuple[complex, complex, complex]
    i_fault_phase: tuple[complex, complex, complex]
    residual: float


def solve_phase_network(
    circuit: CircuitParameters,
    fault: FaultSpec,
    i_pos: complex,
    i_neg: complex,
) -> PhaseNetworkSolution:
    """Solve the faulted network for given absolute injected sequence currents.

    The injected currents are defined at the terminal node; each of the two
    transformers shifts positive-sequence quantities by +30 degrees toward
    the grid and negative-sequence ones by -30, so fault-node injections are
    the terminal ones rotated by +-60 degrees. The grid source sits on the
    fault-node side and needs no shift. Unknowns are the fault-node sequence
    voltages (V1, V2, V0) and fault-branch sequence currents (I1, I2, I0).
    """
    import numpy as np

    paths = compose_paths(circuit)
    zg = paths.zg_pos
    zg0 = paths.zg_zero
    zl = paths.zl_pos
    zl0 = paths.zl_zero
    zf = complex(fault.z_f)
    e_src = phasor(circuit.ug_pos, circuit.theta_g)

    j_pos = i_pos * phasor(1.0, math.pi / 3.0)
    j_neg = i_neg * phasor(1.0, -math.pi / 3.0)

    m = np.zeros((6, 6), dtype=complex)
    rhs = np.zeros(6, dtype=complex)
    # unknown order: V1, V2, V0, I1, I2, I0
    m[0, 0] = 1.0 / zg
    m[0, 3] = 1.0
    rhs[0] = e_src / zg + j_pos
    m[1, 1] = 1.0 / zg
    m[1, 4] = 1.0
    rhs[1] = j_neg
    m[2, 2] = 1.0 / zg0 + 1.0 / zl0
    m[2, 5] = 1.0
    rhs[2] = 0.0

    ft = fault.fault_type
    if ft is FaultType.SLG:
        # all three networks in series through 3 Zf
        m[3, 3], m[3, 4] = 1.0, -1.0
        m[4, 3], m[4, 5] = 1.0, -1.0
        m[5, 0] = m[5, 1] = m[5, 2] = 1.0
        m[5, 3] = -3.0 * zf
    elif ft is FaultType.DLG:
        # positive/negative in parallel, zero through 3 Zf
        m[3, 0], m[3, 1] = 1.0, -1.0
        m[4, 2], m[4, 0] = 1.0, -1.0
        m[4, 5] = -3.0 * zf
        m[5, 3] = m[5, 4] = m[5, 5] = 1.0
    elif ft is FaultType.LL:
        # positive-negative tie, zero detached
        m[3, 5] = 1.0
        m[4, 3], m[4, 4] = 1.0, 1.0
        m[5, 0], m[5, 1] = 1.0, -1.0
        m[5, 3] = -zf
    elif ft is FaultType.TLG:
        # each sequence shorted through Zf independently
        m[3, 0], m[3, 3] = 1.0, -zf
        m[4, 1], m[4, 4] = 1.0, -zf
        m[5, 2], m[5, 5] = 1.0, -zf
    else:
        m[3, 3] = 1.0
        m[4, 4] = 1.0
        m[5, 5] = 1.0

    try:
        x = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    residual = float(np.max(np.abs(m @ x - rhs)))

    v1, v2, v0, i1, i2, i0 = (complex(v) for v in x)
    u_term_pos = (v1 + zl * j_pos) * phasor(1.0, -math.pi / 3.0)
    u_term_neg = (v2 + zl * j_neg) * phasor(1.0, math.pi / 3.0)

    v_seq = np.array([v0, v1, v2], dtype=complex)
    i_seq = np.array([i0, i1, i2], dtype=complex)
    fortescue = np.array(_FORTESCUE, dtype=complex)
    v_phase = fortescue @ v_seq
    i_phase = fortescue @ i_seq
    return PhaseNetworkSolution(
        u_term_pos=u_term_pos,
        u_term_neg=u_term_neg,
        v_node_seq=(v1, v2, v0),
        i_fault_seq=(i1, i2, i0),
        v_node_phase=tuple(complex(v) for v in v_phase),
        i_fault_phase=tuple(complex(v) for v in i_phase),
        residual=residual,
    )

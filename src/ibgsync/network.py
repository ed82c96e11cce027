"""Circuit description, sequence path impedances, and the fault coupling
coefficients K1, Z2, Z3, K4, Z5, Z6.

Conventions: impedances are per-unit r + jx at nominal frequency; the
zero-sequence line/grid impedances are 3x the positive-sequence ones while
transformer impedances are equal across sequences; the terminal-voltage node
sits between the choke and the first transformer, so the line path excludes
the choke.
"""

import cmath
import enum
import math
from dataclasses import dataclass

from . import kernels

__all__ = [
    "FaultType",
    "BranchImpedance",
    "CircuitParameters",
    "FaultSpec",
    "PathImpedances",
    "SequenceCoefficients",
    "DegenerateNetwork",
    "compose_paths",
    "compute_coefficients",
    "table_circuit",
]


DEFAULT_OMEGA0 = 2.0 * math.pi * 50.0  # the reference circuit's 50 Hz, rad/s
REF_V_BASE_KV = 110.0  # its bases, by which config converts ohmic entries
REF_S_BASE_MVA = 9.0


class FaultType(enum.Enum):
    """Fault classes at the line-grid junction node."""

    NONE = "none"
    SLG = "slg"
    DLG = "dlg"
    LL = "ll"
    TLG = "tlg"

    @property
    def code(self) -> int:
        """The kernels' integer code, kernels.FAULT_<NAME>."""
        return getattr(kernels, "FAULT_" + self.name)


class DegenerateNetwork(ValueError):
    """Raised when a coefficient denominator collapses or a coefficient is
    not finite (unphysical circuit)."""


@dataclass(frozen=True)
class BranchImpedance:
    """Per-unit series branch: resistance r and reactance x at nominal frequency."""

    r: float
    x: float

    def __post_init__(self):
        # "not <=" also rejects NaN
        if not (0.0 <= self.r < math.inf and 0.0 <= self.x < math.inf):
            raise ValueError(f"branch impedance must be finite and >= 0, got {self}")

    def z(self) -> complex:
        """Complex impedance r + j*x."""
        return complex(self.r, self.x)


@dataclass(frozen=True)
class CircuitParameters:
    """Per-unit circuit: two transformers, two line segments, grid.

    `omega0` is the one nominal frequency; the synchronizer, the adaptive
    impedances and LOS detection all read it.
    """

    z_t1: BranchImpedance
    z_t2: BranchImpedance
    z_l1: BranchImpedance
    z_l2: BranchImpedance
    z_g: BranchImpedance
    ug_pos: float
    theta_g: float = 0.0
    omega0: float = DEFAULT_OMEGA0

    def __post_init__(self):
        # "not <" also rejects NaN
        if not 0.0 < self.ug_pos < math.inf:
            raise ValueError("ug_pos must be finite and > 0")
        if not math.isfinite(self.theta_g):
            raise ValueError("theta_g must be finite")
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError("omega0 must be finite and > 0")


@dataclass(frozen=True)
class FaultSpec:
    """Fault type, fault-branch impedance, and application/clearing times."""

    fault_type: FaultType
    z_f: complex = 0.0 + 0.0j
    t_on: float = 0.0
    t_clear: float = math.inf

    def __post_init__(self):
        if not cmath.isfinite(self.z_f) or self.z_f.real < 0:
            raise ValueError(f"z_f must be finite with Re(z_f) >= 0, got {self.z_f}")
        if not 0.0 <= self.t_on < self.t_clear:
            raise ValueError("t_on must be >= 0 and precede t_clear")


@dataclass(frozen=True)
class PathImpedances:
    """Aggregated per-unit sequence paths seen from the fault node."""

    zg_pos: complex
    zg_zero: complex
    zl_pos: complex
    zl_zero: complex


@dataclass(frozen=True)
class SequenceCoefficients:
    """The six terminal-voltage coupling coefficients for one fault case."""

    k1: complex
    z2: complex
    z3: complex
    k4: complex
    z5: complex
    z6: complex

    def as_tuple(self) -> tuple[complex, complex, complex, complex, complex, complex]:
        return (self.k1, self.z2, self.z3, self.k4, self.z5, self.z6)


def compose_paths(circuit: CircuitParameters) -> PathImpedances:
    """Build the four sequence path impedances at the nominal frequency.

    The line path runs from the terminal node to the fault node
    (T1 + L1 + T2 + L2); its zero-sequence variant carries only T2 + 3*L2
    because the delta winding of T1 blocks zero sequence. The grid path is
    the source impedance (3x in zero sequence). Reactances scale with
    frequency only in the kernels' coefficient column (kernels.seq_coeffs).
    """
    zl_pos = (
        circuit.z_t1.z() + circuit.z_l1.z() + circuit.z_t2.z() + circuit.z_l2.z()
    )
    zl_zero = circuit.z_t2.z() + 3.0 * circuit.z_l2.z()
    zg_pos = circuit.z_g.z()
    zg_zero = 3.0 * circuit.z_g.z()
    return PathImpedances(zg_pos=zg_pos, zg_zero=zg_zero, zl_pos=zl_pos, zl_zero=zl_zero)


def _path_floats(paths: PathImpedances) -> tuple[float, ...]:
    """Flatten paths for the kernels (rl, xl, rl0, xl0, rg, xg, rg0, xg0)."""
    return (
        paths.zl_pos.real, paths.zl_pos.imag,
        paths.zl_zero.real, paths.zl_zero.imag,
        paths.zg_pos.real, paths.zg_pos.imag,
        paths.zg_zero.real, paths.zg_zero.imag,
    )


def compute_coefficients(paths: PathImpedances, fault: FaultSpec) -> SequenceCoefficients:
    """Evaluate the coupling coefficients for one fault type.

    The NONE case returns the healthy set (k1 = 1, z2 = z5 = grid + line
    path, no cross coupling).
    """
    if abs(paths.zg_zero + paths.zl_zero) < 1e-12:
        raise DegenerateNetwork("zero-sequence loop impedance ~ 0")
    vals = kernels.seq_coeffs(fault.fault_type.code, 1.0, *_path_floats(paths),
                              complex(fault.z_f))
    k1, z2, z3, k4, z5, z6, denom = vals
    # "not >" also rejects a NaN denominator; a finite circuit can still
    # overflow (3 z_f with z_f near the float maximum) into an inf or NaN
    if not (abs(denom) > 1e-12 and all(cmath.isfinite(v) for v in vals)):
        raise DegenerateNetwork(
            f"coefficients undefined for {fault.fault_type.value}: need "
            f"|D| > 1e-12 and every value finite (|D| = {abs(denom):.3e})"
        )
    return SequenceCoefficients(
        k1=complex(k1), z2=complex(z2), z3=complex(z3),
        k4=complex(k4), z5=complex(z5), z6=complex(z6),
    )


def table_circuit() -> CircuitParameters:
    """Reference circuit: 110 kV / 9 MVA base, 120 kV stiff source.

    X-to-R ratios: transformers 30, lines 2.5 and 5, grid 5.
    """
    return CircuitParameters(
        z_t1=BranchImpedance(r=0.002, x=0.06),
        z_t2=BranchImpedance(r=0.16 / 30.0, x=0.16),
        z_l1=BranchImpedance(r=0.02, x=0.05),
        z_l2=BranchImpedance(r=0.06, x=0.30),
        z_g=BranchImpedance(r=0.04, x=0.20),
        ug_pos=120.0 / REF_V_BASE_KV,
    )

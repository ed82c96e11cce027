"""Dual-sequence grid-synchronization stability analysis for inverter-based
generation under asymmetrical grid faults.

Layers: sequence-network coefficients (network, phasenet), equilibrium
angles and injection limits (equilibrium, limits), the synchronizer model
and closed-loop simulation (synchro, dynsim), and a JSON-config CLI (cli).
"""

from .dynsim import (
    LosVerdict,
    Scenario,
    Signature,
    Trace,
    detect_los,
    run_scenario,
    terminal_voltage,
    trace_to_csv,
)
from .equilibrium import (
    CurrentReference,
    EquilibriumResult,
    InstabilityType,
    dq_voltages,
    solve_equilibrium,
)
from .limits import (
    Binding,
    LimitResult,
    RegionBoundary,
    classify,
    decoupled_limit,
    region_boundary,
    traversal_limit,
)
from .network import (
    BranchImpedance,
    CircuitParameters,
    DegenerateNetwork,
    FaultSpec,
    FaultType,
    PathImpedances,
    SequenceCoefficients,
    compose_paths,
    compute_coefficients,
    table_circuit,
)
from .phasenet import PhaseNetworkSolution, SingularSystem, solve_phase_network
from .phasor import (
    format_phasor,
    parse_phasor,
    phasor,
    phasor_deg,
    polar,
    polar_deg,
    wrap_angle,
)
from .synchro import SyncConfig, SyncMode

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # phasor
    "phasor", "phasor_deg", "polar", "polar_deg", "wrap_angle",
    "parse_phasor", "format_phasor",
    # network
    "BranchImpedance", "CircuitParameters", "FaultSpec", "FaultType",
    "PathImpedances", "SequenceCoefficients", "DegenerateNetwork",
    "compose_paths", "compute_coefficients", "table_circuit",
    # phase-network oracle
    "PhaseNetworkSolution", "SingularSystem", "solve_phase_network",
    # equilibrium
    "CurrentReference", "EquilibriumResult", "InstabilityType",
    "solve_equilibrium", "dq_voltages",
    # limits
    "Binding", "LimitResult", "RegionBoundary",
    "decoupled_limit", "traversal_limit", "region_boundary", "classify",
    # synchronizer
    "SyncConfig", "SyncMode",
    # simulation
    "Scenario", "Trace", "LosVerdict", "Signature",
    "terminal_voltage", "run_scenario", "detect_los",
    "trace_to_csv",
]

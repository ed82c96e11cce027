"""JSON configuration: schema validation and construction of the typed
objects the analysis layers consume.

All angles are degrees at this boundary and converted to radians here;
impedances may be given per-unit or in ohms with explicit bases. Unknown
keys fail validation rather than being ignored.
"""

import dataclasses
import json
import math

import jsonschema

from .dynsim import INIT_MODES, RECORD_DT, Scenario
from .equilibrium import NEWTON_TOL, SCAN_GRID_DEG, UD_MIN, CurrentReference
from .limits import AMP_CEILING, AMP_STEP
from .network import BranchImpedance, CircuitParameters, FaultSpec, FaultType, table_circuit
from .phasor import parse_phasor, polar
from .synchro import SyncConfig, SyncMode

__all__ = [
    "ConfigError",
    "SolverOptions",
    "ScenarioOptions",
    "ConfigDocument",
    "load_config",
    "parse_config",
    "DEFAULT_BASES",
]

# 110 kV / 9 MVA reference bases (used to convert ohmic entries)
DEFAULT_BASES = {"v_base_kv": 110.0, "s_base_mva": 9.0}

_BRANCH_SCHEMA = {
    "type": "object",
    "properties": {
        "r": {"type": "number", "minimum": 0},
        "x": {"type": "number", "minimum": 0},
    },
    "required": ["r", "x"],
    "additionalProperties": False,
}

_PHASOR_STR = {"type": "string", "pattern": r"^\s*[0-9.eE+-]+\s*(@\s*[0-9.eE+-]+\s*)?$"}

_REF_SCHEMA = {
    "type": "object",
    "properties": {"i_pos": _PHASOR_STR, "i_neg": _PHASOR_STR},
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "circuit": {
            "type": "object",
            "properties": {
                "unit": {"enum": ["pu", "ohm"]},
                "v_base_kv": {"type": "number", "exclusiveMinimum": 0},
                "s_base_mva": {"type": "number", "exclusiveMinimum": 0},
                "f_hz": {"type": "number", "exclusiveMinimum": 0},
                "ug_pos": {"type": "number", "exclusiveMinimum": 0},
                "ug_kv": {"type": "number", "exclusiveMinimum": 0},
                "theta_g_deg": {"type": "number"},
                "choke": _BRANCH_SCHEMA,
                "t1": _BRANCH_SCHEMA,
                "t2": _BRANCH_SCHEMA,
                "l1": _BRANCH_SCHEMA,
                "l2": _BRANCH_SCHEMA,
                "grid": _BRANCH_SCHEMA,
            },
            "additionalProperties": False,
        },
        "fault": {
            "type": "object",
            "properties": {
                "type": {"enum": [f.value for f in FaultType]},
                "zf_pu": {"type": "number", "minimum": 0},
                "zf_ohm": {"type": "number", "minimum": 0},
                "t_on": {"type": "number", "minimum": 0},
                "t_clear": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "current": {
            "type": "object",
            "properties": {"prefault": _REF_SCHEMA, "fault": _REF_SCHEMA},
            "additionalProperties": False,
        },
        "sync": {
            "type": "object",
            "properties": {
                "mode": {"enum": [m.value for m in SyncMode]},
                "k": {"type": "number", "exclusiveMinimum": 0},
                "kp_fll": {"type": "number", "minimum": 0},
                "ki_fll": {"type": "number", "minimum": 0},
                "kp_pll": {"type": "number", "minimum": 0},
                "ki_pll": {"type": "number", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "scenario": {
            "type": "object",
            "properties": {
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "freq_adaptive_z": {"type": "boolean"},
                "init": {"enum": list(INIT_MODES)},
                "record_dt": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "grid_deg": {"type": "number", "exclusiveMinimum": 0},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "ud_min": {"type": "number"},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "ceiling": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

# config branch key -> CircuitParameters field
_BRANCH_FIELDS = {
    "choke": "z_choke",
    "t1": "z_t1",
    "t2": "z_t2",
    "l1": "z_l1",
    "l2": "z_l2",
    "grid": "z_g",
}


class ConfigError(ValueError):
    """Configuration content failed validation or is inconsistent."""


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Equilibrium-scan and traversal tuning knobs."""

    grid_deg: float = SCAN_GRID_DEG
    tol: float = NEWTON_TOL
    ud_min: float = UD_MIN
    step: float = AMP_STEP
    ceiling: float = AMP_CEILING

    def __post_init__(self):
        # "not <" also rejects NaN; step and ceiling are checked where the
        # sweep uses them
        if not 0.0 < self.grid_deg < math.inf:
            raise ValueError("grid_deg must be finite and > 0")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if not math.isfinite(self.ud_min):
            raise ValueError("ud_min must be finite")


@dataclasses.dataclass(frozen=True)
class ScenarioOptions:
    """Simulation horizon and integrator settings (fault times live on
    FaultSpec); the defaults are Scenario's and run_scenario's."""

    t_end: float = Scenario.t_end
    dt: float = Scenario.dt
    freq_adaptive_z: bool = Scenario.freq_adaptive_z
    init: str = Scenario.init
    record_dt: float = RECORD_DT


@dataclasses.dataclass(frozen=True)
class ConfigDocument:
    """Validated configuration resolved to internal units."""

    circuit: CircuitParameters
    fault_type: FaultType | None
    z_f: complex
    t_on: float
    t_clear: float
    ref_prefault: CurrentReference
    ref_fault: CurrentReference
    sync: SyncConfig
    scenario: ScenarioOptions
    solver: SolverOptions
    z_base_ohm: float


def _parse_ref(section: dict | None) -> CurrentReference:
    section = section or {}
    amp_p, ang_p = polar(parse_phasor(section.get("i_pos", "0")))
    amp_n, ang_n = polar(parse_phasor(section.get("i_neg", "0")))
    return CurrentReference(amp_p, ang_p, amp_n, ang_n)


def _build_circuit(section: dict) -> tuple[CircuitParameters, float]:
    """The reference circuit with the entries the section gives; omitted
    branches keep their per-unit reference values in either unit."""
    v_base = section.get("v_base_kv", DEFAULT_BASES["v_base_kv"])
    s_base = section.get("s_base_mva", DEFAULT_BASES["s_base_mva"])
    z_base = v_base * v_base / s_base
    # the schema bounds each base but not their ratio: 1e-200 kV gives 0
    if not 0.0 < z_base < math.inf:
        raise ConfigError(f"impedance base must be finite and > 0, got {z_base}")
    scale = 1.0 / z_base if section.get("unit", "pu") == "ohm" else 1.0

    changes = {
        field: BranchImpedance(section[key]["r"] * scale, section[key]["x"] * scale)
        for key, field in _BRANCH_FIELDS.items()
        if key in section
    }
    if "ug_pos" in section and "ug_kv" in section:
        raise ConfigError("give ug_pos (p.u.) or ug_kv, not both")
    if "ug_kv" in section:
        changes["ug_pos"] = section["ug_kv"] / v_base
    elif "ug_pos" in section:
        changes["ug_pos"] = section["ug_pos"]
    if "theta_g_deg" in section:
        changes["theta_g"] = math.radians(section["theta_g_deg"])
    if "f_hz" in section:
        changes["omega0"] = 2.0 * math.pi * section["f_hz"]
    return dataclasses.replace(table_circuit(), **changes), z_base


def parse_config(raw: dict) -> ConfigDocument:
    """Validate a parsed JSON object and resolve it to internal units."""
    try:
        jsonschema.validate(raw, SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema: {exc.message}") from None

    circuit, z_base = _build_circuit(raw.get("circuit", {}))

    fault = raw.get("fault", {})
    if "zf_pu" in fault and "zf_ohm" in fault:
        raise ConfigError("give zf_pu or zf_ohm, not both")
    if "zf_pu" in fault:
        z_f = complex(fault["zf_pu"])
    else:
        z_f = complex(fault.get("zf_ohm", 0.01) / z_base)
    fault_type = FaultType(fault["type"]) if "type" in fault else None
    t_on = fault.get("t_on", 0.0)
    t_clear = fault.get("t_clear", math.inf)
    if t_on >= t_clear:
        raise ConfigError("fault t_on must precede t_clear")

    current = raw.get("current", {})
    sync = dict(raw.get("sync", {}))
    if "mode" in sync:
        sync["mode"] = SyncMode(sync["mode"])
    return ConfigDocument(
        circuit=circuit,
        fault_type=fault_type,
        z_f=z_f,
        t_on=t_on,
        t_clear=t_clear,
        ref_prefault=_parse_ref(current.get("prefault")),
        ref_fault=_parse_ref(current.get("fault")),
        sync=SyncConfig(**sync),
        scenario=ScenarioOptions(**raw.get("scenario", {})),
        solver=SolverOptions(**raw.get("solver", {})),
        z_base_ohm=z_base,
    )


def load_config(path: str | None) -> ConfigDocument:
    """Parse a config file; None yields the all-defaults document."""
    if path is None:
        return parse_config({})
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw)


def make_fault(
    doc: ConfigDocument,
    fault_type: str | None = None,
    zf_ohm: float | None = None,
) -> FaultSpec:
    """FaultSpec from the document with optional flag overrides."""
    if fault_type is not None:
        kind = FaultType(fault_type)
    elif doc.fault_type is not None:
        kind = doc.fault_type
    else:
        raise ConfigError("fault type missing (config fault.type or --fault)")
    z_f = doc.z_f if zf_ohm is None else complex(zf_ohm / doc.z_base_ohm)
    return FaultSpec(fault_type=kind, z_f=z_f, t_on=doc.t_on, t_clear=doc.t_clear)

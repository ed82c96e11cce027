"""JSON configuration: key and type checks, and construction of the typed
objects the analysis layers consume.

All angles are degrees at this boundary and converted to radians here;
impedances may be given per-unit or in ohms with explicit bases. Unknown
keys are rejected; the object a value builds checks its range.
"""

import dataclasses
import json
import math

from .dynsim import RECORD_DT, Scenario, check_run_settings
from .equilibrium import CurrentReference
from .limits import AMP_CEILING, AMP_STEP, _amplitude_steps
from .network import (REF_S_BASE_MVA, REF_V_BASE_KV, BranchImpedance,
                      CircuitParameters, FaultSpec, FaultType, table_circuit)
from .phasor import parse_phasor, polar
from .synchro import SyncConfig

__all__ = [
    "ConfigError",
    "SolverOptions",
    "ScenarioOptions",
    "ConfigDocument",
    "load_config",
    "parse_config",
]

# config branch key -> CircuitParameters field; "choke" is checked like a
# branch, then ignored: the terminal node sits between the choke and T1
_BRANCH_FIELDS = {"choke": None, "t1": "z_t1", "t2": "z_t2",
                  "l1": "z_l1", "l2": "z_l2", "grid": "z_g"}


class ConfigError(ValueError):
    """Configuration content failed validation or is inconsistent."""


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """The traversal's amplitude step and ceiling (p.u.), checked as a
    traversal checks them. The Newton tolerance and the least d-axis voltage
    are the constants equilibrium.NEWTON_TOL and UD_MIN, not options."""

    step: float = AMP_STEP
    ceiling: float = AMP_CEILING

    def __post_init__(self):
        _amplitude_steps(self.step, self.ceiling, 1.0)


@dataclasses.dataclass(frozen=True)
class ScenarioOptions:
    """Simulation horizon and integrator settings (fault times live on
    FaultSpec); the defaults are Scenario's and run_scenario's."""

    t_end: float = Scenario.t_end
    dt: float = Scenario.dt
    freq_adaptive_z: bool = Scenario.freq_adaptive_z
    init: str = Scenario.init
    record_dt: float = RECORD_DT

    def __post_init__(self):
        check_run_settings(self.t_end, self.dt, self.init, self.record_dt)


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


# Type tests: each takes a JSON value and its key path, and returns the value
# the key feeds or raises ConfigError.

def _number(value, where: str) -> float:
    """A JSON int or float, not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a float") from None


def _typed(kind: type, noun: str):
    def test(value, where: str):
        if not isinstance(value, kind):
            raise ConfigError(f"{where} must be {noun}")
        return value
    return test


def _choice(options):
    """Test for one of a tuple's strings or an enum's values (gives the member)."""
    members = {getattr(o, "value", o): o for o in options}

    def test(value, where: str):
        if not isinstance(value, str) or value not in members:
            raise ConfigError(f"{where} must be one of {list(members)}")
        return members[value]
    return test


def _built(where: str, build, *args, **kwargs):
    """The object a config value feeds; its ValueError names where the value sits."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _phasor(value, where: str) -> tuple[float, float]:
    """An ``A@D`` string as (amplitude, angle in radians)."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a phasor string A@D, got {value!r}")
    return polar(_built(where, parse_phasor, value))


def _section(tests: dict, required: bool = False):
    """Test for a JSON object of tests' keys (all of them if required)."""
    def test(value, where: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        unknown = [key for key in value if key not in tests]
        if unknown:
            raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
        missing = [key for key in tests if key not in value]
        if required and missing:
            raise ConfigError(f"{where}: missing key {missing[0]!r}")
        return {key: tests[key](v, f"{where}.{key}") for key, v in value.items()}
    return test


def _object(cls):
    """Test for a section of a dataclass' fields, one key each (gives the object)."""
    tests = {float: _number, bool: _typed(bool, "a bool"), str: _typed(str, "a string")}
    section = _section({f.name: tests.get(f.type) or _choice(f.type)
                        for f in dataclasses.fields(cls)})
    return lambda value, where: _built(where, cls, **section(value, where))


def _reference(value, where: str) -> CurrentReference:
    ref = _section({"i_pos": _phasor, "i_neg": _phasor})(value, where)
    return _built(where, CurrentReference, *ref.get("i_pos", (0.0, 0.0)),
                  *ref.get("i_neg", (0.0, 0.0)))


_CONFIG = _section({
    "circuit": _section({
        "unit": _choice(("pu", "ohm")),
        **dict.fromkeys(("v_base_kv", "s_base_mva", "f_hz", "ug_pos", "ug_kv",
                         "theta_g_deg"), _number),
        **dict.fromkeys(_BRANCH_FIELDS,
                        _section({"r": _number, "x": _number}, required=True)),
    }),
    "fault": _section({
        "type": _choice(FaultType),
        **dict.fromkeys(("zf_pu", "zf_ohm", "t_on", "t_clear"), _number),
    }),
    "current": _section({"prefault": _reference, "fault": _reference}),
    "sync": _object(SyncConfig),
    "scenario": _object(ScenarioOptions),
    "solver": _object(SolverOptions),
})


def _positive(name: str, value: float) -> float:
    # "not <" also rejects NaN
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {value}")
    return value


def _build_circuit(section: dict) -> tuple[CircuitParameters, float]:
    """The reference circuit with the entries the section gives; omitted
    branches keep their per-unit reference values in either unit."""
    v_base = _positive("config.circuit.v_base_kv", section.get("v_base_kv", REF_V_BASE_KV))
    s_base = _positive("config.circuit.s_base_mva", section.get("s_base_mva", REF_S_BASE_MVA))
    # each base may be in range while their ratio is not: 1e-200 kV gives 0
    z_base = _positive("config.circuit: impedance base", v_base * v_base / s_base)
    scale = 1.0 / z_base if section.get("unit", "pu") == "ohm" else 1.0

    changes = {
        field: _built(f"config.circuit.{key}", BranchImpedance,
                      section[key]["r"] * scale, section[key]["x"] * scale)
        for key, field in _BRANCH_FIELDS.items()
        if key in section
    }
    changes.pop(None, None)  # the choke's, checked and dropped
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
    return _built("config.circuit", dataclasses.replace, table_circuit(), **changes), z_base


def _resolve(config: dict) -> ConfigDocument:
    circuit, z_base = _build_circuit(config.get("circuit", {}))

    fault = config.get("fault", {})
    if "zf_pu" in fault and "zf_ohm" in fault:
        raise ConfigError("give zf_pu or zf_ohm, not both")
    z_f = fault["zf_pu"] if "zf_pu" in fault else fault.get("zf_ohm", 0.01) / z_base
    fault_type = fault.get("type")
    # FaultSpec checks z_f and the times; a flag may still give the type
    spec = _built("config.fault", FaultSpec, fault_type or FaultType.NONE, complex(z_f),
                  fault.get("t_on", 0.0), fault.get("t_clear", math.inf))

    current = config.get("current", {})
    return ConfigDocument(
        circuit=circuit,
        fault_type=fault_type,
        z_f=spec.z_f,
        t_on=spec.t_on,
        t_clear=spec.t_clear,
        ref_prefault=current.get("prefault", CurrentReference()),
        ref_fault=current.get("fault", CurrentReference()),
        sync=config.get("sync", SyncConfig()),
        scenario=config.get("scenario", ScenarioOptions()),
        solver=config.get("solver", SolverOptions()),
        z_base_ohm=z_base,
    )


def parse_config(raw: dict) -> ConfigDocument:
    """Check a parsed JSON object's keys and types and resolve it to internal
    units; a value out of its object's range is a ConfigError too."""
    return _resolve(_CONFIG(raw, "config"))


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

"""Command-line interface: coefficient inspection, equilibrium solving,
injection limits, region sweeps, time simulation, and oracle validation.

Exit codes: 0 success, 1 configuration or I/O error, 2 no equilibrium found
(analysis outcome of the `equilibrium` command), 3 numerical failure.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .config import ConfigDocument, ConfigError, load_config, make_fault
from .dynsim import (
    INIT_MODES,
    Scenario,
    run_scenario,
    terminal_voltage,
    trace_to_csv,
)
from .equilibrium import CurrentReference, solve_equilibrium
from .limits import _SEQUENCES, decoupled_limit, region_boundary, traversal_limit
from .network import (
    BranchImpedance,
    DegenerateNetwork,
    FaultSpec,
    FaultType,
    compose_paths,
    compute_coefficients,
    table_circuit,
)
from .phasenet import SingularSystem, solve_phase_network
from .phasor import format_phasor, parse_phasor, phasor, polar
from .synchro import SyncMode

# choice lists from the library's definitions (_random_draw indexes FaultType's)
_FAULT_CHOICES = tuple(f.value for f in FaultType)
_MODES = {m.value.removeprefix("dsogi_"): m for m in SyncMode}  # pll, fll


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit 1, not argparse's 2)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jnum(x: float):
    """JSON-safe number: 12 significant digits, null for nan, 'inf' text."""
    if x != x:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.12g}")


def _emit_json(obj, fh=None) -> None:
    (fh or sys.stdout).write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fault_refs(doc: ConfigDocument, args) -> CurrentReference:
    """On-fault current reference with flag overrides."""
    amp_p, ang_p = doc.ref_fault.i_pos, doc.ref_fault.theta_i_pos
    amp_n, ang_n = doc.ref_fault.i_neg, doc.ref_fault.theta_i_neg
    if args.iplus is not None:
        amp_p, ang_p = polar(parse_phasor(args.iplus))
    if args.iminus is not None:
        amp_n, ang_n = polar(parse_phasor(args.iminus))
    return CurrentReference(amp_p, ang_p, amp_n, ang_n)


def _with_flags(opts, args):
    """opts with each field that a flag of the same dest sets replaced."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(opts)
             if getattr(args, f.name, None) is not None}
    return dataclasses.replace(opts, **given)


def _coeffs_for(doc: ConfigDocument, args):
    fault = make_fault(doc, args.fault, args.zf)
    return compute_coefficients(compose_paths(doc.circuit), fault), fault


def cmd_coeffs(doc: ConfigDocument, args) -> int:
    coeffs, fault = _coeffs_for(doc, args)
    pairs = [(name, getattr(coeffs, name)) for name in
             ("k1", "z2", "z3", "k4", "z5", "z6")]
    if args.json:
        out = {"fault_type": fault.fault_type.value}
        for name, z in pairs:
            mag, ang = polar(z)
            out[name] = {
                "mag": _jnum(mag), "deg": _jnum(math.degrees(ang)),
                "re": _jnum(z.real), "im": _jnum(z.imag),
            }
        _emit_json(out)
    else:
        print(f"fault_type: {fault.fault_type.value}")
        for name, z in pairs:
            rect = f"{z.real:.12g}{z.imag:+.12g}j"
            print(f"{name} = {format_phasor(z)}  ({rect})")
    return 0


def cmd_equilibrium(doc: ConfigDocument, args) -> int:
    coeffs, _ = _coeffs_for(doc, args)
    res = solve_equilibrium(coeffs, _fault_refs(doc, args), doc.circuit.ug_pos)
    _emit_json(
        {
            "found": res.found,
            "delta_pos_deg": _jnum(math.degrees(res.delta_pos)),
            "delta_neg_deg": _jnum(math.degrees(res.delta_neg)),
            "ud_pos": _jnum(res.ud_pos),
            "uq_pos": _jnum(res.uq_pos),
            "ud_neg": _jnum(res.ud_neg),
            "uq_neg": _jnum(res.uq_neg),
            "cond_orientation": res.cond_orientation,
            "cond_feedback": res.cond_feedback,
            "residual_norm": _jnum(res.residual_norm),
        }
    )
    return 0 if res.found else 2


def _limit_json(lim) -> dict:
    return {
        "sequence": lim.sequence,
        "theta_i_deg": _jnum(math.degrees(lim.theta_i)),
        "i_limit": _jnum(lim.i_limit),
        "binding": lim.binding.value,
    }


def _held_current(doc: ConfigDocument, args) -> tuple[float, float]:
    """The other sequence's held current: --other, else config current.fault."""
    if args.other is not None:
        return polar(parse_phasor(args.other))
    if args.seq == "pos":
        return doc.ref_fault.i_neg, doc.ref_fault.theta_i_neg
    return doc.ref_fault.i_pos, doc.ref_fault.theta_i_pos


def cmd_limit(doc: ConfigDocument, args) -> int:
    coeffs, _ = _coeffs_for(doc, args)
    theta = math.radians(args.angle)
    sol = _with_flags(doc.solver, args)
    if args.decoupled:
        lim = decoupled_limit(coeffs, doc.circuit.ug_pos, args.seq, theta)
    else:
        lim = traversal_limit(coeffs, doc.circuit.ug_pos, args.seq, theta,
                              fixed_other=_held_current(doc, args),
                              **dataclasses.asdict(sol))
    _emit_json(_limit_json(lim))
    return 0


def _svg(width, height, *elements) -> str:
    """An SVG document, one element a line: the elements on a white
    width x height ground, or with none an empty document."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}"')
    if not elements:
        return head + "/>\n"
    return "\n".join((
        f'{head} viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *elements, "</svg>")) + "\n"


def _polyline(points, color, width) -> str:
    """An unfilled polyline through the (x, y) points."""
    pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in points)
    return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')


def _region_svg(samples, ceiling: float) -> str:
    """Minimal polar plot: the boundary polyline inside a reference circle."""
    size, margin = 480, 30
    half = size / 2
    rs = [min(s.i_limit, ceiling) for s in samples]
    rmax = max(max(rs), 1e-9)
    scale = (half - margin) / rmax
    pts = [(half + scale * r * math.cos(s.theta_i),
            half - scale * r * math.sin(s.theta_i))
           for s, r in zip(samples, rs)]
    return _svg(
        size, size,
        f'<circle cx="{half}" cy="{half}" r="{half - margin}" fill="none" '
        f'stroke="#999" stroke-dasharray="4 4"/>',
        f'<line x1="{margin}" y1="{half}" x2="{size - margin}" y2="{half}" stroke="#ccc"/>',
        f'<line x1="{half}" y1="{margin}" x2="{half}" y2="{size - margin}" stroke="#ccc"/>',
        _polyline(pts + pts[:1], "#d33", 1.5),
        f'<text x="{size - margin + 4}" y="{half + 4}" font-size="12">'
        f"{rmax:.4g} p.u.</text>",
    )


def cmd_region(doc: ConfigDocument, args) -> int:
    coeffs, _ = _coeffs_for(doc, args)
    sol = _with_flags(doc.solver, args)
    region = region_boundary(
        coeffs, doc.circuit.ug_pos, args.seq,
        fixed_other=_held_current(doc, args),
        angle_step=math.radians(args.angle_step), **dataclasses.asdict(sol),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("theta_deg,i_limit_pu,binding\n")
        for s in region.samples:
            # snap float noise in the sweep angles (display in degrees)
            deg = round(math.degrees(s.theta_i), 9) + 0.0
            fh.write(f"{deg:.12g},{s.i_limit:.12g},{s.binding.value}\n")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_region_svg(region.samples, sol.ceiling))
    print(f"wrote {len(region.samples)} samples to {args.out}")
    return 0


def _trace_svg(trace) -> str:
    """Frequency estimates over time, one polyline per sequence."""
    width, height, margin = 640, 360, 40
    t = trace.t
    if t.size < 2:
        return _svg(width, height)
    series = ((trace.f_pos_hz, "#26c"), (trace.f_neg_hz, "#d33"))
    finite = np.concatenate([s[np.isfinite(s)] for s, _ in series])
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < 1.0:
        mid = 0.5 * (hi + lo)
        lo, hi = mid - 0.5, mid + 0.5
    sx = (width - 2 * margin) / (t[-1] - t[0])
    sy = (height - 2 * margin) / (hi - lo)
    return _svg(
        width, height,
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#333"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="#333"/>',
        f'<text x="{margin}" y="{margin - 8}" font-size="12">f (Hz), '
        f"[{lo:.4g}, {hi:.4g}]</text>",
        f'<text x="{width - margin - 30}" y="{height - margin + 16}" '
        f'font-size="12">{t[-1]:.3g} s</text>',
        *(_polyline([(margin + sx * (ti - t[0]),
                      height - margin - sy * (vi - lo))
                     for ti, vi in zip(t, vals) if math.isfinite(vi)],
                    color, 1)
          for vals, color in series),
    )


def cmd_simulate(doc: ConfigDocument, args) -> int:
    fault = _with_flags(make_fault(doc, args.fault, args.zf), args)
    sync = doc.sync
    if args.mode is not None:
        sync = dataclasses.replace(sync, mode=_MODES[args.mode])
    opts = _with_flags(doc.scenario, args)
    scenario = Scenario(
        circuit=doc.circuit, fault=fault,
        ref_fault=_fault_refs(doc, args), ref_prefault=doc.ref_prefault,
        sync=sync, t_end=opts.t_end, dt=opts.dt,
        freq_adaptive_z=opts.freq_adaptive_z, init=opts.init,
    )
    trace, verdict = run_scenario(scenario, record_dt=opts.record_dt)
    with open(args.out, "w", encoding="utf-8") as fh:
        trace_to_csv(trace, fh)
    verdict_obj = {
        "lost": verdict.lost,
        "determined": verdict.determined,
        "t_los": _jnum(verdict.t_los) if verdict.t_los is not None else None,
        "dominant": verdict.dominant.value if verdict.dominant else None,
        "signature": verdict.signature.value if verdict.signature else None,
        "diverged": trace.diverged,
    }
    if args.verdict is not None:
        with open(args.verdict, "w", encoding="utf-8") as fh:
            _emit_json(verdict_obj, fh)
    _emit_json(verdict_obj)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_trace_svg(trace))
    return 0


def _random_draw(rng) -> tuple:
    """One randomized (circuit, fault, injection, angles) validation case."""

    base = table_circuit()
    # draws r then x, branch by branch in field order: seeded runs repeat
    scaled = {}
    for f in dataclasses.fields(base):
        b = getattr(base, f.name)
        if isinstance(b, BranchImpedance):
            scaled[f.name] = BranchImpedance(
                b.r * rng.uniform(0.5, 2.0), b.x * rng.uniform(0.5, 2.0)
            )
    circuit = dataclasses.replace(
        base, **scaled,
        ug_pos=rng.uniform(0.8, 1.3), theta_g=rng.uniform(-math.pi, math.pi),
    )
    kind = _FAULT_CHOICES[rng.integers(0, len(_FAULT_CHOICES))]
    fault = FaultSpec(fault_type=FaultType(kind), z_f=complex(rng.uniform(0.0, 0.05)))
    i_pos = rng.uniform(0.0, 1.5)
    i_neg = 0.0 if kind == "tlg" else rng.uniform(0.0, 1.5)
    angles = rng.uniform(-math.pi, math.pi, size=4)
    return circuit, fault, i_pos, i_neg, angles


def oracle_errors(draws: int, seed: int = 0) -> tuple[float, float]:
    """Max relative disagreement between the coefficient model and the
    phase-network oracle over random draws; returns (pos, neg)."""
    rng = np.random.default_rng(seed)
    worst_p = 0.0
    worst_n = 0.0
    for _ in range(draws):
        circuit, fault, i_pos, i_neg, ang = _random_draw(rng)
        coeffs = compute_coefficients(compose_paths(circuit), fault)
        ref = CurrentReference(i_pos, ang[0], i_neg, ang[1])
        th_p, th_n = ang[2], ang[3]
        u_pos, u_neg, _ = terminal_voltage(
            coeffs, ref, circuit.ug_pos, circuit.theta_g, th_p, th_n
        )
        sol = solve_phase_network(
            circuit, fault,
            phasor(i_pos, th_p + ang[0]), phasor(i_neg, th_n + ang[1]),
        )
        den_p = max(abs(sol.u_term_pos), 1e-12)
        den_n = max(abs(sol.u_term_neg), 1e-12)
        worst_p = max(worst_p, abs(u_pos - sol.u_term_pos) / den_p)
        worst_n = max(worst_n, abs(u_neg - sol.u_term_neg) / den_n)
    return worst_p, worst_n


def cmd_validate(doc: ConfigDocument, args) -> int:
    if args.draws < 1:
        raise ConfigError("--draws must be >= 1")
    worst_p, worst_n = oracle_errors(args.draws, args.seed)
    ok = max(worst_p, worst_n) < 1e-9
    _emit_json(
        {
            "draws": args.draws,
            "max_rel_error_pos": _jnum(worst_p),
            "max_rel_error_neg": _jnum(worst_n),
            "pass": ok,
        }
    )
    return 0 if ok else 3


def _add_fault_flags(p) -> None:
    p.add_argument("--fault", choices=_FAULT_CHOICES, default=None,
                   help="fault type (falls back to config fault.type)")
    p.add_argument("--zf", type=float, default=None, metavar="OHM",
                   help="fault branch impedance in ohms")


def _add_current_flags(p) -> None:
    for flag, seq in (("--iplus", "positive"), ("--iminus", "negative")):
        p.add_argument(flag, metavar="A@D", help=f"{seq} reference, p.u.@deg")


def _add_sweep_flags(p) -> None:
    p.add_argument("--seq", choices=_SEQUENCES, required=True)
    p.add_argument("--other", metavar="A@D", default=None,
                   help="held other-sequence current (default: current.fault)")
    p.add_argument("--step", type=float, help="amplitude step, p.u.; the limit's resolution")
    p.add_argument("--ceiling", type=float, help="amplitude cap of the sweep, p.u.")


def build_parser() -> _Parser:
    parser = _Parser(prog="ibgsync", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON config path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[], help="print coupling coefficients")
    _add_fault_flags(p)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("equilibrium", help="solve the orientation angles")
    _add_fault_flags(p)
    _add_current_flags(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("limit", help="injection limit at one angle")
    _add_fault_flags(p)
    p.add_argument("--angle", type=float, required=True, metavar="DEG")
    _add_sweep_flags(p)
    p.add_argument("--decoupled", action="store_true",
                   help="closed-form single-sequence limit")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("region", help="polar limit boundary sweep")
    _add_fault_flags(p)
    p.add_argument("--angle-step", type=float, default=5.0, metavar="DEG")
    _add_sweep_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="closed-loop fault ride-through run")
    _add_fault_flags(p)
    _add_current_flags(p)
    for flag in ("--t-on", "--t-clear", "--t-end", "--dt", "--record-dt"):
        p.add_argument(flag, type=float)
    p.add_argument("--mode", choices=tuple(_MODES), default=None)
    p.add_argument("--init", choices=INIT_MODES, default=None)
    adaptive = p.add_mutually_exclusive_group()
    adaptive.add_argument("--adaptive", dest="freq_adaptive_z",
                          action="store_true", default=None)
    adaptive.add_argument("--no-adaptive", dest="freq_adaptive_z",
                          action="store_false")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--verdict", default=None, help="verdict JSON path")
    p.add_argument("--svg", default=None, help="optional SVG plot path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="coefficients vs phase-network oracle")
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = load_config(args.config)
        return args.func(doc, args)
    # DegenerateNetwork and SingularSystem are ValueErrors: catch them first
    except (DegenerateNetwork, SingularSystem) as exc:
        print(f"ibgsync: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ibgsync: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ibgsync: i/o error: {exc}", file=sys.stderr)
        return 1
    # a horizon too long for the trace buffer
    except MemoryError as exc:
        print(f"ibgsync: config error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

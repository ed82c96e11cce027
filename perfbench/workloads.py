"""The three workloads: inputs made from the seed, the timed operations,
and the checks each operation's output must pass.

Import only after ``src`` is on the path and the kernel flavor is pinned
(run.py does both). Calls into ibgsync go through module attributes
(``limits.traversal_limit``), so a traced run sees them.
"""

import dataclasses
import io
import math
import random
import statistics
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from ibgsync import dynsim, equilibrium, kernels, limits, network
from ibgsync.synchro import SyncConfig, SyncMode

import checks

# library and CLI defaults: bolted-ish 0.01 ohm fault branch on the
# 110 kV / 9 MVA base, ceiling 3 p.u., 3 s horizon at dt 1e-4
ZF_PU = 0.01 / (110.0 ** 2 / 9.0)
CEILING = 3.0
T_END = 3.0
DT = 1e-4
RECORD_DT = 1e-3

CIRCUIT = network.table_circuit()
UG = CIRCUIT.ug_pos
R = math.radians


def _coeffs(fault: str, circuit=CIRCUIT):
    return network.compute_coefficients(
        network.compose_paths(circuit),
        network.FaultSpec(network.FaultType(fault), z_f=ZF_PU),
    )


def _reference(seq, amp, deg, other_amp, other_deg):
    if seq == "pos":
        return equilibrium.CurrentReference(amp, R(deg), other_amp, R(other_deg))
    return equilibrium.CurrentReference(other_amp, R(other_deg), amp, R(deg))


# Each workload names its host_kernel, the hostspeed kernel that does the
# same kind of work as the layer it is bound by; its timings are scaled by it.


@dataclasses.dataclass
class Op:
    """One timed call. `weight` operations ride on it (a region sweep
    counts one per angle); `check` turns its output into one problem list
    per operation."""

    label: str
    weight: int
    call: Callable[[], object]
    check: Callable[[object], list[list[str]]]


# the twelve reference limits: fault, swept sequence, angle (deg), fixed
# other sequence (p.u., deg), published limit (p.u.), published binding
LIMIT_ROWS = (
    ("slg", "pos", -30.0, 0.2, 90.0, 1.42, "type1"),
    ("dlg", "pos", -30.0, 0.5, 90.0, 0.76, "type1"),
    ("ll", "pos", -30.0, 0.5, 90.0, 0.94, "type1"),
    ("slg", "pos", 90.0, 0.2, 90.0, 1.10, "type2"),
    ("dlg", "pos", 90.0, 0.5, 90.0, 0.59, "type2"),
    ("ll", "pos", 90.0, 0.5, 90.0, 0.72, "type2"),
    ("slg", "neg", -30.0, 0.5, -90.0, 0.54, "type1"),
    ("dlg", "neg", -30.0, 0.5, -90.0, 0.92, "type1"),
    ("ll", "neg", -30.0, 0.5, -90.0, 1.13, "type1"),
    ("slg", "neg", 90.0, 0.5, -90.0, 0.41, "type2"),
    ("dlg", "neg", 90.0, 0.5, -90.0, 0.71, "type2"),
    ("ll", "neg", 90.0, 0.5, -90.0, 0.87, "type2"),
)


class LimitTable:
    """One traversal_limit call per reference row; the seed sets the order."""

    name = "limit-table"
    host_kernel = "vector"

    def __init__(self, seed: int, out_dir: Path):
        rows = list(LIMIT_ROWS)
        random.Random(seed).shuffle(rows)
        coeffs = {fault: _coeffs(fault) for fault in ("slg", "dlg", "ll")}
        self.inputs = {"order": [f"{r[0]}-{r[1]}@{r[2]:g}" for r in rows]}
        self.ops = [self._op(coeffs[row[0]], *row) for row in rows]
        self._warm = coeffs["dlg"]

    @staticmethod
    def _op(coeffs, fault, seq, deg, other_amp, other_deg, published, binding):
        def call():
            return limits.traversal_limit(
                coeffs, UG, seq, R(deg), fixed_other=(other_amp, R(other_deg))
            )

        def check(res):
            return [checks.check_limit(published, binding, res.i_limit, res.binding.value)]

        return Op(f"{fault}-{seq}@{deg:g}", 1, call, check)

    def warm_up(self):
        limits.traversal_limit(self._warm, UG, "pos", R(-30.0),
                               fixed_other=(0.5, R(90.0)), step=0.1, grid_deg=30.0)


# region sweeps with no other-sequence current
REGION_SWEEPS = (("dlg", "pos"), ("slg", "neg"))
# 12 angles per sweep; the fourth (-85.5 to -82.5 deg) sits inside both
# sweeps' ceiling window, so every seed has one ceiling-capped angle per sweep
REGION_STEP_DEG = (31.5, 32.5)


class RegionSweep:
    """region_boundary over both sweeps at a seed-chosen angle step."""

    name = "region-sweep"
    host_kernel = "vector"

    def __init__(self, seed: int, out_dir: Path):
        step_deg = random.Random(seed).uniform(*REGION_STEP_DEG)
        self.angle_step = R(step_deg)
        self.inputs = {"angle_step_deg": step_deg}
        self.ops = [self._op(_coeffs(fault), fault, seq) for fault, seq in REGION_SWEEPS]
        self._warm = _coeffs("dlg")

    def _op(self, coeffs, fault, seq):
        angle_step = self.angle_step
        k, z = (coeffs.k1, coeffs.z2) if seq == "pos" else (coeffs.k4, coeffs.z5)
        n = math.ceil((2.0 * math.pi - 1e-12) / angle_step)

        def call():
            return limits.region_boundary(coeffs, UG, seq, angle_step=angle_step)

        def check(region):
            thetas = [s.theta_i for s in region.samples]
            grid = checks.check_region_angles(thetas, angle_step)
            if grid:
                return [grid] * n
            return [
                checks.check_region_sample(k, z, UG, s.theta_i, CEILING,
                                           s.i_limit, s.binding.value)
                for s in region.samples
            ]

        return Op(f"{fault}-{seq}", n, call, check)

    def warm_up(self):
        limits.region_boundary(self._warm, UG, "pos", angle_step=math.pi,
                               step=0.1, grid_deg=30.0)


# label, fault, swept sequence, amplitude, angle (deg), other sequence
# (p.u., deg), mode, frequency-adaptive impedance, expected outcome: None
# for a run that holds, else the published binding of the lost run
RIDE_RUNS = (
    ("dlg-pll-0.71", "dlg", "pos", 0.71, -30.0, 0.5, 90.0, "pll", True, None),
    ("dlg-pll-0.81", "dlg", "pos", 0.81, -30.0, 0.5, 90.0, "pll", True, "type1"),
    ("slg-pll-0.36", "slg", "neg", 0.36, 90.0, 0.5, -90.0, "pll", True, None),
    ("slg-pll-0.46", "slg", "neg", 0.46, 90.0, 0.5, -90.0, "pll", True, "type2"),
    ("dlg-fll-0.71", "dlg", "pos", 0.71, -30.0, 0.5, 90.0, "fll", True, None),
    ("dlg-fixed-0.71", "dlg", "pos", 0.71, -30.0, 0.5, 90.0, "pll", False, None),
)


def _scenario(circuit, fault, ref, mode="pll", adaptive=True, t_end=T_END):
    return dynsim.Scenario(
        circuit=circuit,
        fault=network.FaultSpec(network.FaultType(fault), z_f=ZF_PU, t_on=0.0),
        ref_fault=ref,
        sync=SyncConfig(mode=SyncMode("dsogi_" + mode)),
        t_end=t_end, dt=DT, freq_adaptive_z=adaptive,
    )


def _verdict_json(trace, verdict):
    """The verdict object `ibgsync simulate` prints."""
    return {
        "lost": verdict.lost,
        "t_los": verdict.t_los,
        "dominant": verdict.dominant.value,
        "signature": verdict.signature.value if verdict.signature else None,
        "diverged": trace.diverged,
    }


class RideThrough:
    """Closed-loop runs as `ibgsync simulate` makes them: scenario,
    run_scenario, trace CSV, verdict. The seed sets the order and the grid
    angle at t = 0, which no verdict may depend on."""

    name = "ride-through"
    host_kernel = "scalar"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        runs = list(RIDE_RUNS)
        rng.shuffle(runs)
        self.circuit = dataclasses.replace(CIRCUIT, theta_g=rng.uniform(-math.pi, math.pi))
        self.inputs = {"order": [r[0] for r in runs], "theta_g": self.circuit.theta_g}
        self.out_dir = out_dir
        self.ops = [self._op(*run) for run in runs]
        self._roots = {}

    def _op(self, label, fault, seq, amp, deg, other_amp, other_deg, mode, adaptive,
            expect):
        ref = _reference(seq, amp, deg, other_amp, other_deg)
        scenario = _scenario(self.circuit, fault, ref, mode, adaptive)
        csv_path = self.out_dir / f"ride-through-{label}.csv"

        def call():
            trace, verdict = dynsim.run_scenario(scenario, record_dt=RECORD_DT)
            with open(csv_path, "w", encoding="utf-8") as fh:
                dynsim.trace_to_csv(trace, fh)
            return trace, _verdict_json(trace, verdict)

        def check(out):
            trace, verdict = out
            problems = checks.check_trace_csv(csv_path, T_END, RECORD_DT)
            if expect is not None:
                return [problems + checks.check_lost_run(verdict, seq, expect)]
            return [problems + self._check_settled(fault, ref, trace, verdict)]

        return Op(label, 1, call, check)

    def _check_settled(self, fault, ref, trace, verdict):
        key = (fault, ref)
        if key not in self._roots:
            coeffs = _coeffs(fault, self.circuit)
            self._roots[key] = (coeffs, equilibrium.solve_equilibrium(coeffs, ref, UG))
        coeffs, eq = self._roots[key]
        # loop angles against the grid frames: delta+- = theta+- - theta_g +- pi/3
        theta_g = self.circuit.theta_g + self.circuit.omega0 * float(trace.t[-1])
        final = {
            "delta_pos": float(trace.theta_pos[-1]) - theta_g + math.pi / 3.0,
            "delta_neg": float(trace.theta_neg[-1]) - theta_g - math.pi / 3.0,
            "ud_pos": float(trace.ud_pos[-1]),
            "ud_neg": float(trace.ud_neg[-1]),
        }
        if not eq.found:
            return checks.check_stable_run(verdict, final, None, None)
        root = {key: getattr(eq, key) for key in final}
        residuals = checks.q_residuals(
            coeffs.as_tuple(), UG,
            (ref.i_pos, ref.theta_i_pos, ref.i_neg, ref.theta_i_neg),
            eq.delta_pos, eq.delta_neg,
        )
        return checks.check_stable_run(verdict, final, root, residuals)

    def warm_up(self):
        ref = _reference("pos", 0.71, -30.0, 0.5, 90.0)
        trace, _ = dynsim.run_scenario(_scenario(self.circuit, "dlg", ref, t_end=0.01),
                                       record_dt=RECORD_DT)
        dynsim.trace_to_csv(trace, io.StringIO())


WORKLOADS = {w.name: w for w in (LimitTable, RegionSweep, RideThrough)}


def micro_timings():
    """Layers timed on their own: one 180x180 scan (ms), one coefficient
    column and one closed-loop derivative (us per call); medians of five.
    The scan case is that of `python -m ibgsync.bench`."""
    def median_of(fn, batch):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(batch):
                fn()
            times.append((time.perf_counter() - t0) / batch)
        return statistics.median(times)

    prm = equilibrium.pack_params(
        _coeffs("dlg"), _reference("pos", 0.76, -30.0, 0.5, 90.0), UG)
    scan_ms = 1e3 * median_of(lambda: kernels.scan_roots(prm, 180, 1e-10, 80, 1e-9), 1)

    scenario = _scenario(CIRCUIT, "dlg", _reference("pos", 0.71, -30.0, 0.5, 90.0))
    (code, zf, paths, ug, theta_g0, w0, _, ref_on, gains, mode_fll,
     adaptive) = dynsim._kernel_args(scenario)
    column = (code, 1.02, *paths, zf)
    coeffs_us = 1e6 * median_of(lambda: kernels.seq_coeffs(*column), 2000)
    y = np.array([UG * 0.5, -UG * 0.866, 0.1, 0.05, -math.pi / 3, 0.0,
                  math.pi / 3, 0.0, 0.0])
    deriv = (y, 0.01, code, zf, paths, ug, theta_g0, w0, ref_on, gains,
             mode_fll, adaptive)
    deriv_us = 1e6 * median_of(lambda: kernels.deriv_eval(*deriv), 1000)
    return scan_ms, coeffs_us, deriv_us

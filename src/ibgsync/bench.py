"""Timing comparison of the kernel flavors.

Run as ``python -m ibgsync.bench``. In the default build the jitted torus
scan and integrator are timed against the numpy/python fallbacks; under
``IBGSYNC_PURE_NUMPY=1`` only the fallbacks exist, which gives the
no-numba baseline for the same cases.
"""

import argparse
import math
import time

import numpy as np

from . import kernels
from .dynsim import TRACE_COLUMNS, Scenario, _kernel_args
from .equilibrium import NEWTON_MAXIT, CurrentReference, pack_params
from .network import FaultSpec, FaultType, compose_paths, compute_coefficients, table_circuit


def _time(fn, repeat: int) -> float:
    """Best-of-N wall time in seconds."""
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _scan_case() -> np.ndarray:
    circuit = table_circuit()
    paths = compose_paths(circuit)
    zf = 0.01 / (110.0 ** 2 / 9.0)
    coeffs = compute_coefficients(
        paths, FaultSpec(FaultType.DLG, z_f=complex(zf))
    )
    ref = CurrentReference(0.76, math.radians(-30.0), 0.5, math.radians(90.0))
    return pack_params(coeffs, ref, circuit.ug_pos)


def _sim_args():
    """kernels.simulate arguments for 0.5 s of an SLG run at dt = 1e-4."""
    circuit = table_circuit()
    fault = FaultSpec(FaultType.SLG, z_f=complex(0.01 / (110.0 ** 2 / 9.0)))
    scenario = Scenario(
        circuit=circuit, fault=fault,
        ref_fault=CurrentReference(0.5, math.radians(-30.0), 0.3, math.radians(90.0)),
    )
    y0 = np.zeros(9)
    y0[0] = circuit.ug_pos * math.cos(-math.pi / 3)
    y0[1] = circuit.ug_pos * math.sin(-math.pi / 3)
    y0[4] = -math.pi / 3
    y0[6] = math.pi / 3
    n_steps = 5000
    rec = np.empty((n_steps // 10 + 1, len(TRACE_COLUMNS)))
    return (
        y0, n_steps, scenario.dt, 10, 0.0, fault.t_on, fault.t_clear,
        *_kernel_args(scenario), rec,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ibgsync.bench")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--grid", type=int, default=180,
                        help="torus grid edge for the scan case")
    args = parser.parse_args(argv)

    prm = _scan_case()
    grid = args.grid
    flavor = "numba njit" if kernels.USING_NUMBA else "pure numpy"
    print(f"active kernel flavor: {flavor}")

    # warm-up (JIT compile in the numba build)
    kernels.scan_roots(prm, 16, 1e-10, NEWTON_MAXIT, 1e-9)
    kernels.scan_roots_vec(prm, 16, 1e-10, NEWTON_MAXIT, 1e-9)

    t_active = _time(
        lambda: kernels.scan_roots(prm, grid, 1e-10, NEWTON_MAXIT, 1e-9), args.repeat
    )
    t_vec = _time(
        lambda: kernels.scan_roots_vec(prm, grid, 1e-10, NEWTON_MAXIT, 1e-9), args.repeat
    )
    print(f"torus scan {grid}x{grid}: active {t_active * 1e3:9.2f} ms | "
          f"numpy fallback {t_vec * 1e3:9.2f} ms")

    sim_args = _sim_args()
    y0 = sim_args[0]
    kernels.simulate(y0.copy(), 100, *sim_args[2:])  # warm-up
    t_sim = _time(lambda: kernels.simulate(y0.copy(), *sim_args[1:]), args.repeat)
    print(f"0.5 s closed-loop run (dt 1e-4): active {t_sim * 1e3:9.2f} ms")
    if kernels.USING_NUMBA:
        t_py = _time(
            lambda: kernels._simulate(y0.copy(), *sim_args[1:]), max(1, args.repeat // 3)
        )
        print(f"  python loop over jitted derivative:  {t_py * 1e3:9.2f} ms")
        print("  (set IBGSYNC_PURE_NUMPY=1 for the fully interpreted baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

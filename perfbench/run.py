"""ibgsync benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload limit-table --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ibgsync from ``src``
with the pure-numpy kernel flavor pinned (IBGSYNC_PURE_NUMPY=1). As many
whole rounds of the workload's operations run as fit in --seconds, and at
least one; every output is checked against values worked out apart from the
program, and a check that fails counts the operation as failed. Times are
scaled to a reference host speed (see hostspeed.py); the measured times are
kept in the fuller record. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per module with --trace 1). The fuller record, with the run
details, goes to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REPEATS = 3

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"),
)

# per-module metrics: name, unit, kind (measured at a call boundary,
# computed from arguments and other figures, or scaled to the reference host
# speed)
PER_LAYER = (
    ("kernels.scan_roots.calls", "count", "measured"),
    ("kernels.scan_roots.s", "s", "measured"),
    ("kernels.scan_roots.seeds", "count", "computed"),
    ("kernels.scan_roots.binding_calls", "count", "measured"),
    ("kernels.scan_roots.share", "%", "computed"),
    ("kernels.scan_roots.ms_180", "ms", "measured"),
    ("kernels.newton_pair.calls", "count", "measured"),
    ("kernels.newton_pair.s", "s", "measured"),
    ("kernels.simulate.calls", "count", "measured"),
    ("kernels.simulate.steps", "count", "computed"),
    ("kernels.simulate.s", "s", "measured"),
    ("kernels.simulate.us_per_step", "us", "computed"),
    ("kernels.seq_coeffs.us", "us", "measured"),
    ("kernels.deriv_eval.us", "us", "measured"),
    ("equilibrium.solve_equilibrium.calls", "count", "measured"),
    ("equilibrium.solve_equilibrium.s", "s", "measured"),
    ("equilibrium.refine_root.calls", "count", "measured"),
    ("equilibrium.refine_root.misses", "count", "measured"),
    ("equilibrium.refine_root.s", "s", "measured"),
    ("limits.traversal_limit.calls", "count", "measured"),
    ("limits.traversal_limit.s", "s", "measured"),
    ("dynsim.initial_sync_state.s", "s", "measured"),
    ("dynsim.detect_los.s", "s", "measured"),
    ("dynsim.trace_to_csv.s", "s", "measured"),
    ("dynsim.trace_to_csv.bytes", "bytes", "measured"),
    ("dynsim.trace_to_csv.share", "%", "computed"),
    ("network.compose_paths.calls", "count", "measured"),
    ("network.compose_paths.s", "s", "measured"),
    ("network.compute_coefficients.calls", "count", "measured"),
    ("network.compute_coefficients.s", "s", "measured"),
    ("trace.wall_s", "s", "scaled"),
    ("trace.untraced_wall_s", "s", "scaled"),
    ("trace.overhead_s", "s", "computed"),
    ("trace.overhead_share", "%", "computed"),
    ("trace.accounted_share", "%", "computed"),
)


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_ibgsync():
    """A fresh interpreter that imports ibgsync, waited for."""
    env = dict(os.environ, PYTHONPATH=str(SRC), IBGSYNC_PURE_NUMPY="1")
    subprocess.run([sys.executable, "-c", "import ibgsync"], cwd=ROOT, env=env,
                   check=True, timeout=120)


def _attempt(op):
    """(output, None) or (None, error): a failing operation is counted, not fatal."""
    try:
        return op.call(), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_round(workload, clock, tracer=None):
    """Every operation once: [(op, measured s, scaled s, output or None,
    error or None)]. A traced round samples the host speed only between
    operations, so that no kernel call falls inside a span; its spans carry
    the index of their operation as run id."""
    records = []
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.run_id = i
        (out, err), dt, scaled = clock.time(lambda: _attempt(op), sample=tracer is None)
        records.append((op, dt, scaled, out, err))
    return records


def check_round(records, log):
    """(attempted, failed) over a round; problems go to `log`."""
    attempted = failed = 0
    for op, _, _, out, err in records:
        if err is None:
            try:
                problems = op.check(out)
            except Exception as exc:  # an unreadable output fails its check
                problems = [[f"check raised {type(exc).__name__}: {exc}"]] * op.weight
        else:
            problems = [[err]] * op.weight
        attempted += op.weight
        for i, probs in enumerate(problems):
            if probs:
                failed += 1
                log.append({"op": op.label, "index": i, "problems": probs})
    return attempted, failed


def op_seconds(records):
    """Scaled per-operation times; a call that carries several operations
    (a region sweep) gives each of them an equal share."""
    return [dt / op.weight for op, _, dt, _, _ in records for _ in range(op.weight)]


def per_layer(tracer, layers, traced, untraced_wall, micro):
    """Per-module metrics of one traced round; `.s` is measured self time.
    `traced` is the round's (measured, scaled) wall time, `untraced_wall`
    the scaled median of the untraced rounds."""
    traced_wall, traced_scaled = traced
    scan_ms, coeffs_us, deriv_us = micro
    sim = layers.get("kernels.simulate", {})
    values = {
        "kernels.scan_roots.ms_180": scan_ms,
        "kernels.simulate.us_per_step": (
            1e6 * sim["self_s"] / sim["steps"] if sim.get("steps") else 0.0),
        "kernels.seq_coeffs.us": coeffs_us,
        "kernels.deriv_eval.us": deriv_us,
        "trace.wall_s": traced_scaled,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_scaled - untraced_wall,
        "trace.overhead_share": 100.0 * (traced_scaled - untraced_wall) / untraced_wall,
        "trace.accounted_share": 100.0 * tracer.root_seconds() / traced_wall,
    }
    for layer in ("kernels.scan_roots", "dynsim.trace_to_csv"):
        values[layer + ".share"] = (
            100.0 * layers.get(layer, {}).get("self_s", 0.0) / traced_wall)
    for name, _, _ in PER_LAYER:
        if name not in values:
            layer, key = name.rsplit(".", 1)
            values[name] = layers.get(layer, {}).get("self_s" if key == "s" else key, 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("limit-table", "region-sweep", "ride-through"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ibgsync" / "__init__.py").is_file():
        print(f"no ibgsync sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ["IBGSYNC_PURE_NUMPY"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np

    import ibgsync
    from ibgsync import kernels

    if Path(ibgsync.__file__).resolve().parent != SRC / "ibgsync" or kernels.USING_NUMBA:
        print("could not pin the pure-numpy flavor of ibgsync from src", file=sys.stderr)
        return 2
    import hostspeed
    import tracing
    import workloads
    OUT.mkdir(exist_ok=True)

    def build():
        workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
        workload.warm_up()
        return workload

    # set-up: median of fresh imports plus median of input builds with their
    # warm-up call, scaled by the scalar kernel (both are interpreter-bound);
    # sampled only between the steps, as an import waits on a child process
    setup_clock = hostspeed.ScaledClock("scalar")
    imports = [setup_clock.time(_import_ibgsync, sample=False)[1:] for _ in range(REPEATS)]
    builds = []
    for _ in range(REPEATS):
        workload, *times = setup_clock.time(build, sample=False)
        builds.append(times)
    setup_s = (statistics.median(s for _, s in imports)
               + statistics.median(s for _, s in builds))

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.inputs,
        "kernel_flavor": "pure-numpy", "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "ibgsync").glob("*.py"))),
    }

    attempted = failed = 0
    walls, measured_walls, ops, problems, op_log = [], [], [], [], []
    clock = hostspeed.ScaledClock(workload.host_kernel)
    t_start = time.perf_counter()
    while True:
        records = run_round(workload, clock)
        walls.append(sum(scaled for _, _, scaled, _, _ in records))
        measured_walls.append(sum(dt for _, dt, _, _, _ in records))
        ops.extend(op_seconds(records))
        op_log.append({op.label: [dt, scaled] for op, dt, scaled, _, _ in records})
        a, f = check_round(records, problems)
        attempted, failed = attempted + a, failed + f
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            records = run_round(workload, clock, tracer)
        traced = (sum(dt for _, dt, _, _, _ in records),
                  sum(scaled for _, _, scaled, _, _ in records))
        a, f = check_round(records, problems)
        attempted, failed = attempted + a, failed + f
        layers = tracer.layers()
        values = per_layer(tracer, layers, traced, statistics.median(walls),
                           workloads.micro_timings())
        metrics = [(name, unit, kind, values[name]) for name, unit, kind in PER_LAYER]
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        details["spans"] = str(spans_path.relative_to(ROOT))
        details["layers"] = layers
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = [(name, unit, "measured" if name == "peak_rss_mb" else "scaled",
                    values[name]) for name, unit in END_TO_END]

    details.update(
        host_kernel=workload.host_kernel,
        host_kernel_reference_s=hostspeed.REFERENCE_S[workload.host_kernel],
        host_kernel_s=clock.kernel_s, setup_kernel_s=setup_clock.kernel_s,
        setup_imports_s=imports, setup_builds_s=builds, rounds=len(walls),
        round_walls_s=walls, measured_round_walls_s=measured_walls,
        op_seconds=op_log, problems=problems)
    details["metrics"] = {n: {"value": v, "unit": u, "kind": k} for n, u, k, v in metrics}
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(details, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  flavor pure-numpy  "
          f"nproc {details['nproc']}  python {details['python']}  numpy {details['numpy']}  "
          f"commit {details['commit'][:12]}  src lines {details['src_lines']}")
    print(f"rounds {len(walls)}  attempted {attempted}  failed {failed}")
    for p in problems:
        print(f"FAILED {p['op']}[{p['index']}]: {'; '.join(p['problems'])}")
    for name, unit, kind, value in metrics:
        print(f"  {name:38s} {value:14.6g} {unit:6s} {kind}")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, u, _, v in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

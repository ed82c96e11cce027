"""Newton steps to convergence per polish of a sextic candidate and per
warm start.

    PYTHONPATH=src python3 tools/newton_steps.py --cap 80

Runs the twelve reference limits (``same_answers.LIMIT_ROWS`` on the CLI's
default circuit and fault branch, the rows of the limit-table workload)
once with ``equilibrium.NEWTON_MAXIT`` set to the cap (default: its own
value) and prints one JSON object. For the candidate polishes, the
Newton calls with which ``kernels.scan_roots`` polishes each root of the
sextic on the torus, and for the warm starts it gives how many converged
after each number of Newton steps, how many missed, how many of those
stopped early on a singular Jacobian, and the Newton steps taken in all,
counting each miss at the whole cap. A call's step count is the smallest
cap at which ``kernels.newton_pair`` converges from its start.
"""

import argparse
import json
import math
from collections import Counter

from ibgsync import compose_paths, compute_coefficients, equilibrium, kernels
from ibgsync.config import load_config, make_fault
from ibgsync.limits import traversal_limit
from ibgsync.phasor import parse_phasor, polar

from same_answers import LIMIT_ROWS


def summary(calls: list[tuple], cap: int) -> dict:
    """The step histogram of recorded (prm, dp, dn, tol, maxit) calls."""
    converged, missed, singular = Counter(), 0, 0
    for prm, dp, dn, tol, maxit in calls:
        k = next((k for k in range(maxit + 1)
                  if kernels.newton_pair(prm, dp, dn, tol, k)[0]), None)
        if k is not None:
            converged[k] += 1
            continue
        missed += 1
        # one more step allowed changes nothing only after a singular stop
        singular += (kernels.newton_pair(prm, dp, dn, tol, maxit)
                     == kernels.newton_pair(prm, dp, dn, tol, maxit + 1))
    return {"calls": len(calls), "converged_after": dict(sorted(converged.items())),
            "missed": missed, "missed_singular": singular,
            "newton_steps": sum(k * n for k, n in converged.items()) + cap * missed}


def record(cap: int) -> dict:
    """Run the reference limits at the cap, recording every Newton call: a
    call inside kernels.scan_roots polishes a candidate, any other is a
    warm start."""
    polishes, warm = [], []
    newton, scan = kernels.newton_pair, kernels.scan_roots
    in_scan = False

    def scan_call(*args):
        nonlocal in_scan
        in_scan = True
        try:
            return scan(*args)
        finally:
            in_scan = False

    def newton_call(prm, dp, dn, tol, maxit):
        # the two more steps of the winner are not a candidate's polish
        if not in_scan:
            warm.append((tuple(prm), dp, dn, tol, maxit))
        elif not (tol == 0.0 and maxit == 2):
            polishes.append((tuple(prm), dp, dn, tol, maxit))
        return newton(prm, dp, dn, tol, maxit)

    doc = load_config(None)
    paths = compose_paths(doc.circuit)
    saved = equilibrium.NEWTON_MAXIT
    kernels.newton_pair, kernels.scan_roots = newton_call, scan_call
    equilibrium.NEWTON_MAXIT = cap
    try:
        for fault, seq, angle, other in LIMIT_ROWS:
            coeffs = compute_coefficients(paths, make_fault(doc, fault))
            traversal_limit(coeffs, doc.circuit.ug_pos, seq,
                            math.radians(float(angle)),
                            fixed_other=polar(parse_phasor(other)))
    finally:
        kernels.newton_pair, kernels.scan_roots = newton, scan
        equilibrium.NEWTON_MAXIT = saved
    return {"cap": cap, "candidate_polishes": summary(polishes, cap),
            "warm_starts": summary(warm, cap)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cap", type=int, default=equilibrium.NEWTON_MAXIT,
                        help="Newton iteration cap per polish and warm start")
    args = parser.parse_args(argv)
    print(json.dumps(record(args.cap)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

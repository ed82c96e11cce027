"""Torus-grid root scan used only by the tests.

The equilibrium scan as it was before ``kernels.scan_roots`` moved onto the
one-dimensional curve where r1 vanishes: a Newton seed at every point of a
grid_n x grid_n grid over (delta+, delta-), all seeds iterated together,
each stopping by ``kernels.newton_pair``'s rule. It returns the same
6-tuple, picks among qualifying roots by the same rule, the largest
min(ud+, ud-), and gives the winner the same two more Newton steps, kept
while it qualifies, so the two scans can be compared for any packed
parameters.
"""

import math

import numpy as np

from ibgsync.kernels import (
    dq_eval,
    jacobian_eval,
    newton_pair,
    residual_eval,
    root_conditions,
)

__all__ = ["scan_roots"]


def scan_roots(prm, grid_n, tol, maxit, ud_min):
    """(found, dp, dn, res, any_converged, any_feedback) from a torus grid."""
    h = 2.0 * math.pi / grid_n
    g = np.arange(grid_n) * h
    dp, dn = np.meshgrid(g, g, indexing="ij")
    dp = dp.ravel().copy()
    dn = dn.ravel().copy()
    res = np.empty(dp.size)
    conv = np.zeros(dp.size, dtype=bool)
    act = np.arange(dp.size)
    for it in range(maxit + 1):
        a = dp[act]
        b = dn[act]
        r1, r2 = residual_eval(prm, a, b)
        res[act] = np.maximum(np.abs(r1), np.abs(r2))
        conv[act] = res[act] < tol
        if it == maxit:
            break  # seeds still active after maxit steps get only this check
        j11, j12, j21, j22 = jacobian_eval(prm, a, b)
        det = j11 * j22 - j12 * j21
        # converged and singular seeds stop here
        keep = ~(conv[act] | (np.abs(det) < 1e-14))
        act = act[keep]
        r1, r2, det = r1[keep], r2[keep], det[keep]
        j11, j12, j21, j22 = j11[keep], j12[keep], j21[keep], j22[keep]
        dp[act] = a[keep] + np.clip(-(j22 * r1 - j12 * r2) / det, -0.5, 0.5)
        dn[act] = b[keep] + np.clip(-(-j21 * r1 + j11 * r2) / det, -0.5, 0.5)
    if not conv.any():
        return False, 0.0, 0.0, float(res.min()), False, False
    dp = dp[conv] % (2.0 * math.pi)
    dn = dn[conv] % (2.0 * math.pi)
    res = res[conv]
    feedback, good = root_conditions(prm, dp, dn, ud_min)
    if not good.any():
        return False, 0.0, 0.0, float(res.min()), True, bool(feedback.any())
    ud_p, _, ud_n, _ = dq_eval(prm, dp, dn)
    k = int(np.argmax(np.where(good, np.minimum(ud_p, ud_n), -np.inf)))
    best = (dp[k], dn[k], res[k])
    _, dp, dn, res = newton_pair(prm, best[0], best[1], 0.0, 2)
    if root_conditions(prm, dp, dn, ud_min)[1]:
        best = (dp, dn, res)
    return True, float(best[0]), float(best[1]), float(best[2]), True, True

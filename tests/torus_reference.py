"""Torus-grid root scan and the array root evaluators, used only by the
tests.

The evaluators write the q-axis residuals (r1, r2), their Jacobian, the d/q
voltages and the root conditions elementwise on numpy arrays.
``kernels.newton_pair`` and ``kernels.root_check`` evaluate one point on
floats in the same operation order, so the tests compare the two forms bit
for bit.

The scan is the equilibrium scan as it was before ``kernels.scan_roots``
listed the roots by elimination: a Newton seed at every point of a
grid_n x grid_n grid over (delta+, delta-), all seeds iterated together,
each stopping by ``kernels.newton_pair``'s rule. It returns the same
6-tuple, picks among qualifying roots by the same rule, the largest
min(ud+, ud-), and gives the winner the same two more Newton steps, kept
while it qualifies, so the two can be compared for any packed parameters.
"""

import math

import numpy as np

from ibgsync.kernels import (
    P_A1, P_A4, P_B2, P_B5, P_C3, P_C6, P_F1, P_F4, P_P2, P_P3, P_P5, P_P6,
    newton_pair,
)

__all__ = ["residual_eval", "jacobian_eval", "dq_eval", "root_conditions",
           "scan_roots"]


def residual_eval(prm, dp, dn):
    """q-axis residuals (r1, r2) of the two orientation equations.

    uq_pos = r1 and uq_neg = -r2; works elementwise on arrays.
    """
    r1 = (
        prm[P_A1] * np.sin(prm[P_F1] - dp)
        + prm[P_B2] * np.sin(prm[P_P2])
        + prm[P_C3] * np.sin(prm[P_P3] + dn - dp)
    )
    r2 = (
        prm[P_A4] * np.sin(prm[P_F4] - dn)
        + prm[P_B5] * np.sin(prm[P_P5])
        + prm[P_C6] * np.sin(prm[P_P6] + dp - dn)
    )
    return r1, r2


def jacobian_eval(prm, dp, dn):
    """Partials of (r1, r2) w.r.t. (dp, dn); elementwise on arrays."""
    cp = prm[P_A1] * np.cos(prm[P_F1] - dp)
    cx = prm[P_C3] * np.cos(prm[P_P3] + dn - dp)
    cn = prm[P_A4] * np.cos(prm[P_F4] - dn)
    cy = prm[P_C6] * np.cos(prm[P_P6] + dp - dn)
    j11 = -cp - cx
    j12 = cx
    j21 = cy
    j22 = -cn - cy
    return j11, j12, j21, j22


def dq_eval(prm, dp, dn):
    """d/q voltages at an angle pair; uq_neg carries the clockwise-frame sign."""
    r1, r2 = residual_eval(prm, dp, dn)
    ud_p = (
        prm[P_A1] * np.cos(prm[P_F1] - dp)
        + prm[P_B2] * np.cos(prm[P_P2])
        + prm[P_C3] * np.cos(prm[P_P3] + dn - dp)
    )
    ud_n = (
        prm[P_A4] * np.cos(prm[P_F4] - dn)
        + prm[P_B5] * np.cos(prm[P_P5])
        + prm[P_C6] * np.cos(prm[P_P6] + dp - dn)
    )
    return ud_p, r1, ud_n, -r2


def root_conditions(prm, dp, dn, ud_min):
    """Root conditions (feedback, qualifies); elementwise on arrays.

    feedback: both per-loop feedback slopes are negative. qualifies: feedback
    and both d-axis voltages above ud_min (orientation).
    """
    ud_p, _, ud_n, _ = dq_eval(prm, dp, dn)
    j11, _, _, j22 = jacobian_eval(prm, dp, dn)
    feedback = (j11 < 0.0) & (j22 < 0.0)
    return feedback, feedback & (ud_p > ud_min) & (ud_n > ud_min)


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

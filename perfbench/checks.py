"""Checks of the program's outputs against values worked out apart from it.

Every check takes plain numbers and strings and returns a list of problems;
an empty list means the output holds. Nothing here imports ibgsync, so a
fault in the program cannot also hide in its own check.
"""

import cmath
import csv
import math

LIMIT_TOL = 0.03
REGION_TOL = 0.015
SETTLE_TOL = 1e-3
RESIDUAL_TOL = 1e-9

TRACE_HEADER = (
    "t", "f_pos_hz", "f_neg_hz", "theta_pos", "theta_neg",
    "ud_pos", "uq_pos", "ud_neg", "uq_neg", "umag_pos", "umag_neg",
)

# the signature a lost run shows for each published binding
SIGNATURE = {"type1": "drift", "type2": "chatter"}


def wrap(angle: float) -> float:
    """Angle folded into [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def check_limit(published: float, binding: str, i_limit: float, got: str) -> list[str]:
    """A reference limit: within LIMIT_TOL of the published value and bound
    by the published mechanism."""
    problems = []
    if not abs(i_limit - published) <= LIMIT_TOL:
        problems.append(f"limit {i_limit:.4f} is more than {LIMIT_TOL} from {published}")
    if got != binding:
        problems.append(f"binding {got} where {binding} is published")
    return problems


def closed_form_limit(k: complex, z: complex, ug: float, theta_i: float) -> float:
    """Single-sequence limit from |K|, |Z| and phi = arg(Z) + theta_i.

    The circle |K| Ug / |Z| binds where the voltage shrinks with amplitude
    (cos phi < 0); elsewhere the fold binds at that value over |sin phi|.
    """
    circle = abs(k) * ug / abs(z)
    phi = cmath.phase(z) + theta_i
    if math.cos(phi) < 0.0:
        return circle
    s = abs(math.sin(phi))
    return circle / s if s > 0.0 else math.inf


def check_region_sample(
    k: complex, z: complex, ug: float, theta_i: float, ceiling: float,
    i_limit: float, binding: str,
) -> list[str]:
    """One region sample against the closed form: capped samples must say
    so, the others lie within REGION_TOL of it."""
    closed = closed_form_limit(k, z, ug, theta_i)
    if closed >= ceiling:
        if binding != "ceiling":
            return [f"closed form {closed:.4f} is past the ceiling but binding is {binding}"]
        return []
    if not abs(i_limit - closed) <= REGION_TOL:
        return [f"limit {i_limit:.4f} is more than {REGION_TOL} from closed form {closed:.4f}"]
    return []


def check_region_angles(thetas: list[float], angle_step: float) -> list[str]:
    """The sweep covers [-pi, pi) from -pi in equal steps."""
    n = math.ceil((2.0 * math.pi - 1e-12) / angle_step)
    if len(thetas) != n:
        return [f"{len(thetas)} samples where {n} angles are swept"]
    worst = max(abs(wrap(th - (-math.pi + i * angle_step))) for i, th in enumerate(thetas))
    if worst > 1e-9:
        return [f"sample angles are off the sweep grid by up to {worst:.3g} rad"]
    return []


def q_residuals(
    coeffs: tuple[complex, ...], ug: float, ref: tuple[float, float, float, float],
    delta_pos: float, delta_neg: float,
) -> tuple[float, float]:
    """q-axis voltages of both loops at an angle pair, from the coupling
    coefficients (k1, z2, z3, k4, z5, z6) and the reference
    (i_pos, theta_i_pos, i_neg, theta_i_neg).

    Each sequence's terminal voltage is rotated into its own loop frame;
    the negative frame turns clockwise, so its q axis carries a minus sign.
    """
    k1, z2, z3, k4, z5, z6 = coeffs
    ip, tp, i_n, tn = ref
    u_pos = (k1 * ug * cmath.exp(-1j * delta_pos) + z2 * ip * cmath.exp(1j * tp)
             + z3 * i_n * cmath.exp(1j * (delta_neg - delta_pos + tn)))
    u_neg = (k4 * ug * cmath.exp(-1j * delta_neg) + z5 * i_n * cmath.exp(1j * tn)
             + z6 * ip * cmath.exp(1j * (delta_pos - delta_neg + tp)))
    return u_pos.imag, -u_neg.imag


def check_stable_run(
    verdict: dict, final: dict, root: dict | None, residuals: tuple[float, float] | None,
) -> list[str]:
    """A run expected to hold: not lost, not diverged, and settled on the
    solver's root, whose q-axis residuals vanish.

    `final` and `root` hold delta_pos, delta_neg, ud_pos and ud_neg; `root`
    is None when the solver found no root.
    """
    problems = []
    if verdict["lost"]:
        problems.append(f"reported lost ({verdict['dominant']}, {verdict['signature']})")
    if verdict["diverged"]:
        problems.append("reported diverged")
    if root is None:
        return problems + ["solver found no root to settle on"]
    for key in ("delta_pos", "delta_neg"):
        dev = abs(wrap(final[key] - root[key]))
        if not dev < SETTLE_TOL:
            problems.append(f"final {key} is {dev:.3g} rad from the solver's root")
    for key in ("ud_pos", "ud_neg"):
        dev = abs(final[key] - root[key])
        if not dev < SETTLE_TOL:
            problems.append(f"final {key} is {dev:.3g} p.u. from the solver's root")
    worst = max(abs(r) for r in residuals)
    if not worst < RESIDUAL_TOL:
        problems.append(f"root's q-axis residual is {worst:.3g}")
    return problems


def check_lost_run(verdict: dict, sequence: str, binding: str) -> list[str]:
    """A run expected to lose synchronism the way its row is published."""
    if not verdict["lost"]:
        return ["reported stable"]
    problems = []
    want = f"{sequence}_{binding}"
    if verdict["dominant"] != want:
        problems.append(f"dominant {verdict['dominant']} where {want} is expected")
    if verdict["signature"] != SIGNATURE[binding]:
        problems.append(f"signature {verdict['signature']} where {SIGNATURE[binding]} is expected")
    return problems


def check_trace_csv(path, t_end: float, record_dt: float) -> list[str]:
    """The trace CSV read back: canonical header, one row per record
    instant over [0, t_end], every value finite."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != TRACE_HEADER:
        return ["trace CSV header is not the canonical one"]
    want = int(round(t_end / record_dt)) + 1
    body = rows[1:]
    if len(body) != want:
        return [f"trace CSV has {len(body)} rows where {want} are expected"]
    for i, row in enumerate(body):
        if len(row) != len(TRACE_HEADER):
            return [f"trace CSV row {i} has {len(row)} fields"]
        try:
            values = [float(v) for v in row]
        except ValueError:
            return [f"trace CSV row {i} holds a value that is not a number"]
        if not all(math.isfinite(v) for v in values):
            return [f"trace CSV row {i} holds a value that is not finite"]
    return []

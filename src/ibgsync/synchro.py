"""Synchronization unit: complex-coefficient sequence filter, FLL frequency
adaptation, and dual PLLs.

The filter keeps two rotating states, Û⁺ (counterclockwise) and Û⁻
(clockwise), both corrected by the shared error Ū − Û⁺ − Û⁻. Angles are
tracked either by per-sequence PLLs acting on the frame-rotated q-axis
voltages or, in FLL mode, by integrating each filter state's instantaneous
rotation rate, Im(dÛ⁺·conj(Û⁺))/|Û⁺|² and the clockwise counterpart for Û⁻
(kernels._deriv, the closed-loop model).
"""

import enum
import math
from dataclasses import dataclass

from .network import DEFAULT_OMEGA0

__all__ = [
    "SyncMode",
    "SyncConfig",
    "SyncState",
    "ccf_derivative",
    "fll_adaptation",
    "pll_derivatives",
    "extract_dq",
]


class SyncMode(enum.Enum):
    """Angle-tracking flavor: dual PLLs, or an FLL with the angles following
    the filter states' rotation."""

    DSOGI_PLL = "dsogi_pll"
    DSOGI_FLL = "dsogi_fll"


@dataclass(frozen=True)
class SyncConfig:
    """Filter and tracking-loop gains (the nominal frequency is the circuit's)."""

    mode: SyncMode = SyncMode.DSOGI_PLL
    k: float = 1.414
    kp_fll: float = 50.0
    ki_fll: float = 8000.0
    kp_pll: float = 100.0
    ki_pll: float = 2000.0

    def __post_init__(self):
        # "not <" also rejects NaN
        if not 0.0 < self.k < math.inf:
            raise ValueError("SOGI gain k must be finite and > 0")
        for name in ("kp_fll", "ki_fll", "kp_pll", "ki_pll"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass
class SyncState:
    """Mutable state of one synchronizer instance.

    Angles stay unwrapped while integrating; normalize on output only.
    """

    u_hat_pos: complex = 0j
    u_hat_neg: complex = 0j
    omega_hat: float = DEFAULT_OMEGA0
    eps_fll: float = 0.0
    theta_pos: float = 0.0
    theta_neg: float = 0.0
    omega_pos: float = DEFAULT_OMEGA0
    omega_neg: float = DEFAULT_OMEGA0
    xi_pos: float = 0.0
    xi_neg: float = 0.0


def ccf_derivative(
    state: SyncState, input_u: complex, cfg: SyncConfig
) -> tuple[complex, complex]:
    """Time derivatives of the two filter states at center frequency
    state.omega_hat: counter-rotation plus the shared gained error."""
    err = input_u - state.u_hat_pos - state.u_hat_neg
    drive = 0.5 * cfg.k * state.omega_hat * err
    du_pos = 1j * state.omega_hat * state.u_hat_pos + drive
    du_neg = -1j * state.omega_hat * state.u_hat_neg + drive
    return du_pos, du_neg


def fll_adaptation(
    state: SyncState, input_u: complex, cfg: SyncConfig, omega0: float
) -> tuple[float, float]:
    """Center-frequency estimate and integrator derivative in FLL mode.

    The error is the component of the filter mismatch along the quadrature
    signal, e = Im[(Ū − Û)·V̂*], with Û = Û⁺ + Û⁻ and V̂ = Û⁺ − Û⁻.
    omega0 is the nominal frequency. Returns (omega_hat, deps_fll).
    """
    v_hat = state.u_hat_pos - state.u_hat_neg
    err = input_u - state.u_hat_pos - state.u_hat_neg
    e = (err * v_hat.conjugate()).imag
    omega_hat = omega0 + cfg.kp_fll * e + cfg.ki_fll * state.eps_fll
    return omega_hat, e


def pll_derivatives(
    state: SyncState,
    ud_uq: tuple[float, float, float, float],
    cfg: SyncConfig,
    omega0: float,
) -> tuple[float, float, float, float, float, float]:
    """Dual-PLL state derivatives and frequency outputs around omega0.

    Returns (dtheta_pos, dxi_pos, dtheta_neg, dxi_neg, omega_pos,
    omega_neg). The negative loop tracks a clockwise frame, hence the
    negated PI action on û_q⁻.
    """
    _, uq_p, _, uq_n = ud_uq
    omega_pos = omega0 + cfg.kp_pll * uq_p + cfg.ki_pll * state.xi_pos
    omega_neg = omega0 - cfg.kp_pll * uq_n - cfg.ki_pll * state.xi_neg
    return omega_pos, uq_p, omega_neg, uq_n, omega_pos, omega_neg


def extract_dq(state: SyncState) -> tuple[float, float, float, float]:
    """Frame-rotated voltages (û_d⁺, û_q⁺, û_d⁻, û_q⁻).

    Positive: û_d⁺ + jû_q⁺ = Û⁺·e^(−jθ̂⁺). Negative, clockwise frame:
    û_d⁻ − jû_q⁻ = conj(Û⁻)·e^(−jθ̂⁻).
    """
    zp = state.u_hat_pos * complex(
        math.cos(state.theta_pos), -math.sin(state.theta_pos)
    )
    zn = state.u_hat_neg.conjugate() * complex(
        math.cos(state.theta_neg), -math.sin(state.theta_neg)
    )
    return zp.real, zp.imag, zn.real, -zn.imag


"""Synchronizer settings: the angle-tracking mode and the filter and loop
gains.

The filter keeps two rotating states, Û⁺ (counterclockwise) and Û⁻
(clockwise), both corrected by the shared error Ū − Û⁺ − Û⁻. Angles are
tracked either by per-sequence PLLs acting on the frame-rotated q-axis
voltages or, in FLL mode, by integrating each filter state's instantaneous
rotation rate, Im(dÛ⁺·conj(Û⁺))/|Û⁺|² and the clockwise counterpart for Û⁻.
The state is nine floats, and the laws that move it are one function: the
closed-loop model that kernels._bind_deriv builds for each fault window
defines both.
"""

import enum
import math
from dataclasses import dataclass

__all__ = ["SyncMode", "SyncConfig"]


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


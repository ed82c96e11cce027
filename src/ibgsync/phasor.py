"""Polar/rectangular phasor helpers and the ``A@D`` flag syntax."""

import cmath
import math
import re

__all__ = [
    "phasor",
    "phasor_deg",
    "polar",
    "polar_deg",
    "wrap_angle",
    "parse_phasor",
    "format_phasor",
]

# a number as float() reads it, less digit separators (1_0) and non-ASCII digits
_NUMBER = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?\s*"
                     r"|\s*[+-]?(inf|infinity|nan)\s*", re.IGNORECASE)


def phasor(magnitude: float, angle_rad: float) -> complex:
    """Return a complex number for a phasor (angle in radians)."""
    return magnitude * (math.cos(angle_rad) + 1j * math.sin(angle_rad))


def phasor_deg(magnitude: float, angle_deg: float) -> complex:
    """Return a complex number for a phasor (angle in degrees)."""
    return phasor(magnitude, math.radians(angle_deg))


def polar(z: complex) -> tuple[float, float]:
    """Return (magnitude, angle_rad) with angle in (-pi, pi]."""
    magnitude, angle = cmath.polar(z)
    if angle <= -math.pi:
        angle += 2.0 * math.pi
    return magnitude, angle


def polar_deg(z: complex) -> tuple[float, float]:
    """Return (magnitude, angle_deg)."""
    magnitude, angle = polar(z)
    return magnitude, math.degrees(angle)


def wrap_angle(angle_rad: float) -> float:
    """Wrap an angle to (-pi, pi]; a non-finite angle raises ValueError."""
    if not math.isfinite(angle_rad):
        raise ValueError(f"angle must be finite, got {angle_rad}")
    wrapped = math.remainder(angle_rad, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def parse_phasor(text: str) -> complex:
    """Parse the CLI phasor syntax ``A@D`` (amplitude @ degrees).

    A bare number is accepted as a zero-angle phasor.
    """
    raw = text.strip()
    if "@" in raw:
        amp_part, _, deg_part = raw.partition("@")
    else:
        amp_part, deg_part = raw, "0"
    try:
        if not (_NUMBER.fullmatch(amp_part) and _NUMBER.fullmatch(deg_part)):
            raise ValueError(text)
        amplitude = float(amp_part)
        degrees = float(deg_part)
    except ValueError as exc:
        raise ValueError(f"bad phasor {text!r}, expected A@D like 0.5@-30") from exc
    if amplitude < 0:
        raise ValueError(f"bad phasor {text!r}, amplitude must be >= 0")
    if not math.isfinite(degrees):
        raise ValueError(f"bad phasor {text!r}, angle must be finite")
    return phasor_deg(amplitude, degrees)


def format_phasor(z: complex, digits: int = 6) -> str:
    """Format a complex value as ``magnitude∠degrees``."""
    magnitude, degrees = polar_deg(z)
    return f"{magnitude:.{digits}g}∠{degrees:.{digits}g}°"

"""Tests for the polar/complex conversion helpers and phasor text format."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ibgsync import (
    format_phasor,
    parse_phasor,
    phasor,
    phasor_deg,
    polar,
    polar_deg,
    wrap_angle,
)


def test_phasor_roundtrip():
    z = phasor(2.5, math.pi / 6)
    mag, ang = polar(z)
    assert mag == pytest.approx(2.5, rel=1e-12)
    assert ang == pytest.approx(math.pi / 6, abs=1e-12)


def test_phasor_deg_matches_radians():
    assert phasor_deg(1.0, 90.0) == pytest.approx(phasor(1.0, math.pi / 2))
    mag, deg = polar_deg(1j)
    assert (mag, deg) == pytest.approx((1.0, 90.0))


def test_wrap_angle_range():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-0.1) == pytest.approx(-0.1)
    assert wrap_angle(2 * math.pi + 0.3) == pytest.approx(0.3)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_wrap_angle_is_equivalent_angle(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert cmath.exp(1j * w) == pytest.approx(cmath.exp(1j * theta), abs=1e-6)


@given(
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=-180.0, max_value=179.9),
)
def test_parse_format_roundtrip(mag, deg):
    z = phasor_deg(mag, deg)
    back = parse_phasor(f"{mag!r}@{deg!r}")
    assert back == pytest.approx(z, rel=1e-12, abs=1e-15)


def test_parse_phasor_forms():
    assert parse_phasor("0.5@90") == pytest.approx(0.5j)
    assert parse_phasor(" 1.5 @ -30 ") == pytest.approx(phasor_deg(1.5, -30.0))
    assert parse_phasor("2") == pytest.approx(2.0 + 0j)
    assert parse_phasor("0@0") == 0j


def test_parse_phasor_rejects_bad_text():
    for text in ("", "abc", "1@@2", "1@2@3", "-0.5@90"):
        with pytest.raises(ValueError):
            parse_phasor(text)


@pytest.mark.parametrize("text", ["1_0@5", "1@1_0", "\uff11@5", "0x1@0", "1e@5"])
def test_parse_phasor_takes_decimal_numbers_only(text):
    """float() also reads digit separators (1_0 is 10) and non-ASCII digits;
    the phasor syntax does not."""
    with pytest.raises(ValueError, match="expected A@D"):
        parse_phasor(text)


def test_parse_phasor_number_forms():
    for text, want in (("1.@.5", phasor_deg(1.0, 0.5)), ("+.5@-30", phasor_deg(0.5, -30.0)),
                       ("1E-3@+4", phasor_deg(1e-3, 4.0)), ("1e5", 1e5 + 0j)):
        assert parse_phasor(text) == want


@pytest.mark.parametrize("text", ["0.5@inf", "0.5@-inf", "0.5@nan"])
def test_parse_phasor_rejects_non_finite_angle(text):
    with pytest.raises(ValueError, match="angle must be finite"):
        parse_phasor(text)


def test_format_phasor_readable():
    s = format_phasor(phasor_deg(0.5, 90.0))
    assert s.startswith("0.5")
    assert "90" in s
    # formatted text parses back to the same value
    mag_txt, ang_txt = s.replace("°", "").split("∠")
    z = phasor_deg(float(mag_txt), float(ang_txt))
    assert z == pytest.approx(phasor_deg(0.5, 90.0), rel=1e-5)

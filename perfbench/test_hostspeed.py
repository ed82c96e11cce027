"""The host-speed clock samples its kernel during a call, leaves the kernel
out of the call's time, and scales by the kernel's speed."""

import signal
import time

import pytest

import hostspeed


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return 1.0


@pytest.fixture
def clock(monkeypatch):
    # a kernel twice as slow as its reference: scaled times are half the measured
    monkeypatch.setitem(hostspeed.KERNELS, "fake", lambda: _busy(0.01))
    monkeypatch.setitem(hostspeed.REFERENCE_S, "fake", 0.005)
    return hostspeed.ScaledClock("fake")


def test_kernel_runs_during_a_long_call_and_outside_its_time(clock):
    before = signal.getsignal(signal.SIGALRM)
    calls = len(clock.kernel_s)
    result, measured, scaled = clock.time(lambda: _busy(3 * hostspeed.PERIOD_S))
    assert result == 1.0
    inside = clock.kernel_s[calls:-1]  # the last call ran after the end
    assert len(inside) >= 2
    # the call ran to a wall-clock deadline, so the kernel calls took from it
    assert abs(measured + sum(inside) - 3 * hostspeed.PERIOD_S) < 0.05
    assert 0.3 * measured < scaled < 0.7 * measured
    assert signal.getsignal(signal.SIGALRM) is before


def test_unsampled_call_runs_the_kernel_once_at_its_end(clock):
    calls = len(clock.kernel_s)
    clock.time(lambda: _busy(2 * hostspeed.PERIOD_S), sample=False)
    assert len(clock.kernel_s) - calls == 1


def test_non_finite_kernel_result_is_refused(monkeypatch):
    monkeypatch.setitem(hostspeed.KERNELS, "fake", lambda: float("nan"))
    monkeypatch.setitem(hostspeed.REFERENCE_S, "fake", 0.005)
    with pytest.raises(RuntimeError):
        hostspeed.ScaledClock("fake")

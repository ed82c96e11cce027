"""Host-speed reference: timings scaled to a fixed host speed.

The benchmark runs on shared machines whose speed drifts by a third within
seconds to minutes, in wall and CPU time alike, and differently on each
core. Two fixed kernels, which do the same kind of work as the layers the
workloads are bound by and call nothing of ibgsync, are timed on the
benchmark's own thread every PERIOD_S seconds while an operation runs (a
SIGALRM handler runs them between the program's bytecodes, so no part of
the program is changed) and once more when it ends. Each stretch of the
operation between two kernel calls is scaled by REFERENCE_S over the mean
of those two calls: the seconds it would take on a host that runs the
kernel in REFERENCE_S. A change to ibgsync moves the operation and not the
kernel, so it shows in full; a change in host speed moves both and cancels.
The kernel calls themselves are left out of the operation's time.

- ``vector``: damped Newton steps on a 180 x 180 grid of angle pairs with
  numpy array trigonometry, as in the torus scan (``kernels.scan_roots``).
- ``scalar``: fixed-step RK4 of a nine-component phasor loop, one scalar
  state at a time, as in the closed-loop integrator (``kernels.simulate``).

A kernel timed on another core, at the same moments, tracks this thread's
speed no better than no scaling at all; one timed on this thread right next
to the program's work does.
"""

import math
import signal
import time

import numpy as np

# median seconds of one kernel call on the reference host (2-core shared
# virtual machine, Python 3.11, numpy 2.4)
REFERENCE_S = {"vector": 0.045, "scalar": 0.037}
# seconds of an operation between two kernel calls
PERIOD_S = 0.5


def _vector():
    g = np.arange(180) * (2.0 * math.pi / 180)
    x, y = np.meshgrid(g, g, indexing="ij")
    x = x.ravel().copy()
    y = y.ravel().copy()
    for _ in range(20):
        a = 0.3 * np.sin(1.1 - x) + 0.2 * np.sin(0.4 + y - x)
        b = 0.5 * np.cos(0.7 - y) + 0.1 * np.cos(x - y)
        d = a * b - 0.3
        d = np.where(np.abs(d) < 1e-14, np.inf, d)
        x = x + np.clip(a / d, -0.5, 0.5)
        y = y + np.clip(b / d, -0.5, 0.5)
    return float(np.abs(x).sum() + np.abs(y).sum())


def _phasor_deriv(y, t):
    up = y[0] + 1j * y[1]
    un = y[2] + 1j * y[3]
    mp = up * np.exp(-1j * y[4])
    mn = un.conjugate() * np.exp(-1j * y[6])
    w = 314.0 + 2.0 * mp.imag + 0.5 * y[5]
    s = w / 314.0
    if s < 0.2:
        s = 0.2
    elif s > 5.0:
        s = 5.0
    u = ((0.3 + 0.1j * s) * np.exp(1j * (314.0 * t + 0.5))
         + (0.2 - 0.1j) * np.exp(1j * (y[4] + 0.3)))
    e = u - up - un
    dup = 1j * w * up + 0.7 * w * e
    dun = -1j * w * un + 0.7 * w * e
    out = np.empty(9)
    out[0] = dup.real
    out[1] = dup.imag
    out[2] = dun.real
    out[3] = dun.imag
    out[4] = w
    out[5] = mp.imag
    out[6] = w
    out[7] = -mn.imag
    out[8] = 0.0
    return out


def _scalar():
    y = np.array([0.3, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    dt = 1e-4
    for i in range(800):
        t = i * dt
        k1 = _phasor_deriv(y, t)
        k2 = _phasor_deriv(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = _phasor_deriv(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = _phasor_deriv(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(np.abs(y).sum())


KERNELS = {"vector": _vector, "scalar": _scalar}


class ScaledClock:
    """Times calls at the reference host speed of one kernel.

    ``time(fn)`` returns (result, measured seconds, scaled seconds). With
    ``sample=False`` the kernel runs only when the call ends (for calls that
    wait on a child process, or whose spans are being traced). Every kernel
    time is kept in ``kernel_s``. The kernel's result must be finite, so a
    broken numpy shows rather than a fast kernel.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel_s = []
        self._kernel = KERNELS[kind]
        self._reference = REFERENCE_S[kind]
        self._kernel()  # warm-up, not kept
        self._last = self._kernel_call()
        self._mark = time.perf_counter()
        self._measured = self._scaled = 0.0

    def _kernel_call(self) -> float:
        t0 = time.perf_counter()
        value = self._kernel()
        dt = time.perf_counter() - t0
        if not math.isfinite(value):
            raise RuntimeError(f"host-speed kernel {self.kind} gave {value}")
        self.kernel_s.append(dt)
        return dt

    def _close_stretch(self):
        stretch = time.perf_counter() - self._mark
        k = self._kernel_call()
        self._measured += stretch
        self._scaled += stretch * self._reference * 2.0 / (self._last + k)
        self._last = k
        self._mark = time.perf_counter()

    def _on_alarm(self, signum, frame):
        self._close_stretch()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def time(self, fn, sample: bool = True):
        self._measured = self._scaled = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark = time.perf_counter()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._close_stretch()
        return result, self._measured, self._scaled

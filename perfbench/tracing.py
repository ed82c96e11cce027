"""Spans around calls into ibgsync's public functions, installed at run time.

The program is not changed: while a Tracer is installed, every module
attribute of the ibgsync package that holds one of the TRACED functions is
replaced by a wrapper that records a span. That covers module attributes
looked up at call time (``kernels.scan_roots``) and names callers imported
(``limits.refine_root``, ``dynsim.detect_los``). The originals are put back
when the tracer is removed.
"""

import contextlib
import functools
import importlib
import sys
import time

TRACED = {
    "kernels": ("scan_roots", "newton_pair", "simulate"),
    "equilibrium": ("solve_equilibrium", "refine_root"),
    "limits": ("traversal_limit", "region_boundary"),
    "dynsim": ("run_scenario", "initial_sync_state", "detect_los", "trace_to_csv"),
    "network": ("compose_paths", "compute_coefficients"),
}

# the torus scan's orientation threshold when limits._failure_binding drops
# the d-axis requirement
_BINDING_UD_MIN = -1e29


def _note(name, args, result):
    """Counts read off a call's arguments and result."""
    if name == "kernels.scan_roots":
        grid_n, ud_min = args[1], args[4]
        return {"seeds": grid_n * grid_n, "binding_calls": ud_min <= _BINDING_UD_MIN}
    if name == "kernels.simulate":
        overflow_step = result[1]
        return {"steps": args[1] if overflow_step < 0 else overflow_step}
    if name == "equilibrium.refine_root":
        return {"misses": result is None}
    if name == "dynsim.trace_to_csv":
        return {"bytes": args[1].tell()}
    return None


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, run id, note]."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _note(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every ibgsync module attribute that holds a traced function."""
        targets = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"ibgsync.{module}")
            for name in names:
                fn = getattr(mod, name)
                targets[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "ibgsync" and not modname.startswith("ibgsync."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value and not attr.startswith("_"):
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def layers(self):
        """Per span name: calls, inclusive and self seconds, summed notes.

        Self time is a span's duration minus the durations of the spans it
        called directly; calls are nested in one thread, so children never
        overlap.
        """
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _, note) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_s[i]
            for key, value in (note or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def root_seconds(self):
        """Time inside spans that the benchmark itself opened."""
        return sum(t1 - t0 for _, t0, t1, parent, _, _ in self.spans if parent < 0)

    def dump(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        return [[name, t0 - base, t1 - base, parent, run_id]
                for name, t0, t1, parent, run_id, _ in self.spans]

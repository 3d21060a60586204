"""Spans around the public functions of every `lpw` module, set from outside.

A `Tracer` finds each public function defined in an `lpw` module and every
module-namespace name bound to it (modules import each other's functions by
name), and swaps in a timing wrapper while installed.  A span's self time is
its duration minus the time of the spans it encloses.  Transforms reported by
the counter are spans of their own: their time goes to `grid.fft_s`, and
their lattice points to the innermost `lpw` layer enclosing the call.

Spans started on a pool thread have no parent, so a span that waits for a
pool keeps that wait in its self time.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("grid", "rng", "smooth", "lp", "symbols", "psido", "paraproduct",
          "exponents", "iteration", "probe", "verify", "cli")

# per-layer metric -> the spans whose self time (or call count) it sums
SELF_TIME = {
    "grid.padded_s": ("grid.padded_physical", "grid.field_from_padded"),
    "grid.norm_s": ("grid.lp_norm",),
    "grid.random_field_s": ("grid.random_field",),
    "lp.partition_s": ("lp.build_partition",),
    "lp.project_s": ("lp.project", "lp.project_window", "lp.project_range"),
    "lp.dyadic_sequence_s": ("lp.dyadic_norm_sequence",),
    "lp.sobolev_s": ("lp.sobolev_norm",),
    "lp.packet_s": ("lp.shell_packet", "lp.shell_sum_field", "lp.flat_dyadic_field"),
    "symbols.apply_s": ("symbols.apply",),
    "psido.split_elliptic_s": ("psido.split_elliptic", "psido.ellipticity_margin"),
    "psido.parametrix_s": ("psido.parametrix", "psido.low_cutoff"),
    "psido.commutator_s": ("psido.commutator_shell", "psido.commutator_window_bound",
                           "psido.cutoff_commutator_order",
                           "psido.cutoff_commutator_field"),
    "psido.remainder_s": ("psido.commutator_symbol_remainder",),
    "psido.shell_ratio_s": ("psido.ap_shell_ratio",),
    "psido.mapping_s": ("psido.mapping_constant",),
    "paraproduct.split_s": ("paraproduct.split", "paraproduct.zones"),
    "paraproduct.product_shell_s": ("paraproduct.product_shell",),
    "paraproduct.all_pairs_s": ("paraproduct.all_pairs_shell",),
    "paraproduct.zone_report_s": ("paraproduct.zone_estimate_report",),
    "probe.manufacture_s": ("probe.manufactured_solution", "probe.smooth_forcing"),
    "probe.nonlinearity_s": ("probe.nonlinearity",),
    "probe.residual_s": ("probe.equation_residual",),
    "probe.localize_s": ("probe.localize", "probe.cutoff_field"),
    "probe.decay_fit_s": ("probe.dyadic_decay_report",),
    "verify.partition_s": ("verify.verify_partition",),
    "verify.bernstein_s": ("verify.verify_bernstein",),
    "verify.apbound_s": ("verify.verify_apbound",),
    "verify.commutator_s": ("verify.verify_commutator",),
    "verify.mapping_s": ("verify.verify_mapping",),
}
CALLS = {
    "grid.padded_calls": SELF_TIME["grid.padded_s"],
    "grid.norm_calls": SELF_TIME["grid.norm_s"],
    "lp.project_calls": SELF_TIME["lp.project_s"],
    "symbols.apply_calls": SELF_TIME["symbols.apply_s"],
    "paraproduct.split_calls": ("paraproduct.split",),
    "probe.nonlinearity_calls": SELF_TIME["probe.nonlinearity_s"],
}
FFT_LAYERS = ("grid", "lp", "symbols", "psido", "paraproduct", "probe")
SELF_LAYERS = ("grid", "lp", "symbols", "psido", "paraproduct", "probe", "verify")


class Tracer:
    """Self time and calls per span, and transforms per enclosing layer."""

    def __init__(self, counter, modules: dict):
        self.counter = counter
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.unit_doubles = 0  # values drawn by rng.unit_doubles
        self.fft_points = defaultdict(int)
        self.fft_calls = 0
        self.fft_s = 0.0
        self.installed = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._slots = []
        originals = {}
        for layer, mod in modules.items():
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in modules.values():
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if id(obj) in originals:
                    fn, wrapper = originals[id(obj)]
                    self._slots.append((namespace, name, fn, wrapper))

    def slot(self, namespace: dict, name: str, key: str) -> None:
        """Also trace `namespace[name]` (an attribute dict or a module dict)."""
        fn = namespace[name]
        entry = (namespace, name, fn, self._wrap(key, fn))
        self._slots.append(entry)
        if self.installed:
            namespace[name] = entry[3]

    def install(self) -> None:
        for namespace, name, fn, wrapper in self._slots:
            if namespace[name] is fn:
                namespace[name] = wrapper
        self.counter.tracer = self
        self.installed = True

    def uninstall(self) -> None:
        self.counter.tracer = None
        for namespace, name, fn, wrapper in self._slots:
            if namespace[name] is wrapper:
                namespace[name] = fn
        self.installed = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn):
        layer = key.split(".")[0]
        draws = key == "rng.unit_doubles"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    self.self_s[key] += dt - frame[1]
                    self.calls[key] += 1
            if draws:
                with self._lock:
                    self.unit_doubles += np.size(out)
            return out

        return span

    def record_transform(self, points: int, seconds: float) -> None:
        stack = self._stack()
        if stack:
            stack[-1][1] += seconds
        layer = stack[-1][0] if stack else "bench"
        with self._lock:
            self.fft_points[layer] += points
            self.fft_calls += 1
            self.fft_s += seconds

    def metrics(self) -> dict:
        """Cumulative per-layer metrics; differences of two calls are linear."""
        with self._lock:
            out = {"grid.fft_s": self.fft_s, "grid.fft_calls": self.fft_calls}
            for layer in FFT_LAYERS:
                out[f"{layer}.fft_mpoints"] = self.fft_points[layer] / 1e6
            for name, keys in SELF_TIME.items():
                out[name] = sum(self.self_s.get(k, 0.0) for k in keys)
            for name, keys in CALLS.items():
                out[name] = sum(self.calls.get(k, 0) for k in keys)
            out["rng.draw_s"] = sum(v for k, v in self.self_s.items()
                                    if k.startswith("rng."))
            out["rng.draw_mvalues"] = self.unit_doubles / 1e6
            for layer in SELF_LAYERS:
                out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items()
                                             if k.startswith(layer + "."))
            return out

    def spans(self) -> dict:
        """Every span seen: calls and self seconds, for the trace file."""
        with self._lock:
            return {k: {"calls": self.calls[k], "self_s": self.self_s[k]}
                    for k in sorted(self.calls)}

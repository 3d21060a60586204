"""Transform counter over every transform entry point of numpy.fft and scipy.fft.

`install()` replaces the entry points in the `numpy.fft` namespace with
counting wrappers, and does the same to `scipy.fft` the moment anything
imports it, so the benchmark itself never loads scipy.  It must run before
`lpw` is imported, so that a module binding a transform by name at import
time binds the counted one, and a switch of backend stays counted instead of
reading as zero work.
The benchmark's own reference kernel and its independent checks call the
untouched originals in `RAW`, so they never add to the counts.
"""

from __future__ import annotations

import functools
import importlib.abc
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np

NUMPY_TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)
SCIPY_TRANSFORMS = NUMPY_TRANSFORMS + (
    "hfft2", "ihfft2", "hfftn", "ihfftn",
    "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn", "fht", "ifht",
)

# captured when this module is first imported, before anything is patched
RAW = SimpleNamespace(**{name: getattr(np.fft, name) for name in NUMPY_TRANSFORMS})


class TransformCounter:
    """Calls and lattice points passed through transforms, process-wide.

    The points of one call are the larger of its input and output sizes, so a
    real-to-complex transform counts its real lattice.  When a tracer is set,
    each call is also timed and handed to `tracer.record_transform`.
    """

    def __init__(self):
        self.calls = 0
        self.points = 0
        self.tracer = None
        self._lock = threading.Lock()

    def snapshot(self) -> tuple:
        with self._lock:
            return self.calls, self.points

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer = self.tracer
            t0 = time.perf_counter() if tracer is not None else 0.0
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0 if tracer is not None else 0.0
            inp = args[0] if args else kwargs.get("a", kwargs.get("x"))
            points = max(int(np.size(inp)), int(np.size(out)))
            with self._lock:
                self.calls += 1
                self.points += points
            if tracer is not None:
                tracer.record_transform(points, dt)
            return out

        return counted

    def _patch(self, module, names) -> None:
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                setattr(module, name, self._wrap(fn))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Finds `scipy.fft` through the other finders and patches it once loaded."""

    def __init__(self, counter: TransformCounter):
        self.counter = counter

    def find_spec(self, fullname, path, target=None):
        if fullname != "scipy.fft":
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.counter._patch(module, SCIPY_TRANSFORMS)

        spec.loader.exec_module = exec_and_patch
        return spec


def install() -> TransformCounter:
    """Patch numpy.fft now and scipy.fft when it is imported; return the counter."""
    if np.fft.fftn is not RAW.fftn:
        raise RuntimeError("numpy.fft is already patched in this process")
    counter = TransformCounter()
    counter._patch(np.fft, NUMPY_TRANSFORMS)
    if "scipy.fft" in sys.modules:
        counter._patch(sys.modules["scipy.fft"], SCIPY_TRANSFORMS)
    else:
        sys.meta_path.insert(0, _PatchOnImport(counter))
    return counter

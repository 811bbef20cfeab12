"""Outside-in layer tracing: wrap the functions each layer's callers look up.

The program is not edited. ``Tracer.install`` replaces every module-level
binding of a traced function inside the ``spinstar`` package (for example
``spinstar.sweep.spectrum_blocked`` as well as
``spinstar.spectra.spectrum_blocked``) with a timing wrapper, and
``uninstall`` puts the originals back. A function that no longer exists is
recorded as absent and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "spinstar"

# (module, function) of each traced layer boundary, named <module>.<function>
SPANS = (
    ("cli", "main"),
    ("sweep", "sweep_records"),
    ("sweep", "evaluate_cell"),
    ("sweep", "write_records"),
    ("operators", "build_hamiltonian"),
    ("spectra", "spectrum_blocked"),
    ("spectra", "ground_manifold"),
    ("thermal", "gibbs_state_from_spectrum"),
    ("thermal", "zero_temperature_state"),
    ("thermal", "partial_trace"),
    ("entanglement", "multipartite_negativity"),
    ("entanglement", "negativity"),
)
SPAN_NAMES = tuple(f"{module}.{function}" for module, function in SPANS)

# spans whose first argument is the dense matrix the layer consumes
BYTES_IN = ("spectra.spectrum_blocked", "thermal.partial_trace", "entanglement.negativity")


class Tracer:
    """Per-span call counts, self time and total time, plus layer counters.

    Self time is a span's duration minus the time of its child spans on the
    same thread; sweeps evaluate cells on a thread pool, so each thread keeps
    its own span stack.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.bytes_in = defaultdict(int)
        self.degenerate = 0
        self.zero_cuts = 0
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def install(self) -> None:
        self.absent = []
        for module_name, function_name in SPANS:
            span = f"{module_name}.{function_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(span)
                continue
            original = getattr(module, function_name, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for loaded in [m for n, m in list(sys.modules.items())
                           if n == PACKAGE or n.startswith(PACKAGE + ".")]:
                for attr in [a for a, v in vars(loaded).items() if v is original]:
                    self._patches.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, span, function):
        local = self._local

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [span, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with self._lock:
                    self.calls[span] += 1
                    self.self_s[span] += elapsed - frame[1]
                    self.total_s[span] += elapsed
            self._observe(span, args, kwargs, result, stack)
            return result

        return wrapper

    def _observe(self, span, args, kwargs, result, stack) -> None:
        if span in BYTES_IN:
            first = args[0] if args else next(iter(kwargs.values()), None)
            size = int(getattr(first, "nbytes", 0))
            with self._lock:
                self.bytes_in[span] += size
        if span == "entanglement.negativity" and result == 0.0:
            with self._lock:
                self.zero_cuts += 1
        # a t = 0 cell asks for its ground manifold a second time, through
        # zero_temperature_state; count each cell once
        if (span == "spectra.ground_manifold" and getattr(result, "degeneracy", 1) > 1
                and not any(name == "thermal.zero_temperature_state" for name, _ in stack)):
            with self._lock:
                self.degenerate += 1

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer figure, averaged over the given number of traced passes."""
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = self.calls[span] / passes
            out[f"{span}.self_s"] = self.self_s[span] / passes
        for span in BYTES_IN:
            out[f"{span}.bytes_in"] = self.bytes_in[span] / passes
        sweep_s = self.total_s["sweep.sweep_records"]
        out["sweep.concurrency"] = self.total_s["sweep.evaluate_cell"] / sweep_s if sweep_s else 0.0
        out["spectra.ground_manifold.degenerate"] = self.degenerate / passes
        out["entanglement.negativity.zero"] = self.zero_cuts / passes
        return out

"""In-memory spans around the ionseries functions the benchmark attributes time to.

Each layer is one public library function. ``Tracer.install`` replaces the
function in every ``ionseries`` module namespace that binds it (``series``,
``states``, ``oracle`` and ``cli`` import names directly, so patching only the
defining module would miss most calls) and ``Tracer.uninstall`` restores the
originals. A span records name, start, end and the index of its parent span;
self time is a span's duration minus the durations of its direct children,
which nest fully inside it because everything runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


def _eig_name(args, kwargs):
    # hermitian_eigensystem(H, want_vectors=False): one layer, two uses
    want = kwargs.get("want_vectors", args[1] if len(args) > 1 else False)
    return "oracle.eigh" if want else "oracle.eigvalsh"


def _count_bytes(counts, result):
    counts["model.build_h_transformed.bytes_out"] += result.entries.nbytes


def _count_found(counts, result):
    counts["series.terminate_general.found"] += 1


def _count_validation(counts, result):
    counts["oracle.validate_series_solution.passed"] += bool(result.passed)
    counts["oracle.validate_series_solution.inconclusive"] += bool(result.inconclusive)


def _count_points(counts, result):
    counts["states.wigner_grid.points"] += result.size


# (module, function, span name or a function of the call's arguments, counter)
LAYERS = (
    ("ionseries.cli", "main", "cli.main", None),
    ("ionseries.rwa", "rwa_energy", "rwa.rwa_energy", None),
    ("ionseries.rwa", "rwa_hamiltonian", "rwa.rwa_hamiltonian", None),
    ("ionseries.model", "build_h_transformed", "model.build_h_transformed", _count_bytes),
    ("ionseries.model", "displacement_matrix", "model.displacement_matrix", None),
    ("ionseries.series", "series_to_fock", "series.series_to_fock", None),
    ("ionseries.series", "bargmann_to_fock", "series.bargmann_to_fock", None),
    ("ionseries.series", "terminate_general", "series.terminate_general", _count_found),
    ("ionseries.series", "case1_closed_form", "series.case1_closed_form", None),
    ("ionseries.series", "case2_closed_form", "series.case2_closed_form", None),
    ("ionseries.oracle", "hermitian_eigensystem", _eig_name, None),
    ("ionseries.oracle", "validate_series_solution", "oracle.validate_series_solution",
     _count_validation),
    ("ionseries.oracle", "nearest_eigenpair", "oracle.nearest_eigenpair", None),
    ("ionseries.states", "cat_state", "states.cat_state", None),
    ("ionseries.states", "coherent_state", "states.coherent_state", None),
    ("ionseries.states", "wigner_grid", "states.wigner_grid", _count_points),
)

SPAN_NAMES = tuple(
    n for _, _, n, _ in LAYERS if isinstance(n, str)
) + ("oracle.eigh", "oracle.eigvalsh")


class Tracer:
    """Collects spans ``[name, start, end, parent]`` and counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []
        self.active = True  # off while the runner checks results

    def _wrap(self, original, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = len(spans)
            label = name if isinstance(name, str) else name(args, kwargs)
            spans.append([label, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if count is not None:
                count(counts, result)
            return result

        return wrapper

    def install(self):
        for module, func, _, _ in LAYERS:
            importlib.import_module(module)
        namespaces = [
            m for key, m in list(sys.modules.items())
            if key == "ionseries" or key.startswith("ionseries.")
        ]
        for module, func, name, count in LAYERS:
            original = getattr(sys.modules[module], func)
            wrapper = self._wrap(original, name, count)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}

    def absorb(self, dumped):
        """Append spans and counters written by another process's tracer."""
        offset = len(self.spans)
        for name, start, end, parent in dumped["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        self.counts.update(dumped["counts"])


def layer_totals(spans):
    """``{name: (calls, self seconds)}`` over closed spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = Counter(), Counter()
    for (name, start, end, _), inner in zip(spans, child):
        calls[name] += 1
        self_s[name] += (end - start) - inner
    return {name: (calls[name], self_s[name]) for name in calls}

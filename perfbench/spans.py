"""In-memory span tracer for the benchmark's traced run.

The tracer replaces package functions with wrappers for the duration of one
traced operation and puts the originals back afterwards, so the untraced
path runs the package exactly as shipped.  Each boundary is patched under
the name its caller looks it up by: ``from .x import f`` binds a copy of
``f`` into the importing module, so wrapping ``x.f`` would miss those calls.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (None for an operation's root) and ``op`` the operation the
span belongs to.  Spans close in a ``finally`` block, so calls that raise
(every vacuous sweep row raises ``AllVacuous``) are recorded too.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np


def _count_series_terms(counts, args, result):
    if result is not None:
        counts["photonics.series_sum.terms"] += result.terms


def _count_x_points(counts, args, result):
    counts["decoy_bounds.x_points"] += int(np.size(args[0]))


def _count_omega_solves(counts, args, result):
    counts["phase_error.omega_solves"] += int(np.broadcast(args[0], args[1]).size)


def _count_vacuous_keys(counts, args, result):
    if result is not None and result.ell == 0:
        counts["keylength.key_length.vacuous"] += 1


# Boundary -> (layer that owns the callee, extra counter or None).  The
# first three are the calls the benchmark itself makes; the rest are the
# package's internal layer crossings.
BOUNDARIES = {
    "cli.main": ("cli", None),
    "optimizer.optimize_rate": ("optimizer", None),
    "keylength.key_length": ("keylength", _count_vacuous_keys),
    "cli.sweep_point": ("optimizer", None),
    "optimizer.key_length": ("keylength", _count_vacuous_keys),
    "optimizer.asymptotic_rate": ("keylength", None),
    "optimizer.simulate_observables": ("channel", None),
    "keylength.simulate_observables": ("channel", None),
    "keylength.evaluate_bounds": ("decoy_bounds", _count_x_points),
    "keylength.chi_low_orders": ("decoy_bounds", None),
    "keylength._phase_error_arrays": ("phase_error", _count_omega_solves),
    "channel.series_sum": ("photonics", _count_series_terms),
}


class Tracer:
    """Collects spans and counts while installed; restores the package on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        self.absent = []
        for qualname, (_, counter) in BOUNDARIES.items():
            modname, attr = qualname.rsplit(".", 1)
            try:
                module = importlib.import_module(f"passivekey.{modname}")
            except ImportError:
                self.absent.append(qualname)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(qualname)
                continue
            setattr(module, attr, self._wrap(qualname, original, counter))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                    self.op]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if counter is not None:
                    counter(counts, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def calls(self, *names: str) -> int:
        return sum(1 for span in self.spans if span[0] in names)

    def layer_times(self) -> tuple[dict, dict]:
        """(self time, busy time) per layer, in seconds.

        Self time is a span's duration minus the time covered by its child
        spans.  Busy time is the duration of spans whose parent belongs to
        another layer, so nested calls within one layer count once.
        """
        layer = [BOUNDARIES[span[0]][0] for span in self.spans]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: Counter = Counter()
        busy_s: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[layer[i]] += end - start - child[i]
            if parent is None or layer[parent] != layer[i]:
                busy_s[layer[i]] += end - start
        return self_s, busy_s

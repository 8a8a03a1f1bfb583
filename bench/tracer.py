"""In-memory span tracer that wraps malg's public functions from outside.

Every wrapped function is replaced at its defining module attribute and
at every other ``malg`` module that re-imports the same object (for
example ``malg.cli.lipschitz_bruteforce`` and ``malg.metric.compression``),
so calls made inside the library are caught as well as calls made by the
benchmark. Classes whose construction should be timed get their
``__init__`` wrapped; classes whose constructions are only counted get a
counting ``__init__`` (and ``ExtRational.infinity``, which bypasses it).

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1. Self time is a span's duration minus the time its
direct children cover; the program is single-threaded, so children never
overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# span name -> (defining module, attribute). Classes listed here have their
# __init__ timed; everything else is a function replaced by a wrapper.
SPANS = {
    "maps.lipschitz_bruteforce": ("malg.maps", "lipschitz_bruteforce"),
    "maps.lipschitz_fast": ("malg.maps", "lipschitz_fast"),
    "maps.compression": ("malg.maps", "compression"),
    "maps.induced_homomorphism": ("malg.maps", "induced_homomorphism"),
    "maps.is_inverse_nil_preserving": ("malg.maps", "is_inverse_nil_preserving"),
    "maps.check_hom_laws": ("malg.maps", "check_hom_laws"),
    "maps.check_well_definedness": ("malg.maps", "check_well_definedness"),
    "maps.null_ideal_preserved": ("malg.maps", "null_ideal_preserved"),
    "maps.make_map": ("malg.maps", "make_map"),
    "metric.contravariance_check": ("malg.metric", "contravariance_check"),
    "metric.classify": ("malg.metric", "classify"),
    "metric.FiniteMetricMeasureSpace": ("malg.metric", "FiniteMetricMeasureSpace"),
    "spaces.make_space": ("malg.spaces", "make_space"),
    "formats.obj_to_map": ("malg.formats", "obj_to_map"),
    "formats.map_to_obj": ("malg.formats", "map_to_obj"),
    "formats.dumps_canonical": ("malg.formats", "dumps_canonical"),
    "instances.random_instance": ("malg.instances", "random_instance"),
    "cli.build_parser": ("malg.cli", "build_parser"),
    "cli.render": ("malg.cli", "render"),
    "cli.main": ("malg.cli", "main"),
}

# counter name -> (defining module, class)
CREATION_COUNTERS = {
    "algebra.AlgebraElement.created": ("malg.algebra", "AlgebraElement"),
    "rationals.ExtRational.created": ("malg.rationals", "ExtRational"),
}

# Work counts derived from a call's inputs and result, so they repeat exactly.


def _bruteforce_pairs(args, kwargs, result):
    # pairs the oracle enumerates: 2^nf (2^nf - 1) when it reaches the
    # enumeration, i.e. when the result is bounded
    if not result.result.is_bounded:
        return 0
    target = args[0].target
    nf = sum(1 for w in target.weights if not w.is_zero and not w.is_infinite)
    return (1 << nf) * ((1 << nf) - 1)


def _hom_law_pairs(args, kwargs, result):
    # join and meet are each checked on every ordered pair of domain elements
    k = len(args[0].domain.nonnull_atoms)
    return 2 * (1 << k) * (1 << k)


def _render_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


WORK_COUNTERS = {
    "maps.lipschitz_bruteforce": ("maps.lipschitz_bruteforce.pairs", _bruteforce_pairs),
    "maps.check_hom_laws": ("maps.check_hom_laws.pairs", _hom_law_pairs),
    "cli.render": ("cli.render.bytes", _render_bytes),
}


class Tracer:
    """Records spans and counts while installed; restores malg on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _span(self, name: str, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            tracer.spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            tracer.counts[name + ".calls"] += 1
            if work is not None:
                counter, measure = work
                tracer.counts[counter] += measure(args, kwargs, result)
            return result

        return traced

    def _counting_init(self, name: str, init):
        tracer = self

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            tracer.counts[name] += 1
            init(obj, *args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "malg" or n.startswith("malg.")]
        for name, (modname, attr) in SPANS.items():
            original = getattr(sys.modules[modname], attr)
            if isinstance(original, type):
                self._set(original, "__init__", self._span(name, original.__init__))
                continue
            wrapper = self._span(name, original, WORK_COUNTERS.get(name))
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapper)
        for name, (modname, attr) in CREATION_COUNTERS.items():
            cls = getattr(sys.modules[modname], attr)
            self._set(cls, "__init__", self._counting_init(name, cls.__init__))
        tracer = self
        ext = sys.modules["malg.rationals"].ExtRational
        infinity = ext.__dict__["infinity"].__func__

        def counted_infinity(cls):
            tracer.counts["rationals.ExtRational.created"] += 1
            return infinity(cls)

        self._set(ext, "infinity", classmethod(counted_infinity))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> Counter:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return out

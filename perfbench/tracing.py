"""Per-layer tracing for the benchmark, installed from outside the program.

``install`` replaces each traced fidur function with a wrapper under every
name a caller can look it up by: the defining module, every ``fidur.*``
module that imported it (``fidur.sweep.sample_mixed``,
``fidur.metrics.fidelity``, ...) and the ``fidur`` package itself. The two
constructor validations are traced by wrapping the classes'
``__post_init__``. ``restore`` puts every original back.

A wrapper records one span per call: name, parent span, start and end.
Self time is a span's duration minus the durations of its direct children.
Some wrappers also feed exact counters (operation counts and the
repeat ratios that show recomputed work).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (defining module, attribute); the span name is "<layer>.<attribute>".
TRACED = (
    ("fidur.states", "derived_seed"),
    ("fidur.states", "sample_haar_unitary"),
    ("fidur.states", "sample_pure"),
    ("fidur.states", "sample_mixed"),
    ("fidur.states", "sample_observable"),
    ("fidur.states", "partial_trace_aux"),
    ("fidur.linalg", "psd_sqrt"),
    ("fidur.linalg", "hermitian_eig"),
    ("fidur.fidelity", "fidelity"),
    ("fidur.metrics", "metric_distance"),
    ("fidur.metrics", "f_of"),
    ("fidur.uncertainty", "max_probability"),
    ("fidur.uncertainty", "overlap"),
    ("fidur.uncertainty", "report_from_probabilities"),
    ("fidur.domains", "region_samples"),
    ("fidur.domains", "g_boundary"),
    ("fidur.domains", "h_boundary"),
    ("fidur.domains", "region_csv_text"),
    ("fidur.sweep", "run_sweep"),
    ("fidur.cli", "cmd_region"),
)

# fidur.states classes whose constructor validation (__post_init__) is traced.
VALIDATED = ("DensityMatrix", "ProjectiveObservable")

SPAN_NAMES = tuple(f"{mod.split('.')[1]}.{attr}" for mod, attr in TRACED) + tuple(
    f"states.{cls}" for cls in VALIDATED
)

_WRAPPED = "__perfbench_original__"


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float = 0.0
    end: float = 0.0


@dataclass
class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    paused: bool = False
    _stack: list = field(default_factory=list)
    _seen_pairs: set = field(default_factory=set)
    _seen_inputs: set = field(default_factory=set)
    _op_refs: list = field(default_factory=list)

    def add(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_op(self) -> None:
        """Start a new operation: repeat ratios compare calls within one op."""
        self._seen_pairs.clear()
        self._seen_inputs.clear()
        self._op_refs.clear()

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, parent)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # counter hooks, called with the bound arguments before the span opens

    def _haar(self, a) -> None:
        self.add("states.sample_haar_unitary.n3_sum", int(a["dim"]) ** 3)

    def _mixed(self, a) -> None:
        n = int(a["dim"]) * int(a["aux_dim"])
        self.add("states.sample_mixed.entries_used", n)
        self.add("states.sample_mixed.entries_built", n * n)

    def _fidelity(self, a) -> None:
        rho, sigma = a["rho"], a["sigma"]
        self._op_refs.append((rho, sigma))  # keeps ids unique within the op
        key = (id(rho), id(sigma))
        self.add("fidelity.fidelity.calls_seen")
        if key in self._seen_pairs:
            self.add("fidelity.fidelity.repeats")
        self._seen_pairs.add(key)

    def _psd_sqrt(self, a) -> None:
        m = np.asarray(a["m"])
        key = (m.shape, m.dtype.str, m.tobytes())
        self.add("linalg.psd_sqrt.calls_seen")
        if key in self._seen_inputs:
            self.add("linalg.psd_sqrt.repeats")
        self._seen_inputs.add(key)

    def counter_metrics(self) -> dict:
        """The exact counters, as name -> (value, unit)."""
        c = self.counts

        def ratio(num, den):
            return (c.get(num, 0) / c[den] if c.get(den) else 0.0, "ratio")

        return {
            "states.sample_haar_unitary.n3_sum": (
                c.get("states.sample_haar_unitary.n3_sum", 0),
                "count",
            ),
            "states.sample_mixed.useful_ratio": ratio(
                "states.sample_mixed.entries_used", "states.sample_mixed.entries_built"
            ),
            "fidelity.fidelity.repeat_ratio": ratio(
                "fidelity.fidelity.repeats", "fidelity.fidelity.calls_seen"
            ),
            "linalg.psd_sqrt.repeat_ratio": ratio(
                "linalg.psd_sqrt.repeats", "linalg.psd_sqrt.calls_seen"
            ),
            "sweep.chunks": (c.get("sweep.chunks", 0), "count"),
        }


_HOOKS = {
    "states.sample_haar_unitary": Tracer._haar,
    "states.sample_mixed": Tracer._mixed,
    "fidelity.fidelity": Tracer._fidelity,
    "linalg.psd_sqrt": Tracer._psd_sqrt,
}


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """``<span>.calls``, ``.self_s`` and ``.p50_us`` for every traced name."""
    own = self_times(tracer.spans)
    durations = {name: [] for name in SPAN_NAMES}
    self_sum = dict.fromkeys(SPAN_NAMES, 0.0)
    for span, t in zip(tracer.spans, own):
        durations[span.name].append(span.end - span.start)
        self_sum[span.name] += t
    out = {}
    for name in SPAN_NAMES:
        d = durations[name]
        out[f"{name}.calls"] = (len(d), "count")
        out[f"{name}.self_s"] = (self_sum[name], "s")
        out[f"{name}.p50_us"] = (statistics.median(d) * 1e6 if d else 0.0, "us")
    return out


def _wrap(tracer: Tracer, name: str, fn):
    hook = _HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, signature.bind(*args, **kwargs).arguments)
        return tracer.call(name, fn, args, kwargs)

    setattr(wrapper, _WRAPPED, fn)
    return wrapper


def _fidur_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "fidur" or n.startswith("fidur.")]


def _validated_classes() -> list:
    return [getattr(sys.modules["fidur.states"], name) for name in VALIDATED]


def install(tracer: Tracer) -> list:
    """Install the wrappers; returns the undo list that ``restore`` takes."""
    undo = []
    modules = _fidur_modules()
    for mod_name, attr in TRACED:
        original = getattr(sys.modules[mod_name], attr)
        wrapper = _wrap(tracer, f"{mod_name.split('.')[1]}.{attr}", original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
    for cls in _validated_classes():
        original = cls.__dict__["__post_init__"]
        undo.append((cls, "__post_init__", original))
        cls.__post_init__ = _wrap(tracer, f"states.{cls.__name__}", original)
    return undo


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def leftover_wrappers() -> list:
    """Names under which a wrapper is still installed (empty after restore)."""
    found = []
    for module in _fidur_modules():
        for key, value in vars(module).items():
            if hasattr(value, _WRAPPED):
                found.append(f"{module.__name__}.{key}")
    for cls in _validated_classes():
        if hasattr(cls.__dict__["__post_init__"], _WRAPPED):
            found.append(f"{cls.__module__}.{cls.__name__}.__post_init__")
    return found

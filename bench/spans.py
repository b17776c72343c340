"""Spans around qtel's public module-level functions, recorded from outside.

`Tracer.install()` replaces every public function defined in a layer
module (except the per-entry helper in `_NOT_WRAPPED`) with a wrapper, in
that module and in every other qtel module that imported it by name, and
`remove()` puts the originals back.  The wrappers
record spans in memory (name, layer, start, end, parent, job, size n,
tracemalloc peak); nothing under src/ is modified.  `scipy.optimize.minimize`
as seen from `qtel.teleport` is wrapped as a counter of objective
evaluations, not as a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
import tracemalloc

LAYERS = ("linalg", "pauli", "channel", "bell", "teleport", "magic", "serialize", "cli")

# size label n of a call, for the metrics reported per qubit count
_SIZE_OF = {
    "bell.generate_from_seed": lambda a: a[0].n_qubits // 2,
    "bell.verify_completeness": lambda a: a[0].n,
    "teleport.run_protocol": lambda a: a[0].n_qubits,
    "pauli.family_property_report": lambda a: a[0],
    "magic.build_anticomm_graph": lambda a: a[0],
    "magic.maximal_anticommuting_sets": lambda a: a[0].n,
    "magic.no_full_magic_basis_witness": lambda a: a[0],
}


def _run_protocol_events(result):
    useful = sum(1 for r in result.records if not r.zero_probability)
    return (("outcomes", len(result.records)), ("useful_outcomes", useful))


def _verify_events(result):
    return (("trials", result.trials), ("trial_passes", result.trials - result.failures))


def _cliques_events(result):
    return ((f"cliques.n{result.n}", len(result.maximal_cliques)),)


# Called once per matrix entry (a million times for `bell gen --n 5`), so a
# span there would cost more than the work it times; its time stays in the
# self time of its caller, which is in the same layer.
_NOT_WRAPPED = {"serialize.complex_to_pair"}

# counts taken from return values, where the work a call did is in its result
_EVENTS_OF = {
    "teleport.run_protocol": _run_protocol_events,
    "magic.verify_partial_basis": _verify_events,
    "magic.maximal_anticommuting_sets": _cliques_events,
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "job", "n", "mem_peak")

    def __init__(self, name, layer, start, end=0.0, parent=-1, job="", n=None, mem_peak=0):
        self.name, self.layer, self.start, self.end = name, layer, start, end
        self.parent, self.job, self.n, self.mem_peak = parent, job, n, mem_peak

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.layer, self.start, self.end, self.parent, self.job, self.n,
                self.mem_peak]


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, memory: bool = True):
        self.memory = memory
        self.spans: list[Span] = []
        self.events: list[tuple[str, str, float]] = []  # (job, name, value)
        self.job = ""
        self._stack: list[int] = []
        self._run_peak: list[int] = []  # per open span: highest traced bytes seen so far
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _enter(self, name: str, layer: str, n) -> int:
        parent = self._stack[-1] if self._stack else -1
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._run_peak:
                self._run_peak[-1] = max(self._run_peak[-1], peak)
            tracemalloc.reset_peak()
            self._run_peak.append(current)
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent, job=self.job, n=n))
        index = len(self.spans) - 1
        if self.memory:
            self.spans[index].mem_peak = current  # base, replaced on exit
        self._stack.append(index)
        return index

    def _exit(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            highest = max(self._run_peak.pop(), peak)
            span.mem_peak = highest - span.mem_peak
            if self._run_peak:
                self._run_peak[-1] = max(self._run_peak[-1], highest)
            tracemalloc.reset_peak()

    def event(self, name: str, value: float):
        self.events.append((self.job, name, value))

    def wrap(self, layer: str, name: str, fn):
        qualified = f"{layer}.{name}"
        size_of = _SIZE_OF.get(qualified)
        events_of = _EVENTS_OF.get(qualified)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = size_of(args or tuple(kwargs.values())) if size_of else None
            index = self._enter(qualified, layer, n)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if events_of:
                for event, value in events_of(result):
                    self.event(event, value)
            return result

        return wrapper

    def _counting_minimize(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.event("refine_evals", result.nfev)
            return result

        return wrapper

    # --- installing --------------------------------------------------------

    def install(self):
        """Wrap every public function of every layer module, wherever it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"qtel.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")
                        and f"{layer}.{name}" not in _NOT_WRAPPED):
                    replacement[id(obj)] = (obj, self.wrap(layer, name, obj))
        minimize = modules["teleport"].minimize
        replacement[id(minimize)] = (minimize, self._counting_minimize(minimize))
        for module_name, module in list(sys.modules.items()):
            if module_name != "qtel" and not module_name.startswith("qtel."):
                continue
            for name, obj in list(vars(module).items()):
                entry = replacement.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    self._patched.append((module, name, obj))
        if self.memory:
            tracemalloc.start()

    def remove(self):
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # --- output ------------------------------------------------------------

    def dump(self, path: str, extra: dict | None = None):
        payload = {"spans": [s.to_list() for s in self.spans], "events": self.events}
        payload.update(extra or {})
        with open(path, "w") as fh:
            json.dump(payload, fh)


def load_spans(payload: dict, job: str) -> tuple[list[Span], list[tuple[str, str, float]]]:
    """Spans and events of one span file, re-labelled with the caller's job key."""
    spans = [Span(*row) for row in payload["spans"]]
    for span in spans:
        span.job = job
    return spans, [(job, name, value) for _, name, value in payload["events"]]


def merge(groups: list[list[Span]]) -> list[Span]:
    """Concatenate span lists, shifting parent indices to the merged positions."""
    merged: list[Span] = []
    for group in groups:
        offset = len(merged)
        for span in group:
            parent = span.parent + offset if span.parent >= 0 else -1
            merged.append(Span(span.name, span.layer, span.start, span.end, parent,
                               span.job, span.n, span.mem_peak))
    return merged


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


def median_or_none(values):
    return statistics.median(values) if values else None

"""In-memory span tracer for the benchmark's traced run.

Wrappers installed around public graphlhv functions record one span per call
(name, start, end, parent span, task) and counters derived from arguments and
results. Spans stay in memory until the run writes them out. A span's self
time is its duration minus the time covered by its child spans; calls in one
thread nest, so that is the duration minus the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Iterable


def _sweep(args, kwargs, report) -> Iterable[tuple[str, int]]:
    yield "nogo.subsets_checked", report.subsets_checked
    yield "nogo.deterministic_subsets", report.deterministic_subsets


def _gf2(args, kwargs, solution) -> Iterable[tuple[str, int]]:
    system = args[0] if args else kwargs["system"]
    yield "nogo.gf2.equations", len(system.equations)
    yield "nogo.gf2.variables", len(system.variables)


def _classify(args, kwargs, verdict) -> Iterable[tuple[str, int]]:
    yield "oracle.classify.deterministic", int(verdict.is_deterministic)


def _product(args, kwargs, report) -> Iterable[tuple[str, int]]:
    yield "lhv.product_report.samples", report.samples or 0


def _chain(args, kwargs, report) -> Iterable[tuple[str, int]]:
    yield "chain.measurements_checked", report.measurements_checked
    yield "chain.deterministic_subs_checked", report.deterministic_subs_checked


def _automorphisms(args, kwargs, perms) -> Iterable[tuple[str, int]]:
    yield "graphs.automorphisms.perms", len(perms)


# (module, attribute, observer). The span is named after the module's last
# component and the attribute's last component, e.g. "pauli.restricted_to".
LAYERS: tuple[tuple[str, str, Callable | None], ...] = (
    ("graphlhv.cli", "main", None),
    ("graphlhv.nogo", "verify_all_submeasurements", _sweep),
    ("graphlhv.nogo", "find_certain_submeasurements", None),
    ("graphlhv.nogo", "site_invariance_system", None),
    ("graphlhv.nogo", "certify_distance", None),
    ("graphlhv.nogo", "measurement_view", None),
    ("graphlhv.nogo", "gf2_solve", _gf2),
    ("graphlhv.oracle", "classify", _classify),
    ("graphlhv.oracle", "statevector_verdict", None),
    ("graphlhv.lhv", "product_report", _product),
    ("graphlhv.lhv", "run", None),
    ("graphlhv.pauli", "Measurement.restricted_to", None),
    ("graphlhv.chain_protocol", "verify_chain_exhaustive", _chain),
    ("graphlhv.chain_protocol", "decompose", None),
    ("graphlhv.chain_protocol", "flip_sites_for", None),
    ("graphlhv.graphs", "automorphisms", _automorphisms),
    ("graphlhv.graphs", "orbits", None),
    ("graphlhv.graphs", "ball", None),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


SPANS = tuple(span_name(mod, attr) for mod, attr, _ in LAYERS)


class Tracer:
    """Collects spans and counters from the wrappers it makes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.task = -1
        self.name = array("i")
        self.parent = array("i")
        self.task_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    def clear(self) -> None:
        """Drop recorded spans and counters; wrappers stay valid."""
        for arr in (self.name, self.parent, self.task_of, self.start, self.end, self.error):
            del arr[:]
        self.counters.clear()
        del self._stack[1:]

    def add(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, span: str, fn: Callable, observe: Callable | None = None) -> Callable:
        nid = self._id(span)
        clock, stack = self.clock, self._stack
        name, parent, task_of = self.name, self.parent, self.task_of
        start, end, error = self.start, self.end, self.error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            task_of.append(self.task)
            error.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                for counter, amount in observe(args, kwargs, result):
                    self.add(counter, amount)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and errors over the recorded spans."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0} for n in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
            row["errors"] += self.error[i]
        return out

    def snapshot(self) -> dict[str, object]:
        """A copy of the recorded spans, for ``write_spans`` after later passes clear them."""
        t0 = self.start[0] if len(self.start) else 0.0
        return {
            "names": list(self.names),
            "name": array("i", self.name), "parent": array("i", self.parent),
            "task": array("i", self.task_of), "error": array("b", self.error),
            "start_ns": array("q", (round((t - t0) * 1e9) for t in self.start)),
            "end_ns": array("q", (round((t - t0) * 1e9) for t in self.end)),
        }


def write_spans(snapshot: dict[str, object], path: str) -> None:
    """Write a snapshot as an uncompressed .npz: one array per span field plus the names."""
    import numpy

    numpy.savez(path, **{k: numpy.array(v) for k, v in snapshot.items()})


def install(tracer: Tracer) -> tuple[list[tuple[object, str, object]], list[str]]:
    """Wrap every layer function wherever a graphlhv module holds it.

    A function is replaced at each module attribute that refers to it, since
    callers look names up in their own module's globals. A method is replaced
    on its class. Returns the patches (for ``uninstall``) and the layers that
    were not found.
    """
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "graphlhv" or k.startswith("graphlhv."))]
    for modname, attr, observe in LAYERS:
        span = span_name(modname, attr)
        owner: object = importlib.import_module(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            missing.append(span)
            continue
        wrapper = tracer.wrap(span, original, observe)
        if path:
            patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches, missing


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)

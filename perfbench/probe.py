"""Spans recorded around calls into the simulator's modules.

A :class:`Probe` keeps every span in memory as parallel integer arrays
(name id, start, end, parent span, run id) and installs its wrappers by
replacing module attributes, class attributes and registry factories.
Nothing inside ``src/`` is edited: the wrappers sit at the call
boundaries and :meth:`Probe.restore` puts every original object back.

The flat core binds ``routing.decide_cached``, the selectors and the
traffic sources when it lowers the network, so wrappers must be in place
before ``NetworkSimulator`` is constructed; :meth:`Probe.install` is
therefore called before a workload builds anything.

Two probe levels exist:

``"measure"``
    Only the simulator facade is wrapped (construction, the first cycle
    budget and ``run``), a handful of spans per simulation, so the
    end-to-end times are taken with tracing effectively off.
``"trace"``
    Every layer boundary listed in :func:`_layer_targets` is wrapped.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

__all__ = ["LEVELS", "Probe", "self_times", "subtree_roots"]

LEVELS = ("measure", "trace")

_MISSING = object()


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> List[int]:
    """Per-span self time: duration minus the durations of direct children.

    Spans are recorded with strict stack discipline on one thread, so the
    children of a span never overlap each other and lie inside it; the
    part of its interval they cover is the sum of their durations.
    """
    own = [e - s for s, e in zip(start, end)]
    for index, up in enumerate(parent):
        if up >= 0:
            own[up] -= end[index] - start[index]
    return own


def subtree_roots(parent: Sequence[int]) -> List[int]:
    """Index of the top-level span enclosing each span (itself if top-level).

    A parent is always opened, and so recorded, before its children.
    """
    roots: List[int] = []
    for index, up in enumerate(parent):
        roots.append(index if up < 0 else roots[up])
    return roots


class Probe:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, level: str = "measure", count_flit_hops: bool = False) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown probe level {level!r}; expected one of {LEVELS}")
        self.level = level
        self.count_flit_hops = count_flit_hops
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        #: Open span indices; the -1 sentinel is the parent of top-level spans.
        self._stack: List[int] = [-1]
        #: Ordinal of the simulation being built or run (0 before the first).
        self.run_id = 0
        #: Sum of hops * length over delivered messages.
        self.flit_hops = 0
        #: Tallies taken at the boundaries (cache hits, table entries).
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        """Interned id of a span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
        return nid

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        index = self._open(self.name_id(name))
        try:
            yield
        finally:
            self.end[index] = time.perf_counter_ns()
            self._stack.pop()

    def _open(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        names, parents, runs, starts, ends = (
            self.name, self.parent, self.run, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter_ns
        probe = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(probe.run_id)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _count_delivery(self, message, cycle: int) -> None:
        self.flit_hops += message.hops * message.length

    # -- patching ----------------------------------------------------------------

    def _replace(self, owner: object, attr: str, replacement: object) -> None:
        if isinstance(owner, type):
            original = vars(owner).get(attr, _MISSING)
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner: object, attr: str, name: str) -> None:
        self._replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        """Install this level's wrappers (before any simulator is built)."""
        if self._patches:
            raise RuntimeError("probe wrappers are already installed")
        from repro.core.simulator import NetworkSimulator

        self._replace(
            NetworkSimulator, "__init__", self._simulator_init(NetworkSimulator.__init__)
        )
        self._wrap_attr(NetworkSimulator, "run", "simulator.run")
        if self.level == "trace":
            from repro.exec.cache import ResultCache

            for owner, attr, name in _layer_targets():
                self._wrap_attr(owner, attr, name)
            self._replace(ResultCache, "get", self._cache_get(ResultCache.get))

    def restore(self) -> None:
        """Put back every replaced object, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _simulator_init(self, original: Callable) -> Callable:
        """Construction plus the first ``default_max_cycles()`` call.

        The first budget call runs the zero-load model's O(N^2)
        ``Topology.average_distance`` (memoized afterwards), so it is set-up
        work even though ``run()`` would otherwise pay it.
        """
        probe = self
        count = (
            probe.wrap("bench.count_flit_hops", probe._count_delivery)
            if probe.count_flit_hops
            else None
        )

        @functools.wraps(original)
        def __init__(simulator, *args, **kwargs):
            probe.run_id += 1
            with probe.span("simulator.init"):
                original(simulator, *args, **kwargs)
            with probe.span("simulator.budget"):
                simulator.default_max_cycles()
            if count is not None:
                simulator.stats.add_delivery_callback(count)
            if probe.level == "trace":
                probe.counts["tables.entries"] += simulator.table.total_entries()

        return __init__

    def _cache_get(self, original: Callable) -> Callable:
        """``ResultCache.get`` traced, with hits and misses tallied."""
        traced = self.wrap("exec.cache_get", original)
        counts = self.counts

        @functools.wraps(original)
        def get(cache, config):
            result = traced(cache, config)
            counts["exec.cache_hits" if result is not None else "exec.cache_misses"] += 1
            return result

        return get

    # -- reading -----------------------------------------------------------------

    def durations(self, name: str) -> List[int]:
        """Durations (ns) of every span called ``name``, in recording order."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            self.end[i] - self.start[i] for i, n in enumerate(self.name) if n == nid
        ]

    def write_json(self, path: Path) -> None:
        """Write every span as columnar JSON: one list per field, times in
        ns after ``origin_ns`` (the first span's start), ``parent`` -1 for
        top-level spans.  Columns are serialized one at a time to bound
        memory on traces with a million spans."""
        origin = self.start[0] if self.start else 0
        columns = (
            ("name", self.name),
            ("start", array("q", (t - origin for t in self.start))),
            ("end", array("q", (t - origin for t in self.end))),
            ("parent", self.parent),
            ("run", self.run),
        )
        with open(path, "w", encoding="utf-8") as out:
            out.write(f'{{"origin_ns": {origin}, "names": ' + json.dumps(self.names))
            for key, column in columns:
                out.write(f', "{key}": ' + json.dumps(column.tolist()))
            out.write("}\n")


def _subclasses_defining(base: type, attr: str) -> List[type]:
    """``base`` and its loaded subclasses that define ``attr`` themselves."""
    found: List[type] = []
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def _layer_targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) of every traced layer boundary."""
    import repro.core.simulator as simulator_module
    import repro.exec.backend as backend_module
    import repro.routing  # noqa: F401  (registers the built-in algorithms)
    import repro.scenario  # noqa: F401  (registers the built-in reporters)
    import repro.selection.heuristics  # noqa: F401  (registers the selectors)
    import repro.workload  # noqa: F401  (registers the built-in workloads)
    from repro.engine.kernel import SimulationKernel
    from repro.exec.backend import ExecutionBackend
    from repro.exec.cache import ResultCache
    from repro.network.flatcore import FlatNetworkCore
    from repro.network.network import Network
    from repro.registry import REPORTERS, WORKLOADS
    from repro.routing.base import RoutingAlgorithm
    from repro.selection.base import PathSelector
    from repro.stats.collector import StatsCollector
    from repro.traffic.generator import TrafficSource
    from repro.workload.engine import WorkloadEngine, WorkloadSource

    targets: List[Tuple[object, str, str]] = [
        (simulator_module, "build_topology", "topology.build"),
        (simulator_module, "build_table", "tables.program"),
        (Network, "__init__", "network.wire"),
        (FlatNetworkCore, "__init__", "flatcore.lower"),
        (FlatNetworkCore, "deliver", "flatcore.deliver"),
        (FlatNetworkCore, "evaluate", "flatcore.evaluate"),
        (FlatNetworkCore, "next_event_cycle", "flatcore.next_event"),
        (SimulationKernel, "run", "kernel.run"),
        (RoutingAlgorithm, "decide_cached", "routing.decide_cached"),
        (TrafficSource, "messages_due", "traffic.messages_due"),
        (WorkloadSource, "messages_due", "workload.messages_due"),
        (WorkloadEngine, "on_delivered", "workload.on_delivered"),
        (StatsCollector, "record_delivered", "stats.record_delivered"),
        (StatsCollector, "summary", "stats.summary"),
        (backend_module, "simulate_config", "exec.simulate"),
        (ExecutionBackend, "run_configs", "exec.run_configs"),
        (ResultCache, "put", "exec.cache_put"),
    ]
    for cls in _subclasses_defining(RoutingAlgorithm, "decide"):
        if cls is not RoutingAlgorithm:
            targets.append((cls, "decide", "routing.decide"))
    for cls in _subclasses_defining(PathSelector, "select"):
        if cls is not PathSelector:
            targets.append((cls, "select", "selection.select"))
    # Only overriding classes: the flat core skips record_use entirely when
    # the selector inherits the no-op base method, and tracing must not
    # change which calls the simulator makes.
    for cls in _subclasses_defining(PathSelector, "record_use"):
        if cls is not PathSelector:
            targets.append((cls, "record_use", "selection.record_use"))
    for name in WORKLOADS.names():
        targets.append((WORKLOADS.entry(name), "factory", "workload.dag_build"))
    for name in REPORTERS.names():
        targets.append((REPORTERS.entry(name), "factory", "scenario.report"))
    return targets

"""In-memory spans around public calls into the ``repro`` layers.

The benchmark never edits the program to observe it.  Instead a
:class:`Tracer` temporarily replaces public functions and methods with
wrappers that record one span per call — name, start, end, parent —
plus the simulated-clock delta of the pool (or cluster) the call ran
on, and optionally the ``RegionStats`` of the regions the call closed.
The wrappers call the original with the original arguments, so the
simulated clock of a traced pass is bit-identical to an untraced one;
the benchmark asserts that.

Spans stay in memory until :meth:`Tracer.dump` writes them out when the
benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.cluster import SimCluster
from repro.parallel.scheduler import SimulatedPool

__all__ = ["Span", "Target", "Tracer", "clock_source", "region_totals"]


@dataclass
class Span:
    """One traced call."""

    sid: int
    name: str
    phase: str            # "setup", "prepare" (untimed) or "pass"
    pass_index: int       # -1 in setup
    parent: int           # sid of the enclosing span, -1 at top level
    start: float          # perf_counter seconds
    end: float = 0.0
    sim: float = 0.0      # simulated-clock delta of the call
    work: float = 0.0     # RegionStats.work_total of regions closed
    atomics: float = 0.0  # RegionStats.atomic_ops of regions closed
    contention: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "phase": self.phase,
            "pass": self.pass_index,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "sim": self.sim,
            "work": self.work,
            "atomics": self.atomics,
            "contention": self.contention,
            "counters": self.counters,
        }


@dataclass(frozen=True)
class Target:
    """A public callable to wrap: ``owner.attr`` recorded as ``name``.

    ``owner`` is a module or a class.  A module-level function is also
    replaced in every loaded module that imported it by name, so calls
    through those bindings are seen too.  ``regions`` slices
    the pool's region log around the call; ``extract`` turns the
    call's return value into span counters.  A ``tally`` target records
    no span, only a per-pass call count and summed seconds, for hot
    calls made millions of times per pass.
    """

    owner: Any
    attr: str
    name: str
    regions: bool = False
    extract: Callable[[Any], dict[str, float]] | None = None
    tally: bool = False


def clock_source(args: tuple, kwargs: dict) -> SimulatedPool | SimCluster | None:
    """The pool or cluster a call charges: an argument, or ``self.pool``."""
    for value in (*args, *kwargs.values()):
        if isinstance(value, (SimulatedPool, SimCluster)):
            return value
    if args:
        pool = getattr(args[0], "pool", None)
        if isinstance(pool, SimulatedPool):
            return pool
    return None


def region_totals(regions) -> tuple[float, float, float]:
    """Summed ``(work_total, atomic_ops, contention_penalty)``."""
    work = atomics = contention = 0.0
    for stats in regions:
        work += stats.work_total
        atomics += stats.atomic_ops
        contention += stats.contention_penalty
    return work, atomics, contention


class Tracer:
    """Collects spans; wraps targets while :meth:`wrapping` is open."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (pass index, name) -> [calls, seconds] of tally targets
        self.tallies: dict[tuple[int, str], list[float]] = {}
        self.phase = "setup"
        self.pass_index = -1
        self._stack: list[int] = []

    @contextmanager
    def span(
        self,
        name: str,
        source: SimulatedPool | SimCluster | None = None,
        regions: bool = False,
    ) -> Iterator[Span]:
        """Record one span around the body."""
        record = Span(
            sid=len(self.spans),
            name=name,
            phase=self.phase,
            pass_index=self.pass_index,
            parent=self._stack[-1] if self._stack else -1,
            start=0.0,
        )
        self.spans.append(record)
        self._stack.append(record.sid)
        sim0 = source.clock if source is not None else 0.0
        slice_regions = regions and isinstance(source, SimulatedPool)
        cursor = len(source.regions) if slice_regions else 0
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if source is not None:
                record.sim = source.clock - sim0
            if slice_regions:
                record.work, record.atomics, record.contention = region_totals(
                    source.regions[cursor:]
                )

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        if target.tally:
            clock = time.perf_counter

            def tallied(*args, **kwargs):
                start = clock()
                result = original(*args, **kwargs)
                elapsed = clock() - start
                key = (tracer.pass_index, target.name)
                entry = tracer.tallies.get(key)
                if entry is None:
                    tracer.tallies[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                return result

            tallied.__wrapped__ = original
            return tallied

        def traced(*args, **kwargs):
            source = clock_source(args, kwargs)
            with tracer.span(target.name, source, target.regions) as record:
                result = original(*args, **kwargs)
            if target.extract is not None:
                record.counters.update(target.extract(result))
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def wrapping(self, targets: list[Target]) -> Iterator[None]:
        """Replace every target with a span-recording wrapper, then restore."""
        patched: list[tuple[Any, str, Any]] = []
        try:
            for target in targets:
                # a classmethod is called bound; it is restored raw
                original = getattr(target.owner, target.attr)
                wrapper = self._wrap(target, original)
                for owner in _bindings(target.owner, target.attr, original):
                    patched.append((owner, target.attr, vars(owner)[target.attr]))
                    setattr(owner, target.attr, wrapper)
            yield
        finally:
            for owner, attr, raw in reversed(patched):
                setattr(owner, attr, raw)

    def dump(self, path, context: dict) -> None:
        """Write the spans and the run context as one JSON document."""
        payload = {
            "context": context,
            "spans": [span.as_dict() for span in self.spans],
            "tallies": [
                {"pass": index, "name": name, "calls": calls, "seconds": seconds}
                for (index, name), (calls, seconds) in sorted(self.tallies.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _bindings(owner: Any, attr: str, original: Any) -> list[Any]:
    """``owner`` plus every loaded module binding ``attr`` to ``original``.

    Callers that did ``from module import name`` hold their own binding;
    each one is replaced so that their calls are seen too.
    """
    owners = [owner]
    if isinstance(owner, type):
        return owners
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", {})
        if module is not owner and namespace.get(attr) is original:
            owners.append(module)
    return owners

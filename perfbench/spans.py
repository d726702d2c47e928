"""In-memory span recorder for the traced benchmark pass.

Spans are recorded by wrappers installed around the public calls at each
layer boundary (see :mod:`instrument`).  A span has a layer name, a start
and end in integer nanoseconds of ``time.perf_counter_ns``, the index of
the span that caused it, and the interaction it belongs to.  Each layer's
*self* time is its spans' duration minus the part covered by their child
spans, so over a traced region the self times of all layers plus the
time no span covers add up exactly to the region's wall time.  The
wrappers keep these totals as they run; :meth:`SpanRecorder.verify`
rebuilds them from the recorded spans alone and compares.

Nothing is written while the workload runs: :meth:`SpanRecorder.dump`
writes the spans out once the pass has ended.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class LayerTotals:
    """Calls and self time of one layer over one traced region."""

    __slots__ = ("calls", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0


class Region:
    """One traced stretch of wall time (set-up, or the measured pass)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.layers: Dict[str, LayerTotals] = defaultdict(LayerTotals)
        #: Per-layer counters (``<layer>.<quantity>`` -> value).
        self.counters: Dict[str, float] = defaultdict(float)
        self.start_ns = 0
        self.end_ns = 0
        #: Time covered by top-level spans (spans without a parent).
        self.covered_ns = 0

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def unattributed_ns(self) -> int:
        return self.wall_ns - self.covered_ns


class SpanRecorder:
    """Stack-based span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.region: Optional[Region] = None
        self.regions: List[Region] = []
        #: Open spans: ``[layer, start_ns, child_ns, span_index]``.
        self._stack: List[list] = []
        #: Closed spans: ``(region, layer, start_ns, end_ns, parent, interaction)``.
        self.spans: List[Tuple[str, str, int, int, int, int]] = []
        self.interaction = -1

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    def begin(self, name: str) -> Region:
        if self.region is not None:
            raise RuntimeError(f"region {self.region.name!r} is still open")
        region = Region(name)
        self.region = region
        self.regions.append(region)
        region.start_ns = _now()
        return region

    def end(self) -> Region:
        region = self.region
        if region is None:
            raise RuntimeError("no region is open")
        if self._stack:
            raise RuntimeError(
                f"region {region.name!r} ends inside span {self._stack[-1][0]!r}"
            )
        region.end_ns = _now()
        self.region = None
        return region

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def active(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open (anywhere on the stack)."""
        return any(frame[0] == layer for frame in self._stack)

    def count(self, key: str, amount: float = 1.0) -> None:
        region = self.region
        if region is not None:
            region.counters[key] += amount

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around every call."""
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            region = self.region
            if region is None:
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            index = len(spans)
            spans.append(None)  # reserved so children see a stable parent index
            frame = [layer, _now(), 0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - frame[1]
                totals = region.layers[layer]
                totals.calls += 1
                totals.self_ns += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    region.covered_ns += duration
                spans[index] = (
                    region.name, layer, frame[1], end, parent, self.interaction
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def verify(self) -> List[str]:
        """Problems found by recomputing each region's split from its spans.

        Self times are rebuilt from the spans' parent links and the covered
        time from the union of the top-level spans' intervals.  Both must
        equal the totals the wrappers kept, every span must lie inside its
        parent (or its region), and the self times plus the uncovered time
        must add up to the region's wall time.
        """
        problems: List[str] = []
        spans = self.spans
        if any(span is None for span in spans):
            return ["a span was never closed"]
        for region in self.regions:
            calls: Dict[str, int] = defaultdict(int)
            self_ns: Dict[str, int] = defaultdict(int)
            top: List[Tuple[int, int]] = []
            for index, (name, layer, start, end, parent, _) in enumerate(spans):
                if name != region.name:
                    continue
                calls[layer] += 1
                self_ns[layer] += end - start
                if parent < 0:
                    outer = (name, "", region.start_ns, region.end_ns)
                    top.append((start, end))
                else:
                    outer = spans[parent]
                    self_ns[outer[1]] -= end - start
                if outer[0] != name or start < outer[2] or end > outer[3]:
                    problems.append(f"{name}: span {index} ({layer}) leaves its parent")
            covered = 0
            reach = region.start_ns
            for start, end in sorted(top):
                if end > reach:
                    covered += end - max(start, reach)
                    reach = end
            kept = {layer: (t.calls, t.self_ns) for layer, t in region.layers.items()}
            rebuilt = {layer: (calls[layer], self_ns[layer]) for layer in calls}
            for layer in sorted(set(rebuilt) | set(kept)):
                if rebuilt.get(layer) != kept.get(layer):
                    problems.append(
                        f"{region.name}: {layer} (calls, self ns) is "
                        f"{rebuilt.get(layer)} in the spans, {kept.get(layer)} kept"
                    )
            if covered != region.covered_ns:
                problems.append(
                    f"{region.name}: spans cover {covered} ns, wrappers kept "
                    f"{region.covered_ns} ns"
                )
            if sum(self_ns.values()) + (region.wall_ns - covered) != region.wall_ns:
                problems.append(f"{region.name}: self times + unattributed != wall")
        return problems

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every recorded span as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                region, layer, start, end, parent, interaction = span
                out.write(
                    json.dumps(
                        {
                            "region": region,
                            "layer": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "interaction": interaction,
                        }
                    )
                )
                out.write("\n")

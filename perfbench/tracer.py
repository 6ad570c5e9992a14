"""Span recorder that times the platform's layers from outside.

Every traced function is a public method of a platform class.  While a
:class:`Tracer` is installed, the class attribute is replaced by a wrapper
that records one span per call: its layer name, its start and end
(``perf_counter_ns``), the index of the enclosing span and the gateway
``request_id`` of the request it served.  ``SessionScheduler.step`` is the
root: a span opens only inside a root, so set-up and bookkeeping calls made
outside a scheduler step are never recorded.  Spans stay in memory until
:meth:`Tracer.write` puts them in a file at the end of the run.

A layer's *self time* is its span time minus the time covered by its child
spans.  Because the program is single-threaded the spans nest exactly, so
the self times of all spans of one request add up to its root span.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Dict, List, Tuple

from repro.agents.context import AgletContext
from repro.api.concurrency import SessionScheduler
from repro.core.neighbors import ProfileNeighborIndex
from repro.core.profile_learning import ProfileLearner
from repro.ecommerce.buyer_server import BuyerServerFleet, RecommendationService
from repro.ecommerce.marketplace import MarketplaceServer
from repro.ecommerce.replication import ReplicaState, ReplicationLog
from repro.platform.transport import Transport

#: The root span: one ``SessionScheduler.step`` call is one request.  Its
#: self time covers the middleware chain, the gateway and the scheduler.
ROOT = "api"

#: (class, method, span name).  The span name is ``<layer>.<function>``;
#: the marketplace's three trade entry points share one name.
TRACED: Tuple[Tuple[type, str, str], ...] = (
    (AgletContext, "dispatch", "agents.dispatch"),
    (AgletContext, "send_message", "agents.send_message"),
    (AgletContext, "create", "agents.create"),
    (MarketplaceServer, "search", "marketplace.search"),
    (MarketplaceServer, "sell_direct", "marketplace.trade"),
    (MarketplaceServer, "negotiate_purchase", "marketplace.trade"),
    (MarketplaceServer, "auction_purchase", "marketplace.trade"),
    (BuyerServerFleet, "query_similar", "fleet.query_similar"),
    (ProfileNeighborIndex, "find_similar", "neighbors.find_similar"),
    (RecommendationService, "recommend_for_query", "recommend.recommend_for_query"),
    (RecommendationService, "recommend", "recommend.recommend"),
    (ProfileLearner, "apply", "learning.apply"),
    (ReplicationLog, "append", "replication.append"),
    (ReplicaState, "apply_entries", "replication.apply_entries"),
    (Transport, "deliver", "transport.deliver"),
)

#: Every span name, root first.
SPAN_NAMES: Tuple[str, ...] = (ROOT,) + tuple(dict.fromkeys(n for _, _, n in TRACED))

#: The transfer kind whose payload size ``agents.dispatch_bytes`` sums.
DISPATCH_KIND = "agent-dispatch"


class Tracer:
    """Records spans while installed; aggregates them into per-layer totals.

    ``spans`` holds one ``[name, start_ns, end_ns, parent, request_id]``
    list per span, in the order the spans opened; ``parent`` is the index of
    the enclosing span, -1 for a root.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.dispatch_bytes = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Replace every traced method (and the scheduler's step) by a wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._patch(SessionScheduler, "step", self._root(SessionScheduler.step))
        for cls, method, name in TRACED:
            original = cls.__dict__[method]
            wrapper = (
                self._deliver(original)
                if (cls, method) == (Transport, "deliver")
                else self._span(name, original)
            )
            self._patch(cls, method, wrapper)

    def uninstall(self) -> None:
        """Put every original method back (idempotent)."""
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, cls: type, method: str, wrapper) -> None:
        self._saved.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _root(self, step):
        spans, stack = self.spans, self._stack

        def traced_step(scheduler):
            heap = scheduler._heap
            if not heap:
                return step(scheduler)
            future = heap[0][2]
            index = len(spans)
            record = [ROOT, 0, 0, -1, 0]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter_ns()
            try:
                return step(scheduler)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
                request_id = future.response.request_id
                for span in spans[index:]:
                    span[4] = request_id

        return traced_step

    def _span(self, name: str, function):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            index = len(spans)
            record = [name, 0, 0, stack[-1], 0]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()

        return traced

    def _deliver(self, function):
        timed = self._span("transport.deliver", function)
        tracer = self

        def deliver(transport, source, destination, kind, payload_bytes=256, retries=0):
            if kind == DISPATCH_KIND and tracer._stack:
                tracer.dispatch_bytes += payload_bytes
            return timed(transport, source, destination, kind, payload_bytes, retries)

        return deliver

    # -- aggregation --------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """``{span name: {"calls", "self_ns"}}`` over every span.

        Raises ``ValueError`` when a child span is not inside its parent,
        which would make self times meaningless.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= 0:
                outer = spans[parent]
                if span[1] < outer[1] or span[2] > outer[2]:
                    raise ValueError(f"span {span[0]} escapes its parent {outer[0]}")
                child_ns[parent] += span[2] - span[1]
        totals = {name: {"calls": 0, "self_ns": 0} for name in SPAN_NAMES}
        for span, covered in zip(spans, child_ns):
            entry = totals[span[0]]
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["self_ns"] += duration - covered
        return totals

    def request_ns(self) -> List[int]:
        """Wall time of every traced request (its root span)."""
        return [span[2] - span[1] for span in self.spans if span[3] < 0]

    def write(self, path) -> None:
        """Write one JSON array per span: name, start, end, parent, request id."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")

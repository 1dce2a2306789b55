"""Per-operation span trees.

An :class:`OpSpan` captures the anatomy of one index operation as a tree:
the operation is the root, traversal steps (level descents, move-rights,
lock waits) are child spans, and the RDMA verbs issued while a span is
open are recorded as :class:`VerbEvent` leaves on it. Every span carries
the ``op_id`` of its root operation — the same id stamped onto
:class:`~repro.rdma.tracing.TraceRecord` while observability is on, which
is what correlates a span tree with the raw wire trace.

Span objects are plain containers; all lifecycle decisions (sampling,
slow-op capture, retention bounds) live in
:class:`~repro.obs.hub.Observability`. Timestamps are simulated seconds.

Memory: a span keeps its ``parent`` link only while it is open, and every
span of a tree shares its root's ``segments`` list (``root_segments``),
so a stamp reaches the root without walking links. A finished tree
therefore points only downward: reference counting frees it the moment
its last holder drops it, and the cycle collector never has to trace it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

__all__ = ["VerbEvent", "OpSpan"]


class VerbEvent(NamedTuple):
    """One completed RDMA verb attributed to a span."""

    verb: str
    server_id: int
    payload_bytes: int
    started_at: float
    finished_at: float
    #: True when the verb took the co-located local-memory fast path.
    local: bool
    #: Doorbell batch the verb traveled in (None = posted alone).
    batch_id: Optional[int]


class OpSpan:
    """One node of an operation's span tree."""

    __slots__ = (
        "op_id",
        "kind",
        "name",
        "client_id",
        "started_at",
        "finished_at",
        "parent",
        "children",
        "verbs",
        "segments",
        "root_segments",
    )

    def __init__(
        self,
        op_id: int,
        kind: str,
        name: str,
        started_at: float,
        client_id: Optional[int] = None,
        parent: Optional["OpSpan"] = None,
    ) -> None:
        self.op_id = op_id
        self.kind = kind
        self.name = name
        self.client_id = client_id
        self.started_at = started_at
        self.finished_at: Optional[float] = None
        #: The enclosing span while this one is open; None once finished.
        self.parent = parent
        self.children: List["OpSpan"] = []
        self.verbs: List[VerbEvent] = []
        #: Critical-path stamps ``(label, start, end)`` collected on the
        #: *root* span only (child stamps land here through
        #: ``root_segments``); consumed by
        #: :mod:`repro.obs.attribution` to decompose the op's wall time.
        self.segments: List[tuple] = []
        #: The root's ``segments``, shared by the whole tree.
        self.root_segments: List[tuple] = (
            self.segments if parent is None else parent.root_segments
        )

    def child(self, kind: str, name: str, started_at: float) -> "OpSpan":
        """Open a child span (inherits op_id and client_id)."""
        span = OpSpan(
            self.op_id, kind, name, started_at,
            client_id=self.client_id, parent=self,
        )
        self.children.append(span)
        return span

    def finish(self, now: float) -> None:
        """Close this span; children left open are closed at the same instant
        (a crashed or error-aborted operation never reaches its exits).
        Closing drops the parent link (see the module docstring)."""
        for span in self.children:
            if span.finished_at is None:
                span.finish(now)
        if self.finished_at is None:
            self.finished_at = now
        self.parent = None

    @property
    def duration(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.started_at
        return end - self.started_at

    # -- aggregation ---------------------------------------------------------

    def iter_spans(self) -> Iterator["OpSpan"]:
        """This span and every descendant, pre-order."""
        yield self
        for span in self.children:
            yield from span.iter_spans()

    def verb_counts(self, remote_only: bool = False) -> Dict[str, int]:
        """``{verb: count}`` over the whole subtree.

        With ``remote_only=True`` co-located local fast-path verbs are
        excluded — those never post a work-queue entry, so the remote-only
        counts are what reconciles against NIC WQE counters.
        """
        counts: Dict[str, int] = {}
        for span in self.iter_spans():
            for event in span.verbs:
                if remote_only and event.local:
                    continue
                counts[event.verb] = counts.get(event.verb, 0) + 1
        return counts

    def total_verbs(self, remote_only: bool = False) -> int:
        return sum(self.verb_counts(remote_only).values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering of the subtree."""
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "name": self.name,
            "client_id": self.client_id,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "verbs": [event._asdict() for event in self.verbs],
            "segments": [list(segment) for segment in self.segments],
            "children": [span.as_dict() for span in self.children],
        }

    def format(self, indent: int = 0) -> str:
        """Human-readable subtree (one line per span, verbs summarized)."""
        pad = "  " * indent
        parts = [
            f"{pad}{self.kind}:{self.name} "
            f"[{self.duration * 1e6:.2f}us, op={self.op_id}]"
        ]
        for event in self.verbs:
            flag = " local" if event.local else ""
            batch = f" b{event.batch_id}" if event.batch_id is not None else ""
            parts.append(
                f"{pad}  · {event.verb} s{event.server_id} "
                f"{event.payload_bytes}B "
                f"{(event.finished_at - event.started_at) * 1e6:.2f}us"
                f"{flag}{batch}"
            )
        for span in self.children:
            parts.append(span.format(indent + 1))
        return "\n".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpSpan(op={self.op_id}, {self.kind}:{self.name}, "
            f"children={len(self.children)}, verbs={len(self.verbs)})"
        )

"""Reliable-connection queue pairs.

A :class:`QueuePair` connects a client endpoint (a compute-server thread's
NIC port) to one memory server and exposes the verbs of Section 2.1 as
simulation processes:

* one-sided: :meth:`read`, :meth:`write`, :meth:`compare_and_swap`,
  :meth:`fetch_and_add` — executed against the server's registered
  :class:`~repro.rdma.memory.MemoryRegion` without involving its CPU;
* two-sided: :meth:`call` — an RPC implemented with SEND/RECEIVE over the
  server's shared receive queue (SRQ, Section 3.2), handled by a
  memory-server worker.

When the cluster is co-located (Appendix A.3) and the remote server lives on
the same physical machine, one-sided verbs take the local-memory fast path
and bypass the NIC entirely.

Doorbell batching: several one-sided verbs to the same server can be
chained into a :class:`VerbBatch` (:meth:`QueuePair.batch`) and posted with
a single doorbell — one request wire message carrying every work-queue
entry's payload and, via selective signaling (only the last WQE is posted
signaled), one response/completion message for the whole batch. Per-message
fixed costs are paid once per leg instead of once per verb; effects apply
in posting order. See docs/performance.md.

Fault handling: every verb runs one attempt loop (:meth:`QueuePair._post`
for one-sided verbs and batches, :meth:`QueuePair.call` for RPCs). With no
:class:`~repro.rdma.faults.FaultInjector` attached the loop runs once and
always delivers. With one, a non-local verb is governed by
:class:`~repro.config.RetryConfig` — a lost request or response is
detected after ``timeout_s``, retried with exponential backoff and
deterministic jitter, and the verb gives up once the budget is spent. The
modeled transport behaves like InfiniBand RC with responder-side duplicate
detection: a verb's memory effect is applied *at most once* per logical
operation (retries replay the first outcome, mirroring the NIC's atomic
response cache / PSN dedup), and two-sided requests carry sequence numbers
the server uses to replay — never re-execute — duplicated handlers.

Failover: a verb that gives up on a replicated cluster asks the
:class:`~repro.nam.replication.ReplicationManager` whether the route
changed since the verb started (promoting a backup if the primary is
down), and if so re-issues itself through its owning compute server's
re-routed queue pair. Otherwise it raises
:class:`~repro.errors.RetriesExhaustedError`. Callers never branch on
faults or replication: the two fast paths fall back to the attempt loop
themselves — :meth:`QueuePair.read_view` (zero-copy READ) only under a
fault injector on a non-local queue pair, :meth:`QueuePair.write_faa_chain`
(fused unlock) under an injector or replication.

Every wire message — request, response, RPC SEND and reply, on the fast
paths and in the loops alike — is booked by one plain helper,
:meth:`~repro.rdma.fabric.Fabric.leg` (TX before RX, obs stamp inside),
followed by one timeout: a leg costs one simulation event and no
generator frame.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    AdmissionRejectedError,
    NetworkError,
    RetriesExhaustedError,
    ThrottledError,
)
from repro.rdma.fabric import Fabric
from repro.rdma.nic import NicPort
from repro.rdma.verbs import Verb
from repro.sim import Event, Simulator

__all__ = ["QueuePair", "RpcEnvelope", "VerbBatch"]

#: Replayed-response cache entries kept per QP (at-most-once RPC dedup).
#: Fallback used when no injector is attached; under fault injection the
#: limit comes from :attr:`repro.config.RetryConfig.rpc_dedup_cache_entries`.
_RPC_CACHE_LIMIT = 128


class RpcEnvelope:
    """A two-sided request in flight, as seen by the memory server.

    The server worker pops envelopes off the SRQ, runs the handler, and
    finishes with :meth:`complete`, which ships the response back to the
    client asynchronously (the NIC does the transfer; the worker is free
    again immediately — mirroring how a real RPC thread posts a SEND and
    moves on). Under fault injection an envelope additionally carries the
    logical call's sequence number (for duplicate suppression) and the
    destination's crash epoch at enqueue time (requests queued before a
    crash are lost with it).
    """

    __slots__ = (
        "qp", "payload", "_reply", "seq", "epoch", "tenant", "span", "enqueued_at"
    )

    def __init__(
        self,
        qp: "QueuePair",
        payload: Any,
        reply: Event,
        seq: int = 0,
        epoch: int = 0,
        tenant: Optional[str] = None,
        span: Any = None,
        enqueued_at: Optional[float] = None,
    ) -> None:
        self.qp = qp
        self.payload = payload
        self._reply = reply
        self.seq = seq
        self.epoch = epoch
        #: Workload tenant that issued the call; admission control keys its
        #: token buckets and bulkhead routing on this (None = anonymous).
        self.tenant = tenant
        #: Issuing operation's span (observability only; None when the hub
        #: is detached). Workers stamp queue-wait/CPU segments onto it and
        #: adopt it while running the handler.
        self.span = span
        #: Sim time the request reached the server's SRQ (observability
        #: only); the worker's dequeue time minus this is the queue wait.
        self.enqueued_at = enqueued_at

    def complete(self, response: Any, response_wire_bytes: int) -> None:
        """Send *response* back to the caller (non-blocking for the worker)."""
        self.qp._spawn_reply(self._reply, response, response_wire_bytes, self.span)


class QueuePair:
    """One client's reliable connection to one memory server."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        local_port: NicPort,
        remote_server: Any,
        use_local_fast_path: bool = False,
        region: Any = None,
        logical_id: int = None,
        owner: Any = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.local_port = local_port
        self.remote = remote_server
        self.is_local = use_local_fast_path
        #: Owning compute server: re-routes this QP's verbs after a
        #: failover (None for anonymous QPs, e.g. in unit tests).
        self.owner = owner
        #: Owning compute server's id, naming this QP's actor in sanitizer
        #: traces.
        self.client_id = owner.server_id if owner is not None else None
        # Replication indirection: verbs address the *logical* server's
        # authoritative region, which after a failover may live on a
        # different physical host than ``remote_server`` originally did.
        # Without replication both default to the remote server's own.
        self.region = region if region is not None else remote_server.region
        self.logical_id = (
            logical_id if logical_id is not None else remote_server.server_id
        )
        #: Directory epoch this QP's routing was resolved at; compared by
        #: :meth:`ComputeServer.qp` against the catalog epoch.
        self.route_epoch = 0
        # At-most-once RPC state (only touched under fault injection).
        self._next_seq = 0
        self._rpc_inflight: set = set()
        self._rpc_cache: Dict[int, Tuple[Any, int]] = {}
        #: Sequence numbers with at least one *admitted* attempt; admission
        #: control suppresses bounces for these so an
        #: AdmissionRejectedError always certifies "no side effect".
        self._rpc_admitted: set = set()
        # Hot-path constants: the network config, both ports' channels,
        # and the remote's verb ledger are fixed for the life of a
        # connection, so the per-verb attribute walks are paid once here
        # instead of on every READ/WRITE (counters are windowed by
        # snapshot/delta, never by object replacement).
        config = fabric.config
        self._req_leg_wire = config.request_wire_bytes + config.header_wire_bytes
        self._header_wire = config.header_wire_bytes
        self._request_wire = config.request_wire_bytes
        #: Books one wire leg (:meth:`Fabric.leg`): every message this QP
        #: sends or receives goes through it, obs stamps included.
        self._leg = fabric.leg
        self._ltx = local_port.tx
        self._lrx = local_port.rx
        self._rtx = remote_server.port.tx
        self._rrx = remote_server.port.rx
        self._rstats = remote_server.stats

    # -- one-sided verbs -------------------------------------------------------

    def _trace(
        self,
        verb: Verb,
        payload_bytes: int,
        started_at: float,
        batch_id: Optional[int] = None,
    ) -> None:
        """Completion chokepoint for every verb: feeds the (optional) verb
        tracer and the (optional) observability hub. With both detached —
        the default — this is two attribute-is-None tests and nothing else.
        """
        obs = self.fabric.obs
        tracer = self.fabric.tracer
        if tracer is not None:
            tracer.record(
                verb,
                self.remote.server_id,
                payload_bytes,
                started_at,
                self.sim.now,
                local=self.is_local,
                batch_id=batch_id,
                op_id=obs.current_op_id() if obs is not None else None,
            )
        if obs is not None:
            obs.verb_completed(
                verb,
                self.remote.server_id,
                payload_bytes,
                started_at,
                self.sim.now,
                local=self.is_local,
                batch_id=batch_id,
            )

    def batch(self) -> "VerbBatch":
        """Start a doorbell batch of one-sided verbs on this connection."""
        return VerbBatch(self)

    # -- sanitizer-visible region effects -------------------------------------
    #
    # All four one-sided verbs apply their memory effect through these
    # wrappers, on the fast paths and inside the attempt loop alike, so
    # an attached trace sanitizer sees every effect exactly once — at the
    # simulated instant it hits the region. Kind strings
    # match repro.analysis.namsan.events (kept literal to avoid an
    # rdma -> analysis import).

    @property
    def _actor(self) -> str:
        return f"c{self.client_id}" if self.client_id is not None else "c?"

    def _emit(self, kind: str, verb: str, offset: int, length: int, epoch: int = 0) -> None:
        sanitizer = self.fabric.sanitizer
        if sanitizer is not None:
            sanitizer.emit(
                self._actor,
                kind,
                verb,
                self.logical_id,
                offset,
                length,
                self.sim.now,
                lock_epoch=epoch,
            )

    def _apply_read(self, offset: int, length: int) -> bytes:
        data = self.region.read(offset, length)
        self._emit("read", "READ", offset, length)
        return data

    def _apply_write(self, offset: int, data: bytes) -> None:
        self.region.write(offset, data)
        self._emit("write", "WRITE", offset, len(data))

    def _apply_cas(self, offset: int, expected: int, new: int) -> Tuple[bool, int]:
        swapped, old = self.region.compare_and_swap(offset, expected, new)
        self._emit("atomic", "CAS", offset, 8, epoch=old)
        return swapped, old

    def _apply_faa(self, offset: int, delta: int) -> int:
        old = self.region.fetch_and_add(offset, delta)
        self._emit("atomic", "FETCH_ADD", offset, 8, epoch=old)
        return old

    def _apply(self, op: Tuple) -> Any:
        """Run one work-queue entry's memory effect (see :class:`VerbBatch`
        for the ``(verb, payload_bytes, offset, arg)`` encoding)."""
        verb, length, offset, arg = op
        if verb is Verb.READ:
            return self._apply_read(offset, length)
        if verb is Verb.WRITE:
            return self._apply_write(offset, arg)
        if verb is Verb.CAS:
            return self._apply_cas(offset, arg[0], arg[1])
        return self._apply_faa(offset, arg)

    def _apply_mirrored(self, ops: List[Tuple]) -> Generator[Any, Any, List[Any]]:
        """Apply every entry in posting order, each mutation followed by its
        replication fan-out (one leg per live backup, charged before the
        client's completion). Returns the per-entry results."""
        replication = self.fabric.replication
        results = []
        for op in ops:
            result = self._apply(op)
            results.append(result)
            verb = op[0]
            if verb is Verb.READ or (verb is Verb.CAS and not result[0]):
                continue
            yield from replication.mirror_legs(self.logical_id, op[1])
        return results

    def _lost(self, injector, verbs: List[Verb]) -> bool:
        """Decide the fate of one wire leg of a chain of *verbs*: lost when
        the server is down, else one drop draw — a single verb's own, or
        the batch's at its most fault-prone member (the same draw)."""
        server_id = self.remote.server_id
        if injector.server_down(server_id):
            return True
        if len(verbs) == 1:
            return injector.should_drop(verbs[0], server_id)
        return injector.should_drop_batch(verbs, server_id)

    def _rerouted(self, epoch: int) -> Optional["QueuePair"]:
        """A verb on this queue pair exhausted its retries. Returns the
        queue pair to re-issue it on, or None to give up.

        Only a replicated cluster fails over: the replication manager
        compares *epoch* (the directory epoch read at verb entry) with the
        current one and promotes a backup if the primary host is down.
        On a route change the owning compute server re-resolves the
        logical server to its new host.
        """
        replication = self.fabric.replication
        if (
            replication is None
            or self.owner is None
            or not replication.handle_failure(self.logical_id, epoch)
        ):
            return None
        return self.owner.qp(self.logical_id)

    def _post(
        self,
        ops: List[Tuple],
        request_bytes: int,
        response_bytes: int,
        atomics: int,
        batched: bool = False,
    ) -> Generator[Any, Any, Any]:
        """The attempt loop behind every one-sided verb and doorbell batch.

        *ops* is the chain of work-queue entries (see :class:`VerbBatch`);
        a single verb is an unbatched one-entry chain with no batch id.
        Returns a batch's per-entry results in posting order, or a single
        verb's result.

        Without a fault injector, and always on the local fast path, the
        loop runs once and always delivers; effects and mirror legs land
        after the response leg. With one, a lost request or response is
        detected after ``timeout_s`` and retried with backoff. Effects and
        mirror legs then land when the request is first delivered, so a
        lost response cannot undo them, and retries replay the first
        results (RC duplicate suppression). Each wire leg of a chain takes
        one delivery draw (:meth:`_lost`). Effects apply inline unless a
        mutating chain owes mirror legs. When the budget is spent the chain
        is re-issued on the re-routed queue pair if the cluster fails over
        (:meth:`_rerouted`), else it raises
        :class:`~repro.errors.RetriesExhaustedError`.
        """
        fabric = self.fabric
        sim = self.sim
        local = self.is_local
        if not local:
            self.local_port.ring_doorbell(len(ops))
            if batched and fabric.obs is not None:
                fabric.obs.batch_executed(self.remote.server_id, len(ops))
        batch_id = fabric.next_batch_id() if batched else None
        replication = fabric.replication
        epoch = replication.epoch if replication is not None else 0
        mirrored = replication is not None and any(
            op[0] is not Verb.READ for op in ops
        )
        injector = None if local else fabric.injector
        if injector is None:
            attempts = 1
        else:
            attempts = injector.retry.max_attempts
            verbs = [op[0] for op in ops]
        server_id = self.remote.server_id
        request_wire = request_bytes + self._header_wire
        record = self._rstats.record
        started_at = sim.now
        results = None
        for attempt in range(attempts):
            for op in ops:
                record(op[0], op[1])
            if local:
                yield from fabric.local_copy(sum(op[1] for op in ops))
            else:
                yield sim.timeout(self._leg(self._ltx, self._rrx, request_wire) - sim.now)
            if injector is not None:
                if injector.should_duplicate(verbs[0], server_id):
                    # The NIC discards the duplicate; it only burns RX bandwidth.
                    self._rrx.reserve(request_wire)
                if self._lost(injector, verbs):
                    yield from self._attempt_lost(injector, verbs[0], attempt)
                    continue
                if results is None:
                    results = (
                        (yield from self._apply_mirrored(ops)) if mirrored
                        else list(map(self._apply, ops))
                    )
            if atomics and not local:
                yield sim.timeout(atomics * fabric.config.atomic_extra_latency_s)
            if injector is not None:
                delay = injector.extra_delay(verbs[0], server_id)
                if delay > 0.0:
                    yield sim.timeout(delay)
            if not local:
                done = self._leg(self._rtx, self._lrx, response_bytes + self._header_wire)
                yield sim.timeout(done - sim.now)
            if injector is None:
                results = (
                    (yield from self._apply_mirrored(ops)) if mirrored
                    else list(map(self._apply, ops))
                )
            elif self._lost(injector, verbs):
                yield from self._attempt_lost(injector, verbs[0], attempt)
                continue
            if fabric.tracer is not None or fabric.obs is not None:
                for op in ops:
                    self._trace(op[0], op[1], started_at, batch_id=batch_id)
            return results if batched else results[0]
        self.local_port.wqes_failed += len(ops)
        rerouted = self._rerouted(epoch)
        if rerouted is None:
            what = f"doorbell batch of {len(ops)} verbs" if batched else ops[0][0].value
            raise RetriesExhaustedError(
                f"{what} to memory server {server_id} gave up after "
                f"{attempts} attempts"
            )
        return (
            yield from rerouted._post(
                ops, request_bytes, response_bytes, atomics, batched
            )
        )

    def _attempt_lost(
        self, injector, verb: Verb, attempt: int
    ) -> Generator[Any, Any, None]:
        """The request or response of one attempt was lost: wait out the
        detection timeout, then back off before the next attempt."""
        retry = injector.retry
        retried = attempt < retry.max_attempts - 1
        obs = self.fabric.obs
        if obs is not None:
            obs.attempt_failed(verb, self.remote.server_id, retried=retried)
        wait_start = self.sim.now
        yield self.sim.timeout(retry.timeout_s)
        if retried:
            yield self.sim.timeout(injector.backoff_delay(attempt))
        if obs is not None:
            obs.stamp("client_backoff", wait_start, self.sim.now)

    def read(self, offset: int, length: int) -> Generator[Any, Any, bytes]:
        """RDMA READ *length* bytes at *offset* of the remote region."""
        return self._post(
            [(Verb.READ, length, offset, None)], self._request_wire, length, 0
        )

    def read_view(self, offset: int, length: int) -> Generator[Any, Any, Any]:
        """RDMA READ returning a zero-copy view of the remote region.

        Timing, stats, tracing, and the returned bytes are identical to
        :meth:`read`; only the materialization differs — no copy is made.
        The view aliases live region memory and blocks region growth while
        any reference survives, so callers must consume it *before their
        next simulation yield* and drop every reference (see
        :meth:`MemoryRegion.read_view`). A READ mirrors nothing, so the
        view stays zero-copy under replication; only with a fault injector
        on a non-local queue pair does it fall back to :meth:`read` — a
        retried READ must re-materialize fresh bytes, and a failover
        re-reads another host's region — and return bytes.
        """
        fabric = self.fabric
        if fabric.injector is not None and not self.is_local:
            return (yield from self.read(offset, length))
        sim = self.sim
        started_at = sim.now
        stats = self._rstats
        stats.ops[Verb.READ] += 1
        stats.bytes[Verb.READ] += length
        if self.is_local:
            yield from fabric.local_copy(length)
        else:
            self.local_port.ring_doorbell()
            yield sim.timeout(self._leg(self._ltx, self._rrx, self._req_leg_wire) - sim.now)
            done = self._leg(self._rtx, self._lrx, length + self._header_wire)
            yield sim.timeout(done - sim.now)
        if fabric.tracer is not None or fabric.obs is not None:
            self._trace(Verb.READ, length, started_at)
        data = self.region.read_view(offset, length)
        if fabric.sanitizer is not None:
            self._emit("read", "READ", offset, length)
        return data

    def write(self, offset: int, data: bytes) -> Generator[Any, Any, None]:
        """RDMA WRITE *data* at *offset* of the remote region."""
        return self._post(
            [(Verb.WRITE, len(data), offset, data)],
            self._request_wire + len(data),
            0,
            0,
        )

    def write_faa_chain(self, offset: int, data) -> Generator[Any, Any, int]:
        """Doorbell-chained WRITE + FETCH_ADD(+1) on one page — the
        unlock-release sequence, specialized past VerbBatch staging.

        Wire accounting, stats, tracing, and memory effects are identical
        to ``batch().write(offset, data).fetch_and_add(offset, 1)
        .execute()``; the specialization exists because this 2-WQE chain is
        the hottest batch of every write workload and the generic staging
        costs more host time than the chain's own simulated legs. With a
        fault injector or replication attached it falls back to that
        generic batch, which handles retry replay, mirror legs and
        failover. Returns the FAA's old value.
        """
        fabric = self.fabric
        if fabric.injector is not None or fabric.replication is not None:
            batch = self.batch().write(offset, data).fetch_and_add(offset, 1)
            return (yield from batch.execute())[1]
        nbytes = len(data)
        if not self.is_local:
            self.local_port.ring_doorbell(2)
            if fabric.obs is not None:
                fabric.obs.batch_executed(self.remote.server_id, 2)
        batch_id = fabric.next_batch_id()
        sim = self.sim
        started_at = sim.now
        stats = self._rstats
        stats.ops[Verb.WRITE] += 1
        stats.bytes[Verb.WRITE] += nbytes
        stats.ops[Verb.FETCH_ADD] += 1
        stats.bytes[Verb.FETCH_ADD] += 8
        if self.is_local:
            yield from fabric.local_copy(nbytes + 8)
        else:
            wire = 2 * self._request_wire + nbytes + 16 + self._header_wire
            yield sim.timeout(self._leg(self._ltx, self._rrx, wire) - sim.now)
            yield sim.timeout(fabric.config.atomic_extra_latency_s)
            done = self._leg(self._rtx, self._lrx, 8 + self._header_wire)
            yield sim.timeout(done - sim.now)
        self._apply_write(offset, data)
        old = self._apply_faa(offset, 1)
        if fabric.tracer is not None or fabric.obs is not None:
            self._trace(Verb.WRITE, nbytes, started_at, batch_id=batch_id)
            self._trace(Verb.FETCH_ADD, 8, started_at, batch_id=batch_id)
        return old

    def compare_and_swap(
        self, offset: int, expected: int, new: int
    ) -> Generator[Any, Any, Tuple[bool, int]]:
        """RDMA CAS on the 8-byte word at *offset*; returns ``(swapped, old)``."""
        return self._post(
            [(Verb.CAS, 8, offset, (expected, new))], self._request_wire + 16, 8, 1
        )

    def fetch_and_add(self, offset: int, delta: int) -> Generator[Any, Any, int]:
        """RDMA FETCH_AND_ADD on the 8-byte word at *offset*; returns old value."""
        return self._post(
            [(Verb.FETCH_ADD, 8, offset, delta)], self._request_wire + 16, 8, 1
        )

    # -- two-sided RPC ---------------------------------------------------------

    def call(
        self,
        request: Any,
        request_wire_bytes: int,
        tenant: Optional[str] = None,
    ) -> Generator[Any, Any, Any]:
        """Two-sided RPC: SEND *request*, wait for the server's response.

        The request lands in the server's shared receive queue and is
        handled by one of its RPC workers; the response value of that
        handler is returned here. *tenant* tags the envelope for admission
        control; when the server bounces the request the marker response
        surfaces here as :class:`~repro.errors.ThrottledError` /
        :class:`~repro.errors.AdmissionRejectedError`.

        Like :meth:`_post`, one loop serves both modes. Without a fault
        injector (or locally) it runs once and waits for the reply. With
        one, SENDs are at-least-once and handling exactly-once: one
        *reply* event spans all attempts, so a response that is merely
        slow (queueing on a loaded worker pool) still completes the call
        even if a retry is already in flight, and the server suppresses
        the retry via the call's sequence number. An exhausted call is
        re-issued on the re-routed queue pair if the cluster fails over.
        """
        fabric = self.fabric
        sim = self.sim
        if not self.is_local:
            self.local_port.ring_doorbell()
        replication = fabric.replication
        epoch = replication.epoch if replication is not None else 0
        injector = None if self.is_local else fabric.injector
        obs = fabric.obs
        span = obs.active_span() if obs is not None else None
        server_id = self.remote.server_id
        started_at = sim.now
        reply = sim.event()
        if injector is None:
            seq, attempts = 0, 1
        else:
            seq, attempts = self._next_seq, injector.retry.max_attempts
            self._next_seq += 1
        for attempt in range(attempts):
            self._rstats.record(Verb.SEND, request_wire_bytes)
            if self.is_local:
                yield from fabric.local_copy(request_wire_bytes)
            else:
                done = self._leg(
                    self._ltx, self._rrx, request_wire_bytes + self._header_wire
                )
                yield sim.timeout(done - sim.now)
            if injector is None or not (
                injector.server_down(server_id)
                or injector.should_drop(Verb.SEND, server_id)
            ):
                crash_epoch = 0
                if injector is not None:
                    delay = injector.extra_delay(Verb.SEND, server_id)
                    if delay > 0.0:
                        yield sim.timeout(delay)
                    crash_epoch = injector.crash_epoch(server_id)
                envelope = RpcEnvelope(
                    self, request, reply, seq=seq, epoch=crash_epoch,
                    tenant=tenant, span=span, enqueued_at=sim.now,
                )
                self.remote.submit(envelope)
                if injector is not None and injector.should_duplicate(
                    Verb.SEND, server_id
                ):
                    self.remote.submit(envelope)
            if injector is None:
                yield reply
            else:
                wait_start = sim.now
                yield sim.any_of([reply, sim.timeout(injector.retry.timeout_s)])
                if not reply.triggered:
                    retried = attempt < attempts - 1
                    if obs is not None:
                        obs.attempt_failed(Verb.SEND, server_id, retried=retried)
                    if retried:
                        yield sim.timeout(injector.backoff_delay(attempt))
                    if obs is not None and not reply.triggered:
                        # The timed-out detection window plus the backoff
                        # are client-side retry delay (a reply landing
                        # mid-backoff keeps its server-stamped segments).
                        obs.stamp("client_backoff", wait_start, sim.now)
                if reply.triggered:
                    self._rpc_cache.pop(seq, None)
                    self._rpc_admitted.discard(seq)
            if reply.triggered:
                self._trace(Verb.SEND, request_wire_bytes, started_at)
                return self._check_admitted(reply.value, started_at)
        self._rpc_cache.pop(seq, None)
        self._rpc_inflight.discard(seq)
        self._rpc_admitted.discard(seq)
        self.local_port.wqes_failed += 1
        rerouted = self._rerouted(epoch)
        if rerouted is None:
            raise RetriesExhaustedError(
                f"rpc to memory server {server_id} gave up after "
                f"{attempts} attempts"
            )
        return (yield from rerouted.call(request, request_wire_bytes, tenant))

    def _check_admitted(
        self, response: Any, started_at: Optional[float] = None
    ) -> Any:
        """Translate an admission bounce into its client-side exception."""
        if getattr(response, "throttled", False):
            reason = response.reason
            obs = self.fabric.obs
            if obs is not None and started_at is not None:
                # The whole bounced round trip is admission-rejection
                # delay; its priority outranks the wire segments beneath.
                obs.stamp("admission_reject", started_at, self.sim.now)
            if reason == "rate-limit":
                raise ThrottledError(
                    f"memory server {self.remote.server_id} rate-limited "
                    f"the request ({reason})"
                )
            raise AdmissionRejectedError(
                f"memory server {self.remote.server_id} rejected the "
                f"request ({reason})"
            )
        return response

    # -- server-side dedup bookkeeping (used by MemoryServer workers) ---------

    def rpc_begin(self, seq: int) -> bool:
        """True if the worker should execute this envelope's handler;
        False if an identical request is already being handled."""
        if seq in self._rpc_inflight:
            return False
        self._rpc_inflight.add(seq)
        return True

    def rpc_finish(self, seq: int, response: Any, wire_bytes: int) -> None:
        """Remember the handler outcome so retransmits replay, not re-run."""
        self._rpc_inflight.discard(seq)
        self._rpc_cache[seq] = (response, wire_bytes)
        injector = self.fabric.injector
        limit = (
            injector.retry.rpc_dedup_cache_entries
            if injector is not None
            else _RPC_CACHE_LIMIT
        )
        while len(self._rpc_cache) > limit:
            self._rpc_cache.pop(next(iter(self._rpc_cache)))

    def rpc_cached(self, seq: int):
        """The cached ``(response, wire_bytes)`` for *seq*, or None."""
        return self._rpc_cache.get(seq)

    def _spawn_reply(
        self, reply: Event, response: Any, wire_bytes: int, span: Any = None
    ) -> None:
        def ship() -> Generator[Any, Any, None]:
            if self.is_local:
                yield from self.fabric.local_copy(wire_bytes)
            else:
                injector = self.fabric.injector
                if injector is not None:
                    server_id = self.remote.server_id
                    if injector.server_down(server_id) or injector.should_drop(
                        Verb.SEND, server_id
                    ):
                        return  # the response is lost; the client retries
                    delay = injector.extra_delay(Verb.SEND, server_id)
                    if delay > 0.0:
                        yield self.sim.timeout(delay)
                done = self._leg(self._rtx, self._lrx, wire_bytes + self._header_wire)
                yield self.sim.timeout(done - self.sim.now)
            if not reply.triggered:
                reply.succeed(response)

        proc = self.sim.process(ship())
        if span is not None:
            # Ship on behalf of the issuing op so the response leg's
            # queueing/flight stamps land on that op's span.
            proc.span = span


class VerbBatch:
    """One-sided verbs chained behind a single doorbell (Section 2.1).

    The posting methods (:meth:`read`, :meth:`write`,
    :meth:`compare_and_swap`, :meth:`fetch_and_add`) only *stage* work-queue
    entries; nothing touches the wire until :meth:`execute`, which rings the
    doorbell once and ships every entry in one request message. Only the
    last WQE is posted signaled (selective signaling), so the server's
    single response message acknowledges the whole chain. On an RC queue
    pair the NIC executes the entries in posting order, which is what makes
    a WRITE-then-FAA unlock batch a release store followed by the version
    bump — see docs/performance.md.

    Wire costs are exactly the sum of the per-verb request/response sizes;
    what a batch saves is the per-message fixed overhead (header +
    ``message_overhead_s``) and the extra round trips. Each verb still
    produces its own completion value: :meth:`execute` returns the results
    in posting order.

    Under fault injection the batch's two wire legs live or die as a unit
    (one drop draw per leg, at the most fault-prone member's probability),
    while memory effects keep per-verb at-most-once replay semantics across
    retries, exactly like single verbs: both run through the same attempt
    loop (:meth:`QueuePair._post`).
    """

    __slots__ = ("qp", "_ops", "_executed", "_request_bytes",
                 "_response_bytes", "_atomics")

    def __init__(self, qp: QueuePair) -> None:
        self.qp = qp
        # One ``(verb, payload_bytes, offset, arg)`` tuple per staged WQE,
        # where *arg* is the WRITE's data, the CAS's ``(expected, new)`` or
        # the FAA's delta (None for READ). The entries name no queue pair,
        # so a chain re-issued after a failover runs unchanged on the new
        # one. The wire totals are running sums kept at staging time.
        self._ops: List[Tuple] = []
        self._executed = False
        self._request_bytes = 0
        self._response_bytes = 0
        self._atomics = 0

    def __len__(self) -> int:
        return len(self._ops)

    def _stage(
        self, op: Tuple, request_bytes: int, response_bytes: int, atomic: bool = False
    ) -> "VerbBatch":
        if self._executed:
            raise NetworkError("cannot post to an already-executed VerbBatch")
        self._ops.append(op)
        self._request_bytes += request_bytes
        self._response_bytes += response_bytes
        if atomic:
            self._atomics += 1
        return self

    # -- posting (returns self for chaining) ---------------------------------

    def read(self, offset: int, length: int) -> "VerbBatch":
        """Stage an RDMA READ of *length* bytes at *offset*."""
        return self._stage(
            (Verb.READ, length, offset, None), self.qp._request_wire, length
        )

    def write(self, offset: int, data: bytes) -> "VerbBatch":
        """Stage an RDMA WRITE of *data* at *offset*."""
        return self._stage(
            (Verb.WRITE, len(data), offset, data),
            self.qp._request_wire + len(data),
            0,
        )

    def compare_and_swap(self, offset: int, expected: int, new: int) -> "VerbBatch":
        """Stage an RDMA CAS; its result slot gets ``(swapped, old)``."""
        return self._stage(
            (Verb.CAS, 8, offset, (expected, new)),
            self.qp._request_wire + 16,
            8,
            atomic=True,
        )

    def fetch_and_add(self, offset: int, delta: int) -> "VerbBatch":
        """Stage an RDMA FETCH_AND_ADD; its result slot gets the old value."""
        return self._stage(
            (Verb.FETCH_ADD, 8, offset, delta),
            self.qp._request_wire + 16,
            8,
            atomic=True,
        )

    # -- execution -----------------------------------------------------------

    def execute(self) -> Generator[Any, Any, List[Any]]:
        """Ring the doorbell: ship the chain, return per-verb results in
        posting order."""
        if self._executed:
            raise NetworkError("VerbBatch already executed")
        self._executed = True
        if not self._ops:
            return []
        return (
            yield from self.qp._post(
                self._ops, self._request_bytes, self._response_bytes,
                self._atomics, batched=True,
            )
        )

"""Simulated RDMA NICs.

A :class:`Nic` belongs to one physical machine and exposes one or more
:class:`NicPort` objects (the paper's machines have dual-port Connect-IB
cards; each memory server is pinned to its own port, Section 6.1). A port
has independent TX and RX bandwidth channels — the contention points of the
fabric model.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.sim import BandwidthChannel, Simulator

__all__ = ["NicPort", "Nic"]


class NicPort:
    """One NIC port: a TX and an RX bandwidth channel.

    The port also keeps doorbell statistics: every logical verb post —
    a single verb or a doorbell batch of several work-queue entries —
    rings the doorbell once (:meth:`ring_doorbell`). ``wqes_posted /
    doorbells`` is therefore the achieved batching factor, the number the
    batching benchmark and tests assert on. Every posted entry either
    completes or, when its chain exhausts its retries, is counted in
    ``wqes_failed`` (a failover re-issue posts the entries again).
    """

    def __init__(self, sim: Simulator, config: NetworkConfig, label: str) -> None:
        self.label = label
        self.tx = BandwidthChannel(
            sim, config.port_bandwidth_bytes_per_s, config.message_overhead_s
        )
        self.rx = BandwidthChannel(
            sim, config.port_bandwidth_bytes_per_s, config.message_overhead_s
        )
        #: MMIO doorbell writes from queue pairs using this port.
        self.doorbells = 0
        #: Work-queue entries those doorbells flushed.
        self.wqes_posted = 0
        #: Posted entries whose chain gave up after its last retry.
        self.wqes_failed = 0

    def ring_doorbell(self, wqes: int = 1) -> None:
        """Account one doorbell write flushing *wqes* work-queue entries."""
        self.doorbells += 1
        self.wqes_posted += wqes

    def traffic(self) -> Tuple[int, int]:
        """``(bytes_tx, bytes_rx)`` that crossed this port so far."""
        return self.tx.bytes_total, self.rx.bytes_total


class Nic:
    """A network card with ``num_ports`` ports."""

    def __init__(
        self, sim: Simulator, config: NetworkConfig, num_ports: int, label: str
    ) -> None:
        if num_ports < 1:
            raise NetworkError("a NIC needs at least one port")
        self.label = label
        self.ports: List[NicPort] = [
            NicPort(sim, config, f"{label}/p{i}") for i in range(num_ports)
        ]

    def port(self, index: int) -> NicPort:
        try:
            return self.ports[index]
        except IndexError:
            raise NetworkError(
                f"NIC {self.label} has {len(self.ports)} ports, no port {index}"
            ) from None

"""Registered memory regions.

A :class:`MemoryRegion` is the simulated equivalent of an RDMA-registered
memory area on a memory server: a byte-addressable buffer that remote
endpoints can READ/WRITE at arbitrary offsets and on which 8-byte atomic
verbs (compare-and-swap, fetch-and-add) operate. Index pages really are
serialized into these buffers, so transfer sizes and atomic semantics are
exact, not estimated.

Regions grow on demand (in fixed chunks) up to a configured maximum, which
keeps small experiments cheap while allowing large bulk loads.

Replication support: a region may have *mirror* regions attached
(:meth:`MemoryRegion.attach_mirror`). Every mutation — WRITE and the
atomics, which route through :meth:`write_u64` — is propagated to the
mirrors synchronously, byte for byte, so a backup replica is always a
prefix-exact copy of its primary. The *timing* of replication traffic is
charged separately by the queue-pair/worker layers
(:class:`repro.nam.replication.ReplicationManager`); this class only keeps
the state converged. With no mirrors attached (``replication_factor == 1``)
the propagation check is a single falsy test and behavior is identical to
the unreplicated build.
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.errors import RemoteAccessError

__all__ = ["MemoryRegion"]

_U64 = struct.Struct("<Q")
_GROW_CHUNK = 1 << 20  # 1 MiB


class MemoryRegion:
    """A growable, bounds-checked byte buffer with 8-byte atomics."""

    def __init__(self, initial_bytes: int, max_bytes: int) -> None:
        if initial_bytes < 0 or max_bytes < initial_bytes:
            raise RemoteAccessError(
                f"invalid region sizing: initial={initial_bytes}, max={max_bytes}"
            )
        self._buf = bytearray(initial_bytes)
        self.max_bytes = max_bytes
        self._mirrors: list = []
        # Lazily-built read-only master view of ``_buf``; every
        # :meth:`read_view` is a slice of it (one allocation instead of
        # three). Released before any growth — see :meth:`_ensure`.
        self._view: memoryview = None
        #: Bumped by :meth:`wipe`. Readers that memoize decoded pages by
        #: offset compare it to notice the content was replaced wholesale.
        self.generation = 0

    def __len__(self) -> int:
        return len(self._buf)

    # -- replication mirrors -------------------------------------------------

    def attach_mirror(self, mirror: "MemoryRegion") -> None:
        """Propagate every future mutation of this region into *mirror*."""
        if mirror is self:
            raise RemoteAccessError("a region cannot mirror itself")
        if mirror not in self._mirrors:
            self._mirrors.append(mirror)

    def detach_mirror(self, mirror: "MemoryRegion") -> None:
        """Stop propagating into *mirror* (no-op if it was not attached)."""
        if mirror in self._mirrors:
            self._mirrors.remove(mirror)

    def wipe(self) -> None:
        """Zero the buffer in place (a destructive crash). Mirror links are
        managed by the caller; the buffer keeps its current length."""
        self._buf[:] = bytes(len(self._buf))
        self.generation += 1

    def _ensure(self, end: int) -> None:
        if end <= len(self._buf):
            return
        if end > self.max_bytes:
            raise RemoteAccessError(
                f"access at {end} exceeds region maximum of {self.max_bytes} bytes"
            )
        # Grow in whole chunks so repeated appends stay amortized O(1).
        # The master view must be released first: a bytearray cannot be
        # resized while any export is alive. Caller-held slices still
        # block growth (the read_view hazard contract is unchanged).
        if self._view is not None:
            self._view.release()
            self._view = None
        target = min(self.max_bytes, max(end, len(self._buf) + _GROW_CHUNK))
        self._buf.extend(bytes(target - len(self._buf)))

    # -- bulk access ---------------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Copy *length* bytes starting at *offset* (zero-filled if never written)."""
        if offset < 0 or length < 0:
            raise RemoteAccessError(f"bad read at offset={offset}, length={length}")
        end = offset + length
        if end > len(self._buf):
            self._ensure(end)
        # Slice through the master view: one copy into the result instead
        # of bytearray-slice-then-bytes (two).
        view = self._view
        if view is None:
            view = self._view = memoryview(self._buf).toreadonly()
        return bytes(view[offset:end])

    def read_view(self, offset: int, length: int) -> memoryview:
        """A zero-copy read-only view of *length* bytes at *offset*.

        Hazard: while any view is alive the underlying bytearray cannot
        grow, so a write past the current end raises ``BufferError``. Views
        are therefore for *immediate* consumption on the co-located fast
        path (parse a page, drop the view) — never hold one across a
        simulation yield or stash it in a cache. See docs/performance.md.
        """
        if offset < 0 or length < 0:
            raise RemoteAccessError(f"bad read at offset={offset}, length={length}")
        end = offset + length
        if end > len(self._buf):
            self._ensure(end)
        view = self._view
        if view is None:
            view = self._view = memoryview(self._buf).toreadonly()
        return view[offset:end]

    def write(self, offset: int, data: bytes) -> None:
        """Store *data* at *offset*."""
        if offset < 0:
            raise RemoteAccessError(f"bad write at offset={offset}")
        end = offset + len(data)
        self._ensure(end)
        self._buf[offset:end] = data
        if self._mirrors:
            for mirror in self._mirrors:
                mirror.write(offset, data)

    # -- 8-byte word access (the granularity of RDMA atomics) ----------------

    def read_u64(self, offset: int) -> int:
        self._ensure(offset + 8)
        return _U64.unpack_from(self._buf, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        # CAS and FETCH_AND_ADD mutate through here, so this single hook
        # (plus :meth:`write`) covers every way a region changes.
        self._ensure(offset + 8)
        _U64.pack_into(self._buf, offset, value & 0xFFFFFFFFFFFFFFFF)
        if self._mirrors:
            for mirror in self._mirrors:
                mirror.write_u64(offset, value)

    def compare_and_swap(self, offset: int, expected: int, new: int) -> Tuple[bool, int]:
        """Atomic 8-byte CAS; returns ``(swapped, old_value)``.

        Like the RDMA verb, the old value is returned whether or not the
        swap happened.
        """
        old = self.read_u64(offset)
        if old == expected:
            self.write_u64(offset, new)
            return True, old
        return False, old

    def fetch_and_add(self, offset: int, delta: int) -> int:
        """Atomic 8-byte fetch-and-add; returns the value before the add."""
        old = self.read_u64(offset)
        self.write_u64(offset, (old + delta) & 0xFFFFFFFFFFFFFFFF)
        return old

"""Counting wrappers behind the ``index.*`` and ``btree.*`` count metrics.

:class:`Probes` wraps a handful of ``repro`` functions for the duration of
one counting pass and restores them on exit. Each wrapper only counts and
delegates — generator wrappers ``yield from`` the original — so the
simulation is event-for-event the one an unwrapped run produces (the
harness checks this: the counting pass must reproduce the plain pass's
simulated metrics exactly).

The wrapped functions, and what each count means:

* ``Node.from_bytes`` — ``decodes``: page images parsed into nodes.
* ``RemoteAccessor._decode_shared`` — ``memo_hits``: page images served
  from the decode memo without a parse (the call made no ``from_bytes``).
* ``LocalAccessor.try_lock`` / ``RemoteAccessor.try_lock`` — ``try_locks``
  and ``lock_fails`` (the CAS found the page locked or changed).
* ``Node.clone`` — ``clones``: private copies handed to mutators.
* ``Node.split`` — ``splits``: node splits.

A refactor that renames one of these fails the counting pass loudly
(``AttributeError``) rather than reporting a silent zero.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.btree.node import Node
from repro.index.accessors import LocalAccessor, RemoteAccessor

COUNTS = ("decodes", "memo_hits", "try_locks", "lock_fails", "clones", "splits")


class Probes:
    """Context manager installing the counting wrappers; see module doc."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._saved: List[Tuple[type, str, Any]] = []

    def _patch(self, owner: type, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Probes":
        counts = self.counts
        from_bytes = Node.__dict__["from_bytes"].__func__
        decode_shared = RemoteAccessor._decode_shared
        clone = Node.clone
        split = Node.split

        def counted_from_bytes(cls, data):
            counts["decodes"] += 1
            return from_bytes(cls, data)

        def counted_decode_shared(accessor, raw_ptr, data):
            decodes = counts["decodes"]
            node = decode_shared(accessor, raw_ptr, data)
            if counts["decodes"] == decodes:
                counts["memo_hits"] += 1
            return node

        def counted_clone(node):
            counts["clones"] += 1
            return clone(node)

        def counted_split(node):
            counts["splits"] += 1
            return split(node)

        self._patch(Node, "from_bytes", classmethod(counted_from_bytes))
        self._patch(RemoteAccessor, "_decode_shared", counted_decode_shared)
        self._patch(Node, "clone", counted_clone)
        self._patch(Node, "split", counted_split)
        for accessor_cls in (LocalAccessor, RemoteAccessor):
            self._patch(
                accessor_cls, "try_lock", _counted_try_lock(accessor_cls.try_lock, counts)
            )
        return self

    def __exit__(self, *_exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _counted_try_lock(try_lock, counts: Dict[str, int]):
    def counted_try_lock(accessor, raw_ptr, version):
        counts["try_locks"] += 1
        swapped = yield from try_lock(accessor, raw_ptr, version)
        if not swapped:
            counts["lock_fails"] += 1
        return swapped

    return counted_try_lock

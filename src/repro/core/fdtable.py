"""The per-process file-descriptor table.

UNIX routes ``read``/``write`` by descriptor; the library used to route
by a ``device="disk0"`` keyword instead, which cannot name a socket.
:class:`FdTable` restores the UNIX shape: small integers mapping to
whatever object services the descriptor (an
:class:`~repro.unix.io.IoDevice` or a :class:`~repro.unix.net.Socket`).

Descriptors 0-2 are reserved for the stdio trio, as on a real process.
The table is pure bookkeeping: constructing it and resolving an fd
charge no cycles, so a runtime that never installs an entry behaves
bit-identically to one built before this table existed (the legacy
``device=`` keyword keeps working as a fallback in
:meth:`repro.core.iolib.IoOps._io`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: First descriptor handed out (0-2 belong to stdin/stdout/stderr).
FIRST_FD = 3


class FdTable:
    """fd -> servicing object (device or socket) for one process."""

    def __init__(self) -> None:
        self._entries: Dict[int, Any] = {}
        self._next_fd = FIRST_FD
        self.opened = 0
        self.closed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fd: int) -> bool:
        return fd in self._entries

    def alloc(self, obj: Any) -> int:
        """Install ``obj`` under the lowest unused descriptor."""
        fd = self._next_fd
        while fd in self._entries:
            fd += 1
        self._entries[fd] = obj
        self._next_fd = fd + 1
        self.opened += 1
        return fd

    def get(self, fd: int) -> Optional[Any]:
        """The object servicing ``fd`` (None when unmapped)."""
        return self._entries.get(fd)

    def lookup(self, fds: List[int]) -> Dict[int, Optional[Any]]:
        """Resolve a descriptor set: fd -> servicing object (None when
        unmapped), each fd once, in first-seen order."""
        return dict(zip(fds, map(self._entries.get, fds)))

    def close(self, fd: int) -> Optional[Any]:
        """Unmap ``fd``; returns the evicted object (None if unmapped).

        Freed descriptors are reused lowest-first, the POSIX rule
        (``open`` returns the lowest available descriptor).
        """
        obj = self._entries.pop(fd, None)
        if obj is not None:
            self.closed += 1
            if fd < self._next_fd:
                self._next_fd = fd if fd >= FIRST_FD else FIRST_FD
        return obj

    def fds(self):
        """Live descriptors (ascending)."""
        return sorted(self._entries)

    def __repr__(self) -> str:
        return "FdTable(open=%d)" % len(self._entries)

"""POSIX error numbers and per-thread errno.

Draft 6 of POSIX 1003.4a (the draft the paper implements) had most
calls return -1 and set ``errno``; the ratified standard returns the
error number directly.  We follow the modern convention -- every
``pthread_*`` entry point returns 0 on success or an error number --
but the library still maintains a per-thread errno that the dispatcher
saves and restores across context switches, exactly as the paper's
"loading UNIX's global error number with the thread's error number"
step does.
"""

from __future__ import annotations

OK = 0
EPERM = 1
ESRCH = 3
EINTR = 4
EAGAIN = 11
ENOMEM = 12
EBUSY = 16
EINVAL = 22
EDEADLK = 35
ETIMEDOUT = 60
ENOSPC = 28
EBADF = 9
EPIPE = 32
ENOTCONN = 57
EISCONN = 56
EADDRINUSE = 48
ECONNREFUSED = 61


class PthreadsInternalError(Exception):
    """The library detected a broken internal invariant.

    These are bugs in the library (or deliberately injected faults in
    tests), never user errors: user errors come back as error numbers.
    """

"""Attribute objects: thread, mutex, and condition-variable attributes.

Pthreads configures objects through attribute records passed at
initialisation.  These are plain data: validation happens here, the
consuming module applies them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core import config


@dataclass
class ThreadAttr:
    """Attributes for ``pthread_create``.

    ``lazy`` is the paper's future-work extension ("an attribute passed
    at creation time could indicate that the activation is to be
    deferred"): a lazily created thread allocates no stack and joins no
    queue until some other thread synchronises with it.
    """

    priority: int = config.PTHREAD_DEFAULT_PRIORITY
    policy: str = config.SCHED_FIFO
    stack_size: Optional[int] = None
    detach_state: str = config.PTHREAD_CREATE_JOINABLE
    inherit_sched: bool = False  # inherit priority/policy from creator
    lazy: bool = False
    name: Optional[str] = None

    def validated(self) -> "ThreadAttr":
        config.check_priority(self.priority)
        if self.policy not in config.ALL_POLICIES:
            raise ValueError("unknown scheduling policy: %r" % (self.policy,))
        if self.detach_state not in (
            config.PTHREAD_CREATE_JOINABLE,
            config.PTHREAD_CREATE_DETACHED,
        ):
            raise ValueError("bad detach state: %r" % (self.detach_state,))
        if self.stack_size is not None and self.stack_size < 1024:
            raise ValueError(
                "stack size too small: %r (min 1024)" % (self.stack_size,)
            )
        return self

    def copy(self) -> "ThreadAttr":
        return replace(self)


@dataclass
class MutexAttr:
    """Attributes for ``pthread_mutex_init``.

    ``protocol`` selects no protocol, priority inheritance, or priority
    ceiling (SRP); ``prioceiling`` is required for the ceiling protocol
    and must be at least the highest priority of any locking thread
    (the paper argues the standard should *require* this; we check it
    at lock time and refuse with EINVAL).
    """

    protocol: str = config.PRIO_NONE
    prioceiling: int = config.PTHREAD_MAX_PRIORITY
    name: Optional[str] = None

    def validated(self) -> "MutexAttr":
        if self.protocol not in config.ALL_PROTOCOLS:
            raise ValueError("unknown mutex protocol: %r" % (self.protocol,))
        config.check_priority(self.prioceiling)
        return self

    def copy(self) -> "MutexAttr":
        return replace(self)


@dataclass
class CondAttr:
    """Attributes for ``pthread_cond_init`` (placeholder for shared)."""

    name: Optional[str] = None

    def validated(self) -> "CondAttr":
        return self

    def copy(self) -> "CondAttr":
        return replace(self)

"""Shared test helpers.

``run_program`` builds a runtime, installs ``main_fn`` as the initial
thread, runs to completion, and returns the runtime for inspection --
the shape almost every integration test wants.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Optional

import pytest

from repro.core.config import RuntimeConfig
from repro.core.runtime import PthreadsRuntime
from repro.debug.trace import Tracer


def make_runtime(
    model: str = "sparc-ipx",
    seed: int = 0,
    policy: Optional[object] = None,
    trace: Optional[Tracer] = None,
    timeslice_us: Optional[float] = None,
    pool_size: int = 16,
    **config_kwargs: Any,
) -> PthreadsRuntime:
    config = RuntimeConfig(
        pool_size=pool_size, timeslice_us=timeslice_us, **config_kwargs
    )
    return PthreadsRuntime(
        model=model, seed=seed, config=config, policy=policy, trace=trace
    )


def rx_owner(on_rx: Callable) -> SimpleNamespace:
    """A minimal owner record for a kernel-owned socket: each arriving
    message goes to ``on_rx(sock, msg)``; connect and EOF are ignored."""
    return SimpleNamespace(
        connected=lambda sock: None, rx=on_rx, eof=lambda sock: None
    )


def run_program(
    main_fn: Callable,
    *args: Any,
    priority: int = 64,
    runtime: Optional[PthreadsRuntime] = None,
    until_us: Optional[float] = None,
    max_steps: Optional[int] = 2_000_000,
    **runtime_kwargs: Any,
) -> PthreadsRuntime:
    rt = runtime if runtime is not None else make_runtime(**runtime_kwargs)
    rt.main(main_fn, *args, priority=priority)
    rt.run(until_us=until_us, max_steps=max_steps)
    return rt


@pytest.fixture
def rt() -> PthreadsRuntime:
    """A fresh default runtime (no slicer, small pool)."""
    return make_runtime()


@pytest.fixture
def traced_rt() -> PthreadsRuntime:
    """A runtime with full tracing enabled."""
    return make_runtime(trace=Tracer())

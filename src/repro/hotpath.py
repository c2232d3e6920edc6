"""The ``@hot_path`` marker for performance-critical vectorised code.

Functions carrying this decorator promise to stay whole-array numpy:
``reprolint``'s HOT001 rule rejects per-element Python loops inside
them, so a refactor that quietly de-vectorises a batch-engine step fails
the lint gate instead of shipping a 10x slowdown.

At runtime the decorator is a thin pass-through: it tags the function
(``__hot_path__``) and, *only* when a kernel observer is installed (the
determinism sanitizer, :mod:`repro.analysis.dsan`), maintains a stack of
currently executing kernel names so RNG draws can be attributed to the
kernel that issued them.  With no observer the wrapper is a single
``is None`` check — the decorated function stays effectively inert.

This module intentionally imports nothing from the rest of the package:
both the walk engines and the sanitizer import *it*, never the reverse.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Iterator, TypeVar

F = TypeVar("F", bound=Callable[..., object])

#: Kernel-name stack of the *current process*; only maintained while an
#: observer is installed.  Fork inheritance gives each worker its own copy.
_kernel_stack: list[str] = []

#: When not ``None``, hot-path calls push/pop their name on the stack.
_observer_installed: bool = False


def set_kernel_observation(enabled: bool) -> None:
    """Turn kernel-name tracking on or off (idempotent).

    Installed by the determinism sanitizer for the duration of an
    instrumented run; the stack is cleared on every transition so a
    crashed kernel cannot leave stale attribution behind.
    """
    global _observer_installed
    _observer_installed = bool(enabled)
    _kernel_stack.clear()


def current_kernel() -> str | None:
    """Name of the innermost executing ``@hot_path`` kernel, if any."""
    return _kernel_stack[-1] if _kernel_stack else None


#: The scope handed out while no observer is installed: one shared,
#: reusable no-op context manager instead of a fresh generator per use.
_NULL_SCOPE: ContextManager[None] = nullcontext()


def kernel_scope(name: str) -> ContextManager[None]:
    """Attribute RNG draws inside the block to kernel ``name``.

    The step-centric kernels take *pre-drawn* uniforms (so compiled
    backends consume the identical stream); the draws therefore happen in
    the engine driver, outside any ``@hot_path`` function.  Wrapping the
    draw site in ``kernel_scope("segmented_inverse_cdf")`` keeps the
    sanitizer's per-kernel attribution pointing at the kernel the
    uniforms are destined for.  With no observer installed it returns the
    shared :data:`_NULL_SCOPE`, so an unobserved ``with`` costs one flag
    check and no allocation.
    """
    if not _observer_installed:
        return _NULL_SCOPE
    return _observed_scope(name)


@contextmanager
def _observed_scope(name: str) -> Iterator[None]:
    """The observed form of :func:`kernel_scope`: push/pop ``name``."""
    _kernel_stack.append(name)
    try:
        yield
    finally:
        if _kernel_stack and _kernel_stack[-1] == name:
            _kernel_stack.pop()


def hot_path(fn: F) -> F:
    """Mark ``fn`` as a vectorised hot path (enforced by reprolint HOT001)."""

    @functools.wraps(fn)
    def wrapper(*args: object, **kwargs: object) -> object:
        if not _observer_installed:
            return fn(*args, **kwargs)
        _kernel_stack.append(fn.__name__)
        try:
            return fn(*args, **kwargs)
        finally:
            _kernel_stack.pop()

    wrapper.__hot_path__ = True  # type: ignore[attr-defined]
    wrapper.__wrapped_kernel__ = fn  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]


def is_hot_path(fn: object) -> bool:
    """Whether ``fn`` was marked with :func:`hot_path`."""
    return bool(getattr(fn, "__hot_path__", False))


__all__ = [
    "hot_path",
    "is_hot_path",
    "kernel_scope",
    "set_kernel_observation",
    "current_kernel",
]

"""Cooperative cancellation for long enumerations.

One deadline covers a run.  A caller opens it as a scope,
``with CancellationToken(timeout): f(...)``, and every long loop of the
library calls ``check()``, which raises ``Cancelled`` once the token of the
innermost open scope has expired.  The current token lives in a context
variable, as ``decimal.localcontext`` keeps its context: leaving a scope, also
by an exception, restores the token that was current before it, and a token
may be entered again after its scope ends.  With no scope open ``check()``
never cancels, and neither does a timeout of ``None`` or ``inf``; a timeout of
0 expires at once.
"""

from __future__ import annotations

import math
import time
from contextvars import ContextVar

from .errors import Cancelled, DomainError


class CancellationToken:
    """Deadline-based token; ``check()`` raises ``Cancelled`` once expired."""

    def __init__(self, timeout: float | None = None):
        if timeout is not None and math.isnan(timeout):  # now > nan is never true
            raise DomainError("timeout must be a number of seconds, not nan")
        self._deadline = None if timeout is None else time.monotonic() + timeout
        self._cancelled = False
        self._resets = []  # one per open scope of this token, innermost last

    def cancel(self) -> None:
        self._cancelled = True

    def check(self) -> None:
        if self._cancelled:
            raise Cancelled("operation cancelled")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise Cancelled("operation timed out")

    def __enter__(self) -> "CancellationToken":
        self._resets.append(_current.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _current.reset(self._resets.pop())


_current: ContextVar[CancellationToken | None] = ContextVar("coulombkit_deadline", default=None)


def check() -> None:
    """Raise ``Cancelled`` once the token of the innermost open scope has expired."""
    if (token := _current.get()) is not None:
        token.check()

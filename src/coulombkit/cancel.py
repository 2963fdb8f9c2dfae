"""Cooperative cancellation for long enumerations.

Library operations that loop over unbounded-looking search regions accept an
optional token and call ``check()`` inside the loop.  A ``None`` token never
cancels, and neither does a timeout of ``inf``; a timeout of 0 expires at once.
"""

from __future__ import annotations

import math
import time

from .errors import Cancelled, DomainError


class CancellationToken:
    """Deadline-based token; ``check()`` raises ``Cancelled`` once expired."""

    def __init__(self, timeout: float | None = None):
        if timeout is not None and math.isnan(timeout):  # now > nan is never true
            raise DomainError("timeout must be a number of seconds, not nan")
        self._deadline = None if timeout is None else time.monotonic() + timeout
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    def check(self) -> None:
        if self._cancelled:
            raise Cancelled("operation cancelled")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise Cancelled("operation timed out")


def check(token: CancellationToken | None) -> None:
    if token is not None:
        token.check()

"""Cancellation tokens: deadlines and explicit cancel."""

import math

import pytest

from coulombkit.cancel import CancellationToken, check
from coulombkit.errors import Cancelled, DomainError


@pytest.mark.parametrize("timeout", [math.nan, -math.nan])
def test_nan_timeout_is_rejected(timeout):
    # now > nan is never true, so a NaN deadline would never expire
    with pytest.raises(DomainError, match="not nan"):
        CancellationToken(timeout)


def test_timeouts_keep_their_meaning():
    check(None)
    CancellationToken().check()
    CancellationToken(math.inf).check()
    with pytest.raises(Cancelled, match="timed out"):
        CancellationToken(-1.0).check()
    token = CancellationToken(0)
    with pytest.raises(Cancelled, match="timed out"):
        while True:  # a deadline of now expires at the clock's next tick
            token.check()
    token = CancellationToken(60)
    token.cancel()
    with pytest.raises(Cancelled, match="cancelled"):
        check(token)

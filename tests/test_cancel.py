"""Cancellation tokens: deadlines, explicit cancel, and the scope that makes one current."""

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
    check()
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
    with pytest.raises(Cancelled, match="cancelled"), token:
        check()


def test_no_open_scope_never_cancels():
    expired = CancellationToken(0)
    expired.cancel()
    check()
    with pytest.raises(Cancelled), expired:
        check()
    check()


def test_a_nested_scope_restores_the_outer_token():
    live, cancelled = CancellationToken(), CancellationToken()
    cancelled.cancel()
    with cancelled:
        with live:
            check()
        with pytest.raises(Cancelled):
            check()
    with live:
        with pytest.raises(Cancelled, match="cancelled"), cancelled:
            check()  # the block raises, and the scope still closes
        check()
    check()


def test_a_token_can_be_entered_again():
    token = CancellationToken()
    with token as entered:
        assert entered is token
        with token:
            check()
        check()
    token.cancel()
    with pytest.raises(Cancelled), token:
        check()
    check()

"""Tests for the cooperative cancellation/deadline token."""

import time

import pytest

from repro.utils.cancellation import CancelToken
from repro.utils.errors import (
    DeadlineExceededError,
    RequestCancelledError,
    ServiceError,
)


class TestConstruction:
    def test_default_token_never_finishes(self):
        token = CancelToken()
        assert token.deadline is None
        assert token.remaining() is None
        assert not token.cancelled
        assert not token.expired
        assert not token.finished
        token.check()  # free

    def test_with_timeout_none_means_unbounded(self):
        token = CancelToken.with_timeout(None)
        assert token.deadline is None
        token.check()

    def test_with_timeout_sets_monotonic_deadline(self):
        before = time.monotonic()
        token = CancelToken.with_timeout(60.0)
        assert token.deadline is not None
        assert token.deadline >= before + 59.0
        remaining = token.remaining()
        assert 0 < remaining <= 60.0

    @pytest.mark.parametrize("seconds", [0, 0.0, -1, -0.5, float("nan")])
    def test_non_positive_timeout_rejected(self, seconds):
        with pytest.raises(ValueError, match="must be positive"):
            CancelToken.with_timeout(seconds)

    def test_name_is_carried(self):
        assert CancelToken.with_timeout(1.0, name="req-7").name == "req-7"


class TestCancellation:
    def test_cancel_flips_once_and_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.finished
        assert token.reason == "first"

    def test_check_raises_request_cancelled_with_name_and_reason(self):
        token = CancelToken(name="req-3")
        token.cancel("client gave up")
        with pytest.raises(RequestCancelledError, match="req-3") as excinfo:
            token.check()
        assert "client gave up" in str(excinfo.value)
        # Cancellation errors are part of the service failure surface.
        assert isinstance(excinfo.value, ServiceError)

    def test_check_is_repeatable(self):
        token = CancelToken()
        token.cancel()
        for _ in range(3):
            with pytest.raises(RequestCancelledError):
                token.check()


class TestDeadlines:
    def test_expired_deadline_raises_deadline_exceeded(self):
        token = CancelToken(deadline=time.monotonic() - 0.01, name="req-9")
        assert token.expired
        assert token.finished
        assert token.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="req-9"):
            token.check()

    def test_future_deadline_is_free(self):
        token = CancelToken.with_timeout(60.0)
        token.check()
        assert not token.finished

    def test_explicit_cancel_wins_over_expired_deadline(self):
        # A client that cancelled should see its own reason even if the
        # deadline also lapsed while the request sat queued.
        token = CancelToken(deadline=time.monotonic() - 0.01)
        token.cancel("client cancelled")
        with pytest.raises(RequestCancelledError, match="client cancelled"):
            token.check()


class TestDeterminismContract:
    def test_token_is_not_picklable(self):
        """The token contains a lock and must never cross a process
        boundary; process-sharded fleets check between shards only."""
        import pickle

        with pytest.raises(Exception):
            pickle.dumps(CancelToken())

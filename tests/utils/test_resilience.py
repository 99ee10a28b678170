"""Resilience primitives: retry determinism and deadlines."""

import pytest

from repro.utils.resilience import Deadline, DeadlineExceeded, RetryPolicy


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_delays_are_seed_deterministic(self):
        policy = RetryPolicy(max_attempts=6, seed=42)
        assert list(policy.delays()) == list(policy.delays())
        assert list(RetryPolicy(max_attempts=6, seed=42).delays()) == list(policy.delays())
        assert list(RetryPolicy(max_attempts=6, seed=43).delays()) != list(policy.delays())

    def test_delays_bounded_by_max_delay_and_jitter(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=10.0, max_delay=5.0, jitter=0.1
        )
        for delay in policy.delays():
            assert delay <= 5.0 * 1.1

    def test_call_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        result = RetryPolicy(max_attempts=5).call(flaky, sleep=slept.append)
        assert result == "ok"
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_call_exhausts_attempts_and_reraises(self):
        def always():
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            RetryPolicy(max_attempts=3).call(always, sleep=lambda _: None)

    def test_call_does_not_retry_unlisted_exceptions(self):
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5).call(boom, sleep=lambda _: None)
        assert len(calls) == 1

    def test_call_stops_at_deadline(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        calls = []

        def failing():
            calls.append(1)
            clock.advance(2.0)  # past the deadline after the first try
            raise OSError("slow failure")

        with pytest.raises(OSError):
            RetryPolicy(max_attempts=5).call(
                failing, sleep=lambda _: None, deadline=deadline
            )
        assert len(calls) == 1

    def test_on_retry_callback_sees_each_failure(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise OSError("again")
            return True

        RetryPolicy(max_attempts=4).call(
            flaky, sleep=lambda _: None, on_retry=lambda a, e: seen.append((a, str(e)))
        )
        assert [a for a, _ in seen] == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        clock.advance(3.0)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock.advance(3.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded):
            deadline.check("chunk")

    def test_unlimited_never_expires(self):
        deadline = Deadline.unlimited()
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()
        deadline.check()  # never raises

    def test_extend_pushes_expiry(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(0.9)
        deadline.extend(2.0)
        clock.advance(1.0)
        assert not deadline.expired()

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

    def test_check_passes_until_the_budget_is_spent(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        deadline.check("job")  # fresh budget: no raise
        clock.advance(1.999)
        deadline.check("job")
        clock.advance(0.001)
        with pytest.raises(DeadlineExceeded, match="job exceeded its 2.0s deadline"):
            deadline.check("job")

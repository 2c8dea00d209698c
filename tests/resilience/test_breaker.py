"""Circuit-breaker state machine, driven by a fake clock."""

from repro.resilience.breaker import CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(clock, **kw):
    kw.setdefault("failure_threshold", 3)
    kw.setdefault("recovery_time", 10.0)
    return CircuitBreaker(clock=clock, **kw)


class TestStateMachine:
    def test_closed_allows(self):
        b = make(FakeClock())
        assert b.state == "closed"
        assert b.allow()

    def test_trips_after_consecutive_failures(self):
        b = make(FakeClock())
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open"
        assert b.trips == 1

    def test_success_resets_the_streak(self):
        b = make(FakeClock())
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"

    def test_open_sheds_until_recovery(self):
        clock = FakeClock()
        b = make(clock)
        for _ in range(3):
            b.record_failure()
        assert not b.allow()
        assert b.shed == 1
        clock.now = 9.9
        assert not b.allow()

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        b = make(clock)
        for _ in range(3):
            b.record_failure()
        clock.now = 10.0
        assert b.state == "half_open"
        assert b.allow()          # the probe
        assert not b.allow()      # siblings still shed
        b.record_success()
        assert b.state == "closed"
        assert b.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        b = make(clock)
        for _ in range(3):
            b.record_failure()
        clock.now = 10.0
        assert b.allow()
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        clock.now = 20.0
        assert b.allow()  # recovery clock restarted from the reopen


class TestSnapshot:
    def test_reports_counters_and_state(self):
        clock = FakeClock()
        b = make(clock)
        b.record_success()
        for _ in range(3):
            b.record_failure()
        b.allow()
        snap = b.snapshot()
        assert snap["state"] == "open"
        assert snap["successes"] == 1
        assert snap["failures"] == 3
        assert snap["shed"] == 1
        assert snap["trips"] == 1
        assert snap["failure_threshold"] == 3

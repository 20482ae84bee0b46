"""The load generator's accounting under a fake clock."""

import asyncio
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from loadgen import Exchange, Phase, closed_loop, open_loop  # noqa: E402


class FakeClock:
    """Time moves only when a sender serves or the generator sleeps."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, seconds: float) -> None:
        self.now += seconds
        await asyncio.sleep(0)

    def sender(self, service: float, status: int = 200):
        async def send(i: int):
            self.now += service
            await asyncio.sleep(0)
            return status, b"{}"
        return send


def run_open(service: float, rate: float, count: int) -> Phase:
    clock = FakeClock()
    return asyncio.run(open_loop("open", [clock.sender(service)], rate, count,
                                 clock=clock, sleep=clock.sleep))


def test_open_loop_times_requests_from_their_due_time():
    # Due every 10 ms, served in 25 ms on one connection: each request
    # waits for the one before it, and that wait is part of its latency.
    phase = run_open(service=0.025, rate=100.0, count=4)
    assert [ex.due for ex in phase.exchanges] == pytest.approx([0.0, 0.01, 0.02, 0.03])
    assert phase.latencies() == pytest.approx([0.025, 0.040, 0.055, 0.070])
    assert phase.lateness() == pytest.approx([0.0, 0.015, 0.030, 0.045])


def test_open_loop_waits_for_due_time_when_ahead():
    phase = run_open(service=0.004, rate=100.0, count=3)
    assert phase.latencies() == pytest.approx([0.004] * 3)
    assert phase.lateness() == pytest.approx([0.0] * 3)
    assert [ex.sent for ex in phase.exchanges] == pytest.approx([0.0, 0.01, 0.02])


def test_open_loop_spreads_due_requests_over_free_connections():
    clock = FakeClock()
    phase = asyncio.run(open_loop(
        "open", [clock.sender(0.0), clock.sender(0.0)], 50.0, 6,
        clock=clock, sleep=clock.sleep,
    ))
    assert sorted(ex.index for ex in phase.exchanges) == list(range(6))
    assert phase.counts()["sent"] == 6


def test_closed_loop_sends_next_request_when_last_returns():
    clock = FakeClock()
    phase = asyncio.run(closed_loop("closed", [clock.sender(0.025)], 0.1, clock=clock))
    assert [ex.index for ex in phase.exchanges] == [0, 1, 2, 3]
    assert phase.latencies() == pytest.approx([0.025] * 4)
    assert phase.elapsed == pytest.approx(0.1)


def test_counts_classify_outcomes_by_status():
    phase = Phase("p", exchanges=[
        Exchange(i, 0.0, 0.0, 1.0, status, b"")
        for i, status in enumerate((200, 200, 429, 503, 504, 500, 0))
    ])
    assert phase.counts() == {"sent": 7, "served": 2, "rejected": 2,
                              "expired": 1, "failed": 2}
    assert phase.latencies() == [1.0, 1.0]

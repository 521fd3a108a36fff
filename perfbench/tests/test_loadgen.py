"""Open-loop schedule: lateness is timed from the due time, stalls included."""

import asyncio
import json

import pytest

from perfbench.loadgen import mask_frame, run_schedule
from repro.serve.http import _ws_read_frame


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_injected_stall_makes_later_sends_late():
    clock = FakeClock()

    def sleep(seconds):
        clock.now += seconds

    sent = []

    def send(index):
        sent.append((index, clock.now))
        if index == 3:
            clock.now += 0.25  # the generator stalls while sending record 3

    due = [i * 0.1 for i in range(10)]
    late = run_schedule(due, send, clock, sleep)
    assert [i for i, _ in sent] == list(range(10))
    assert late[:3] == pytest.approx([0.0, 0.0, 0.0])
    # Record 3 finished sending 0.25 s after it was due; records 4 and 5
    # were due inside the stall and went out in one catch-up burst.
    assert late[3] == pytest.approx(0.25)
    assert late[4] == pytest.approx(0.15)
    assert late[5] == pytest.approx(0.05)
    assert late[6:] == pytest.approx([0.0] * 4)


def test_schedule_never_sends_early():
    clock = FakeClock()

    def sleep(seconds):
        clock.now += seconds

    times = []
    due = [0.5 + i / 300 for i in range(50)]
    run_schedule(due, lambda i: times.append(clock.now), clock, sleep)
    assert all(t >= d for t, d in zip(times, due))


def test_masked_frame_reads_back_on_the_server():
    payload = json.dumps({"ctx_id": "a" * 300}).encode()

    async def roundtrip():
        reader = asyncio.StreamReader()
        reader.feed_data(mask_frame(payload, b"\x01\x02\x03\x04"))
        reader.feed_eof()
        return await _ws_read_frame(reader, 1 << 20)

    opcode, data = asyncio.run(roundtrip())
    assert (opcode, data) == (1, payload)

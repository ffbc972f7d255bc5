"""Wall-clock timer semantics on the real clock: one timer thread per
process, and a due callback on a thread of its own."""

import sys
import threading
import time

from repro.net import clock as clock_module
from repro.net.clock import WallClock


def _recorder():
    """(callback factory, fired list of (tag, monotonic time), lock)."""
    fired = []
    lock = threading.Lock()

    def make(tag):
        def fn():
            with lock:
                fired.append((tag, time.monotonic()))

        return fn

    return make, fired, lock


def _wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def test_a_timer_fires_once_and_no_earlier_than_its_delay():
    make, fired, _ = _recorder()
    armed = time.monotonic()
    WallClock().call_later(0.1, make("a"))
    assert _wait_for(lambda: fired)
    time.sleep(0.2)
    assert len(fired) == 1
    assert fired[0][1] - armed >= 0.1


def test_cancel_before_due_never_fires_and_cancel_after_fire_is_a_no_op():
    make, fired, _ = _recorder()
    clock = WallClock()
    clock.call_later(0.05, make("cancelled")).cancel()
    late = clock.call_later(0.0, make("fired"))
    assert _wait_for(lambda: fired)
    late.cancel()
    time.sleep(0.15)
    assert [tag for tag, _ in fired] == ["fired"]


def test_timers_fire_in_due_order():
    make, fired, _ = _recorder()
    clock = WallClock()
    for tag, delay in (("c", 0.3), ("a", 0.1), ("d", 0.4), ("b", 0.2)):
        clock.call_later(delay, make(tag))
    assert _wait_for(lambda: len(fired) == 4)
    assert [tag for tag, _ in fired] == ["a", "b", "c", "d"]


def test_a_timer_armed_before_the_head_the_thread_sleeps_on_fires_on_time():
    make, fired, _ = _recorder()
    clock = WallClock()
    head = clock.call_later(1.5, make("late"))
    time.sleep(0.05)  # the timer thread is now asleep until the 1.5 s head
    armed = time.monotonic()
    clock.call_later(0.05, make("early"))
    assert _wait_for(lambda: fired, timeout=1.0)
    head.cancel()
    (tag, at), = fired
    assert tag == "early" and 0.05 <= at - armed < 0.5


def test_a_blocking_callback_does_not_delay_a_later_timer():
    make, fired, _ = _recorder()
    release = threading.Event()
    clock = WallClock()
    clock.call_later(0.0, lambda: release.wait(1.0))
    armed = time.monotonic()
    clock.call_later(0.05, make("next"))
    assert _wait_for(lambda: fired, timeout=0.9)
    assert fired[0][1] - armed < 0.5
    release.set()


def test_concurrent_arming_and_cancelling_loses_no_timer():
    """Workers outnumbering the cores arm and cancel at once under a
    short switch interval: every kept timer fires exactly once, no
    cancelled one fires, and the cancelled count matches the heap."""
    fired = []
    lock = threading.Lock()
    clock = WallClock()

    def record(key):
        with lock:
            fired.append(key)

    def worker(w):
        for i in range(200):
            if i % 2:
                clock.call_later(0.2 + i * 1e-3, lambda: record("cancelled")).cancel()
            else:
                clock.call_later(i * 1e-4, lambda k=(w, i): record(k))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=2.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert _wait_for(lambda: len(fired) >= 400)
    time.sleep(0.4)  # past every cancelled timer's due time
    assert sorted(fired) == sorted((w, i) for w in range(4) for i in range(0, 200, 2))
    timers = clock_module._TIMERS
    with timers._cv:
        assert timers._cancelled == sum(1 for item in timers._heap if item[2] is None)


def test_cancelled_timers_are_reclaimed_without_starting_threads(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    clock = WallClock()
    kept = []
    for i in range(10_000):
        handle = clock.call_later(60.0 + i * 1e-3, lambda: None)
        if i % 100:
            handle.cancel()
        else:
            kept.append(handle)
    timers = clock_module._TIMERS
    with timers._cv:
        size = len(timers._heap)
        live = sum(1 for item in timers._heap if item[2] is not None)
    for handle in kept:
        handle.cancel()
    assert live >= len(kept)
    assert size <= 64 + 2 * live
    assert len(started) <= 1  # at most the timer thread itself

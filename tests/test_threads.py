"""The ordered thread map behind the sampled sweeps."""

import os
import sys
import threading
import time

import pytest

from hapdc._threads import ordered_map


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the process may run on to ``count`` of them."""
    def set_count(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)))
    return set_count


def test_results_come_back_in_item_order(cpus):
    cpus(4)

    def square(item):
        time.sleep(0.002 * (item % 3))  # later items often finish first
        return item * item

    assert ordered_map(square, (item for item in range(40))) == [
        item * item for item in range(40)]


def test_a_failure_stops_the_hand_out_and_raises_its_exception(cpus):
    # item 2 fails only once item 3 runs on the other thread, and item 3
    # outlasts the failure; no item after 3 may start
    cpus(2)
    started, third_runs = [], threading.Event()

    def call(item):
        started.append(item)
        if item == 2:
            assert third_runs.wait(10)
            raise ValueError("item 2")
        if item == 3:
            third_runs.set()
            time.sleep(0.2)
        return item

    with pytest.raises(ValueError, match="item 2"):
        ordered_map(call, range(10))
    assert sorted(started) == [0, 1, 2, 3]


def test_the_lower_index_failure_is_raised(cpus):
    # item 1 fails first in time, item 0 after it
    cpus(2)
    second_failed = threading.Event()

    def call(item):
        if item == 1:
            second_failed.set()
            raise KeyError(item)
        assert second_failed.wait(10)
        time.sleep(0.05)
        raise ValueError("item 0")

    with pytest.raises(ValueError, match="item 0"):
        ordered_map(call, range(2))


def test_one_item_one_cpu_or_most_one_starts_no_thread(cpus, monkeypatch):
    monkeypatch.setattr(threading, "Thread",
                        lambda **kw: pytest.fail("a thread was started"))
    caller, seen = threading.get_ident(), set()

    def call(item):
        seen.add(threading.get_ident())
        return -item

    cpus(4)
    assert ordered_map(call, []) == []
    assert ordered_map(call, iter([5])) == [-5]
    assert ordered_map(call, range(6), most=1) == [0, -1, -2, -3, -4, -5]
    cpus(1)
    assert ordered_map(call, range(6)) == [0, -1, -2, -3, -4, -5]
    assert seen == {caller}


def test_the_caller_thread_works_alongside_one_other(cpus):
    # each call waits for the other, so both must run at once
    cpus(4)
    meet = threading.Barrier(2, timeout=10)

    def call(item):
        meet.wait()
        return threading.get_ident()

    idents = ordered_map(call, range(2))
    assert len(set(idents)) == 2 and threading.get_ident() in idents


def test_each_item_is_called_once_under_fast_thread_switches(cpus):
    # more threads than cores, switching every microsecond: an index handed
    # out twice or a result lost shows in the calls or the results
    cpus(8)
    calls, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = ordered_map(lambda item: calls.append(item) or -item,
                              range(3000))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(3000))
    assert results == [-item for item in range(3000)]

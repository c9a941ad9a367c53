"""Independent calls on the usable CPUs, with no ``concurrent.futures``."""

import os
import threading


def ordered_map(fn, items, most: int | None = None) -> list:
    """``[fn(item) for item in items]`` on up to one thread per usable CPU
    and ``most``, the caller's among them.  Items go out in order, none
    after a call raises; when the calls in flight end, the lowest failed
    index's exception is raised, as the plain loop would.  With one CPU,
    one item or ``most=1`` no thread starts."""
    items, failed, lock = list(items), {}, threading.Lock()
    results, order = [None] * len(items), iter(range(len(items)))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

    def work():
        while True:
            with lock:
                index = None if failed else next(order, None)
            if index is None:
                return
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # raised on the caller's thread
                failed[index] = exc

    threads = [threading.Thread(target=work)
               for _ in range(min(cpus, most or cpus, len(items)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failed:
        raise failed[min(failed)]
    return results

"""The shared tables of :mod:`repro.memo`: exact parse keys, the bounded
intern table and the once-per-key cache under racing threads."""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter

import pytest

from repro.memo import InternTable, exact_key, once_per_key


@pytest.mark.parametrize(
    "a, b",
    [(1, 1.0), (True, 1), (0.0, -0.0), ("1", 1), ({"x": 1}, {"x": 1.0}), ([1], (1,))],
)
def test_exact_keys_tell_equal_values_of_other_types_apart(a, b):
    assert exact_key(a) != exact_key(b)
    assert exact_key(a) == exact_key(a)


def test_a_value_json_cannot_produce_has_no_exact_key():
    class Flag(int):
        pass

    assert exact_key({"x": Flag(1)}) is None
    assert exact_key({"x": object()}) is None


def test_intern_table_keeps_the_newest_keys_up_to_its_bound():
    table = InternTable(4)
    built = [table.get(k, lambda k=k: [k]) for k in range(10)]
    assert len(table) == 4
    assert table.get(9, lambda: None) is built[9]
    assert table.get(0, lambda: "rebuilt") == "rebuilt"


def test_intern_table_keeps_nothing_for_a_failed_build():
    table = InternTable(4)

    def fail():
        raise ValueError("bad document")

    with pytest.raises(ValueError):
        table.get("k", fail)
    assert len(table) == 0


def test_racing_threads_compute_each_key_once():
    calls: Counter = Counter()
    lock = threading.Lock()

    @once_per_key(maxsize=256)
    def compute(key):
        with lock:
            calls[key] += 1
        return object()

    # more threads than the cores of the hosts this runs on
    n_threads, keys = 10, list(range(200))
    barrier = threading.Barrier(n_threads)
    seen: list = [None] * n_threads

    def ask(k):
        order = keys[:]
        random.Random(k).shuffle(order)
        barrier.wait(timeout=60)
        seen[k] = {key: compute(key) for key in order}

    old_interval = sys.getswitchinterval()
    threads = [threading.Thread(target=ask, args=(k,)) for k in range(n_threads)]
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == Counter(keys)
    for key in keys:
        assert len({id(results[key]) for results in seen}) == 1


def test_once_per_key_forgets_the_oldest_past_its_size():
    calls: list = []

    @once_per_key(maxsize=3)
    def compute(key):
        calls.append(key)
        return key * 2

    assert [compute(k) for k in (1, 2, 3, 1, 4)] == [2, 4, 6, 2, 8]
    assert calls == [1, 2, 3, 4]  # 1 was asked for again, so 2 went
    assert compute(1) == 2 and compute(2) == 4
    assert calls == [1, 2, 3, 4, 2]
    assert compute.__wrapped__(5) == 10

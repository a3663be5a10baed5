"""Per-object memos for the frozen spec dataclasses.

:class:`~repro.workloads.profiles.BenchProfile`,
:class:`~repro.workloads.spec.WorkloadSpec`,
:class:`~repro.engine.spec.RunSpec` and
:class:`~repro.core.config.MachineConfig` are frozen, so a value derived
from their fields can never go stale: each computes its identity (a
profile's field mapping, a workload's hash, a run's content keys) or a
machine's resolved memory hierarchy at most once per object.  Two rules
keep the memos invisible:

* a memo lives in the instance ``__dict__`` under a name that is not a
  field, so ``==``, ``repr``, ``dataclasses.fields``/``asdict`` and
  ``replace()`` never see it — ``replace`` builds a new object, which
  starts with no memos;
* a pickle (or copy) carries the fields only: ``hash()`` of a ``str`` is
  salted per interpreter, so a memoized hash is valid only in the
  process that computed it.

Two shared tables sit beside the per-object memos.  :class:`InternTable`
hands out one object per exact input document, so the profiles and
workloads a job server parses share those memos across requests, and
:func:`once_per_key` computes a slow, thread-shared value once per key
however many threads first ask for it together.
"""

from __future__ import annotations

import functools
import marshal
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import fields
from typing import Callable, TypeVar

T = TypeVar("T")


class Memoized:
    """Mixin for frozen dataclasses that memoize values derived from
    their fields."""

    __slots__ = ()

    def _memo(self, name: str, compute: Callable[[], T]) -> T:
        """``compute()``, evaluated once per object and kept as ``name``."""
        memos = self.__dict__
        try:
            return memos[name]
        except KeyError:
            value = memos[name] = compute()
            return value

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def exact_key(doc) -> bytes | None:
    """``doc``'s content as bytes that are equal only for documents of
    equal values *and* types, or ``None`` for a value JSON does not
    produce.

    ``1``, ``1.0`` and ``True`` compare and hash equal, and so do
    ``0.0`` and ``-0.0``, but each serializes differently, so an object
    built from one must never be handed out for another (see
    :meth:`~repro.workloads.spec.WorkloadSpec.canonical_json`).
    ``marshal`` writes each value's type and a float's bits; format 2
    writes no back-references, so the bytes depend on the content
    alone.  It refuses subclasses of the built-in types.
    """
    try:
        return marshal.dumps(doc, 2)
    except ValueError:
        return None


class InternTable:
    """One shared object per key, for at most ``bound`` keys.

    :meth:`get` returns the object built for an earlier equal key, or
    builds, keeps and returns a new one; past ``bound`` keys the oldest
    is dropped, so inputs a client chooses cannot grow the table.  A
    build that raises keeps nothing.  Two threads that miss on one key
    together may each build it: the objects are equal and frozen, and
    each keeps its own memos.
    """

    __slots__ = ("bound", "_table")

    def __init__(self, bound: int):
        self.bound = bound
        self._table: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, key, build: Callable[[], T]) -> T:
        try:
            return self._table[key]
        except KeyError:
            pass
        value = self._table[key] = build()
        if len(self._table) > self.bound:
            self._table.popitem(last=False)
        return value


def once_per_key(maxsize: int):
    """Decorate ``fn(key)`` with a cache of its last ``maxsize`` results
    in which threads that miss on one key together compute it once.

    The first thread to ask for a key computes it; the others wait for
    its result, or its exception, which is not kept.  ``__wrapped__`` is
    the undecorated function.
    """

    def decorate(fn):
        lock = threading.Lock()
        results: OrderedDict = OrderedDict()  # key -> Future

        @functools.wraps(fn)
        def cached(key):
            with lock:
                future = results.get(key)
                mine = future is None
                if mine:
                    future = results[key] = Future()
                    if len(results) > maxsize:
                        results.popitem(last=False)
                else:
                    results.move_to_end(key)
            if mine:
                try:
                    future.set_result(fn(key))
                except BaseException as exc:
                    with lock:
                        if results.get(key) is future:
                            del results[key]
                    future.set_exception(exc)
                    raise
            return future.result()

        return cached

    return decorate

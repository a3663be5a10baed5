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
"""

from __future__ import annotations

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

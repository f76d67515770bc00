"""Dispatch backends: *where* grid cells execute, behind one interface.

The campaign layer never talks to executors directly; it hands a
picklable function + payload list to a :class:`DispatchBackend` and
consumes results lazily, **in submission order**.  That single
contract carries every determinism guarantee — output depends only on
the payloads, never on the backend — and sizes
the seam for remote fan-out (an SSH/cluster backend slots in by
implementing one generator method; nothing above the seam changes).

Two backends ship today:

* :class:`SerialBackend` — inline, zero processes, easiest to debug;
  results stream one cell at a time so a campaign can cache each cell
  before the next one starts (what makes a SIGTERM mid-sweep
  recoverable at cell granularity).
* :class:`ProcessPoolBackend` — ``ProcessPoolExecutor`` fan-out for
  CPU-bound pure-Python simulation; ``Executor.map`` preserves input
  order, so results stream back in grid order at any worker count.

Both stream lazily: consuming k results then abandoning the iterator
(crash, test harness) leaves exactly the consumed cells observable.
"""

from __future__ import annotations

import concurrent.futures
import typing


class DispatchBackend:
    """How cells run.  Subclasses implement :meth:`dispatch` only.

    Contract: ``dispatch(fn, payloads)`` lazily yields
    ``fn(payload)`` for each payload **in input order**.  ``fn`` and
    the payloads must be picklable for out-of-process backends
    (module-level functions and plain dicts — what the runner ships).
    Exceptions raised by ``fn`` propagate to the consumer; backends
    never swallow or reorder.
    """

    def dispatch(self, fn: typing.Callable[[dict], typing.Any],
                 payloads: typing.Sequence[dict]
                 ) -> typing.Iterator[typing.Any]:
        raise NotImplementedError


class SerialBackend(DispatchBackend):
    """Run every cell inline in the calling process."""

    def dispatch(self, fn, payloads):
        for payload in payloads:
            yield fn(payload)


class ProcessPoolBackend(DispatchBackend):
    """Fan cells out over a local ``ProcessPoolExecutor``."""

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def dispatch(self, fn, payloads):
        if not payloads:
            return
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers) as pool:
            yield from pool.map(fn, payloads)


def make_backend(workers: int = 1) -> DispatchBackend:
    """The backend for ``workers``: :class:`SerialBackend` at 1 (no pool
    overhead, same bytes), :class:`ProcessPoolBackend` above."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return SerialBackend() if workers == 1 else ProcessPoolBackend(workers)

"""The engine lane: one holder at a time, waiters served in arrival order.

A private-context run is interpreter-bound, so two side by side only
trade the GIL; the engine runs them in turn (docs/SERVING.md "Concurrency
model").  A bare ``threading.Lock`` would let a finishing thread's next
query barge past everyone waiting; ``release`` here hands the lane
straight to the longest waiter.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable


class FifoLane:
    """A width-one lock with strict FIFO hand-off and an abortable wait."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._waiters: "deque[threading.Event]" = deque()
        self._held = False

    @property
    def waiting(self) -> int:
        """How many callers are queued behind the holder right now."""
        return len(self._waiters)

    def acquire(self, check: "Callable[[], float | None]") -> None:
        """Take the lane, after everyone who asked before.

        ``check`` runs before every wait: it raises to give up (the
        caller leaves the queue, the exception propagates) or returns the
        seconds to wait before it runs again (``None``: until handed over).
        """
        with self._mutex:
            if not self._held:  # free, hence nobody queued either
                self._held = True
                return
            turn = threading.Event()
            self._waiters.append(turn)
        try:
            while not turn.wait(check()):
                pass
        except BaseException:
            with self._mutex:
                if turn.is_set():  # handed over while giving up: pass it on
                    self._release()
                else:
                    self._waiters.remove(turn)
            raise

    def release(self) -> None:
        with self._mutex:
            self._release()

    def _release(self) -> None:
        if self._waiters:
            self._waiters.popleft().set()  # stays held: no gap to barge into
        else:
            self._held = False

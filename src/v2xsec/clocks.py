"""The one clock type: a manually driven millisecond clock.

Security components never read wall time; they take a ``VirtualClock`` so
that simulations drive time deterministically and tests can replay exact
schedules. There is no wall-time clock.
"""

from __future__ import annotations


class VirtualClock:
    """Manually driven clock for deterministic runs.

    `set` and `advance` never move time backwards; attempts to do so are
    clamped so that readers always observe a nondecreasing sequence.
    """

    __slots__ = ("_now_ms",)

    def __init__(self, start_ms: int = 0) -> None:
        self._now_ms = int(start_ms)

    @property
    def now(self) -> int:
        return self._now_ms

    def advance(self, delta_ms: int) -> int:
        if delta_ms > 0:
            self._now_ms += int(delta_ms)
        return self._now_ms

    def set(self, now_ms: int) -> int:
        if now_ms > self._now_ms:
            self._now_ms = int(now_ms)
        return self._now_ms

"""Interception-point framework for wiring security handlers into a stack.

Modeled on packet-filter hook chains: the communication stack exposes fixed
interception layer points (ILPs), security modules register handlers at those
points, and every message passing a point runs through the matching handlers
in priority order. A handler votes with a verdict: pass the message on
(unchanged or modified), reinsert it at the same point, or drop it.

Two invariants the rest of the system leans on:

* transparency: with no handlers registered, dispatch is the identity and the
  stack behaves exactly like an unsecured one;
* fail closed: a handler that raises is treated as a drop, never as a pass.

A convergence adapter binds the abstract stack to a concrete link layer; it
owns frame encoding and executes the one stack command, changing the
link-layer address on a pseudonym change.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable

logger = logging.getLogger(__name__)

MAX_REINSERTS = 4


class HookError(Exception):
    pass


class DuplicateHandlerError(HookError):
    pass


class IlpPosition(IntEnum):
    """Interception layer points, bottom of the stack first."""

    ABOVE_MAC = 0
    BELOW_NETWORK = 1
    ABOVE_NETWORK = 2
    BELOW_APPLICATION = 3


# Order a message traverses the points when moving up toward the application.
UP_ORDER = (
    IlpPosition.ABOVE_MAC,
    IlpPosition.BELOW_NETWORK,
    IlpPosition.ABOVE_NETWORK,
    IlpPosition.BELOW_APPLICATION,
)
DOWN_ORDER = tuple(reversed(UP_ORDER))


class Direction(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True, slots=True)
class Message:
    """A stack message: 16-bit type tag plus opaque body bytes.

    Handlers that need the decoded content parse the body themselves; the
    message carries nothing that would not cross a real wire.
    """

    type_tag: int
    body: bytes

    def to_bytes(self) -> bytes:
        return struct.pack(">H", self.type_tag) + self.body


class Verdict(Enum):
    PASS_UNCHANGED = "pass_unchanged"
    PASS_MODIFIED = "pass_modified"
    REINSERT = "reinsert"
    DROP = "drop"


@dataclass(frozen=True)
class Disposition:
    """A handler's verdict, plus the replacement message when one applies."""

    verdict: Verdict
    message: Message | None = None

    @classmethod
    def ok(cls) -> "Disposition":
        return _PASS

    @classmethod
    def modified(cls, message: Message) -> "Disposition":
        return cls(Verdict.PASS_MODIFIED, message)

    @classmethod
    def reinsert(cls, message: Message | None = None) -> "Disposition":
        return cls(Verdict.REINSERT, message)

    @classmethod
    def drop(cls) -> "Disposition":
        return _DROP


_PASS = Disposition(Verdict.PASS_UNCHANGED)
_DROP = Disposition(Verdict.DROP)

Handler = Callable[[Message, Direction], Disposition]


@dataclass(frozen=True)
class HandlerRegistration:
    """What a handler wants to see and where it sorts in the chain.

    ``message_types`` / ``directions`` of None match everything. Lower
    priority runs earlier; ties break by registration order.
    """

    handler_id: str
    priority: int = 100
    message_types: frozenset[int] | None = None
    directions: frozenset[Direction] | None = None

    def matches(self, type_tag: int, direction: Direction) -> bool:
        if self.message_types is not None and type_tag not in self.message_types:
            return False
        if self.directions is not None and direction not in self.directions:
            return False
        return True


@dataclass(frozen=True, slots=True)
class DispatchOutcome:
    delivered: bool
    message: Message | None
    dropped_by: str | None = None


# -- stack command and convergence adapter ------------------------------------------


@dataclass(frozen=True)
class SetLinkAddress:
    address: bytes


class RawEthernetAdapter:
    """Simple framing: 6-byte source link address, then the message bytes."""

    def __init__(self, link_address: bytes = b"\x02\x00\x00\x00\x00\x00") -> None:
        self.link_address = link_address

    def encode_frame(self, message: Message) -> bytes:
        return self.link_address + message.to_bytes()

    def execute(self, command: SetLinkAddress) -> None:
        if len(command.address) != 6:
            raise ValueError("link address must be 6 bytes")
        self.link_address = command.address


# -- the hook stack -----------------------------------------------------------------


class _Chain:
    """Handlers at one ILP, kept in dispatch order."""

    __slots__ = ("entries", "_seq")

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, HandlerRegistration, Handler]] = []
        self._seq = 0

    def add(self, registration: HandlerRegistration, handler: Handler) -> None:
        if any(reg.handler_id == registration.handler_id for _, _, reg, _ in self.entries):
            raise DuplicateHandlerError(registration.handler_id)
        self.entries.append((registration.priority, self._seq, registration, handler))
        self.entries.sort(key=lambda e: (e[0], e[1]))
        self._seq += 1

    def matching(self, type_tag: int, direction: Direction) -> list[tuple[str, Handler]]:
        return [(reg.handler_id, fn) for _, _, reg, fn in self.entries
                if reg.matches(type_tag, direction)]


class HookStack:
    """Fixed interception points with priority-ordered handler chains."""

    def __init__(self, adapter: RawEthernetAdapter | None = None) -> None:
        self._chains: dict[IlpPosition, _Chain] = {p: _Chain() for p in IlpPosition}
        self.adapter = adapter

    # registration

    def register_handler(self, position: IlpPosition,
                         registration: HandlerRegistration, handler: Handler) -> None:
        self._chains[position].add(registration, handler)

    # dispatch

    def dispatch(self, position: IlpPosition, message: Message,
                 direction: Direction) -> DispatchOutcome:
        """Run one message through one point's chain.

        The chain is selected from the message's tag and direction when a
        pass starts. Pass verdicts continue with the next handler of that
        chain; a reinsert restarts the chain (re-matching the possibly
        replaced message), at most ``MAX_REINSERTS`` times before the message
        is dropped instead of looping.
        """
        current = message
        reinserts = 0
        while True:
            chain = self._chains[position].matching(current.type_tag, direction)
            restart = False
            for handler_id, fn in chain:
                try:
                    disp = fn(current, direction)
                except Exception:
                    logger.exception("handler %s failed; dropping message", handler_id)
                    return DispatchOutcome(delivered=False, message=None, dropped_by=handler_id)
                verdict = disp.verdict
                if verdict is Verdict.PASS_UNCHANGED:
                    continue
                if verdict is Verdict.PASS_MODIFIED:
                    if disp.message is None:
                        logger.error("handler %s modified without a message; dropping", handler_id)
                        return DispatchOutcome(delivered=False, message=None, dropped_by=handler_id)
                    current = disp.message
                    continue
                if verdict is Verdict.DROP:
                    return DispatchOutcome(delivered=False, message=None, dropped_by=handler_id)
                # reinsert
                reinserts += 1
                if reinserts > MAX_REINSERTS:
                    logger.error("reinsert budget exhausted at %s; dropping", position.name)
                    return DispatchOutcome(delivered=False, message=None, dropped_by=handler_id)
                if disp.message is not None:
                    current = disp.message
                restart = True
                break
            if not restart:
                return DispatchOutcome(delivered=True, message=current)

    def traverse(self, message: Message, direction: Direction) -> DispatchOutcome:
        """Send one message through every point in stack order."""
        order = UP_ORDER if direction is Direction.UP else DOWN_ORDER
        current = message
        for position in order:
            outcome = self.dispatch(position, current, direction)
            if not outcome.delivered:
                return outcome
            current = outcome.message
        return DispatchOutcome(delivered=True, message=current)

    # link layer

    def command(self, cmd: SetLinkAddress) -> None:
        """Execute a stack command through the convergence adapter."""
        if self.adapter is None:
            raise HookError("no convergence adapter bound")
        self.adapter.execute(cmd)

    def transmit(self, message: Message) -> bytes | None:
        """Full downward traversal, then frame encoding. None if dropped."""
        if self.adapter is None:
            raise HookError("no convergence adapter bound")
        outcome = self.traverse(message, Direction.DOWN)
        if not outcome.delivered:
            return None
        return self.adapter.encode_frame(outcome.message)

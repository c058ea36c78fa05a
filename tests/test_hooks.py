"""Interception-point dispatch semantics and the convergence adapter."""

from __future__ import annotations

import logging
from random import Random

import pytest

from v2xsec.hooks import (
    DOWN_ORDER,
    MAX_REINSERTS,
    UP_ORDER,
    Direction,
    Disposition,
    DuplicateHandlerError,
    HandlerRegistration,
    HookError,
    HookStack,
    IlpPosition,
    Message,
    RawEthernetAdapter,
    SetLinkAddress,
    Verdict,
)

from .oracles import DROPPED, dispatch_reference


def _msg(tag=1, body=b"payload"):
    return Message(type_tag=tag, body=body)


# -- transparency -----------------------------------------------------------------


@pytest.mark.parametrize("position", list(IlpPosition))
@pytest.mark.parametrize("direction", list(Direction))
def test_empty_chain_is_identity(position, direction):
    stack = HookStack()
    message = _msg(tag=0x1234, body=b"\x00\xff untouched body \x80")
    outcome = stack.dispatch(position, message, direction)
    assert outcome.delivered
    assert outcome.message is message
    assert outcome.message.to_bytes() == message.to_bytes()


@pytest.mark.parametrize("direction", list(Direction))
def test_empty_traverse_is_identity(direction):
    stack = HookStack()
    message = _msg(body=bytes(range(64)))
    outcome = stack.traverse(message, direction)
    assert outcome.delivered and outcome.message.to_bytes() == message.to_bytes()


def test_message_wire_roundtrip():
    # big-endian 16-bit type tag, then the body as it is
    assert _msg(tag=0xBEEF, body=b"\x01\x02\x03").to_bytes() == b"\xbe\xef\x01\x02\x03"
    assert _msg(tag=7, body=b"").to_bytes() == b"\x00\x07"


# -- verdict semantics -------------------------------------------------------------


def test_drop_dominates_later_handlers():
    stack = HookStack()
    ran = []
    stack.register_handler(
        IlpPosition.ABOVE_NETWORK,
        HandlerRegistration("dropper", priority=10),
        lambda m, d: Disposition.drop(),
    )
    stack.register_handler(
        IlpPosition.ABOVE_NETWORK,
        HandlerRegistration("later", priority=20),
        lambda m, d: ran.append(m) or Disposition.ok(),
    )
    outcome = stack.dispatch(IlpPosition.ABOVE_NETWORK, _msg(), Direction.UP)
    assert not outcome.delivered
    assert outcome.message is None
    assert outcome.dropped_by == "dropper"
    assert ran == []


def test_priority_then_registration_order():
    stack = HookStack()
    order = []

    def tick(name):
        return lambda m, d: order.append(name) or Disposition.ok()

    stack.register_handler(IlpPosition.ABOVE_MAC, HandlerRegistration("b", priority=50), tick("b"))
    stack.register_handler(IlpPosition.ABOVE_MAC, HandlerRegistration("a", priority=10), tick("a"))
    stack.register_handler(IlpPosition.ABOVE_MAC, HandlerRegistration("c", priority=50), tick("c"))
    stack.register_handler(IlpPosition.ABOVE_MAC, HandlerRegistration("d", priority=50), tick("d"))
    stack.register_handler(IlpPosition.ABOVE_MAC, HandlerRegistration("e", priority=10), tick("e"))
    stack.dispatch(IlpPosition.ABOVE_MAC, _msg(), Direction.UP)
    assert order == ["a", "e", "b", "c", "d"]  # priority first, insertion order on ties


def test_modified_message_continues_down_the_chain():
    stack = HookStack()
    seen = []
    stack.register_handler(
        IlpPosition.BELOW_APPLICATION,
        HandlerRegistration("tagger", priority=1),
        lambda m, d: Disposition.modified(Message(m.type_tag, m.body + b"!")),
    )
    stack.register_handler(
        IlpPosition.BELOW_APPLICATION,
        HandlerRegistration("witness", priority=2),
        lambda m, d: seen.append(m.body) or Disposition.ok(),
    )
    outcome = stack.dispatch(IlpPosition.BELOW_APPLICATION, _msg(body=b"x"), Direction.UP)
    assert outcome.delivered and outcome.message.body == b"x!"
    assert seen == [b"x!"]


def test_reinsert_restarts_chain_and_rematches():
    stack = HookStack()
    log = []
    # only sees tag 7; rewrites to tag 8 and reinserts
    stack.register_handler(
        IlpPosition.BELOW_NETWORK,
        HandlerRegistration("rewriter", priority=1, message_types=frozenset({7})),
        lambda m, d: log.append("rewrite") or Disposition.reinsert(Message(8, m.body)),
    )
    # only sees tag 8, so it must run on the restarted pass
    stack.register_handler(
        IlpPosition.BELOW_NETWORK,
        HandlerRegistration("for-eight", priority=0, message_types=frozenset({8})),
        lambda m, d: log.append("eight") or Disposition.ok(),
    )
    outcome = stack.dispatch(IlpPosition.BELOW_NETWORK, _msg(tag=7), Direction.UP)
    assert outcome.delivered and outcome.message.type_tag == 8
    assert log == ["rewrite", "eight"]


def test_reinsert_budget_drops_loops():
    stack = HookStack()
    calls = []
    stack.register_handler(
        IlpPosition.ABOVE_MAC,
        HandlerRegistration("looper"),
        lambda m, d: calls.append(1) or Disposition.reinsert(),
    )
    outcome = stack.dispatch(IlpPosition.ABOVE_MAC, _msg(), Direction.UP)
    assert not outcome.delivered and outcome.dropped_by == "looper"
    assert len(calls) == MAX_REINSERTS + 1  # the final attempt trips the budget


def test_raising_handler_fails_closed():
    stack = HookStack()

    def boom(m, d):
        raise RuntimeError("handler bug")

    stack.register_handler(IlpPosition.ABOVE_MAC, HandlerRegistration("boom"), boom)
    outcome = stack.dispatch(IlpPosition.ABOVE_MAC, _msg(), Direction.UP)
    assert not outcome.delivered and outcome.dropped_by == "boom"


def test_modified_without_message_fails_closed():
    stack = HookStack()
    stack.register_handler(
        IlpPosition.ABOVE_MAC,
        HandlerRegistration("bad"),
        lambda m, d: Disposition(Verdict.PASS_MODIFIED, None),
    )
    outcome = stack.dispatch(IlpPosition.ABOVE_MAC, _msg(), Direction.UP)
    assert not outcome.delivered


def test_duplicate_handler_id_rejected():
    stack = HookStack()
    stack.register_handler(IlpPosition.ABOVE_MAC, HandlerRegistration("x"),
                           lambda m, d: Disposition.ok())
    with pytest.raises(DuplicateHandlerError):
        stack.register_handler(IlpPosition.ABOVE_MAC, HandlerRegistration("x"),
                               lambda m, d: Disposition.ok())
    # same id at a different point is a different chain
    stack.register_handler(IlpPosition.ABOVE_NETWORK, HandlerRegistration("x"),
                           lambda m, d: Disposition.ok())


def test_type_and_direction_filters():
    stack = HookStack()
    hits = []
    stack.register_handler(
        IlpPosition.ABOVE_NETWORK,
        HandlerRegistration("up-only-tag-3", message_types=frozenset({3}),
                            directions=frozenset({Direction.UP})),
        lambda m, d: hits.append((m.type_tag, d)) or Disposition.drop(),
    )
    assert stack.dispatch(IlpPosition.ABOVE_NETWORK, _msg(tag=3), Direction.DOWN).delivered
    assert stack.dispatch(IlpPosition.ABOVE_NETWORK, _msg(tag=4), Direction.UP).delivered
    assert not stack.dispatch(IlpPosition.ABOVE_NETWORK, _msg(tag=3), Direction.UP).delivered
    assert hits == [(3, Direction.UP)]

    # traverse and transmit pass every point in stack order; going DOWN the
    # UP-only handler never runs and the bytes are untouched
    stack.adapter = RawEthernetAdapter()
    visited = []
    dispatch = stack.dispatch
    stack.dispatch = lambda position, m, d: visited.append((position, d)) or dispatch(position, m, d)
    message = _msg(tag=3, body=b"\x00\xff going down \x80")
    outcome = stack.traverse(message, Direction.DOWN)
    assert outcome.delivered and outcome.message.to_bytes() == message.to_bytes()
    frame = stack.transmit(message)
    assert frame == RawEthernetAdapter().link_address + message.to_bytes()
    assert visited == [(p, Direction.DOWN) for p in DOWN_ORDER] * 2
    assert hits == [(3, Direction.UP)]
    # going UP the same point runs its handler, which stops the traversal
    visited.clear()
    assert not stack.traverse(message, Direction.UP).delivered
    assert visited == [(p, Direction.UP) for p in UP_ORDER[:IlpPosition.ABOVE_NETWORK + 1]]
    assert hits == [(3, Direction.UP), (3, Direction.UP)]

    # a handler registered with directions=None runs in both directions
    seen = []
    stack.register_handler(IlpPosition.BELOW_NETWORK, HandlerRegistration("any-direction"),
                           lambda m, d: seen.append(d) or Disposition.ok())
    visited.clear()
    assert stack.transmit(message) == frame
    assert stack.traverse(_msg(tag=4), Direction.UP).delivered
    assert seen == [Direction.DOWN, Direction.UP]
    assert visited == ([(p, Direction.DOWN) for p in DOWN_ORDER]
                       + [(p, Direction.UP) for p in UP_ORDER])


# -- traversal order ----------------------------------------------------------------


def test_traverse_visits_points_in_stack_order():
    visits = []

    def witness(position):
        return lambda m, d: visits.append(position) or Disposition.ok()

    stack = HookStack()
    for position in IlpPosition:
        stack.register_handler(position, HandlerRegistration(f"w{position}"), witness(position))

    stack.traverse(_msg(), Direction.UP)
    assert visits == list(UP_ORDER)
    visits.clear()
    stack.traverse(_msg(), Direction.DOWN)
    assert visits == list(DOWN_ORDER)


def test_traverse_stops_at_first_drop():
    stack = HookStack()
    reached = []
    stack.register_handler(IlpPosition.BELOW_NETWORK, HandlerRegistration("gate"),
                           lambda m, d: Disposition.drop())
    stack.register_handler(IlpPosition.ABOVE_NETWORK, HandlerRegistration("never"),
                           lambda m, d: reached.append(1) or Disposition.ok())
    outcome = stack.traverse(_msg(), Direction.UP)
    assert not outcome.delivered and outcome.dropped_by == "gate"
    assert reached == []


# -- randomized equivalence against the straight-line reference ------------------------


def _random_handler(rng):
    """One randomized handler as both a stack callable and an oracle tuple."""
    priority = rng.randrange(0, 5)
    tag_filter = None if rng.random() < 0.5 else frozenset(rng.sample(range(4), k=rng.randint(1, 3)))
    dir_filter = None if rng.random() < 0.7 else frozenset({rng.choice(list(Direction))})
    action = rng.choices(["pass", "modified", "drop", "reinsert"],
                         weights=[5, 3, 2, 1])[0]
    suffix = bytes([rng.randrange(256)])
    new_tag = rng.randrange(4)

    def behave(message):
        if action == "modified":
            return "modified", Message(message.type_tag, message.body + suffix)
        if action == "reinsert":
            return "reinsert", Message(new_tag, message.body + suffix)
        return action, None

    def stack_fn(message, direction):
        verdict, replacement = behave(message)
        if verdict == "pass":
            return Disposition.ok()
        if verdict == "modified":
            return Disposition.modified(replacement)
        if verdict == "drop":
            return Disposition.drop()
        return Disposition.reinsert(replacement)

    def matcher(message, direction):
        if tag_filter is not None and message.type_tag not in tag_filter:
            return False
        if dir_filter is not None and direction not in dir_filter:
            return False
        return True

    def oracle_fn(message, direction):
        return behave(message)

    registration = HandlerRegistration(
        handler_id="", priority=priority, message_types=tag_filter, directions=dir_filter)
    return registration, stack_fn, matcher, oracle_fn


def test_dispatch_matches_reference_on_random_chains(caplog):
    # random chains hit the reinsert budget thousands of times by design;
    # keep the expected exhaustion errors out of the captured log
    caplog.set_level(logging.CRITICAL, logger="v2xsec.hooks")
    rng = Random(0xD15BA7C4)
    cases = 0
    for trial in range(250):
        stack = HookStack()
        oracle_handlers = []
        for seq in range(rng.randint(0, 6)):
            registration, stack_fn, matcher, oracle_fn = _random_handler(rng)
            registration = HandlerRegistration(
                handler_id=f"h{seq}", priority=registration.priority,
                message_types=registration.message_types, directions=registration.directions)
            stack.register_handler(IlpPosition.ABOVE_NETWORK, registration, stack_fn)
            oracle_handlers.append((registration.priority, seq, matcher, oracle_fn))
        for _ in range(5):
            message = Message(rng.randrange(4), bytes(rng.randrange(256) for _ in range(4)))
            direction = rng.choice(list(Direction))
            expected = dispatch_reference(oracle_handlers, message, direction,
                                          max_reinserts=MAX_REINSERTS)
            outcome = stack.dispatch(IlpPosition.ABOVE_NETWORK, message, direction)
            if expected is DROPPED:
                assert not outcome.delivered, (trial, message, direction)
            else:
                assert outcome.delivered, (trial, message, direction)
                assert outcome.message.to_bytes() == expected.to_bytes()
            cases += 1
    assert cases >= 1000


# -- convergence adapter --------------------------------------------------------------


def test_set_link_address_through_stack():
    adapter = RawEthernetAdapter()
    stack = HookStack(adapter)
    stack.command(SetLinkAddress(b"\x02\xaa\xbb\xcc\xdd\xee"))
    assert adapter.link_address == b"\x02\xaa\xbb\xcc\xdd\xee"
    frame = stack.transmit(_msg(body=b"hi"))
    assert frame.startswith(b"\x02\xaa\xbb\xcc\xdd\xee")


def test_command_needs_an_adapter():
    with pytest.raises(HookError):
        HookStack().command(SetLinkAddress(b"\x02\x00\x00\x00\x00\x09"))


def test_transmit_and_receive_through_adapter():
    adapter = RawEthernetAdapter()
    stack = HookStack(adapter)
    dropped = HookStack(RawEthernetAdapter())
    dropped.register_handler(IlpPosition.BELOW_NETWORK, HandlerRegistration("deny"),
                             lambda m, d: Disposition.drop())

    message = _msg(tag=9, body=b"over the air")
    assert stack.transmit(message) == adapter.link_address + message.to_bytes()
    assert dropped.transmit(message) is None

    with pytest.raises(HookError):
        HookStack().transmit(message)

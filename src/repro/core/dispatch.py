"""Message dispatch: the extension point for replica message handlers.

The replica's :meth:`~repro.core.replica.Replica.deliver` entry point used to
be a hard-coded ``if isinstance(...)`` chain, which meant a new message kind
(such as the sync subsystem's ``BlockRequest`` / ``BlockResponse``) required
editing the replica itself.  Dispatch is now a :class:`~repro.plugins.Registry`
keyed by the message *class name*: each entry pairs a handler with a CPU-cost
function, and the replica charges the cost to its FIFO CPU server before
invoking the handler — exactly the treatment the four built-in message kinds
receive.

Registering a handler for a new message type::

    @register_message_handler("HeartbeatMessage")
    def _handle_heartbeat(replica, message):
        replica.note_heartbeat(message)

Handlers receive ``(replica, message)`` and must look up replica behaviour
through the instance (``replica._process_proposal(...)``), so Byzantine
subclasses and :func:`~repro.core.byzantine.convert_replica` keep working: the
method resolution happens on the live object, not at registration time.

A kind's CPU charge lives where its handler is registered: the ``cost``
callable ``(replica, message) -> seconds`` given to
:func:`register_message_handler` (a kind registered without one is charged
the cost model's flat ``loopback_time``).  Every charge is read through
``replica.cost_model``, so the deployment's all-zero ``measured`` profile
charges nothing (a deployed replica's CPU is the host's, which runs the
handler at once).  Messages with no
registered handler are silently ignored, preserving the old behaviour for
e.g. ``ClientReply`` copies that reach a replica.  :data:`HANDLERS` caches
the lookup per message class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.plugins import Registry
from repro.types.messages import Message

#: Handler signature: (replica, message) -> None.
HandlerFn = Callable[["Replica", Message], None]  # noqa: F821 - documented type
#: Cost signature: (replica, message) -> CPU seconds to charge before handling.
CostFn = Callable[["Replica", Message], float]  # noqa: F821


def _flat_cost(replica, message: Message) -> float:
    return replica.cost_model.loopback_time


@dataclass(frozen=True)
class MessageHandler:
    """A registered handler plus the CPU cost charged before it runs."""

    handle: HandlerFn
    cost: CostFn


#: The message-handler extension point, keyed by message class name.
MESSAGE_HANDLERS: Registry[MessageHandler] = Registry("message handler")


def register_message_handler(
    message_type: str,
    *aliases: str,
    cost: CostFn = _flat_cost,
    override: bool = False,
) -> Callable[[HandlerFn], HandlerFn]:
    """Decorator registering a handler for messages of class ``message_type``.

    ``message_type`` is the message class's ``__name__`` (dispatch never
    imports the class, so plugin message types need no central declaration).
    """

    def decorator(fn: HandlerFn) -> HandlerFn:
        MESSAGE_HANDLERS.add(message_type, MessageHandler(handle=fn, cost=cost), *aliases,
                             override=override)
        return fn

    return decorator


def available_message_handlers() -> List[str]:
    """Canonical message type names with a registered handler."""
    # The sync and checkpoint handlers register at import time of their
    # packages; make sure a bare listing (e.g. api.available()) sees them
    # without requiring the caller to have built a replica first.
    import repro.checkpoint  # noqa: F401  (registers SnapshotResponse)
    import repro.sync  # noqa: F401  (registers BlockRequest/BlockResponse)

    return MESSAGE_HANDLERS.available()


class HandlerCache(dict):
    """Message class -> its registered :class:`MessageHandler` (None: no handler).

    Every delivered message would pay a registry lookup (name normalization
    plus two dict hops) without it.  An entry is resolved on the first
    message of its class; :attr:`version` is the registry version the entries
    were resolved at, so a reader compares it with
    ``MESSAGE_HANDLERS.version`` and calls :meth:`renew` on a mismatch —
    plugin churn in tests invalidates the cache instead of leaking stale
    handlers.  :meth:`repro.core.replica.Replica.deliver` reads it in its own
    frame: charge ``entry.cost(replica, message)`` of CPU, then run
    ``entry.handle(replica, message)``.
    """

    __slots__ = ("version",)

    def __init__(self) -> None:
        super().__init__()
        self.version = -1

    def renew(self) -> None:
        """Forget every resolution (the registry changed since)."""
        self.clear()
        self.version = MESSAGE_HANDLERS.version

    def __missing__(self, cls: type) -> "MessageHandler | None":
        kind = cls.__name__
        entry = MESSAGE_HANDLERS.get(kind) if kind in MESSAGE_HANDLERS else None
        self[cls] = entry
        return entry


#: The one resolution cache, shared by every replica.
HANDLERS = HandlerCache()


# ----------------------------------------------------------------------
# built-in handlers: the four message kinds of the consensus round, each
# charged its validation cost (signature and per-transaction verification
# through the replica's cost model) unless it is the replica's own copy
# ----------------------------------------------------------------------
def _client_request_cost(replica, message: Message) -> float:
    costs = replica.cost_model
    return costs.loopback_time if message.sender == replica.node_id else costs.client_request_time


def _proposal_cost(replica, message: Message) -> float:
    if message.sender == replica.node_id:
        return replica.cost_model.loopback_time
    return replica.cost_model.proposal_verify_cost(message.block.num_transactions)


def _vote_cost(replica, message: Message) -> float:
    if message.sender == replica.node_id:
        return replica.cost_model.loopback_time
    return replica.cost_model.vote_verify_cost()


def _timeout_cost(replica, message: Message) -> float:
    if message.sender == replica.node_id:
        return replica.cost_model.loopback_time
    return replica.cost_model.timeout_verify_cost()


@register_message_handler("ClientRequest", cost=_client_request_cost)
def _handle_client_request(replica, message: Message) -> None:
    replica._process_client_request(message)


@register_message_handler("ProposalMessage", cost=_proposal_cost)
def _handle_proposal(replica, message: Message) -> None:
    replica._process_proposal(message)


@register_message_handler("VoteMessage", cost=_vote_cost)
def _handle_vote(replica, message: Message) -> None:
    replica._process_vote(message)


@register_message_handler("TimeoutMessage", cost=_timeout_cost)
def _handle_timeout(replica, message: Message) -> None:
    replica._process_timeout(message)

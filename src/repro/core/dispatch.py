"""Message dispatch: the extension point for replica message handlers.

Dispatch is a :class:`~repro.plugins.Registry` keyed by the message *class
name*, so a new message kind (such as the sync subsystem's ``BlockRequest``
/ ``BlockResponse``) needs no edit to the replica: each entry pairs a handler
with a CPU-cost function, and the replica charges the cost to its FIFO CPU
server before invoking the handler — exactly the treatment the four
built-in message kinds receive.

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
handler at once).  :meth:`~repro.core.replica.Replica.deliver` looks the
message's class name up in ``MESSAGE_HANDLERS.entries`` on every delivery,
so a handler registered mid-run serves the next message; messages with no
registered handler (e.g. ``ClientReply`` copies that reach a replica) are
ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    message_type: str, *, cost: CostFn = _flat_cost
) -> Callable[[HandlerFn], HandlerFn]:
    """Decorator registering a handler for messages of class ``message_type``.

    ``message_type`` is the message class's ``__name__`` (dispatch never
    imports the class, so plugin message types need no central declaration).
    """

    def decorator(fn: HandlerFn) -> HandlerFn:
        MESSAGE_HANDLERS.add(message_type, MessageHandler(handle=fn, cost=cost))
        return fn

    return decorator


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

"""Message types and the paper's byte-size accounting (§4.1).

The paper models message sizes exactly as::

    query message  = 20 + 4 + n * (2*2*k + 8 + 1)   bytes
    result message = 20 + 6 * entries               bytes

where 20 bytes are the packet header, 4 the source IP, ``n`` the number of
subqueries bundled in the message, ``k`` the number of landmarks (each
subquery ships its k-dimensional rectangle as 2k coordinates of 2 bytes
each), 8 bytes the prefix key and 1 byte the prefix length.

Bundling matters: Algorithm 3 can produce several subqueries sharing a next
hop; the routing layer groups them into a single message, which is what the
``n x`` term models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from collections.abc import Sequence
from typing import Any, TypeVar

__all__ = [
    "query_message_size",
    "result_message_size",
    "register_message",
    "message_schema",
    "QueryMessage",
    "ResultMessage",
    "ResultEntry",
]

_T = TypeVar("_T")

#: trace schema: message class name -> tuple of its dataclass field names.
#: Trace consumers (replay diffing, dashboards) treat this as the
#: exhaustive catalogue of what can appear on the wire; the CON302 lint
#: rule enforces that every `*Message` dataclass registers.
_MESSAGE_SCHEMA: dict[str, tuple[str, ...]] = {}


def register_message(cls: type[_T]) -> type[_T]:
    """Class decorator adding a message dataclass to the trace schema."""
    if not is_dataclass(cls):
        raise TypeError(f"{cls.__name__} must be a dataclass to register")
    _MESSAGE_SCHEMA[cls.__name__] = tuple(f.name for f in fields(cls))
    return cls


def message_schema() -> dict[str, tuple[str, ...]]:
    """Snapshot of the registered message trace schema (name -> fields)."""
    return dict(_MESSAGE_SCHEMA)


PACKET_HEADER_BYTES = 20
SOURCE_IP_BYTES = 4
COORD_BYTES = 2
PREFIX_KEY_BYTES = 8
PREFIX_LEN_BYTES = 1
RESULT_ENTRY_BYTES = 6


def query_message_size(n_subqueries: int, k: int) -> int:
    """Paper's query-message size model: ``20 + 4 + n (4k + 9)`` bytes."""
    per_subquery = 2 * COORD_BYTES * k + PREFIX_KEY_BYTES + PREFIX_LEN_BYTES
    return PACKET_HEADER_BYTES + SOURCE_IP_BYTES + n_subqueries * per_subquery


def result_message_size(n_entries: int) -> int:
    """Paper's result-message size model: ``20 + 6 * entries`` bytes."""
    return PACKET_HEADER_BYTES + RESULT_ENTRY_BYTES * n_entries


@dataclass(slots=True)
class ResultEntry:
    """One index entry returned to the querier: object id + its distance."""

    object_id: int
    distance: float


@register_message
@dataclass(slots=True)
class QueryMessage:
    """A bundle of subqueries of one original query travelling one DHT link.

    ``kind`` distinguishes the remote procedure being invoked at the
    destination: ``"routing"`` (Algorithm 3) or ``"refine"`` (Algorithm 5 on
    the surrogate/successor).  ``hops`` counts overlay hops travelled so far
    — the paper's *hops* metric is the maximum over all delivery paths.
    """

    qid: int
    subqueries: Sequence[Any]
    kind: str
    hops: int
    k: int

    @property
    def size(self) -> int:
        return query_message_size(len(self.subqueries), self.k)


@register_message
@dataclass(slots=True)
class ResultMessage:
    """Results flowing from an index node back to the querying node."""

    qid: int
    entries: list[ResultEntry] = field(default_factory=list)
    from_node: Any = None

    @property
    def size(self) -> int:
        return result_message_size(len(self.entries))

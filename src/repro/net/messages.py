"""Typed control messages shared by CARD and the baseline protocols.

The paper's overhead metric is "number of control messages", broken down by
purpose (contact selection, backtracking, maintenance, querying).  Giving
each message a type lets :class:`repro.net.stats.MessageStats` attribute
every hop-transmission to the right bucket automatically.

Messages are lightweight dataclasses.  They carry exactly the fields the
paper specifies:

* **CSQ** (§III.C.1-2): source id, hop count ``d``, the Contact_List, and —
  for the Edge Method — the Edge_List, plus a query id to suppress loops.
* **Validation** (§III.C.3): the stored source route being revalidated.
* **DSQ** (§III.C.4): target resource id and depth-of-search ``D``.
* **FloodQuery** / **BordercastQuery**: the baselines' query state.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "MessageKind",
    "Message",
    "ContactSelectionQuery",
    "ValidationMessage",
    "DestinationSearchQuery",
    "QueryReply",
    "FloodQuery",
    "BordercastQuery",
    "next_query_id",
    "HEADER_BYTES",
    "PER_ENTRY_BYTES",
]

#: Nominal fixed header of every control message (type + ids + counters),
#: loosely an IP+UDP-free NS-2-style compact header.  Only relative sizes
#: matter: byte overheads scale list-carrying messages against fixed ones.
HEADER_BYTES = 20
#: Wire cost of each node id carried in a list field.
PER_ENTRY_BYTES = 4

_query_counter = itertools.count(1)


def next_query_id() -> int:
    """Globally unique query identifier (process-wide monotone counter)."""
    return next(_query_counter)


class MessageKind(enum.Enum):
    """Accounting category of a control message."""

    #: CSQ forward progress during contact selection
    CONTACT_SELECTION = "selection"
    #: CSQ hops spent backtracking (counted separately; Figs 4, 12)
    BACKTRACK = "backtrack"
    #: periodic contact path validation (maintenance)
    VALIDATION = "validation"
    #: DSQ hops during CARD querying
    QUERY = "query"
    #: flooding baseline broadcast transmissions
    FLOOD = "flood"
    #: bordercast baseline transmissions
    BORDERCAST = "bordercast"
    #: reply traffic (path returns); excluded from the paper's counts
    REPLY = "reply"


@dataclass
class Message:
    """Base class: every message knows its accounting category and size."""

    kind: MessageKind = field(init=False, default=MessageKind.QUERY)

    def wire_size(self) -> int:
        """Nominal on-wire size in bytes (header + list payloads).

        Used by the ``des`` regime's byte and byte-second overhead
        accounting; fixed-field messages cost :data:`HEADER_BYTES`,
        list-carrying subclasses add :data:`PER_ENTRY_BYTES` per entry.
        """
        return HEADER_BYTES


@dataclass
class ContactSelectionQuery(Message):
    """The CSQ of §III.C.1.

    Attributes
    ----------
    source:
        The node selecting a contact.
    query_id:
        Unique id, used with ``source`` to prevent loops (§III.C.2b).
    hop_count:
        Distance ``d`` travelled so far (incremented per forward hop).
    contact_list:
        IDs of the source's already-chosen contacts ("typically small ~5").
    edge_list:
        The source's edge nodes; present only under the Edge Method.
    """

    source: int = 0
    query_id: int = 0
    hop_count: int = 0
    contact_list: Tuple[int, ...] = ()
    edge_list: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        self.kind = MessageKind.CONTACT_SELECTION

    def wire_size(self) -> int:
        n = len(self.contact_list) + len(self.edge_list or ())
        return HEADER_BYTES + PER_ENTRY_BYTES * n


@dataclass
class ValidationMessage(Message):
    """Periodic contact-path validation (§III.C.3).

    Carries the full source route; intermediate nodes repair it in place via
    local recovery and forward a copy with the updated suffix.
    """

    source: int = 0
    contact: int = 0
    source_path: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kind = MessageKind.VALIDATION

    def wire_size(self) -> int:
        return HEADER_BYTES + PER_ENTRY_BYTES * len(self.source_path)


@dataclass
class DestinationSearchQuery(Message):
    """The DSQ of §III.C.4: find target ``T`` through up to ``D`` contact levels."""

    source: int = 0
    target: int = 0
    depth: int = 1
    query_id: int = 0

    def __post_init__(self) -> None:
        self.kind = MessageKind.QUERY
        if self.depth < 1:
            raise ValueError("DSQ depth must be >= 1")


@dataclass
class QueryReply(Message):
    """The answer path returned to a DSQ source (§III.C.4).

    Carries the discovered source → target route back along the reverse of
    the route the query travelled.  In the event-driven regime the reply is
    itself subject to loss and churn — a link that broke *after* the query
    passed can still kill the answer, which is exactly the staleness race
    the ``des`` metrics measure.
    """

    source: int = 0
    target: int = 0
    query_id: int = 0
    path: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kind = MessageKind.REPLY

    def wire_size(self) -> int:
        return HEADER_BYTES + PER_ENTRY_BYTES * len(self.path)


@dataclass
class FloodQuery(Message):
    """Network-wide flood looking for ``target`` (baseline)."""

    source: int = 0
    target: int = 0
    query_id: int = 0
    ttl: Optional[int] = None  # None = unbounded flood; set for expanding ring

    def __post_init__(self) -> None:
        self.kind = MessageKind.FLOOD


@dataclass
class BordercastQuery(Message):
    """ZRP-style bordercast query (baseline; Pearlman & Haas [8])."""

    source: int = 0
    target: int = 0
    query_id: int = 0

    def __post_init__(self) -> None:
        self.kind = MessageKind.BORDERCAST

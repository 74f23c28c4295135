"""Per-node CARD state: the contact table.

Each source node stores, per contact (§III.C.1 step 6): the contact's id and
the full source route discovered by the CSQ.  Maintenance rewrites the route
in place (local recovery) and drops entries; selection appends them.  The
table also records *when* each contact was selected, which the stability
analysis of Fig 13 uses (age of surviving contacts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

__all__ = ["Contact", "ContactTable"]


@dataclass
class Contact:
    """One contact entry at a source node.

    Attributes
    ----------
    node:
        The contact's node id.
    path:
        Stored source route ``[source, ..., contact]``; always starts at the
        owning source and ends at ``node``.
    selected_at:
        Simulation time of selection (0 for snapshot experiments).
    validations:
        Number of successful validation rounds survived.
    """

    node: int
    path: List[int]
    selected_at: float = 0.0
    validations: int = 0

    def __post_init__(self) -> None:
        if not self.path or self.path[-1] != self.node:
            raise ValueError("contact path must end at the contact node")
        if len(self.path) < 2:
            raise ValueError("a contact cannot be the source itself")

    @property
    def source(self) -> int:
        return self.path[0]

    @property
    def path_hops(self) -> int:
        """Length of the stored route in hops."""
        return len(self.path) - 1


class ContactTable:
    """The set of contacts a source currently maintains.

    Preserves insertion order: ``ids()`` and iteration follow the order
    in which contacts were selected.
    """

    def __init__(self, owner: int) -> None:
        self.owner = int(owner)
        self._contacts: List[Contact] = []
        #: lifetime counters for the stability analysis
        self.total_selected = 0
        self.total_lost = 0
        #: bumped on any mutation (add/remove/route rewrite) so cached
        #: views of the table can revalidate cheaply
        self.version = 0

    # ------------------------------------------------------------------
    def add(self, contact: Contact) -> None:
        if contact.source != self.owner:
            raise ValueError("contact path does not start at the owner")
        if self.has(contact.node):
            raise ValueError(f"node {contact.node} is already a contact")
        self._contacts.append(contact)
        self.total_selected += 1
        self.version += 1

    def remove(self, node: int) -> Contact:
        for i, c in enumerate(self._contacts):
            if c.node == node:
                self.total_lost += 1
                self.version += 1
                return self._contacts.pop(i)
        raise KeyError(node)

    def touch(self) -> None:
        """Signal an in-place mutation of a stored contact (route rewrite)."""
        self.version += 1

    def has(self, node: int) -> bool:
        return any(c.node == node for c in self._contacts)

    def get(self, node: int) -> Optional[Contact]:
        for c in self._contacts:
            if c.node == node:
                return c
        return None

    # ------------------------------------------------------------------
    def ids(self) -> Tuple[int, ...]:
        """Contact ids in selection order — the CSQ's Contact_List."""
        return tuple(c.node for c in self._contacts)

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ContactTable(owner={self.owner}, contacts={list(self.ids())})"

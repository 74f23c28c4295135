"""Contact maintenance: periodic validation, local recovery, replacement.

§III.C.3 of the paper, step by step:

1. Each node periodically sends a validation message to each contact,
   carrying the stored source route.
2. Every node on the route checks whether the next hop is still a directly
   connected neighbor and forwards the message if so.
3. If the next hop is missing, the node attempts **local recovery**: it
   looks the next hop up in its neighborhood routing table; failing that it
   looks up the *subsequent* nodes of the source route (the "some other
   node further down the path might have moved into the neighborhood"
   case).  A found node is reached via the intra-zone route, which is
   spliced into the source path.
4. A path that cannot be salvaged means the contact is **lost**.
5. A validated path whose hop count no longer lies in ``[2R, r]`` also
   means the contact is lost (it stopped being a useful shortcut).
6. After a validation round, missing contacts are re-selected (the caller's
   job — see :class:`repro.core.protocol.CARDProtocol`).

Every hop of the validation walk — including recovery splices — is one
``VALIDATION`` control message; this is the "contact maintenance overhead"
series of Figs 10-13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.params import CARDParams
from repro.core.state import Contact, ContactTable
from repro.net.messages import ValidationMessage
from repro.net.network import Network
from repro.routing.neighborhood import NeighborhoodTables

__all__ = ["ContactMaintainer", "ValidationOutcome"]


@dataclass
class ValidationOutcome:
    """Result of validating a single contact."""

    contact: int
    #: True when the contact survived (path walkable and inside the band)
    ok: bool
    #: "validated" | "lost-broken" | "lost-band"
    reason: str
    #: validation messages transmitted during the walk
    msgs: int
    #: number of local-recovery splices performed
    recoveries: int
    #: the repaired path (only when ok)
    new_path: Optional[List[int]] = None


class ContactMaintainer:
    """Validates and repairs stored contact routes against live connectivity."""

    def __init__(
        self,
        network: Network,
        tables: NeighborhoodTables,
        params: CARDParams,
    ) -> None:
        self.network = network
        self.tables = tables
        self.params = params

    # ------------------------------------------------------------------
    def validate_contact(self, contact: Contact) -> ValidationOutcome:
        """Walk the stored route, repairing it where mobility broke it."""
        p = self.params
        net = self.network
        path = contact.path
        msg = ValidationMessage(
            source=path[0], contact=contact.node, source_path=list(path)
        )
        reason = "validated"
        recoveries = 0
        new_path: List[int] = [path[0]]
        x = path[0]
        k = 1  # index of the next original-route node to reach
        while k < len(path):
            target = path[k]
            if x == target:
                k += 1
                continue
            if net.are_neighbors(x, target):
                new_path.append(target)
                x = target
                k += 1
                continue
            # next hop gone — local recovery (step 3)
            if not p.local_recovery:
                reason = "lost-broken"
                break
            for j in range(k, len(path)):
                route = self.tables.path_within(x, path[j])
                if route is not None and len(route) >= 2:
                    new_path.extend(int(v) for v in route[1:])
                    x = path[j]
                    k = j + 1
                    recoveries += 1
                    break
            else:
                reason = "lost-broken"
                break
        # each hop, lost walks' too, left the node before it on new_path;
        # one flush, as the clock does not move inside a validation
        tx = new_path[:-1]
        net.transmit_path(msg, tx)
        # rule (4)/(5): hop count must still lie within [2R, r]
        lo, hi = p.contact_band
        if reason == "validated" and p.enforce_band_on_validation and not (
            lo <= len(tx) <= hi
        ):
            reason = "lost-band"
        ok = reason == "validated"
        return ValidationOutcome(
            contact.node, ok, reason, len(tx), recoveries,
            new_path=new_path if ok else None,
        )

    # ------------------------------------------------------------------
    def validate_all(self, table: ContactTable) -> List[ValidationOutcome]:
        """Validate every contact of ``table``, dropping the lost ones.

        Surviving contacts get their stored route replaced by the repaired
        one and their ``validations`` counter bumped.  Returns the outcome
        list (callers use it for accounting and to trigger re-selection).
        """
        outcomes: List[ValidationOutcome] = []
        for contact in list(table):
            out = self.validate_contact(contact)
            outcomes.append(out)
            if out.ok and out.new_path is not None:
                contact.path = out.new_path
                contact.validations += 1
                table.touch()
            else:
                table.remove(contact.node)
        return outcomes
